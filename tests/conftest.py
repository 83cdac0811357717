import os
import subprocess
import sys
from pathlib import Path

import pytest

import rssifit
from rssifit import embedded_dataset


@pytest.fixture(scope="session")
def longwall():
    return embedded_dataset("longwall-face").stats


@pytest.fixture(scope="session")
def gateroad():
    return embedded_dataset("gateroad-conveyor").stats


@pytest.fixture(scope="session")
def fresh_python():
    """``run(args, env=None, **kwargs)``: ``python ARGS`` in a fresh interpreter
    that imports this rssifit, with the changes ``env`` makes to the
    environment (None removes a variable); returns the finished process."""
    package_root = str(Path(rssifit.__file__).resolve().parents[1])

    def run(args, env=None, **kwargs):
        merged = {**os.environ, **(env or {})}
        merged = {k: v for k, v in merged.items() if v is not None}
        merged["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, merged.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, *args],
            env=merged, capture_output=True, text=True, timeout=120, **kwargs,
        )

    return run
