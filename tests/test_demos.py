"""Every demo runs to completion, quietly, against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rssifit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0_with_empty_stderr(demo, tmp_path):
    env = dict(os.environ)
    package_root = str(Path(rssifit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_demos_are_found():
    # an empty glob would parametrize nothing and pass silently
    assert DEMOS
