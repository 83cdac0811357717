"""The CLI's output layout, pinned over a fixed matrix of invocations.

Each case runs ``main()`` in-process and records its exit code, stdout,
stderr and every file it wrote. ``tests/cli_golden.json`` holds those
records, values and all: every fit, prediction, interval and plan takes its
logarithms from libm and solves without BLAS or a SIMD kernel, so the same
bytes come out whatever CPU features numpy dispatches to (CI runs this file
a second time with numpy's AVX-512 targets switched off).

The ``simulate`` cases are the exception (:func:`masked`): the simulator's
normal draws still go through numpy's SIMD ``log`` and ``cos``, whose last
bits differ between machines and numpy versions, so in those records every
numeric token is replaced by ``#`` and only the layout (keys, labels,
columns, line order, exit codes, which stream) is pinned.

To re-record after an intended change, run this file as a script with
``src`` on ``PYTHONPATH``; it rewrites ``tests/cli_golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from rssifit import (
    embedded_dataset,
    fit_path_loss,
    fit_sigma_polynomial,
    model_to_json,
    save_stats_csv,
)
from rssifit.cli import main
from rssifit.models import ConstantSigma, ShadowedPathLossModel, SigmaPolynomial

GOLDEN = Path(__file__).with_name("cli_golden.json")

# Run once per output format.
_PER_FORMAT = (
    "fit longwall-face",
    "fit gateroad-conveyor --compare-paper",
    "fit longwall-face --intercept-mode anchored --d0 2",
    "fit {tmp}/stats.csv",
    "fit longwall-face --save-model {tmp}/out/model.json "
    "--emit-curve {tmp}/out/curve.csv",
    "sigma-fit longwall-face",
    "sigma-fit gateroad-conveyor --compare-paper",
    "sigma-fit longwall-face --target residual_y --intercept-mode anchored",
    "sigma-fit {tmp}/stats.csv --target residual_y",
    "sigma-fit gateroad-conveyor --save-model {tmp}/out/model.json "
    "--emit-curve {tmp}/out/curve.csv",
    "predict --model {tmp}/sigma.json --d 10",
    "predict --model {tmp}/sigma.json --d 50",
    "predict --model {tmp}/trend.json --d 10",
    "predict --model {tmp}/resid.json --d 0.5",
    "localize --model {tmp}/sigma.json --rss -73",
    "localize --model {tmp}/sigma.json --rss -90 --level 0.9",
    "localize --model {tmp}/trend.json --rss -73",
    "localize --model {tmp}/resid.json --rss -60",
    "localize --model {tmp}/wide.json --rss -73",
    "plan --model {tmp}/sigma.json --sensitivity -92",
    "plan --model {tmp}/sigma.json --sensitivity -92 --z 1.96",
    "plan --model {tmp}/sigma.json --sensitivity -95 --z 1.28",
    "plan --model {tmp}/trend.json",
    "plan --model {tmp}/resid.json --z 1",
    "simulate --model {tmp}/sigma.json --distances 1:5 --samples 2 --seed 3",
    "simulate --model {tmp}/trend.json --distances 2:4:0.5 --samples 1 "
    "--site mine",
    "simulate --model {tmp}/sigma.json --distances 1,2.5,7 --samples 2 "
    "--out {tmp}/out/survey.csv",
    "datasets list",
)

# Commands without --format, and failures, which write nothing to stdout.
_ONCE = (
    "datasets export longwall-face",
    "datasets export gateroad-conveyor --out {tmp}/out/stats.csv",
    "datasets export mine-car-pathway",
    "datasets export no-such-site",
    "fit {tmp}/missing.csv",
    "fit {tmp}/stats.csv --compare-paper",
    "fit mine-car-pathway",
    "sigma-fit {tmp}/short.csv",
    "sigma-fit longwall-face --save-model {tmp}/no-dir/model.json",
    "localize --model {tmp}/neg.json --rss -60",
    "localize --model {tmp}/sigma.json --rss 1e6",
    "localize --model {tmp}/wide.json --rss -1e6",
    "localize --model {tmp}/sigma.json --rss -60 --level 1.5",
    "predict --model {tmp}/missing.json --d 1",
    "predict --model {tmp}/cut.json --d 1",
    "plan --model {tmp}/trend.json --z 1.96",
    "plan --model {tmp}/sigma.json --sensitivity 0",
    "simulate --model {tmp}/sigma.json --distances 5:1 --samples 1",
    "simulate --model {tmp}/sigma.json --distances 1:3 --samples 0",
    "simulate --model {tmp}/sigma.json --distances 1:3 --samples 1 --seed -1",
    "fit longwall-face --no-such-flag",
    "predict --d 1",
)

CASES = tuple(
    f"{case} --format {fmt}" for case in _PER_FORMAT for fmt in ("text", "json", "csv")
) + _ONCE

# A number not glued to a word: keeps d0, r2 and log10 but masks 1e-05, -0.0.
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def masked(case: str) -> bool:
    """Whether a case's numbers are masked: only ``simulate``'s, whose draws
    take numpy's SIMD ``log`` and ``cos``."""
    return case.startswith("simulate ")


def make_inputs(root: Path) -> None:
    """Write the model documents and stats files the cases read."""
    longwall = embedded_dataset("longwall-face").stats
    gateroad = embedded_dataset("gateroad-conveyor").stats
    trend = fit_path_loss(longwall).model
    sigma = fit_sigma_polynomial(longwall, trend=trend).sigma
    gate_trend = fit_path_loss(gateroad).model
    resid = fit_sigma_polynomial(gateroad, "residual_y", gate_trend).sigma
    models = {
        "trend": trend,
        "sigma": ShadowedPathLossModel(trend.d0, trend.rss_d0, trend.eta, sigma),
        "resid": ShadowedPathLossModel(
            gate_trend.d0, gate_trend.rss_d0, gate_trend.eta, resid
        ),
        "wide": ShadowedPathLossModel(1.0, -40.0, 2.0, ConstantSigma(300.0)),
        "neg": ShadowedPathLossModel(
            1.0, -40.0, 2.0, SigmaPolynomial(0, 0, 0, 0, -1.0, 1.0, 100.0)
        ),
    }
    for name, model in models.items():
        (root / f"{name}.json").write_bytes(model_to_json(model))
    whole = model_to_json(models["wide"])
    (root / "cut.json").write_bytes(whole[: len(whole) // 2])
    (root / "stats.csv").write_bytes(save_stats_csv(gateroad))
    short = "distance_m,mean_dbm,sd_db,prr_pct,n\n" + "".join(
        f"{d},-60,2,,20\n" for d in (1, 2, 3, 4)
    )
    (root / "short.csv").write_text(short)
    (root / "out").mkdir()


def run_case(root: Path, case: str) -> dict:
    """Run one case; return its exit code, streams and written files."""
    argv = case.replace("{tmp}", str(root)).split()
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    files = {}
    for path in sorted((root / "out").iterdir()):
        files[path.name] = path.read_text()
        path.unlink()

    def lines(text: str) -> list[str]:
        text = text.replace(str(root), "{tmp}")
        return (_NUMBER.sub("#", text) if masked(case) else text).split("\n")

    return {
        "exit": code,
        "stdout": lines(out.getvalue()),
        "stderr": lines(err.getvalue()),
        "files": {name: lines(text) for name, text in files.items()},
    }


def record(root: Path) -> dict:
    make_inputs(root)
    return {case: run_case(root, case) for case in CASES}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make_inputs(root)
    return root


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_exactly_the_cases(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_layout_matches_the_recorded_matrix(inputs, golden, case):
    assert run_case(inputs, case) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    sys.exit(0)
