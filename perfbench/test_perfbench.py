"""Self-tests of the benchmark: run with ``python -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import rssifit  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _ready(name: str, seed: int = 3):
    wl = workloads.WORKLOADS[name]("tiny", ROOT)
    wl.setup(rssifit)
    wl.prepare(seed)
    return wl


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    listed = [w["name"] for w in doc["workloads"]]
    assert len(listed) >= 2 and set(listed) <= set(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "4", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m[0]: m[1] for m in expected
    }
    env = next(line for line in lines if line.startswith("# workload="))
    for key in ("python=", "numpy=", "nproc=", "seed=4"):
        assert key in env


def test_traced_counts_repeat_exactly():
    runs = [
        _bench("--workload", "monte-carlo", "--seed", s, "--seconds", "0.2",
               "--trace", "1", "--size", "tiny")
        for s in ("5", "5", "6")
    ]
    counts = [
        {n: m["value"] for n, m in json.loads(p.stdout.splitlines()[-1])["metrics"].items()
         if m["unit"] == "count"}
        for p in runs
    ]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["numerics.solve_dense.calls"] == 2 * counts[0]["trace.ops"]
    assert counts[0]["simulate.standard_normals.calls"] == 20 * counts[0]["trace.ops"]


def test_timings_are_rescaled_by_the_probes_around_them(monkeypatch):
    monkeypatch.setattr(run, "PROBE_SPAN", 1)  # one probe on either side
    ref = run.PROBE_REF_NS
    loop = run.Loop()
    loop.probes = [ref, ref, 2 * ref, 2 * ref]
    loop.window = [0, 1, 2]  # op i runs between probes i and i + 1
    loop.latency_ns = [10_000_000, 30_000_000, 40_000_000]
    loop.ok = [True] * 3
    # Probe medians around the ops: ref, 1.5 ref, 2 ref.
    assert loop.rescaled_ns() == pytest.approx([10e6, 20e6, 20e6])
    e2e = loop.end_to_end()
    assert e2e["op_p50_ms"] == pytest.approx(20.0)
    assert e2e["op_p90_ms"] == pytest.approx(20.0)
    assert e2e["ops_per_s"] == pytest.approx(3 / 0.050)
    assert e2e["success_ratio"] == 1.0
    loop.setups = [(0.5, 0), (0.2, 2), (0.9, 1)]
    assert loop.setup_s() == pytest.approx(0.5)


def test_probe_does_not_depend_on_the_op_footprint():
    """A probe after an op that wrote 32 MB reads like one after an op that touched none."""
    buf = np.ones(32 << 17)
    readings = {0: [], 32: []}
    for _ in range(100):
        for mb, after in readings.items():
            deadline = time.perf_counter() + 0.002  # the op's fixed work
            while time.perf_counter() < deadline:
                pass
            if mb:
                buf += 1.0
            after.append(run.probe_ns())
    ratio = statistics.median(readings[32]) / statistics.median(readings[0])
    assert 0.85 < ratio < 1.15


def _peak_rss_mb(extra_mb: int) -> float:
    """peak_rss_mb of a tiny localize-plan run whose op also touches ``extra_mb``."""
    code = (
        "import sys, numpy as np, run, workloads\n"
        "op = workloads.LocalizePlan.op\n"
        f"def heavier(self, inp):\n    np.ones({extra_mb} << 17)\n    return op(self, inp)\n"
        "workloads.LocalizePlan.op = heavier\n"
        "sys.exit(run.main(['--workload', 'localize-plan', '--seed', '1',"
        " '--seconds', '0.2', '--size', 'tiny']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(PERFBENCH)},
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]["peak_rss_mb"]["value"]


def test_peak_rss_follows_the_op_memory():
    assert 38 < _peak_rss_mb(40) - _peak_rss_mb(0) < 42


def test_survey_ingest_check_catches_a_perturbed_eta():
    wl = _ready("survey-ingest")
    inp = wl.input(0)
    stats, trend, sigma, doc = wl.op(inp)
    assert wl.check(inp, (stats, trend, sigma, doc)) is None
    bad_model = dataclasses.replace(trend.model, eta=trend.eta + 1e-6)
    bad = dataclasses.replace(trend, model=bad_model)
    assert "trend" in wl.check(inp, (stats, bad, sigma, doc))
    edited = json.dumps({**json.loads(doc), "eta": trend.eta + 1e-6}).encode()
    assert "JSON" in wl.check(inp, (stats, trend, sigma, edited))


def test_monte_carlo_checks_catch_corruption():
    wl = _ready("monte-carlo")
    inp = wl.input(0)
    survey, stats, trend, sigma = wl.op(inp)
    assert wl.check(inp, (survey, stats, trend, sigma)) is None
    rows = list(survey.rows)
    rows[3] = (rows[3][0], (rows[3][1][0] + 1e-6,) + rows[3][1][1:])
    shifted = dataclasses.replace(survey, rows=tuple(rows))
    assert "generator" in wl.check(inp, (shifted, stats, trend, sigma))
    bad = dataclasses.replace(trend, model=dataclasses.replace(trend.model, eta=trend.eta + 1e-6))
    assert "trend" in wl.check(inp, (survey, stats, bad, sigma))
    assert wl.finish() is None
    wl.first_digest = "0" * 64
    assert "regenerated" in wl.finish()


def test_monte_carlo_eta_check_uses_five_standard_errors():
    wl = _ready("monte-carlo")
    wl.etas = [wl.model.eta + 0.1 + 0.01 * (i % 2) for i in range(50)]
    assert "5 SE" in wl.finish()


def test_localize_plan_checks_catch_corruption():
    wl = _ready("localize-plan")
    inp = wl.input(1)
    estimates, plans = wl.op(inp)
    assert wl.check(inp, (estimates, plans)) is None
    for k, plan in enumerate(plans):
        far = list(plans)
        far[k] = dataclasses.replace(plan, max_range=plan.max_range + 0.02)
        assert "max_range" in wl.check(inp, (estimates, far))
    wide = list(estimates)
    wide[0] = dataclasses.replace(wide[0], d_hi=wide[0].d_hi * (1 + 1e-9))
    assert "closed form" in wl.check(inp, (wide, plans))


def test_cli_session_check_catches_a_flipped_byte():
    wl = _ready("cli-session")
    for i in range(wl.cycle):
        inp = wl.input(i)
        out = wl.op(inp)
        assert wl.check(inp, out) is None, inp.argv
    inp = wl.input(0)
    out = wl.op(inp)
    flipped = bytearray(out.stdout)
    flipped[len(flipped) // 2] ^= 0x01
    assert "differs" in wl.check(inp, dataclasses.replace(out, stdout=bytes(flipped)))
    with pytest.raises(RuntimeError, match="exited 1"):
        wl.op(dataclasses.replace(inp, argv=["no-such-command"]))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_are_a_function_of_the_seed(workload):
    digests = {}
    for key, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl = _ready(workload, seed)
        inputs = [wl.input(i) for i in range(wl.cycle)]
        digests[key] = hashlib.sha256(pickle.dumps(inputs)).hexdigest()
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    inner_t = tracer.wrap("models.inner", inner)

    def outer():
        return inner_t() + inner_t()

    outer_t = tracer.wrap("localization.outer", outer)
    root = tracer.begin_op(0)
    outer_t()
    tracer.end_op(root)
    inner_t()  # outside any op: not recorded
    s = tracer.summary()
    assert s.calls == {"op": 1, "localization.outer": 1, "models.inner": 2}
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert s.self_ns["localization.outer"] == s.total_ns["localization.outer"] - s.total_ns["models.inner"]
    assert sum(s.layer_self_ns.values()) == s.op_ns
    assert s.calls_in_plan == {}


def test_install_patches_every_namespace_and_uninstall_restores_it():
    original = rssifit.models.sigma_at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rssifit.localization.sigma_at is not original
        assert rssifit.localization.sigma_at is rssifit.models.sigma_at is rssifit.sigma_at
        model = workloads._calibrate(rssifit, workloads.SITES[0])
        root = tracer.begin_op(0)
        rssifit.max_range(model, rssifit.LinkConstants(-92.0), outage_z=1.0)
        tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert rssifit.localization.sigma_at is original is rssifit.sigma_at
    s = tracer.summary()
    assert s.calls["localization.max_range"] == 1
    assert s.calls_in_plan["models.sigma_at"] == s.calls["models.sigma_at"] > 4097


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "survey-ingest", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
