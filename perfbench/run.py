"""Layered benchmark for rssifit: one workload per run, or all four.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload survey-ingest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One caller runs ops back to back in one process (a closed loop) for
``--seconds`` seconds. Every op's output is checked. With ``--trace 0``
the last line of stdout is a JSON object carrying the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run instead.
The lines before it repeat the metrics as a table, with the interpreter,
numpy version, CPU count, seed and sample counts they were measured with.

Timings are rescaled to a reference core speed. Between ops the loop times
a fixed probe, and every op's latency (and every set-up sample) is scaled
by ``PROBE_REF_NS`` over the median of the probes around it. Other work on
the same physical cores slows everything, the probe included, by up to
about two times in phases of seconds to minutes; the rescaled times keep the
program's cost and drop most of that. The head of the output gives the raw
wall-clock figures too. See README.md.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORKLOAD_NAMES = ("survey-ingest", "monte-carlo", "localize-plan", "cli-session")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("success_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_COMMANDS = ("fit", "sigma-fit", "predict", "localize", "plan", "simulate", "datasets")
SHARE_LAYERS = (
    "dataio", "surveys", "simulate", "calibration", "numerics",
    "localization", "models", "cli", "unwrapped",
)

# Per-layer metrics of a traced run: name, unit, better. Names ending in
# self_s are self seconds per op; counts are exact totals over the traced ops
# (trace.ops of them, whole cycles of the workload's op pattern).
PER_LAYER = (
    ("dataio.load_survey_csv.self_s", "s/op", "lower"),
    ("dataio.load_survey_csv.mb_per_s", "MB/s", "higher"),
    ("dataio.load_survey_csv.rows", "count", "lower"),
    ("dataio.load_survey_csv.bytes", "B", "lower"),
    ("dataio.save_survey_csv.self_s", "s/op", "lower"),
    ("dataio.save_survey_csv.mb_per_s", "MB/s", "higher"),
    ("dataio.save_survey_csv.rows", "count", "lower"),
    ("dataio.save_survey_csv.bytes", "B", "lower"),
    ("surveys.survey_stats.self_s", "s/op", "lower"),
    ("surveys.survey_stats.samples_per_s", "1/s", "higher"),
    ("surveys.RssiSurvey.__post_init__.self_s", "s/op", "lower"),
    ("simulate.simulate_survey.self_s", "s/op", "lower"),
    ("simulate.standard_normals.calls", "count", "lower"),
    ("simulate.standard_normals.self_s", "s/op", "lower"),
    ("calibration.fit_path_loss.self_s", "s/op", "lower"),
    ("calibration.fit_sigma_polynomial.self_s", "s/op", "lower"),
    ("numerics.solve_dense.calls", "count", "lower"),
    ("numerics.solve_dense.self_s", "s/op", "lower"),
    ("numerics.qr_fallbacks", "count", "lower"),
    ("numerics.scaled_refits", "count", "lower"),
    ("localization.confidence_interval.us_per_call", "us", "lower"),
    ("localization.max_range.ms_per_call", "ms", "lower"),
    ("models.sigma_at.calls_per_plan", "count", "lower"),
    ("models.predict_mean_rss.calls_per_plan", "count", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import.numpy_s", "s", "lower"),
    ("cli.import.rssifit_s", "s", "lower"),
    *((f"cli.main.{cmd}.ms", "ms", "lower") for cmd in CLI_COMMANDS),
    *((f"share.{layer}", "ratio", "lower") for layer in SHARE_LAYERS),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Run sizes. "tiny" exists for the self-tests: small inputs, few samples.
SIZES = {
    "full": {"min_ops": 100, "warmup": 3, "setups": 9},
    "tiny": {"min_ops": 3, "warmup": 3, "setups": 1},
}

# The core-speed probe: PROBE_SOLVES small numpy calls, then an interpreted
# loop of PROBE_LOOPS multiply-adds, so it slows like numpy's per-call
# overhead and like interpreted code when others share the core. Its working
# set is a few kilobytes. Before each timing it reads PROBE_FLUSH, twice the
# size of a core's L2 cache on the machine this was written on, so that the
# probe starts with its code and data out of the core's caches whatever the
# op before it touched. It runs at most every PROBE_GAP_NS of ops and around
# every set-up sample. A sample is rescaled by the median of the PROBE_SPAN
# probes before it and the PROBE_SPAN after it, to the speed at which the
# probe takes PROBE_REF_NS (near its median time on that machine).
PROBE_SOLVES = 40
PROBE_MATRIX = np.random.default_rng(0).standard_normal((5, 5))
PROBE_VECTOR = np.ones(5)
PROBE_LOOPS = 10_000
PROBE_FLUSH = np.ones(1 << 20)  # 8 MB
PROBE_GAP_NS = 20_000_000
PROBE_SPAN = 3
PROBE_REF_NS = 1_600_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    return parser.parse_args(argv)


def environment(args) -> str:
    return (
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size} python={platform.python_version()} "
        f"numpy={np.__version__} nproc={os.cpu_count()} "
        f"cpu={sorted(os.sched_getaffinity(0))} "
        f"machine={platform.machine()} system={platform.system()}"
    )


def probe_ns() -> int:
    """Time the fixed probe loop; slower readings mean a busier core."""
    PROBE_FLUSH.sum()
    t0 = perf_counter_ns()
    for _ in range(PROBE_SOLVES):
        np.linalg.solve(PROBE_MATRIX, PROBE_VECTOR)
        np.polyval(PROBE_VECTOR, 2.0)
    acc = 0
    for k in range(PROBE_LOOPS):
        acc += k * k
    return perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# child processes


def _run_child(cmd: list, env: dict, stderr=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, env=env, cwd=ROOT, check=True, timeout=60,
        stdout=subprocess.PIPE, stderr=stderr,
    )


def _wall(cmd: list, env: dict) -> float:
    t0 = perf_counter()
    _run_child(cmd, env)
    return perf_counter() - t0


def setup_sampler(workload: str, env: dict):
    """A function returning one set-up time, each in a fresh interpreter.

    In-process workloads time ``import rssifit`` plus their one-time work
    inside the child; cli-session times the whole ``import rssifit.cli``
    process, which is what a CLI user waits for before any command runs.
    """
    if workload == "cli-session":
        cmd = [sys.executable, "-c", "import rssifit.cli"]
        return lambda: _wall(cmd, env)
    cmd = [sys.executable, str(PERFBENCH / "probe.py"), workload]
    return lambda: float(_run_child(cmd, env).stdout)


def _import_split(env: dict) -> tuple[float, float]:
    """(numpy, rssifit without numpy) import seconds from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import rssifit.cli"]
    stderr = _run_child(cmd, env, stderr=subprocess.PIPE).stderr.decode()
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    # rssifit.cli is the outermost import; its cumulative time includes
    # the rssifit package and, nested inside that, numpy.
    numpy_s = cumulative["numpy"]
    return numpy_s, cumulative["rssifit.cli"] - numpy_s


def cli_startup_metrics(env: dict, samples: int) -> dict:
    _wall([sys.executable, "-c", "pass"], env)
    interpreter = statistics.median(
        _wall([sys.executable, "-c", "pass"], env) for _ in range(samples)
    )
    splits = [_import_split(env) for _ in range(samples)]
    return {
        "cli.interpreter_s": interpreter,
        "cli.import.numpy_s": statistics.median(s[0] for s in splits),
        "cli.import.rssifit_s": statistics.median(s[1] for s in splits),
    }


# ---------------------------------------------------------------------------
# the closed loop


def _rank(values: list, q: int):
    """The q-th percentile of sorted ``values`` by the nearest-rank rule."""
    return values[max(0, -(-len(values) * q // 100) - 1)]


class Loop:
    """Latencies, probes, failures and check results of a series of ops.

    ``window[i]`` is the index of the last probe taken before op ``i``; the
    next probe is ``window[i] + 1``. Set-up samples are recorded the same
    way, each with a probe just before and just after it.
    """

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.window: list[int] = []
        self.ok: list[bool] = []
        self.probes: list[int] = []
        self.setups: list[tuple[float, int]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.mismatches: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def run(self, wl, first: int, count=None, seconds=None, min_ops=0,
            tracer=None, setup=None, setups=0) -> int:
        """Run ops from index ``first``: ``count`` of them, or for ``seconds``.

        With ``setup``, also take ``setups`` set-up samples spread evenly
        over the ``seconds``.
        """
        start = perf_counter()
        deadline = None if seconds is None else start + seconds
        next_setup = start if setup is not None and setups else None
        self.probes.append(probe_ns())
        last_probe = perf_counter_ns()
        i = first
        while True:
            done = len(self.latency_ns)
            if count is not None and done >= count:
                break
            if count is None and done >= min_ops and perf_counter() >= deadline:
                break
            if next_setup is not None and perf_counter() >= next_setup:
                self.probes.append(probe_ns())
                self.setups.append((setup(), len(self.probes) - 1))
                self.probes.append(probe_ns())
                last_probe = perf_counter_ns()
                more = len(self.setups) < setups
                next_setup = start + len(self.setups) * seconds / setups if more else None
            inp = wl.input(i)
            root = tracer.begin_op(i) if tracer is not None else None
            t0 = perf_counter_ns()
            try:
                out = wl.op(inp)
            except Exception as exc:  # a failed op is counted, not fatal
                out = None
                self.failed += 1
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.end_op(root)
                spans = getattr(out, "spans", None)
                if spans is not None:
                    tracer.merge(spans, root, i)
            self.latency_ns.append(t1 - t0)
            self.window.append(len(self.probes) - 1)
            self.ok.append(out is not None)
            if out is not None:
                message = wl.check(inp, out)
                if message is not None:
                    self.mismatches.append(message)
            if perf_counter_ns() - last_probe >= PROBE_GAP_NS:
                self.probes.append(probe_ns())
                last_probe = perf_counter_ns()
            i += 1
        self.probes.append(probe_ns())
        return i

    def _rescaled(self, value: float, window: int) -> float:
        """``value`` at the reference core speed, given the probes around it."""
        around = self.probes[max(0, window + 1 - PROBE_SPAN): window + 1 + PROBE_SPAN]
        return value * PROBE_REF_NS / statistics.median(around)

    def rescaled_ns(self) -> list[float]:
        return [self._rescaled(t, w) for t, w in zip(self.latency_ns, self.window)]

    def end_to_end(self) -> dict:
        lat = sorted(self.rescaled_ns())
        ok = sum(self.ok)
        return {
            "ops_per_s": ok / (sum(lat) / 1e9),
            "op_p50_ms": _rank(lat, 50) / 1e6,
            "op_p90_ms": _rank(lat, 90) / 1e6,
            "success_ratio": ok / self.attempted,
        }

    def wall_clock(self) -> str:
        """The plain wall-clock figures, for the head of the output."""
        lat = sorted(self.latency_ns)
        return (
            f"ops_per_s={self.attempted / (sum(lat) / 1e9):.6g} "
            f"op_p50_ms={_rank(lat, 50) / 1e6:.6g} op_p90_ms={_rank(lat, 90) / 1e6:.6g} "
            f"setup_s={statistics.median(t for t, _ in self.setups):.6g} "
            f"probe_ms={statistics.median(self.probes) / 1e6:.6g}"
        )

    def setup_s(self) -> float:
        return statistics.median(self._rescaled(t, w) for t, w in self.setups)


def peak_rss_mb(wl) -> float:
    """Peak resident memory of the workload process, or of its largest command.

    It is the process's VmHWM, not its ru_maxrss: Linux carries a parent's
    peak over into a child's ru_maxrss across fork and exec, so that would
    report the memory of whatever started the benchmark.
    """
    if wl.name == "cli-session":
        return wl.largest_command_rss_mb()
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_metrics(tracer, n_ops: int, overhead: float, extra: dict) -> dict:
    s = tracer.summary()
    c = tracer.counters
    per_op = lambda label: s.self_ns.get(label, 0) / 1e9 / n_ops
    rate = lambda amount, label: amount / (s.total_ns[label] / 1e9) if s.total_ns.get(label) else 0.0
    per_call = lambda label, scale: s.total_ns[label] / scale / s.calls[label] if s.calls.get(label) else 0.0
    plans = s.calls.get("localization.max_range", 0)
    m = {}
    for label in ("dataio.load_survey_csv", "dataio.save_survey_csv"):
        m[f"{label}.self_s"] = per_op(label)
        m[f"{label}.mb_per_s"] = rate(c.get(f"{label}.bytes", 0) / 1e6, label)
        m[f"{label}.rows"] = c.get(f"{label}.rows", 0)
        m[f"{label}.bytes"] = c.get(f"{label}.bytes", 0)
    for label in (
        "surveys.survey_stats", "surveys.RssiSurvey.__post_init__",
        "simulate.simulate_survey", "simulate.standard_normals",
        "calibration.fit_path_loss", "calibration.fit_sigma_polynomial",
        "numerics.solve_dense",
    ):
        m[f"{label}.self_s"] = per_op(label)
    m["surveys.survey_stats.samples_per_s"] = rate(
        c.get("surveys.survey_stats.samples", 0), "surveys.survey_stats"
    )
    m["simulate.standard_normals.calls"] = s.calls.get("simulate.standard_normals", 0)
    m["numerics.solve_dense.calls"] = s.calls.get("numerics.solve_dense", 0)
    m["numerics.qr_fallbacks"] = c.get("numerics.solve_dense.qr_fallbacks", 0)
    m["numerics.scaled_refits"] = c.get("numerics.polyfit_quartic.scaled_refits", 0)
    m["localization.confidence_interval.us_per_call"] = per_call(
        "localization.confidence_interval", 1e3
    )
    m["localization.max_range.ms_per_call"] = per_call("localization.max_range", 1e6)
    for label in ("models.sigma_at", "models.predict_mean_rss"):
        m[f"{label}.calls_per_plan"] = s.calls_in_plan.get(label, 0) / plans if plans else 0.0
    for layer in SHARE_LAYERS:
        m[f"share.{layer}"] = s.layer_self_ns.get(layer, 0) / s.op_ns if s.op_ns else 0.0
    m["trace.ops"] = n_ops
    m["trace.spans"] = s.n_spans
    m["trace.overhead_ratio"] = overhead
    m.update(extra)
    return {name: (m.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}


def cli_main_ms(tracer, wl) -> dict:
    """Mean duration of rssifit.cli.main per command over the traced ops."""
    main_id = tracer.label_id("cli.main")
    by_cmd: dict[str, list[int]] = {}
    for nid, start, end, op in zip(tracer.name, tracer.start, tracer.end, tracer.op):
        if nid == main_id:
            by_cmd.setdefault(wl.input(op).argv[0], []).append(end - start)
    return {f"cli.main.{cmd}.ms": statistics.fmean(v) / 1e6 for cmd, v in by_cmd.items()}


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    size = SIZES[args.size]
    src = ROOT / "src"
    from workloads import WORKLOADS, child_env

    # One core for the loop, its probes and its child processes, so the
    # probes read the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env(ROOT)

    sys.path.insert(0, str(src))
    import rssifit

    if not Path(rssifit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported rssifit from {rssifit.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.size, ROOT)
    wl.setup(rssifit)
    wl.prepare(args.seed)
    gc.collect()

    warm = Loop()
    first = warm.run(wl, 0, count=size["warmup"])
    if args.trace:
        plain = Loop()
        plain.run(wl, first, count=wl.trace_ops)
        tracer = tracing.Tracer()
        tracer.install()
        wl.traced = True  # cli-session then runs its commands through cli_child.py
        traced = Loop()
        try:
            traced.run(wl, first, count=wl.trace_ops, tracer=tracer)
        finally:
            tracer.uninstall()
            wl.traced = False
        extra = {}
        if args.workload == "cli-session":
            extra.update(cli_main_ms(tracer, wl))
            extra.update(cli_startup_metrics(env, size["setups"]))
        overhead = sum(traced.rescaled_ns()) / sum(plain.rescaled_ns())
        metrics = per_layer_metrics(tracer, traced.attempted, overhead, extra)
        tracer.write_csv(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv")
        loops = (warm, plain, traced)
        samples = f"traced ops={traced.attempted}"
    else:
        sample_setup = setup_sampler(args.workload, env)
        sample_setup()  # warm the file cache; not counted
        main = Loop()
        main.run(
            wl, first, seconds=args.seconds, min_ops=size["min_ops"],
            setup=sample_setup, setups=size["setups"],
        )
        e2e = main.end_to_end()
        e2e["setup_s"] = main.setup_s()
        e2e["peak_rss_mb"] = peak_rss_mb(wl)
        metrics = {name: (e2e[name], unit) for name, unit, _, _ in END_TO_END}
        loops = (warm, main)
        samples = (
            f"ops={main.attempted}, setup samples={len(main.setups)}, "
            f"probes={len(main.probes)}\n# wall clock: {main.wall_clock()}"
        )

    final = wl.finish()
    mismatches = [m for loop in loops for m in loop.mismatches]
    if final is not None:
        mismatches.append(final)
    for line in ([e for loop in loops for e in loop.errors] + mismatches)[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    measured = loops[-1]

    print(f"# {environment(args)}")
    print(f"# ops={measured.attempted} failed={measured.failed} mismatches={len(mismatches)}")
    print(f"# samples: {samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    result = {
        "correct": not mismatches,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if mismatches else 0


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rssifit" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'rssifit'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
