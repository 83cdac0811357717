"""Run the benchmark over ten seeds, twice, and report how steady it is.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--out .perfbench_out/spread.json]

Every workload of BENCHMARK.json runs once per seed for its ``run_seconds``,
in two sets of ten seeds (1..10, then 101..110), the workloads taking turns
seed by seed so that each one's runs spread over the whole set. For every
end-to-end metric it prints the median, the spread (the distance between the
quartiles that ``statistics.quantiles(values, n=4)`` gives, as a share of the
median; the larger of the two sets), that spread as a share of the metric's
bound, and the drift (how much worse the second set's median is than the
first's, as a share of the first). A metric passes when its spread is
within its bound (``setup_s`` is exempt) and its drift is too; the exit code
is 1 unless every metric passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed or was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    import numpy

    summary = {
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": [[100 * k + i for i in range(1, SEEDS + 1)] for k in range(SETS)],
        "sets": [],
    }
    for k in range(SETS):
        runs = {workload: [] for workload in names}
        for i in range(1, SEEDS + 1):
            for workload in names:
                runs[workload].append(run_once(workload, 100 * k + i, bench["run_seconds"]))
                print(f"set {k + 1} seed {100 * k + i} {workload}: {runs[workload][-1]}",
                      file=sys.stderr, flush=True)
        summary["sets"].append({
            workload: {name: summarize([r[name] for r in rs]) for name in metrics}
            for workload, rs in runs.items()
        })

    steady = True
    print(f"{'workload':<14} {'metric':<14} {'median':>12} {'spread':>8} {'/bound':>7} {'drift':>8}  verdict")
    for workload in names:
        for name, spec in metrics.items():
            first, second = (s[workload][name] for s in summary["sets"])
            spread = max(first["spread"], second["spread"])
            change = (second["median"] - first["median"]) / first["median"]
            drift = change if spec["better"] == "lower" else -change
            ok = (name == "setup_s" or spread <= spec["bound"]) and drift <= spec["bound"]
            steady = steady and ok
            print(
                f"{workload:<14} {name:<14} {first['median']:>12.6g} {spread:>8.4f} "
                f"{spread / spec['bound']:>7.3f} {drift:>+8.4f}  {'ok' if ok else 'FAIL'}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
