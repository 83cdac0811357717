"""The four benchmark workloads: seeded inputs, set-up, one op, and its check.

Every workload has the same members:

``setup(rssifit)``
    One-time work the program does before the first op can run, such as
    calibrating the models the workload uses. Counted in ``setup_s``.
``prepare(seed)``
    Builds the benchmark's own inputs and the references they are checked
    against, from the seed alone. Not counted in ``setup_s``.
``input(i)``
    The input of op ``i``; ops cycle through a fixed pattern, so any run of
    whole cycles has the same mix of op kinds.
``op(inp)``
    One op through the public functions of ``rssifit``. Timed.
``check(inp, out)``
    Compares an op's output with a reference that does not go through the
    layer being timed. Returns None, or a message naming the mismatch.
``finish()``
    Checks that need the whole run. Returns None or a message.

``cycle`` is the length of the op pattern and ``trace_ops`` the number of ops
a traced run makes (whole cycles, so its counts repeat exactly).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

SITES = ("longwall-face", "gateroad-conveyor")
DISTANCES = tuple(float(d) for d in range(1, 21))
PERFBENCH = Path(__file__).resolve().parent


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _calibrate(rf, site: str):
    """Free-intercept trend plus sample-SD quartic, as the paper calibrates."""
    stats = rf.embedded_dataset(site).stats
    trend = rf.fit_path_loss(stats).model
    sigma = rf.fit_sigma_polynomial(stats).sigma
    return rf.ShadowedPathLossModel(
        d0=trend.d0, rss_d0=trend.rss_d0, eta=trend.eta, sigma=sigma
    )


def _sigma_clamped(model, d: np.ndarray) -> np.ndarray:
    s = model.sigma
    return np.polyval(s.coefficients, np.clip(d, s.d_min, s.d_max))


def _mean_rss(model, d: np.ndarray) -> np.ndarray:
    return model.rss_d0 - 10.0 * model.eta * np.log10(d / model.d0)


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


def _trend_reference(d: np.ndarray, means: np.ndarray) -> tuple[float, float]:
    """(eta, rss_d0) by numpy least squares on x = 10 log10(d), d0 = 1 m."""
    x = 10.0 * np.log10(d)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, means, rcond=None)
    return -float(slope), float(intercept)


# --------------------------------------------------------------------------
# survey-ingest


@dataclass
class IngestInput:
    data: bytes
    n: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    eta: float
    rss_d0: float
    sigma_fitted: np.ndarray


class SurveyIngest:
    """Parse a 10^5-reading survey CSV and calibrate from it.

    20 distances x 2 out-and-back passes x 2 500 integer-dBm readings; the
    back pass repeats every distance, so loading has to pool rows. Readings
    are clipped to [-99, -10] dBm, which keeps every row the same width and
    so makes the byte count independent of the seed.
    """

    name = "survey-ingest"
    n_inputs = 3
    cycle = n_inputs
    trace_ops = 2 * cycle

    def __init__(self, size: str, root: Path) -> None:
        self.per_pass = 2500 if size == "full" else 5

    def setup(self, rf) -> None:
        self.rf = rf

    def prepare(self, seed: int) -> None:
        rng = _rng(seed, 1)
        d = np.array(DISTANCES)
        self.inputs = []
        for _ in range(self.n_inputs):
            rss_d0 = rng.uniform(-50.0, -40.0)
            eta = rng.uniform(1.8, 3.2)
            spread = rng.uniform(2.0, 7.0, size=d.size)
            mean = rss_d0 - 10.0 * eta * np.log10(d)
            readings = [[] for _ in d]
            # Encoded one block at a time, so that making the input needs
            # less memory than parsing it; peak_rss_mb then shows the op's.
            blocks = [b"site,distance_m,rssi_dbm\n"]
            for order in (range(d.size), reversed(range(d.size))):
                for k in order:
                    r = np.rint(mean[k] + spread[k] * rng.standard_normal(self.per_pass))
                    r = np.clip(r, -99, -10).astype(np.int64)
                    readings[k].append(r)
                    label = f"ingest,{int(d[k])},"
                    blocks.append("".join(f"{label}{v}\n" for v in r.tolist()).encode("utf-8"))
            data = b"".join(blocks)
            del blocks
            pooled = [np.concatenate(r).astype(np.float64) for r in readings]
            means = np.array([p.mean() for p in pooled])
            sds = np.array([p.std(ddof=1) for p in pooled])
            eta_ref, rss_ref = _trend_reference(d, means)
            self.inputs.append(
                IngestInput(
                    data=data,
                    n=np.array([p.size for p in pooled]),
                    means=means,
                    sds=sds,
                    eta=eta_ref,
                    rss_d0=rss_ref,
                    sigma_fitted=np.polyval(np.polyfit(d, sds, 4), d),
                )
            )

    def input(self, i: int) -> IngestInput:
        return self.inputs[i % self.n_inputs]

    def op(self, inp: IngestInput):
        rf = self.rf
        survey = rf.load_survey_csv(inp.data)
        stats = rf.survey_stats(survey)
        trend = rf.fit_path_loss(stats)
        sigma = rf.fit_sigma_polynomial(stats)
        model = rf.ShadowedPathLossModel(
            d0=trend.model.d0,
            rss_d0=trend.rss_d0,
            eta=trend.eta,
            sigma=sigma.sigma,
        )
        return stats, trend, sigma, rf.model_to_json(model)

    def check(self, inp: IngestInput, out) -> str | None:
        stats, trend, sigma, doc = out
        if stats.distances != DISTANCES:
            return "survey-ingest: distances differ from the generated ones"
        if [r.n for r in stats.rows] != inp.n.tolist():
            return "survey-ingest: per-distance sample counts differ"
        if not _close(stats.means, inp.means, 1e-12):
            return "survey-ingest: per-distance means differ from numpy"
        if not _close(stats.sds, inp.sds, 1e-9):
            return "survey-ingest: per-distance SDs differ from numpy"
        if abs(trend.eta - inp.eta) > 1e-9 or abs(trend.rss_d0 - inp.rss_d0) > 1e-9:
            return (
                f"survey-ingest: trend (eta {trend.eta!r}, rss_d0 {trend.rss_d0!r})"
                f" differs from numpy ({inp.eta!r}, {inp.rss_d0!r})"
            )
        fitted = np.polyval(sigma.sigma.coefficients, np.array(DISTANCES))
        if not _close(fitted, inp.sigma_fitted, 0.0, 1e-6):
            return "survey-ingest: sigma quartic differs from numpy polyfit"
        parsed = json.loads(doc)
        expect = [trend.eta, trend.rss_d0, *sigma.sigma.coefficients]
        got = [parsed["eta"], parsed["rss_d0_dbm"]] + [
            parsed["sigma"][k] for k in ("a", "b", "c", "e", "f")
        ]
        if got != expect:
            return "survey-ingest: model JSON does not carry the fitted values"
        return None

    def finish(self) -> str | None:
        return None


# --------------------------------------------------------------------------
# monte-carlo

_GOLDEN = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_normals(seed: int, n_rows: int, count: int) -> np.ndarray:
    """The simulator's documented counter-based draws, computed here afresh.

    Implements the contract in the ``rssifit.simulate`` docstring (SplitMix64
    finaliser over (seed, distance index, sample index), then Box-Muller) for
    all rows at once, without calling the simulator.
    """
    golden = np.uint64(_GOLDEN)
    with np.errstate(over="ignore"):
        rows = np.arange(1, n_rows + 1, dtype=np.uint64)
        h = _splitmix(np.uint64(seed & _U64) + golden * rows)
        j = np.arange(1, count + 1, dtype=np.uint64)
        k = _splitmix(h[:, None] + golden * j[None, :])
        u1 = _splitmix(k + golden)
        u2 = _splitmix(k + np.uint64((2 * _GOLDEN) & _U64))
    to_unit = lambda w: ((w >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(to_unit(u1))) * np.cos(2.0 * math.pi * to_unit(u2))


@dataclass
class ReplicateInput:
    seed: int


class MonteCarlo:
    """One replicate of the paper's survey design per op, refitted.

    1..20 m x 20 readings from the calibrated longwall model, generator seed
    ``base + i`` for op ``i``. Tiny arrays and no I/O, so this measures the
    per-call overhead of the simulate, surveys, calibration and numerics
    layers.
    """

    name = "monte-carlo"
    samples = 20
    cycle = 1
    trace_ops = 400

    def __init__(self, size: str, root: Path) -> None:
        self.etas: list[float] = []
        self.first_digest: str | None = None

    def setup(self, rf) -> None:
        self.rf = rf
        self.model = _calibrate(rf, SITES[0])

    def prepare(self, seed: int) -> None:
        self.base = int(_rng(seed, 2).integers(0, 2**62))
        d = np.array(DISTANCES)
        self.mean = _mean_rss(self.model, d)
        self.sigma = _sigma_clamped(self.model, d)

    def input(self, i: int) -> ReplicateInput:
        return ReplicateInput(seed=self.base + i)

    def op(self, inp: ReplicateInput):
        rf = self.rf
        spec = rf.SimulationSpec(
            model=self.model,
            distances=DISTANCES,
            samples_per_distance=self.samples,
            seed=inp.seed,
        )
        survey = rf.simulate_survey(spec)
        stats = rf.survey_stats(survey)
        return survey, stats, rf.fit_path_loss(stats), rf.fit_sigma_polynomial(stats)

    @staticmethod
    def digest(survey) -> str:
        samples = np.array([s for _, s in survey.rows], dtype=np.float64)
        return hashlib.sha256(samples.tobytes()).hexdigest()

    def check(self, inp: ReplicateInput, out) -> str | None:
        survey, stats, trend, sigma = out
        if tuple(d for d, _ in survey.rows) != DISTANCES:
            return "monte-carlo: survey distances differ from the plan"
        samples = np.array([s for _, s in survey.rows], dtype=np.float64)
        if samples.shape != (len(DISTANCES), self.samples):
            return "monte-carlo: survey has the wrong number of samples"
        expect = self.mean[:, None] + self.sigma[:, None] * reference_normals(
            inp.seed, len(DISTANCES), self.samples
        )
        if not _close(samples, expect, 0.0, 1e-9):
            return f"monte-carlo: seed {inp.seed} samples differ from the generator contract"
        means = samples.mean(axis=1)
        if not _close(stats.means, means, 1e-12) or not _close(
            stats.sds, samples.std(axis=1, ddof=1), 1e-9
        ):
            return "monte-carlo: survey statistics differ from numpy"
        eta, rss_d0 = _trend_reference(np.array(DISTANCES), np.array(stats.means))
        if abs(trend.eta - eta) > 1e-9 or abs(trend.rss_d0 - rss_d0) > 1e-9:
            return "monte-carlo: trend fit differs from numpy least squares"
        if not all(math.isfinite(c) for c in sigma.sigma.coefficients):
            return "monte-carlo: sigma fit is not finite"
        if inp.seed == self.base:
            self.first_digest = self.digest(survey)
        self.etas.append(trend.eta)
        return None

    def finish(self) -> str | None:
        if self.first_digest is not None:
            again = self.op(ReplicateInput(seed=self.base))[0]
            if self.digest(again) != self.first_digest:
                return "monte-carlo: regenerated replicate differs from the first"
        if len(self.etas) >= 2:
            mean = statistics.fmean(self.etas)
            se = statistics.stdev(self.etas) / math.sqrt(len(self.etas))
            if abs(mean - self.model.eta) > 5.0 * se:
                return (
                    f"monte-carlo: mean fitted eta {mean:.5f} is more than 5 SE "
                    f"({se:.2g}) from the generating {self.model.eta:.5f}"
                )
        return None


# --------------------------------------------------------------------------
# localize-plan

SENSITIVITIES = (-85.0, -88.0, -92.0, -95.0)
OUTAGE_Z = (0.0, 1.28, 1.96)
CI_LEVEL = 0.95


@dataclass
class LocalizeInput:
    site: int
    readings: list
    sensitivity: float
    d_hat: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    max_ranges: list


def reference_range(model, sensitivity: float, z: float) -> float:
    """Last distance where predict - z sigma >= sensitivity, by numpy scan.

    Scans [d0, 1e6 m] on a log grid 100x finer than the library's, then
    bisects the final bracket to 1e-6 m. The grid is scanned in chunks no
    larger than the library's own, so that the scan needs less memory than
    the op it checks; peak_rss_mb then shows the op's.
    """

    def margin(d):
        value = _mean_rss(model, d) - sensitivity
        return value - z * _sigma_clamped(model, d) if z else value

    points, chunk = 409_601, 4096
    grid = lambda k: model.d0 * (1e6 / model.d0) ** (k / (points - 1))
    last = None
    for start in range(0, points - 1, chunk):
        k = np.arange(start, min(start + chunk, points - 1))
        ok = np.nonzero(margin(grid(k)) >= 0.0)[0]
        if ok.size:
            last = k[ok[-1]]
    lo, hi = grid(last), grid(last + 1)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if margin(np.array([mid]))[0] >= 0.0:
            lo = mid
        else:
            hi = mid
    return float(lo)


class LocalizePlan:
    """The inverse path: 1 000 single-reading intervals and three range plans.

    Models for both embedded sites are calibrated in set-up and round-tripped
    through the model JSON. Op ``i`` uses site ``i % 2`` and sensitivity
    ``SENSITIVITIES[i % 4]``, and plans for every outage z in ``OUTAGE_Z``:
    a plan at z > 0 takes nearly four times as long as one at z = 0, so one
    z per op would split the op times into two groups, and the percentiles
    would depend on where noise put the ops near the edge between them.
    """

    name = "localize-plan"
    blocks = 8
    cycle = 2 * blocks  # every (site, sensitivity) pair, every reading block
    trace_ops = cycle

    def __init__(self, size: str, root: Path) -> None:
        self.per_op = 1000 if size == "full" else 10

    def setup(self, rf) -> None:
        self.rf = rf
        self.models = [rf.model_from_json(rf.model_to_json(_calibrate(rf, s))) for s in SITES]

    def prepare(self, seed: int) -> None:
        rng = _rng(seed, 3)
        z_ci = NormalDist().inv_cdf((1.0 + CI_LEVEL) / 2.0)
        self.ranges = {
            (i % 2, SENSITIVITIES[i % 4]): [
                reference_range(self.models[i % 2], SENSITIVITIES[i % 4], z) for z in OUTAGE_Z
            ]
            for i in range(4)
        }
        self.readings = []
        for model in self.models:
            site_blocks = []
            for _ in range(self.blocks):
                d = rng.uniform(1.0, 60.0, self.per_op)
                rss = np.rint(
                    _mean_rss(model, d)
                    + _sigma_clamped(model, d) * rng.standard_normal(d.size)
                )
                inv = lambda r: model.d0 * 10.0 ** ((model.rss_d0 - r) / (10.0 * model.eta))
                d_hat = inv(rss)
                s = _sigma_clamped(model, d_hat)
                site_blocks.append(
                    (rss.tolist(), d_hat, inv(rss + z_ci * s), inv(rss - z_ci * s))
                )
            self.readings.append(site_blocks)

    def input(self, i: int) -> LocalizeInput:
        site, sens = i % 2, SENSITIVITIES[i % 4]
        readings, d_hat, d_lo, d_hi = self.readings[site][(i // 2) % self.blocks]
        return LocalizeInput(site, readings, sens, d_hat, d_lo, d_hi, self.ranges[(site, sens)])

    def op(self, inp: LocalizeInput):
        rf = self.rf
        model = self.models[inp.site]
        estimates = [rf.confidence_interval(model, r, level=CI_LEVEL) for r in inp.readings]
        constants = rf.LinkConstants(receiver_sensitivity=inp.sensitivity)
        return estimates, [rf.max_range(model, constants, outage_z=z) for z in OUTAGE_Z]

    def check(self, inp: LocalizeInput, out) -> str | None:
        estimates, plans = out
        model = self.models[inp.site]
        d_hat = np.array([e.d_hat for e in estimates])
        d_lo = np.array([e.d_lo for e in estimates])
        d_hi = np.array([e.d_hi for e in estimates])
        if not (np.all(d_lo <= d_hat) and np.all(d_hat <= d_hi)):
            return "localize-plan: an interval does not contain its estimate"
        round_trip = _mean_rss(model, d_hat)
        if not _close(round_trip, inp.readings, 0.0, 1e-9):
            return "localize-plan: predict(d_hat) does not return the reading"
        if not (
            _close(d_hat, inp.d_hat, 1e-12)
            and _close(d_lo, inp.d_lo, 1e-12)
            and _close(d_hi, inp.d_hi, 1e-12)
        ):
            return "localize-plan: intervals differ from the closed form"
        for z, plan, expect in zip(OUTAGE_Z, plans, inp.max_ranges):
            if abs(plan.max_range - expect) > 0.01:
                return (
                    f"localize-plan: max_range {plan.max_range!r} m at z {z} is more "
                    f"than 0.01 m from the numpy scan {expect!r} m"
                )
        return None

    def finish(self) -> str | None:
        return None


# --------------------------------------------------------------------------
# cli-session


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliInput:
    argv: list
    stdout: bytes
    stderr: bytes
    saved: Path | None
    saved_bytes: bytes | None


@dataclass
class CliResult:
    stdout: bytes
    stderr: bytes
    spans: dict | None


class CliSession:
    """One ``python -m rssifit.cli`` child process per op, one after another.

    The seven commands of the cycle run on one site; the next cycle runs on
    the other site, so 14 ops make one whole period.
    """

    name = "cli-session"
    cycle = 14
    trace_ops = cycle
    child_timeout = 60.0

    def __init__(self, size: str, root: Path) -> None:
        self.root = root
        self.samples = 2000 if size == "full" else 20
        self.work = root / ".perfbench_out" / "cli"
        self.env = child_env(root)
        self.traced = False

    def setup(self, rf) -> None:
        import rssifit.cli

        self.cli = rssifit.cli
        self.work.mkdir(parents=True, exist_ok=True)
        self.models = []
        for site in SITES:
            path = self.work / f"model-{site}.json"
            self._in_process(["sigma-fit", site, "--save-model", str(path), "--format", "json"])
            self.models.append(str(path))

    def _in_process(self, argv: list) -> tuple[int, bytes, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def prepare(self, seed: int) -> None:
        rng = _rng(seed, 4)
        self.inputs = []
        for k, site in enumerate(SITES):
            model = self.models[k]
            saved = self.work / f"saved-{site}.json"
            fmt = ["--format", "json"]
            commands = [
                ["fit", site, *fmt],
                ["sigma-fit", site, "--save-model", str(saved), *fmt],
                ["predict", "--model", model, "--d", repr(round(rng.uniform(1, 60), 3)), *fmt],
                ["localize", "--model", model, "--rss", str(int(rng.integers(-95, -45))), *fmt],
                [
                    "plan", "--model", model,
                    "--sensitivity", str(int(rng.choice(SENSITIVITIES))),
                    "--z", "1.96", *fmt,
                ],
                [
                    "simulate", "--model", model, "--distances", "1:20",
                    "--samples", str(self.samples),
                    "--seed", str(int(rng.integers(0, 2**31))),
                    "--format", "csv",
                ],
                ["datasets", "export", site],
            ]
            for argv in commands:
                code, out, err = self._in_process(argv)
                if code != 0:
                    raise RuntimeError(f"in-process reference failed: {argv}")
                saved_bytes = None
                if argv[0] == "sigma-fit":
                    saved_bytes = saved.read_bytes()
                    saved.unlink()
                self.inputs.append(
                    CliInput(argv, out, err, saved if saved_bytes else None, saved_bytes)
                )

    def input(self, i: int) -> CliInput:
        return self.inputs[i % len(self.inputs)]

    def op(self, inp: CliInput) -> CliResult:
        if self.traced:
            spans = self.work / "spans.json"
            cmd = [sys.executable, str(PERFBENCH / "cli_child.py"), str(spans), *inp.argv]
        else:
            cmd = [sys.executable, "-m", "rssifit.cli", *inp.argv]
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=self.root,
            timeout=self.child_timeout,
        )
        dump = None
        if self.traced and spans.is_file():
            dump = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        if proc.returncode != 0:  # a failed op, like an exception in-process
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            raise RuntimeError(f"'{' '.join(inp.argv[:2])}' exited {proc.returncode}: {tail}")
        return CliResult(proc.stdout, proc.stderr, dump)

    def largest_command_rss_mb(self) -> float:
        """Peak resident memory of the largest command of one whole cycle.

        Each command runs once more, after the timed ops; a command that
        fails has already been counted as a failed op.
        """
        peaks = []
        for inp in self.inputs:
            proc = subprocess.run(
                [sys.executable, str(PERFBENCH / "cli_peak.py"), *inp.argv],
                stdout=subprocess.PIPE, env=self.env, cwd=self.root,
                timeout=self.child_timeout,
            )
            peaks.append(int(proc.stdout) / 1024.0)
            if inp.saved is not None:
                inp.saved.unlink(missing_ok=True)
        return max(peaks)

    def check(self, inp: CliInput, out: CliResult) -> str | None:
        cmd = " ".join(inp.argv[:2])
        if out.stdout != inp.stdout or out.stderr != inp.stderr:
            return f"cli-session: '{cmd}' output differs from in-process main()"
        if inp.saved is not None:
            if not inp.saved.is_file() or inp.saved.read_bytes() != inp.saved_bytes:
                return f"cli-session: '{cmd}' saved a different model file"
            inp.saved.unlink()
        return None

    def finish(self) -> str | None:
        return None


WORKLOADS = {
    w.name: w for w in (SurveyIngest, MonteCarlo, LocalizePlan, CliSession)
}

