"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Each test prints its measured numbers so a captured
log shows the evidence, not just the verdict.
"""

import hashlib
import json
import math
import random
import statistics
import time

import numpy as np
import pytest

from rssifit import (
    ConstantSigma,
    ShadowedPathLossModel,
    SigmaPolynomial,
    SimulationSpec,
    SurveyStats,
    embedded_dataset,
    estimate_distance,
    fit_path_loss,
    fit_sigma_polynomial,
    load_stats_csv,
    load_survey_csv,
    max_range,
    model_from_json,
    model_to_json,
    predict_mean_rss,
    published_fit,
    save_stats_csv,
    save_survey_csv,
    simulate_survey,
    stationarity_sums,
    survey_stats,
)
from rssifit.cli import main
from rssifit.numerics import _moment_system, orthogonal_solve, solve_dense
from rssifit.surveys import DistanceStats, RssiSurvey

LONGWALL_EXPORT_SHA256 = (
    "29df453cdf2827f41ce2e7d09409f63e2e27c05b592164c452fa10c781c99b0e"
)
GATEROAD_EXPORT_SHA256 = (
    "6822553c9df409c23caa66612a143a1addc1730f1b862cdd23de538d59800c26"
)


def cli_json(capsys, *argv):
    rc = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def ols_oracle(stats, d0=1.0):
    """Closed-form simple regression on (10*log10(d/d0), mean_rss).

    Pure-Python covariance form, independent of the library's
    normal-equations path.
    """
    xs = [10.0 * math.log10(r.distance / d0) for r in stats.rows]
    ys = [r.mean_rss for r in stats.rows]
    x_bar = statistics.fmean(xs)
    y_bar = statistics.fmean(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return -slope, y_bar - slope * x_bar  # (eta, rss_d0)


def quartic(coeffs, d):
    value = 0.0
    for c in coeffs:
        value = value * d + c
    return value


def test_criterion_1_gateroad_exponent(capsys):
    start = time.perf_counter()
    payload = cli_json(capsys, "fit", "gateroad-conveyor", "--d0", "1")
    elapsed = time.perf_counter() - start
    eta = payload["eta"]
    oracle_eta, _ = ols_oracle(embedded_dataset("gateroad-conveyor").stats)
    print(
        f"criterion 1: eta={eta:.6f} published=1.568 "
        f"|diff|={abs(eta - 1.568):.4f} oracle={oracle_eta:.6f} "
        f"runtime={elapsed * 1e3:.1f} ms"
    )
    assert eta == pytest.approx(1.568, abs=0.05)
    assert eta == pytest.approx(oracle_eta, abs=1e-9)
    assert elapsed < 1.0


def test_criterion_2_longwall_exponent_vs_oracle_with_note(capsys):
    payload = cli_json(capsys, "fit", "longwall-face")
    oracle_eta, oracle_rss = ols_oracle(embedded_dataset("longwall-face").stats)
    print(
        f"criterion 2: eta={payload['eta']:.9f} oracle={oracle_eta:.9f} "
        f"published={payload['published']['eta']} note recorded"
    )
    assert payload["eta"] == pytest.approx(oracle_eta, abs=1e-9)
    assert payload["rss_d0_dbm"] == pytest.approx(oracle_rss, abs=1e-9)
    # the published 2.14 must ride along with the computed value, with a
    # note owning the discrepancy (straight regression on these rows
    # lands near 2.31).
    assert payload["published"]["eta"] == 2.14
    assert payload["published"]["note"]
    rc = main(["fit", "longwall-face", "--compare-paper"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2.14" in out and "NOTE:" in out


def _sigma_quality_case(capsys, name):
    start = time.perf_counter()
    payload = cli_json(capsys, "sigma-fit", name)
    elapsed = time.perf_counter() - start
    pub = published_fit(name)
    fitted = [payload["coefficients"][k] for k in "abcef"]
    curve_gap = max(
        abs(
            quartic(fitted, d)
            - quartic(pub.sigma_coefficients, d)
        )
        for d in range(1, 21)
    )
    print(
        f"{name}: r2={payload['r2']:.4f} (published {pub.r2}) "
        f"rmse={payload['rmse_db']:.4f} (published {pub.rmse}) "
        f"max curve gap={curve_gap:.4f} dB runtime={elapsed * 1e3:.1f} ms"
    )
    assert payload["r2"] == pytest.approx(pub.r2, abs=0.05)
    assert payload["rmse_db"] == pytest.approx(pub.rmse, abs=0.05)
    assert curve_gap <= 0.3
    assert elapsed < 1.0


def test_criterion_3_longwall_sigma_quartic_quality(capsys):
    _sigma_quality_case(capsys, "longwall-face")


def test_criterion_4_gateroad_sigma_quartic_quality(capsys):
    _sigma_quality_case(capsys, "gateroad-conveyor")


def test_criterion_5_dual_route_solve_and_stationarity():
    for name in ("longwall-face", "gateroad-conveyor"):
        stats = embedded_dataset(name).stats
        report = fit_sigma_polynomial(stats)
        system = _moment_system(
            np.asarray(stats.distances), np.asarray(stats.sds), (4, 3, 2, 1, 0),
            "d and y",
        )
        eliminated, _ = solve_dense(system)
        orthogonal = orthogonal_solve(system)
        rel = float(
            np.max(
                np.abs(eliminated - orthogonal)
                / np.maximum(np.abs(orthogonal), 1e-30)
            )
        )
        sums = stationarity_sums(stats, report.sigma, target="sample_sd")
        print(
            f"{name}: route disagreement={rel:.3e} "
            f"stationarity sums={[f'{s:.2e}' for s in sums]}"
        )
        assert rel <= 1e-6
        assert len(sums) == 5
        assert all(abs(s) <= 1e-6 for s in sums)


def test_criterion_6_localization_round_trip():
    grid = np.geomspace(1.0, 100.0, 50)
    worst = 0.0
    for eta in (0.5, 1.0, 2.0, 2.14, 4.0):
        model = ShadowedPathLossModel(d0=1.0, rss_d0=-45.0, eta=eta)
        for d in grid:
            recovered = estimate_distance(model, predict_mean_rss(model, d))
            worst = max(worst, abs(recovered - d) / d)
    print(f"criterion 6: worst relative round-trip error={worst:.3e}")
    assert worst <= 1e-9


def test_criterion_7_simulator_round_trip():
    model = ShadowedPathLossModel(
        d0=1.0, rss_d0=-45.0, eta=2.0, sigma=ConstantSigma(2.0)
    )
    distances = tuple(float(d) for d in range(1, 21))
    survey = simulate_survey(
        SimulationSpec(
            model=model, distances=distances, samples_per_distance=100, seed=7
        )
    )
    refit = fit_path_loss(survey_stats(survey))
    big = simulate_survey(
        SimulationSpec(
            model=model, distances=distances, samples_per_distance=10_000, seed=7
        )
    )
    sds = [statistics.stdev(samples) for _, samples in big.rows]
    print(
        f"criterion 7: refit eta={refit.eta:.4f} (target 2.0 +/- 0.1); "
        f"sample SD range [{min(sds):.4f}, {max(sds):.4f}] "
        f"(target 2.0 +/- 5%)"
    )
    assert refit.eta == pytest.approx(2.0, abs=0.1)
    assert all(abs(sd - 2.0) / 2.0 <= 0.05 for sd in sds)


def _random_survey(rng):
    site = "".join(rng.choice("site-ABCdef") for _ in range(rng.randint(1, 8)))
    distances = set()
    while len(distances) < rng.randint(1, 6):
        distances.add(rng.uniform(0.01, 1e4))
    rows = tuple(
        (d, tuple(rng.uniform(-120.0, 0.0) for _ in range(rng.randint(1, 5))))
        for d in distances
    )
    return RssiSurvey(site=site, rows=rows)


def _random_stats(rng):
    distances = set()
    while len(distances) < rng.randint(1, 8):
        distances.add(rng.uniform(0.01, 1e4))
    rows = tuple(
        DistanceStats(
            distance=d,
            mean_rss=rng.uniform(-120.0, 0.0),
            sd=rng.uniform(0.0, 30.0),
            n=rng.randint(1, 500),
            prr=None if rng.random() < 0.4 else rng.uniform(0.0, 100.0),
        )
        for d in distances
    )
    return SurveyStats(site="stats", rows=rows)


def _random_model(rng, variant):
    if variant == 0:
        sigma = None
    elif variant == 1:
        sigma = ConstantSigma(rng.uniform(0.0, 12.0))
    else:
        lo = rng.uniform(0.1, 50.0)
        sigma = SigmaPolynomial(
            a=rng.uniform(-1.0, 1.0),
            b=rng.uniform(-1.0, 1.0),
            c=rng.uniform(-1.0, 1.0),
            e=rng.uniform(-1.0, 1.0),
            f=rng.uniform(-1.0, 1.0),
            d_min=lo,
            d_max=lo + rng.uniform(0.1, 100.0),
        )
    return ShadowedPathLossModel(
        d0=rng.uniform(0.1, 10.0),
        rss_d0=rng.uniform(-120.0, -20.0),
        eta=rng.uniform(0.05, 6.0),
        sigma=sigma,
    )


def test_criterion_8_codec_identity_and_pinned_exports():
    rng = random.Random(20260822)
    for i in range(1000):
        survey = _random_survey(rng)
        assert load_survey_csv(save_survey_csv(survey)) == survey, i
        stats = _random_stats(rng)
        assert load_stats_csv(save_stats_csv(stats)) == stats, i
        model = _random_model(rng, i % 3)
        assert model_from_json(model_to_json(model)) == model, i
    digests = {
        name: hashlib.sha256(
            save_stats_csv(embedded_dataset(name).stats)
        ).hexdigest()
        for name in ("longwall-face", "gateroad-conveyor")
    }
    print(
        "criterion 8: 1000 instances per codec round-tripped; "
        f"export digests {digests}"
    )
    assert digests["longwall-face"] == LONGWALL_EXPORT_SHA256
    assert digests["gateroad-conveyor"] == GATEROAD_EXPORT_SHA256


def test_criterion_9_range_planning_oracle():
    sigma = fit_sigma_polynomial(embedded_dataset("longwall-face").stats).sigma
    model = ShadowedPathLossModel(
        d0=1.0, rss_d0=-51.65, eta=2.14, sigma=sigma
    )
    plan = max_range(model, outage_z=0.0)
    closed_form = model.d0 * 10 ** ((model.rss_d0 - (-92.0)) / (10 * model.eta))
    shadowed = max_range(model, outage_z=1.96)
    ranges = {
        name: embedded_dataset(name).range_test
        for name in ("longwall-face", "gateroad-conveyor", "mine-car-pathway")
    }
    print(
        f"criterion 9: z=0 range={plan.max_range:.4f} m "
        f"closed form={closed_form:.4f} m "
        f"|diff|={abs(plan.max_range - closed_form):.4f} m; "
        f"z=1.96 range={shadowed.max_range:.4f} m; "
        f"measured reference spans={ranges}"
    )
    assert plan.max_range == pytest.approx(closed_form, abs=0.01)
    assert shadowed.max_range < plan.max_range
    assert shadowed.margin_db > 0.0
    # field-measured spans ship as reference data only: present and ordered,
    # never a numeric target (the fitted fade model is only valid to 20 m).
    for lo, hi in ranges.values():
        assert 0 < lo < hi
