"""Trend and sigma calibration against independent regression oracles."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssifit import (
    DataError,
    DegenerateDataError,
    DistanceStats,
    InsufficientDataError,
    ShadowedPathLossModel,
    SigmaPolynomial,
    SurveyStats,
    fit_path_loss,
    fit_sigma_polynomial,
    goodness_of_fit,
    embedded_dataset,
    load_stats_csv,
    ols_line,
    polyval,
    predict_mean_rss,
    prr_correlations,
    published_fit,
    residual_y,
    save_stats_csv,
    stationarity_sums,
)
from rssifit.calibration import sigma_target


def make_stats(distances, means, sds=None, prrs=None):
    rows = []
    for i, (d, m) in enumerate(zip(distances, means)):
        rows.append(
            DistanceStats(
                distance=float(d),
                mean_rss=float(m),
                sd=1.0 if sds is None else float(sds[i]),
                n=20,
                prr=None if prrs is None else float(prrs[i]),
            )
        )
    return SurveyStats(site="test", rows=tuple(rows))


def covariance_ols(x, y):
    """Closed-form OLS oracle via centered sums (not normal equations)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    return slope, float(y.mean() - slope * x.mean())


def test_noiseless_synthetic_recovered_exactly_in_both_modes():
    model = ShadowedPathLossModel(d0=1.0, rss_d0=-45.0, eta=3.0)
    d = np.arange(1.0, 13.0)
    stats = make_stats(d, [predict_mean_rss(model, di) for di in d])
    for mode in ("free", "anchored"):
        report = fit_path_loss(stats, intercept_mode=mode)
        assert report.eta == pytest.approx(3.0, abs=1e-9)
        assert report.rss_d0 == pytest.approx(-45.0, abs=1e-9)
        assert report.fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_free_fit_matches_covariance_oracle_on_survey_data(longwall):
    report = fit_path_loss(longwall)
    x = 10.0 * np.log10(np.array(longwall.distances))
    slope_ref, intercept_ref = covariance_ols(x, np.array(longwall.means))
    assert report.eta == pytest.approx(-slope_ref, abs=1e-9)
    assert report.rss_d0 == pytest.approx(intercept_ref, abs=1e-9)


@pytest.mark.parametrize("d0", [1.0, 2.0, 5.0])
def test_free_fit_is_ols_line_on_the_log_distance_bit_for_bit(longwall, gateroad, d0):
    # One builder and one solve serve both: the same bits, the same diagnostics.
    for stats in (longwall, gateroad):
        # The libm regressor: numpy's SIMD log10 may differ in the last place.
        x = np.array([10.0 * math.log10(d / d0) for d in stats.distances])
        line = ols_line(x, stats.mean_dbm)
        report = fit_path_loss(stats, d0=d0)
        assert (line.slope, line.intercept) == (-report.eta, report.rss_d0)
        assert line.diagnostics == report.diagnostics
        assert line.r2 == report.fit.r2


def test_longwall_exponent_near_2_31_free_intercept(longwall):
    report = fit_path_loss(longwall)
    assert report.eta == pytest.approx(2.311056, abs=1e-4)
    assert report.rss_d0 == pytest.approx(-55.2043, abs=1e-3)
    assert report.fit.r2 == pytest.approx(0.9067, abs=1e-3)


def test_gateroad_exponent_near_published_1_568(gateroad):
    report = fit_path_loss(gateroad)
    assert report.eta == pytest.approx(published_fit("gateroad-conveyor").eta, abs=0.05)
    assert report.eta == pytest.approx(1.570349, abs=1e-4)
    assert report.fit.r2 == pytest.approx(0.7210, abs=1e-3)


def test_anchored_mode_pins_intercept_to_nearest_row(longwall):
    report = fit_path_loss(longwall, intercept_mode="anchored")
    assert report.rss_d0 == longwall.rows[0].mean_rss
    # slope oracle for a fixed intercept: minimize sum (y - rss0 + eta*x)^2
    x = 10.0 * np.log10(np.array(longwall.distances))
    y = np.array(longwall.means) - longwall.rows[0].mean_rss
    eta_ref = -float(np.sum(x * y) / np.sum(x * x))
    assert report.eta == pytest.approx(eta_ref, abs=1e-9)
    assert report.eta == pytest.approx(2.650194, abs=1e-4)


def test_anchored_ties_resolve_to_smaller_distance():
    stats = make_stats([1.0, 2.0, 3.0, 4.0], [-50.0, -56.0, -59.5, -62.0])
    report = fit_path_loss(stats, d0=2.5, intercept_mode="anchored")
    # rows at 2 m and 3 m are equidistant from d0; the 2 m row anchors
    assert report.rss_d0 == -56.0


def test_constant_offset_leaves_eta_unchanged(longwall):
    # transmit power is unknown; the slope must not depend on it
    base = fit_path_loss(longwall)
    shifted = make_stats(
        longwall.distances,
        [m + 17.5 for m in longwall.means],
        sds=longwall.sds,
    )
    report = fit_path_loss(shifted)
    assert report.eta == pytest.approx(base.eta, abs=1e-12)


def test_free_mode_residuals_sum_to_zero(longwall):
    report = fit_path_loss(longwall)
    assert abs(sum(report.residuals)) <= 1e-9


def test_report_carries_row_aligned_residuals(gateroad):
    report = fit_path_loss(gateroad)
    assert len(report.residuals) == len(gateroad.rows)
    assert len(report.y_values) == len(gateroad.rows)
    for resid, y in zip(report.residuals, report.y_values):
        assert y == pytest.approx(resid / 1.96, rel=1e-12)


@st.composite
def trend_surveys(draw):
    """An embedded table, or 3 to 30 rows at distinct distances."""
    name = draw(st.sampled_from(["longwall-face", "gateroad-conveyor", None]))
    if name is not None:
        return embedded_dataset(name).stats
    distances = draw(st.lists(
        st.floats(min_value=0.1, max_value=1000.0), min_size=3, max_size=30,
        unique=True,
    ))
    means = draw(st.lists(
        st.floats(min_value=-110.0, max_value=-20.0),
        min_size=len(distances), max_size=len(distances),
    ))
    return make_stats(distances, means)


@settings(max_examples=200, deadline=None)
@given(
    stats=trend_surveys(),
    d0=st.floats(min_value=0.1, max_value=10.0),
    mode=st.sampled_from(["free", "anchored"]),
)
@example(stats=embedded_dataset("longwall-face").stats, d0=2.0, mode="free")
@example(stats=embedded_dataset("gateroad-conveyor").stats, d0=5.0, mode="anchored")
def test_fit_residuals_are_residual_y_of_its_model_bit_for_bit(stats, d0, mode):
    # The fit and residual_y take one trend formula, so no row differs.
    report = fit_path_loss(stats, d0=d0, intercept_mode=mode)
    assert report.y_values == residual_y(stats, report.model)
    assert report.residuals == residual_y(stats, report.model, scaled=False)


def test_fit_requires_three_rows_and_valid_mode():
    stats = make_stats([1.0, 2.0], [-50.0, -56.0])
    with pytest.raises(InsufficientDataError):
        fit_path_loss(stats)
    ok = make_stats([1.0, 2.0, 4.0], [-50.0, -56.0, -62.0])
    with pytest.raises(DataError):
        fit_path_loss(ok, intercept_mode="pinned")
    with pytest.raises(DataError):
        fit_path_loss(ok, d0=0.0)


def test_residual_y_definition():
    model = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    d = [1.0, 10.0, 100.0]
    exact = make_stats(d, [predict_mean_rss(model, di) for di in d])
    assert residual_y(exact, model) == (0.0, 0.0, 0.0)
    assert residual_y(exact, model, scaled=False) == (0.0, 0.0, 0.0)

    off = make_stats(d, [predict_mean_rss(model, di) + 1.96 for di in d])
    assert residual_y(off, model) == pytest.approx((1.0, 1.0, 1.0))
    assert residual_y(off, model, scaled=False) == pytest.approx((1.96,) * 3)


def test_residual_y_is_signed_rss_minus_fitted(longwall):
    report = fit_path_loss(longwall)
    values = residual_y(longwall, report.model)
    for row, y in zip(longwall.rows, values):
        fitted = predict_mean_rss(report.model, row.distance)
        assert y == pytest.approx((row.mean_rss - fitted) / 1.96, rel=1e-9)
    assert any(v < 0 for v in values) and any(v > 0 for v in values)


def test_sigma_fit_domain_covers_surveyed_span(longwall):
    report = fit_sigma_polynomial(longwall)
    assert report.sigma.d_min == 1.0
    assert report.sigma.d_max == 20.0
    assert report.target == "sample_sd"


def test_sigma_fit_stationarity_at_optimum(longwall, gateroad):
    # at the least-squares optimum, sum(resid * d^k) vanishes for k = 0..4
    for stats in (longwall, gateroad):
        sigma = fit_sigma_polynomial(stats).sigma
        for total in stationarity_sums(stats, sigma):
            assert abs(total) <= 1e-6


def test_sigma_fit_on_constant_column_gives_constant_polynomial():
    d = np.arange(1.0, 21.0)
    stats = make_stats(d, -50.0 - 2.0 * np.log10(d), sds=[1.5] * 20)
    report = fit_sigma_polynomial(stats)
    a, b, c, e, f = report.sigma.coefficients
    for coeff in (a, b, c, e):
        assert abs(coeff) <= 1e-9
    assert f == pytest.approx(1.5, abs=1e-9)
    assert report.fit.r2 == 0.0  # zero-variance convention
    assert report.fit.rmse == pytest.approx(0.0, abs=1e-9)


def test_sigma_fit_residual_target_fits_scaled_residuals(longwall):
    trend = fit_path_loss(longwall)
    report = fit_sigma_polynomial(longwall, target="residual_y", trend=trend.model)
    # oracle: quartic least squares on the scaled residuals via lstsq
    d = np.array(longwall.distances)
    y = np.array(residual_y(longwall, trend.model))
    vander = d[:, None] ** np.arange(4, -1, -1)
    ref, *_ = np.linalg.lstsq(vander, y, rcond=None)
    for got, want in zip(report.sigma.coefficients, ref):
        assert got == pytest.approx(float(want), abs=1e-6)
    assert report.target == "residual_y"


def test_sigma_fit_residual_target_fits_trend_when_not_given(longwall):
    implicit = fit_sigma_polynomial(longwall, target="residual_y")
    explicit = fit_sigma_polynomial(
        longwall, target="residual_y", trend=fit_path_loss(longwall).model
    )
    assert implicit.sigma == explicit.sigma


def test_sigma_fit_rejects_unknown_target(longwall):
    with pytest.raises(DataError):
        fit_sigma_polynomial(longwall, target="mad")


def test_one_sigma_target_choice_serves_the_fit_and_its_stationarity(longwall):
    trend = fit_path_loss(longwall, intercept_mode="anchored").model
    assert sigma_target(longwall).tolist() == list(longwall.sds)
    assert sigma_target(longwall, "residual_y", trend).tolist() == list(
        residual_y(longwall, trend)
    )
    assert sigma_target(longwall, "residual_y").tolist() == list(
        residual_y(longwall, fit_path_loss(longwall).model)
    )
    sigma = fit_sigma_polynomial(longwall, "residual_y", trend).sigma
    assert max(map(abs, stationarity_sums(longwall, sigma, "residual_y", trend))) < 1e-6
    message = "target must be one of ('sample_sd', 'residual_y'), got 'mad'"
    for call in (
        lambda: sigma_target(longwall, "mad"),
        lambda: fit_sigma_polynomial(longwall, target="mad"),
        lambda: stationarity_sums(longwall, sigma, target="mad"),
    ):
        with pytest.raises(DataError) as info:
            call()
        assert str(info.value) == message


def test_goodness_of_fit_matches_one_line_oracles():
    obs = np.array([1.0, 2.0, 4.0, 8.0, 9.0, 12.0])
    fit = np.array([1.5, 2.5, 3.5, 7.0, 9.5, 11.0])
    gof = goodness_of_fit(obs, fit, n_params=2)
    sse = float(np.sum((obs - fit) ** 2))
    sst = float(np.sum((obs - obs.mean()) ** 2))
    assert gof.sse == pytest.approx(sse, rel=1e-12)
    assert gof.r2 == pytest.approx(1.0 - sse / sst, rel=1e-12)
    assert gof.dfe == 4
    assert gof.n_obs == 6
    assert gof.rmse == pytest.approx(math.sqrt(sse / 4), rel=1e-12)
    assert gof.rmse_unadjusted == pytest.approx(math.sqrt(sse / 6), rel=1e-12)


def test_goodness_of_fit_needs_residual_degrees_of_freedom():
    with pytest.raises(InsufficientDataError):
        goodness_of_fit([1.0, 2.0], [1.0, 2.0], n_params=2)


@pytest.mark.parametrize(
    "observed, fitted, message",
    [
        ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0], "observed must be finite"),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], "fitted must be finite"),
        ([1e200, -1e200, 0.0], [0.0, 0.0, 0.0], "a sum of squares overflows"),
    ],
)
def test_goodness_of_fit_names_the_argument_it_cannot_sum(observed, fitted, message):
    with pytest.raises(DataError, match=message):
        goodness_of_fit(observed, fitted, n_params=1)


def test_rmse_uses_degrees_of_freedom_convention(longwall):
    # 20 rows, 5 quartic coefficients: divisor 15, not 20
    report = fit_sigma_polynomial(longwall)
    assert report.fit.dfe == 15
    assert report.fit.rmse == pytest.approx(
        math.sqrt(report.fit.sse / 15), rel=1e-12
    )
    assert report.fit.rmse_unadjusted == pytest.approx(
        math.sqrt(report.fit.sse / 20), rel=1e-12
    )
    assert report.fit.rmse_unadjusted < report.fit.rmse


def test_prr_correlations_reported_without_interpretation(longwall, gateroad):
    lw = prr_correlations(longwall)
    assert lw.prr_vs_sd == pytest.approx(-0.343820, abs=1e-4)
    assert lw.prr_vs_mean == pytest.approx(0.844390, abs=1e-4)
    assert lw.n_rows == 20
    gr = prr_correlations(gateroad)
    assert gr.prr_vs_sd == pytest.approx(-0.486721, abs=1e-4)
    assert gr.prr_vs_mean == pytest.approx(0.913792, abs=1e-4)
    # both surveys: reception tracks mean signal strength more tightly than
    # it tracks the spread; the library reports both and asserts neither
    assert abs(lw.prr_vs_mean) > abs(lw.prr_vs_sd)
    assert abs(gr.prr_vs_mean) > abs(gr.prr_vs_sd)


def test_prr_correlations_require_variation_and_presence():
    stats = make_stats([1.0, 2.0, 3.0], [-50.0, -55.0, -60.0], prrs=[95.0] * 3)
    with pytest.raises(DegenerateDataError, match="prr"):
        prr_correlations(stats)
    missing = make_stats([1.0, 2.0, 3.0], [-50.0, -55.0, -60.0])
    with pytest.raises(InsufficientDataError):
        prr_correlations(missing)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_prr_correlations_hold_for_columns_of_any_scale(scale):
    # Unscaled, corrcoef's sums overflow (1e160) or vanish (1e-170), with a
    # numpy warning, which pyproject.toml makes an error.
    sds = [k * scale for k in (1.0, 2.0, 3.0, 1.0, 2.0, 3.0)]
    prrs = [90.0, 91.0, 92.0, 93.0, 94.0, 95.0]
    stats = make_stats(range(1, 7), [-50.0] * 3 + [-60.0] * 3, sds=sds, prrs=prrs)
    corr = prr_correlations(stats)
    expected = statistics.correlation(prrs, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    assert corr.prr_vs_sd == pytest.approx(expected, rel=1e-14)


def test_stationarity_sums_nonzero_away_from_optimum(longwall):
    off = SigmaPolynomial(a=0, b=0, c=0, e=0, f=10.0, d_min=1.0, d_max=20.0)
    sums = stationarity_sums(longwall, off)
    assert max(abs(s) for s in sums) > 1.0


@pytest.mark.parametrize("target", ["sample_sd", "residual_y"])
@pytest.mark.parametrize("name", ["longwall-face", "gateroad-conveyor", "csv"])
@pytest.mark.parametrize("mode", ["free", "anchored"])
def test_sigma_fit_report_carries_its_series_bit_for_bit(
    longwall, gateroad, target, name, mode
):
    stats = {
        "longwall-face": longwall,
        "gateroad-conveyor": gateroad,
        "csv": load_stats_csv(save_stats_csv(gateroad), site="csv"),
    }[name]
    trend = fit_path_loss(stats, intercept_mode=mode).model
    report = fit_sigma_polynomial(stats, target=target, trend=trend)
    d = np.array(stats.distances)
    assert report.distances == stats.distances
    assert report.observed == tuple(sigma_target(stats, target, trend).tolist())
    assert report.fitted == tuple(polyval(report.sigma.coefficients, d).tolist())
    assert report.stationarity == stationarity_sums(
        stats, report.sigma, target=target, trend=trend
    )
