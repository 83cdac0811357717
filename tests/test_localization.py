"""Model inversion, confidence intervals, and range planning."""

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssifit import (
    ConstantSigma,
    DataError,
    LinkConstants,
    NumericalError,
    RssifitError,
    ShadowedPathLossModel,
    SigmaPolynomial,
    confidence_interval,
    estimate_distance,
    max_range,
    predict_mean_rss,
    sigma_at,
)
from rssifit.errors import positive, probability, real
from rssifit.localization import (
    RANGE_SEARCH_MAX,
    RANGE_TOLERANCE,
    LinkPlan,
    LocalizationEstimate,
    _scan_grid,
    _z,
)
from rssifit.models import _sigma, sigma_curve


def model(eta=2.0, rss_d0=-40.0, d0=1.0, sigma=None):
    return ShadowedPathLossModel(d0=d0, rss_d0=rss_d0, eta=eta, sigma=sigma)


def test_estimate_at_reference_rss_returns_d0():
    assert estimate_distance(model(), -40.0) == pytest.approx(1.0)
    assert estimate_distance(model(d0=3.0, rss_d0=-55.0), -55.0) == pytest.approx(3.0)


def test_decade_inversion():
    assert estimate_distance(model(eta=2.0, rss_d0=-40.0), -60.0) == pytest.approx(10.0)


def test_inversion_of_surveyed_trend_example():
    # forward at 10 m: -51.65 - 10*2.14 = -73.05; inversion must return 10 m
    m = model(eta=2.14, rss_d0=-51.65)
    assert predict_mean_rss(m, 10.0) == pytest.approx(-73.05)
    assert estimate_distance(m, -73.05) == pytest.approx(10.0, rel=1e-12)


def test_round_trip_over_log_grid_and_exponents():
    for eta in (0.5, 1.0, 2.0, 2.14, 4.0):
        m = model(eta=eta)
        for d in np.geomspace(1.0, 100.0, 50):
            rss = predict_mean_rss(m, float(d))
            assert abs(estimate_distance(m, rss) - d) / d <= 1e-9


def test_nonpositive_eta_is_not_invertible():
    with pytest.raises(DataError):
        estimate_distance(model(eta=0.0), -60.0)
    with pytest.raises(DataError):
        estimate_distance(model(eta=-1.5), -60.0)
    with pytest.raises(DataError):
        estimate_distance(model(), math.inf)


def test_reading_outside_invertible_range_is_a_data_error():
    # -1e6 dBm overflows 10**x; +1e6 dBm underflows the distance to 0.0
    for rss in (-1e6, 1e6):
        with pytest.raises(DataError, match=f"rss {rss!r} dBm"):
            estimate_distance(model(), rss)
    with pytest.raises(DataError, match="rss -1000000.0 dBm"):
        confidence_interval(model(sigma=ConstantSigma(2.0)), -1e6)


def test_interval_endpoints_from_hand_evaluated_quantile():
    # derived by hand: d = 10^((rss_d0 - rss -/+ z*sigma)/(10*eta)) with
    # z the exact 97.5% normal quantile and sigma constant 2 dB
    m = model(sigma=ConstantSigma(2.0))
    est = confidence_interval(m, -60.0, level=0.95)
    z = NormalDist().inv_cdf(0.975)
    assert est.d_hat == pytest.approx(10.0, rel=1e-12)
    assert est.d_lo == pytest.approx(10 ** ((20.0 - z * 2.0) / 20.0), rel=1e-12)
    assert est.d_hi == pytest.approx(10 ** ((20.0 + z * 2.0) / 20.0), rel=1e-12)
    assert est.d_lo == pytest.approx(6.368008, abs=1e-5)
    assert est.d_hi == pytest.approx(15.703498, abs=1e-5)
    assert est.sigma_used == 2.0
    assert not est.clamped


def test_zero_sigma_degenerates_to_point_interval():
    est = confidence_interval(model(sigma=ConstantSigma(0.0)), -60.0)
    assert est.d_lo == est.d_hat == est.d_hi


def test_higher_level_strictly_contains_lower():
    m = model(sigma=ConstantSigma(2.0))
    inner = confidence_interval(m, -60.0, level=0.95)
    outer = confidence_interval(m, -60.0, level=0.99)
    assert outer.d_lo < inner.d_lo
    assert outer.d_hi > inner.d_hi
    assert inner.d_lo < inner.d_hat < inner.d_hi


def test_interval_is_log_symmetric_for_constant_sigma():
    m = model(eta=1.7, rss_d0=-44.0, sigma=ConstantSigma(3.1))
    est = confidence_interval(m, -71.0, level=0.9)
    assert est.d_hi / est.d_hat == pytest.approx(est.d_hat / est.d_lo, rel=1e-9)


def test_interval_uses_sigma_at_point_estimate_with_clamp_flag():
    sigma = SigmaPolynomial(a=0, b=0, c=0, e=0.1, f=1.0, d_min=1.0, d_max=20.0)
    m = model(sigma=sigma)
    inside = confidence_interval(m, -60.0)  # d_hat = 10, inside the domain
    assert inside.sigma_used == pytest.approx(2.0)
    assert not inside.clamped
    outside = confidence_interval(m, -70.0)  # d_hat ~ 31.6, beyond d_max
    assert outside.sigma_used == pytest.approx(3.0)  # held at sigma(20)
    assert outside.clamped


def test_interval_requires_sigma_and_valid_level():
    with pytest.raises(DataError):
        confidence_interval(model(), -60.0)
    m = model(sigma=ConstantSigma(2.0))
    for level in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DataError):
            confidence_interval(m, -60.0, level=level)


def test_negative_fitted_sigma_is_a_numerical_error():
    sigma = SigmaPolynomial(a=0, b=0, c=0, e=0, f=-1.0, d_min=1.0, d_max=20.0)
    with pytest.raises(NumericalError):
        confidence_interval(model(sigma=sigma), -60.0)


def test_a_sigma_that_overflows_is_refused_by_d_wherever_it_is_used():
    # 1e305 d^4 overflows from ~6.5 m on, inside the [1, 20] m domain.
    sigma = SigmaPolynomial(a=1e305, b=0, c=0, e=0, f=1.0, d_min=1.0, d_max=20.0)
    m = model(sigma=sigma)
    with pytest.raises(NumericalError) as refused:
        confidence_interval(m, -60.0)  # d_hat = 10 m
    assert str(refused.value) == (
        "fitted sigma is not finite (inf dB) at d = 10 m; "
        "the sigma model is invalid there"
    )
    with pytest.raises(NumericalError, match=r"^fitted sigma is not finite \(inf dB\)"):
        max_range(m, LinkConstants(), outage_z=1.0)
    assert max_range(m, LinkConstants()) == max_range(model(), LinkConstants())


def test_zero_margin_range_matches_closed_form():
    # closed form: predict(d) = sens  =>  d = 10^((rss_d0 - sens)/(10*eta))
    m = model(eta=2.14, rss_d0=-51.65, sigma=ConstantSigma(2.0))
    plan = max_range(m, LinkConstants(receiver_sensitivity=-92.0), outage_z=0.0)
    closed = 10 ** ((-51.65 + 92.0) / (10 * 2.14))
    assert plan.max_range == pytest.approx(closed, abs=0.01)
    assert plan.margin_db == 0.0
    assert plan.outage_z == 0.0
    assert plan.sensitivity == -92.0


def test_margin_shrinks_range_monotonically():
    m = model(eta=2.14, rss_d0=-51.65, sigma=ConstantSigma(3.0))
    consts = LinkConstants()
    ranges = [
        max_range(m, consts, outage_z=z).max_range for z in (0.0, 1.0, 1.96, 3.0)
    ]
    assert all(a > b for a, b in zip(ranges, ranges[1:]))
    plan = max_range(m, consts, outage_z=1.96)
    assert plan.margin_db == pytest.approx(1.96 * 3.0)


def test_margin_range_obeys_closed_form_for_constant_sigma():
    m = model(eta=2.0, rss_d0=-40.0, sigma=ConstantSigma(4.0))
    plan = max_range(m, LinkConstants(receiver_sensitivity=-92.0), outage_z=1.5)
    closed = 10 ** ((-40.0 + 92.0 - 1.5 * 4.0) / 20.0)
    assert plan.max_range == pytest.approx(closed, abs=0.01)


def test_range_decreases_with_exponent():
    consts = LinkConstants()
    r1 = max_range(model(eta=1.5, rss_d0=-50.0), consts).max_range
    r2 = max_range(model(eta=2.5, rss_d0=-50.0), consts).max_range
    assert r2 < r1


def test_clamped_sigma_flagged_when_solution_extrapolates():
    sigma = SigmaPolynomial(a=0, b=0, c=0, e=0.1, f=1.0, d_min=1.0, d_max=20.0)
    m = model(eta=2.14, rss_d0=-51.65, sigma=sigma)
    plan = max_range(m, LinkConstants(), outage_z=1.0)
    assert plan.max_range > 20.0
    assert plan.clamped
    assert plan.margin_db == pytest.approx(3.0)  # sigma held at sigma(20)


def test_sensitivity_above_reference_power_means_no_coverage():
    with pytest.raises(DataError):
        max_range(model(rss_d0=-51.65), LinkConstants(receiver_sensitivity=-40.0))


def test_range_beyond_search_span_is_a_numerical_error():
    # eta = 0.1 puts the range at 10^52 m, far past the 1e6 m search ceiling
    m = model(eta=0.1, rss_d0=-40.0)
    with pytest.raises(NumericalError):
        max_range(m, LinkConstants(receiver_sensitivity=-92.0))


def test_plan_z_requires_sigma_when_positive():
    with pytest.raises(DataError):
        max_range(model(), LinkConstants(), outage_z=1.0)
    with pytest.raises(DataError):
        max_range(model(sigma=ConstantSigma(2.0)), LinkConstants(), outage_z=-1.0)


def libm_grid(d0):
    """max_range's documented scan points, d0 * (1e6 / d0) ** (k / 4096)."""
    return [d0 * (RANGE_SEARCH_MAX / d0) ** (k / 4096) for k in range(4097)]


def loop_max_range(m, constants, outage_z):
    """Reference max_range: the scan as one scalar objective call per point.

    The library's scan is vectorised; this keeps the per-point loop it
    replaced, with the same bisection and the same errors.
    """
    sens = constants.receiver_sensitivity

    def sigma(d):
        if m.sigma is None:
            raise DataError(
                "model has no fading model; fit or attach a sigma model first"
            )
        return sigma_at(m.sigma, d)  # which refuses a negative sigma

    def objective(d):
        mean = predict_mean_rss(m, d)
        if outage_z != 0.0:
            mean -= outage_z * sigma(d)[0]
        return mean - sens

    last_ok = first_bad_after = None
    for d in libm_grid(m.d0):
        if objective(d) >= 0.0:
            last_ok, first_bad_after = d, None
        elif first_bad_after is None:
            first_bad_after = d
    if last_ok is None:
        raise DataError(
            "margin-adjusted signal is below sensitivity everywhere at and "
            "beyond the reference distance"
        )
    if first_bad_after is None:
        raise NumericalError(
            f"margin-adjusted signal still above sensitivity at "
            f"{RANGE_SEARCH_MAX:g} m; no finite range within the search span"
        )
    lo, hi = last_ok, first_bad_after
    while hi - lo > 0.5 * RANGE_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if objective(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    if outage_z == 0.0 or m.sigma is None:
        margin, clamped = 0.0, False
    else:
        value, clamped = sigma(lo)
        margin = outage_z * value
    return LinkPlan(lo, margin, outage_z, sens, clamped)


def outcome(plan_fn, *args):
    try:
        return plan_fn(*args)
    except (DataError, NumericalError) as exc:
        return exc


def quartics(low):
    """Quartic sigmas; low = -1 lets sigma dip below zero, low = 0 does not."""

    def coefficient(bound):
        return st.floats(min_value=low * bound, max_value=bound)

    return st.builds(
        SigmaPolynomial,
        a=coefficient(1e-7),
        b=coefficient(1e-5),
        c=coefficient(1e-3),
        e=coefficient(0.2),
        f=coefficient(8.0),
        d_min=st.floats(min_value=0.5, max_value=5.0),
        d_max=st.floats(min_value=6.0, max_value=100.0),
    )


@settings(max_examples=200, deadline=None)
@given(
    eta=st.floats(min_value=0.5, max_value=6.0, exclude_min=True, exclude_max=True),
    rss_d0=st.floats(min_value=-70.0, max_value=-20.0),
    d0=st.floats(min_value=0.1, max_value=10.0),
    sigma=st.one_of(
        st.none(),
        st.builds(ConstantSigma, value=st.floats(min_value=0.0, max_value=15.0)),
        quartics(-1.0),
        quartics(0.0),
    ),
    gap=st.floats(min_value=0.01, max_value=90.0),
    z=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
)
def test_max_range_matches_per_point_loop(eta, rss_d0, d0, sigma, gap, z):
    # sensitivity = rss_d0 - gap: max_range rejects one at or above rss_d0
    # before it scans, and the reference leaves that check out
    m = model(eta=eta, rss_d0=rss_d0, d0=d0, sigma=sigma)
    sensitivity = rss_d0 - gap
    constants = LinkConstants(receiver_sensitivity=sensitivity)
    got = outcome(max_range, m, constants, z)
    want = outcome(loop_max_range, m, constants, z)
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    # The scan evaluates the loop's objective at the loop's points: one bracket.
    assert got == want and repr(got) == repr(want)


def test_a_sigma_bad_only_at_d_max_is_refused_by_the_first_point_beyond():
    # sigma(d) = r - d is >= 0 at every scan point up to d_max = 20 m and
    # negative at d_max itself: the scan first meets it where sigma is held
    # at sigma(d_max), at the first point beyond d_max.
    grid = libm_grid(1.0)
    k = next(i for i, d in enumerate(grid) if d > 20.0)
    r = 0.5 * (grid[k - 1] + 20.0)
    sigma = SigmaPolynomial(a=0, b=0, c=0, e=-1.0, f=r, d_min=1.0, d_max=20.0)
    m = model(sigma=sigma)
    constants = LinkConstants(receiver_sensitivity=-100.0)
    got = outcome(max_range, m, constants, 1.0)
    want = outcome(loop_max_range, m, constants, 1.0)
    assert type(got) is type(want) is NumericalError and str(got) == str(want)
    assert str(got).startswith("fitted sigma is negative")
    assert f"at d = {grid[k]:.4g} m;" in str(got)


def test_uninvertible_endpoint_error_names_the_reading():
    # rss - z*sigma = -6000 - 4.89*300 = -7467 dBm overflows 10**x
    m = model(sigma=ConstantSigma(300.0))
    with pytest.raises(DataError) as info:
        confidence_interval(m, -6000.0, level=0.999999)
    message = str(info.value)
    assert "rss -6000.0 dBm" in message
    assert "0.999999" in message
    assert "upper endpoint" in message
    assert "rss -7467" not in message
    # rss + z*sigma = 7467 dBm underflows the distance to 0
    with pytest.raises(DataError, match="lower endpoint .* rss 6000.0 dBm"):
        confidence_interval(m, 6000.0, level=0.999999)


def test_interval_refusals_come_in_a_fixed_order():
    # The level first, then the reading, then a missing or negative sigma,
    # then the lower endpoint before the upper one.
    negative = SigmaPolynomial(a=0, b=0, c=0, e=0, f=-1.0, d_min=1.0, d_max=20.0)
    with pytest.raises(DataError, match="^level must be in"):
        confidence_interval(model(), 1e6, level=1.5)
    for sigma in (None, negative):
        with pytest.raises(DataError, match="^rss 1000000.0 dBm is outside"):
            confidence_interval(model(sigma=sigma), 1e6)
    with pytest.raises(DataError, match="^model has no fading model"):
        confidence_interval(model(), -60.0)
    with pytest.raises(NumericalError, match="^fitted sigma is negative"):
        confidence_interval(model(sigma=negative), -60.0)
    # z*sigma = 1.96 * 1e308 overflows to inf: rss + inf inverts to 0 m and
    # rss - inf to inf m. Both endpoints fail; the lower one is named.
    with pytest.raises(DataError, match="^the lower endpoint .* = inf dBm"):
        confidence_interval(model(sigma=ConstantSigma(1e308)), -60.0)


def test_a_level_whose_quantile_rounds_to_one_is_a_data_error():
    m = model(sigma=ConstantSigma(2.0))
    # (1 + level) / 2 rounds to 1.0, which has no normal quantile
    with pytest.raises(DataError, match="level 0.9999999999999999 is too close to 1"):
        confidence_interval(m, -60.0, level=0.9999999999999999)
    # one float lower, (1 + level) / 2 is below 1 and the interval exists
    level = 0.9999999999999998
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    est = confidence_interval(m, -60.0, level=level)
    assert est.d_lo == estimate_distance(m, -60.0 + z * 2.0)
    assert est.d_hi == estimate_distance(m, -60.0 - z * 2.0)


def public_interval(m, rss, level):
    """confidence_interval through public calls and the public constructor."""
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    d_hat = estimate_distance(m, rss)
    sigma, clamped = sigma_at(m.sigma, d_hat)
    d_lo = estimate_distance(m, rss + z * sigma)
    d_hi = estimate_distance(m, rss - z * sigma)
    return LocalizationEstimate(d_hat, d_lo, d_hi, level, sigma, clamped)


def reference_interval(m, rss, level):
    """confidence_interval as three inversions, each refused in its own words.

    A copy of the library's body before it inlined them: it pins the type,
    the message and the order of every refusal.
    """

    def invert(r):
        try:
            d = m.d0 * 10.0 ** ((m.rss_d0 - r) / (10.0 * m.eta))
        except OverflowError:
            d = math.inf
        if not 0.0 < d < math.inf:
            raise DataError(
                f"rss {r!r} dBm is outside the range the model can invert: "
                "the distance is not a finite positive number"
            )
        return d

    def endpoint(name, sign, shifted):
        try:
            return invert(shifted)
        except DataError:
            raise DataError(
                f"the {name} endpoint of the {level!r} interval for rss {rss!r} dBm "
                f"cannot be inverted: rss {sign} z*sigma = {shifted:.6g} dBm is "
                "outside the range the model can invert"
            ) from None

    level = probability("level", level)
    z = _z(level)
    positive("eta", m.eta)
    rss = real("rss", rss)
    d_hat = invert(rss)
    if m.sigma is None:
        raise DataError("model has no fading model; fit or attach a sigma model first")
    sigma, clamped = _sigma(m.sigma, d_hat)
    d_lo = endpoint("lower", "+", rss + z * sigma)
    d_hi = endpoint("upper", "-", rss - z * sigma)
    return LocalizationEstimate(d_hat, d_lo, d_hi, level, sigma, clamped)


def wide_quartics():
    """Quartic sigmas that may dip below zero or overflow far out."""
    coefficient = st.floats(min_value=-1e3, max_value=1e3)
    return st.builds(
        SigmaPolynomial,
        a=coefficient, b=coefficient, c=coefficient, e=coefficient, f=coefficient,
        d_min=st.floats(min_value=1e-3, max_value=5.0),
        d_max=st.floats(min_value=6.0, max_value=1e80),
    )


@settings(max_examples=400, deadline=None)
@given(
    eta=st.floats(min_value=-0.5, max_value=8.0),
    rss_d0=st.floats(min_value=-120.0, max_value=0.0),
    d0=st.floats(min_value=1e-3, max_value=1e3),
    sigma=st.one_of(
        st.none(),
        st.builds(ConstantSigma, value=st.floats(min_value=0.0, max_value=400.0)),
        quartics(-1.0),
        quartics(0.0),
        wide_quartics(),
    ),
    rss=st.one_of(
        st.floats(min_value=-150.0, max_value=0.0),
        st.integers(min_value=-150, max_value=0),
        st.sampled_from((-1e4, 1e4, math.inf, math.nan)),
    ),
    level=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=0.5, max_value=0.999).map(np.float64),
        st.sampled_from((0.95, 1e-17, 0.9999999999999998, 0.9999999999999999, 1.0)),
    ),
)
def test_interval_equals_the_publicly_constructed_estimate(
    eta, rss_d0, d0, sigma, rss, level
):
    # The interval fills its estimate in place, skipping the field checks
    # that the steps before it imply; the public constructor, fed the same
    # values, must agree exactly, and every refusal must be the reference's.
    m = model(eta=eta, rss_d0=rss_d0, d0=d0, sigma=sigma)
    try:
        got = confidence_interval(m, rss, level=level)
    except RssifitError as exc:
        with pytest.raises(RssifitError) as want:
            reference_interval(m, rss, level)
        assert type(exc) is type(want.value) and str(exc) == str(want.value)
        return
    assert reference_interval(m, rss, level) == got
    want = public_interval(m, rss, level)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    fields = dataclasses.astuple(got)
    assert [type(v) for v in fields] == [float] * 5 + [bool]
    assert LocalizationEstimate(*fields) == got


def public_bisection(m, constants, outage_z):
    """max_range with its bisection through public predict_mean_rss/sigma_at.

    The scan is the library's own; None when max_range must refuse it.
    """
    sens = constants.receiver_sensitivity
    grid, x = _scan_grid(m.d0)
    with np.errstate(over="ignore", invalid="ignore"):
        signal = m.rss_d0 - m.eta * x
        if outage_z != 0.0:
            signal -= outage_z * sigma_curve(m.sigma, grid)
        ok = np.flatnonzero(signal - sens >= 0.0)
    if not ok.size or ok[-1] == grid.size - 1:
        return None

    def margin(d):
        if outage_z == 0.0:
            return 0.0, False
        value, clamped = sigma_at(m.sigma, d)
        return outage_z * value, clamped

    lo, hi = float(grid[ok[-1]]), float(grid[ok[-1] + 1])
    while hi - lo > 0.5 * RANGE_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if predict_mean_rss(m, mid) - margin(mid)[0] - sens >= 0.0:
            lo = mid
        else:
            hi = mid
    margin_db, clamped = margin(lo)
    return LinkPlan(lo, margin_db, outage_z, sens, clamped)


@settings(max_examples=300, deadline=None)
@given(
    eta=st.floats(min_value=0.5, max_value=6.0, exclude_min=True, exclude_max=True),
    rss_d0=st.floats(min_value=-70.0, max_value=-20.0),
    d0=st.floats(min_value=0.1, max_value=10.0),
    sigma=st.one_of(
        st.builds(ConstantSigma, value=st.floats(min_value=0.0, max_value=15.0)),
        quartics(-1.0),
        quartics(0.0),
    ),
    gap=st.floats(min_value=0.01, max_value=90.0),
    z=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
)
def test_max_range_equals_the_public_bisection_bit_for_bit(
    eta, rss_d0, d0, sigma, gap, z
):
    m = model(eta=eta, rss_d0=rss_d0, d0=d0, sigma=sigma)
    constants = LinkConstants(receiver_sensitivity=rss_d0 - gap)
    got = outcome(max_range, m, constants, z)
    want = outcome(public_bisection, m, constants, z)
    if want is None or isinstance(want, Exception):
        assert isinstance(got, (DataError, NumericalError))
        if want is not None:
            assert type(got) is type(want) and str(got) == str(want)
        return
    assert got == want and repr(got) == repr(want)


def test_the_scan_grid_is_built_once_per_d0_and_never_written():
    m = model(eta=2.5, d0=1.7, sigma=ConstantSigma(4.0))
    scan = grid, x = _scan_grid(m.d0)
    # The points and their x = 10*log10(d/d0) are libm's, not numpy's SIMD ones.
    assert grid.tolist() == libm_grid(1.7) and grid.dtype == np.float64
    assert x.tolist() == [10.0 * math.log10(d / 1.7) for d in libm_grid(1.7)]
    assert _scan_grid(1.7) is scan
    for column in scan:
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0
    before = grid.tobytes(), x.tobytes()
    for z in (0.0, 1.28, 1.96):
        max_range(m, LinkConstants(), outage_z=z)
    assert (grid.tobytes(), x.tobytes()) == before
    # Models that share d0 share the grid, and nothing else.
    sigma = SigmaPolynomial(a=0, b=0, c=0.01, e=0.2, f=3.0, d_min=1.0, d_max=20.0)
    for eta in (1.8, 3.1):
        shared = model(eta=eta, d0=1.7, sigma=sigma)
        for z in (0.0, 1.96):
            got = max_range(shared, LinkConstants(), outage_z=z)
            want = public_bisection(shared, LinkConstants(), z)
            assert got == want and repr(got) == repr(want)


def test_the_one_step_estimate_is_an_ordinary_frozen_dataclass():
    est = confidence_interval(model(sigma=ConstantSigma(3.0)), -60.0)
    names = [f.name for f in dataclasses.fields(est)]
    assert list(vars(est)) == names
    assert names == ["d_hat", "d_lo", "d_hi", "level", "sigma_used", "clamped"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.d_hat = 1.0
    wider = dataclasses.replace(est, level=0.99)
    assert wider.level == 0.99 and wider.d_hat == est.d_hat
    assert dataclasses.replace(est) == est
