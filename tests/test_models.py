"""Forward propagation models and sigma evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rssifit import (
    ConstantSigma,
    DataError,
    FreeSpaceModel,
    LinkConstants,
    NumericalError,
    ShadowedPathLossModel,
    SigmaPolynomial,
    TwoRayModel,
    free_space_rx,
    path_loss_db,
    predict_mean_rss,
    rss_from_path_loss,
    shadow_pdf,
    sigma_at,
    two_ray_rx,
)
from rssifit.models import _sigma, sigma_curve


def test_free_space_power_quarters_when_distance_doubles():
    m = FreeSpaceModel(c_t=1.0, tx_power=4.0)
    assert free_space_rx(m, 2.0) == pytest.approx(free_space_rx(m, 1.0) / 4.0)


def test_two_ray_power_sixteenths_when_distance_doubles():
    m = TwoRayModel(c_t2=1.0, tx_power=4.0)
    assert two_ray_rx(m, 2.0) == pytest.approx(two_ray_rx(m, 1.0) / 16.0)


@pytest.mark.parametrize(
    "rx, model, d",
    [
        (free_space_rx, FreeSpaceModel(1.0, 1.0), 5e-324),
        (free_space_rx, FreeSpaceModel(1.0, 1.0), 1e-170),  # d * d underflows
        (free_space_rx, FreeSpaceModel(1e200, 1e200), 1.0),  # c_t * tx overflows
        (two_ray_rx, TwoRayModel(1.0, 1.0), 1e-100),  # d**4 underflows
        (two_ray_rx, TwoRayModel(1e200, 1e200), 1e300),  # inf / inf
    ],
)
def test_received_power_that_is_not_finite_is_refused_naming_d(rx, model, d):
    with pytest.raises(DataError, match=re.escape(f"received power at d {d!r} m ")):
        rx(model, d)


def test_received_power_keeps_its_bits_where_finite():
    for d in (1e-70, 0.3, 7.0, 1e150, 1e300, 1.7e308):
        assert free_space_rx(FreeSpaceModel(3.0, 0.7), d) == 3.0 * 0.7 / (d * d)
        assert two_ray_rx(TwoRayModel(3.0, 0.7), d) == 3.0 * 0.7 / (d * d * d * d)


def test_path_loss_is_pt_minus_pr():
    assert path_loss_db(10.0, -60.0) == 70.0
    assert rss_from_path_loss(10.0, 70.0) == -60.0


def test_mean_rss_drops_10_eta_per_decade():
    m = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    assert predict_mean_rss(m, 1.0) == -40.0
    assert predict_mean_rss(m, 10.0) == pytest.approx(-60.0)
    assert predict_mean_rss(m, 100.0) == pytest.approx(-80.0)


def test_mean_rss_respects_reference_distance():
    m = ShadowedPathLossModel(d0=2.0, rss_d0=-50.0, eta=3.0)
    assert predict_mean_rss(m, 2.0) == -50.0
    assert predict_mean_rss(m, 20.0) == pytest.approx(-80.0)


def test_waveguide_exponent_below_two_decays_slower():
    fast = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    slow = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=1.5)
    assert predict_mean_rss(slow, 50.0) > predict_mean_rss(fast, 50.0)


def test_sigma_polynomial_evaluates_horner_form():
    # sigma(d) = d^4 + 2d^3 + 3d^2 + 4d + 5 at d=2: 16+16+12+8+5 = 57
    s = SigmaPolynomial(a=1, b=2, c=3, e=4, f=5, d_min=1.0, d_max=10.0)
    value = sigma_at(s, 2.0)
    assert value.value == pytest.approx(57.0)
    assert not value.clamped


def test_sigma_polynomial_clamps_outside_domain():
    s = SigmaPolynomial(a=0, b=0, c=0, e=1, f=0, d_min=1.0, d_max=20.0)
    below = sigma_at(s, 0.5)
    above = sigma_at(s, 40.0)
    assert below == (1.0, True)
    assert above == (20.0, True)
    assert sigma_at(s, 20.0) == (20.0, False)


def test_constant_sigma_never_clamps():
    s = ConstantSigma(2.0)
    assert sigma_at(s, 0.001) == (2.0, False)
    assert sigma_at(s, 1e6) == (2.0, False)


# 1e305 d^4 overflows for d above ~6.5 m, inside the [1, 20] m domain.
_OVERFLOWING = SigmaPolynomial(a=1e305, b=0, c=0, e=0, f=1.0, d_min=1.0, d_max=20.0)


def test_sigma_curve_matches_scalar_evaluations():
    d = np.geomspace(0.3, 1e6, 301)
    for sigma in (
        SigmaPolynomial(
            a=2.6e-6, b=0.0062, c=-0.23, e=2.4, f=-1.7, d_min=1.0, d_max=20.0
        ),
        ConstantSigma(3.5),
        # 1e305 d^4 overflows above ~6.5 m: both forms refuse its first point,
        # and numpy's overflow warning (an error under this suite) stays inside
        _OVERFLOWING,
        # negative for 2.93 < d < 17.07: both forms refuse its first point
        SigmaPolynomial(a=0, b=0, c=0.1, e=-2.0, f=5.0, d_min=1.0, d_max=20.0),
    ):
        scalar = outcome(lambda: [sigma_at(sigma, float(x)).value for x in d])
        assert outcome(lambda: sigma_curve(sigma, d).tolist()) == scalar
    assert scalar == (
        "fitted sigma is negative (-0.1017 dB) at d = 3.001 m; "
        "the sigma model is invalid there"
    )


def test_a_sigma_that_is_not_finite_is_refused_by_d():
    assert outcome(lambda: sigma_at(_OVERFLOWING, 10.0)) == (
        "fitted sigma is not finite (inf dB) at d = 10 m; "
        "the sigma model is invalid there"
    )
    falling = SigmaPolynomial(a=-1e305, b=0, c=0, e=0, f=0, d_min=1.0, d_max=20.0)
    assert outcome(lambda: sigma_at(falling, 10.0)).startswith(
        "fitted sigma is not finite (-inf dB) at d = 10 m"
    )
    with pytest.raises(NumericalError, match=r"not finite \(nan dB\) at d = nan m"):
        _sigma(_POLY, math.nan)
    finite = np.arange(1.0, 7.0)
    assert sigma_curve(_OVERFLOWING, finite).tolist() == [
        sigma_at(_OVERFLOWING, float(x)).value for x in finite
    ]
    assert sigma_curve(_OVERFLOWING, finite[:0]).size == 0


def test_a_density_that_overflows_is_refused_by_psi_and_sigma():
    for sigma in (5e-324, 1e-310):
        message = f"psi 0.0 dB, sigma {sigma!r} dB overflows"
        with pytest.raises(DataError, match=re.escape(message)):
            shadow_pdf(0.0, sigma)
    assert math.isfinite(shadow_pdf(0.0, 1e-300))
    assert shadow_pdf(1.0, 5e-324) == 0.0  # exp(-inf): nothing overflows


def outcome(evaluate):
    """What ``evaluate()`` returns, or the message of its refusal."""
    try:
        return evaluate()
    except NumericalError as exc:
        return str(exc)


def test_shadow_pdf_matches_gaussian_density():
    # oracle: density of N(0, sigma) at psi, closed form recomputed inline
    sigma, psi = 2.0, 1.5
    expected = math.exp(-(psi**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    assert shadow_pdf(psi, sigma) == pytest.approx(expected, rel=1e-15)
    assert shadow_pdf(0.0, 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_shadow_pdf_symmetric_and_normalized():
    assert shadow_pdf(1.3, 2.5) == shadow_pdf(-1.3, 2.5)
    # trapezoid integral over +-8 sigma approximates 1
    sigma = 3.0
    steps = 4000
    width = 16 * sigma / steps
    total = sum(
        shadow_pdf(-8 * sigma + i * width, sigma) for i in range(steps + 1)
    )
    total -= 0.5 * (shadow_pdf(-8 * sigma, sigma) + shadow_pdf(8 * sigma, sigma))
    assert total * width == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("bad_d", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_distance_rejected(bad_d):
    m = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    with pytest.raises(DataError):
        predict_mean_rss(m, bad_d)


def test_model_validation_rejects_bad_fields():
    with pytest.raises(DataError):
        ShadowedPathLossModel(d0=0.0, rss_d0=-40.0, eta=2.0)
    with pytest.raises(DataError):
        ShadowedPathLossModel(d0=1.0, rss_d0=math.nan, eta=2.0)
    with pytest.raises(DataError):
        FreeSpaceModel(c_t=-1.0, tx_power=1.0)
    with pytest.raises(DataError):
        ConstantSigma(-0.5)
    with pytest.raises(DataError):
        SigmaPolynomial(a=0, b=0, c=0, e=0, f=1, d_min=5.0, d_max=5.0)
    with pytest.raises(DataError):
        LinkConstants(receiver_sensitivity=3.0)


def test_models_are_immutable():
    m = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    with pytest.raises(AttributeError):
        m.eta = 3.0


def test_default_sensitivity_is_minus_92_dbm():
    assert LinkConstants().receiver_sensitivity == -92.0


_POLY = SigmaPolynomial(a=0.0, b=0.0, c=0.01, e=0.2, f=3.0, d_min=1.5, d_max=20.0)
_EDGES = [
    math.nextafter(edge, toward)
    for edge in (_POLY.d_min, _POLY.d_max)
    for toward in (0.0, edge, math.inf)
]


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_sigma_clamps_exactly_outside_its_domain(d):
    # Each domain endpoint and its two neighbouring floats, then any distance.
    for x in (*_EDGES, d):
        assert sigma_at(_POLY, x).clamped == (not _POLY.d_min <= x <= _POLY.d_max)
        assert sigma_at(ConstantSigma(2.0), x) == (2.0, False)


def test_a_distance_whose_ratio_to_d0_underflows_is_refused_by_name():
    m = ShadowedPathLossModel(d0=1e10, rss_d0=-40.0, eta=2.0)
    for d in (1e-320, 5e-324):
        with pytest.raises(DataError, match=f"d {d!r} m .* d0 10000000000.0 m"):
            predict_mean_rss(m, d)
    # The same d beside a d0 of 1 m has a ratio float64 can hold.
    near = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    assert predict_mean_rss(near, 1e-320) == pytest.approx(-40.0 + 20.0 * 320.0)


def test_a_mean_that_overflows_is_refused_by_name():
    # eta * x overflows at x = 10 * log10(d / d0) = +-10. At d0, x is 0 and
    # the mean is rss_d0 exactly: eta * 0 forms no 10 * eta to overflow.
    huge = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=1e308)
    for d in (10.0, 0.1):
        with pytest.raises(DataError, match=f"mean RSS at d {d!r} m overflows"):
            predict_mean_rss(huge, d)
    assert predict_mean_rss(huge, 1.0) == -40.0
    # A finite mean of any size is still returned; one step beyond, refused.
    big = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=1e307)
    assert predict_mean_rss(big, 10.0) == -40.0 - 1e308
    with pytest.raises(DataError, match="overflows"):
        predict_mean_rss(big, 100.0)
