"""Model inversion: distance from RSSI, confidence intervals, range planning.

The mean-RSS trend is exactly invertible, so the point estimate is closed
form. Interval endpoints come from re-inverting rss +/- z*sigma, where sigma
is the fading spread evaluated once at the point estimate (a single
fixed-point step; sigma varies slowly and is clamped, so iterating to
self-consistency buys nothing and would blur the definition).

Range planning asks the opposite question: out to what distance does the
predicted signal, less an outage margin of z sigma, stay above the receiver
sensitivity? That is solved numerically rather than by algebra so clamped or
non-monotone sigma shapes are handled uniformly: one vectorised pass over a
logarithmic grid brackets the last sign change, then bisection on the scalar
objective tightens it. The closed-form inversion (valid when z = 0) serves
as an independent check elsewhere. Planned ranges beyond the surveyed span
rest on a clamped sigma and deserve skepticism, so the result records
whether clamping occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DataError, NumericalError
from .models import (
    LinkConstants,
    ShadowedPathLossModel,
    mean_rss_curve,
    predict_mean_rss,
    sigma_at,
    sigma_curve,
)

# Bisection search ceiling and tolerance for max_range, in metres.
RANGE_SEARCH_MAX = 1e6
RANGE_TOLERANCE = 0.01


def check_level(level: float) -> None:
    """Reject a confidence level outside the open interval (0, 1)."""
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level!r}")


@dataclass(frozen=True)
class LocalizationEstimate:
    """Distance estimate with a two-sided confidence interval.

    ``sigma_used`` is the fading SD (dB) the interval was built from;
    ``clamped`` reports whether its evaluation hit the sigma model's domain
    boundary, which flags an extrapolated interval.
    """

    d_hat: float
    d_lo: float
    d_hi: float
    level: float
    sigma_used: float
    clamped: bool

    def __post_init__(self) -> None:
        check_level(self.level)
        if not 0.0 < self.d_lo <= self.d_hat <= self.d_hi:
            raise DataError(
                "interval must satisfy 0 < d_lo <= d_hat <= d_hi, got "
                f"({self.d_lo!r}, {self.d_hat!r}, {self.d_hi!r})"
            )


@dataclass(frozen=True)
class LinkPlan:
    """Maximum usable range under an outage margin of ``outage_z`` sigma."""

    max_range: float
    margin_db: float
    outage_z: float
    sensitivity: float
    clamped: bool

    def __post_init__(self) -> None:
        if self.max_range <= 0:
            raise DataError(f"max_range must be > 0, got {self.max_range!r}")
        if self.margin_db < 0:
            raise DataError(f"margin_db must be >= 0, got {self.margin_db!r}")


def estimate_distance(model: ShadowedPathLossModel, rss: float) -> float:
    """Invert the mean trend: d = d0 * 10^((rss_d0 - rss) / (10 eta)).

    Exact inverse of the mean-RSS prediction. A non-positive eta has no
    inverse (RSS would not decrease with distance).
    """
    if model.eta <= 0:
        raise DataError(
            f"cannot invert a model with eta <= 0 (eta = {model.eta!r})"
        )
    if not math.isfinite(rss):
        raise DataError(f"rss must be finite, got {rss!r}")
    try:
        d = model.d0 * 10.0 ** ((model.rss_d0 - rss) / (10.0 * model.eta))
    except OverflowError:
        d = math.inf
    if not 0.0 < d < math.inf:
        raise DataError(
            f"rss {rss!r} dBm is outside the range the model can invert: "
            "the distance is not a finite positive number"
        )
    return d


def _no_sigma() -> DataError:
    return DataError(
        "model has no fading model; fit or attach a sigma model first"
    )


def _negative_sigma(value: float, d: float) -> NumericalError:
    return NumericalError(
        f"fitted sigma is negative ({value:.4g} dB) at d = {d:.4g} m; "
        "the sigma model is invalid there"
    )


def _sigma_for(model: ShadowedPathLossModel, d: float) -> tuple[float, bool]:
    if model.sigma is None:
        raise _no_sigma()
    value, clamped = sigma_at(model.sigma, d)
    if value < 0:
        raise _negative_sigma(value, d)
    return value, clamped


def _uninvertible_endpoint(
    name: str, sign: str, rss: float, level: float, shifted: float
) -> DataError:
    return DataError(
        f"the {name} endpoint of the {level!r} interval for rss {rss!r} dBm "
        f"cannot be inverted: rss {sign} z*sigma = {shifted:.6g} dBm is "
        "outside the range the model can invert"
    )


def confidence_interval(
    model: ShadowedPathLossModel, rss: float, level: float = 0.95
) -> LocalizationEstimate:
    """Distance estimate with a two-sided confidence interval.

    sigma is evaluated at the point estimate, then the endpoints are the
    trend inversions of rss +/- z*sigma with z the two-sided normal quantile
    for ``level``. A stronger signal means a shorter distance, so the +z
    perturbation gives the lower endpoint.
    """
    check_level(level)
    d_hat = estimate_distance(model, rss)
    sigma, clamped = _sigma_for(model, d_hat)
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    shifted = rss + z * sigma
    try:
        d_lo = estimate_distance(model, shifted)
    except DataError:
        raise _uninvertible_endpoint("lower", "+", rss, level, shifted) from None
    shifted = rss - z * sigma
    try:
        d_hi = estimate_distance(model, shifted)
    except DataError:
        raise _uninvertible_endpoint("upper", "-", rss, level, shifted) from None
    return LocalizationEstimate(
        d_hat=d_hat,
        d_lo=d_lo,
        d_hi=d_hi,
        level=level,
        sigma_used=sigma,
        clamped=clamped,
    )


def _downlink_margin(model: ShadowedPathLossModel, outage_z: float, d: float) -> float:
    """predict(d) - z*sigma(d) - sensitivity, without the sensitivity term."""
    mean = predict_mean_rss(model, d)
    if outage_z == 0.0:
        return mean
    sigma, _ = _sigma_for(model, d)
    return mean - outage_z * sigma


def max_range(
    model: ShadowedPathLossModel,
    constants: LinkConstants = LinkConstants(),
    outage_z: float = 0.0,
) -> LinkPlan:
    """Largest distance whose margin-adjusted RSS stays above sensitivity.

    Finds the last point of {d : predict(d) - z*sigma(d) >= sensitivity} on
    [d0, 1e6 m]. A logarithmic scan of 4097 points, evaluated in one
    vectorised pass, locates the final sign change (sigma need not be
    monotone, so the first bracket from the left would be wrong); bisection
    on the scalar objective then tightens it to +/- 0.01 m. When z > 0 a
    sigma that is negative at a scanned point is a NumericalError naming
    the first such point.
    """
    if model.eta <= 0:
        raise DataError(f"max_range requires eta > 0, got {model.eta!r}")
    if not math.isfinite(outage_z) or outage_z < 0:
        raise DataError(f"outage_z must be finite and >= 0, got {outage_z!r}")
    sens = constants.receiver_sensitivity
    if sens >= model.rss_d0:
        raise DataError(
            f"sensitivity {sens!r} dBm is not below rss_d0 {model.rss_d0!r} "
            "dBm; the link has no coverage even at the reference distance"
        )

    def objective(d: float) -> float:
        return _downlink_margin(model, outage_z, d) - sens

    grid = np.geomspace(model.d0, RANGE_SEARCH_MAX, 4097)
    # Python float arithmetic overflows to inf silently; so does this scan.
    with np.errstate(over="ignore", invalid="ignore"):
        signal = mean_rss_curve(model, grid)
        if outage_z != 0.0:
            if model.sigma is None:
                raise _no_sigma()
            spread = sigma_curve(model.sigma, grid)
            negative = np.flatnonzero(spread < 0)
            if negative.size:
                i = negative[0]
                raise _negative_sigma(float(spread[i]), float(grid[i]))
            signal -= outage_z * spread
        ok = np.flatnonzero(signal - sens >= 0.0)
    if not ok.size:
        raise DataError(
            "margin-adjusted signal is below sensitivity everywhere at and "
            "beyond the reference distance"
        )
    if ok[-1] == grid.size - 1:
        raise NumericalError(
            f"margin-adjusted signal still above sensitivity at "
            f"{RANGE_SEARCH_MAX:g} m; no finite range within the search span"
        )

    # Return the feasible endpoint; halving the bracket below half the
    # tolerance keeps it within RANGE_TOLERANCE of the true boundary.
    lo, hi = float(grid[ok[-1]]), float(grid[ok[-1] + 1])
    while hi - lo > 0.5 * RANGE_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if objective(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    solution = lo
    if outage_z == 0.0 or model.sigma is None:
        margin, clamped = 0.0, False
    else:
        sigma, clamped = _sigma_for(model, solution)
        margin = outage_z * sigma
    return LinkPlan(
        max_range=solution,
        margin_db=margin,
        outage_z=outage_z,
        sensitivity=sens,
        clamped=clamped,
    )
