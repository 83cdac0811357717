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

from .errors import DataError, NumericalError, nonnegative, positive, probability
from .errors import flag, real, settle
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

_NORMAL = NormalDist()  # whose quantiles give the intervals' z


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
        settle(self, real, "d_hat", "d_lo", "d_hi", "sigma_used")
        settle(self, probability, "level")
        if self.clamped.__class__ is not bool:  # a bool skips the rule's call
            object.__setattr__(self, "clamped", flag("clamped", self.clamped))
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
        settle(self, positive, "max_range")
        settle(self, nonnegative, "margin_db", "outage_z")
        settle(self, real, "sensitivity")
        if self.clamped.__class__ is not bool:  # a bool skips the rule's call
            object.__setattr__(self, "clamped", flag("clamped", self.clamped))


def estimate_distance(model: ShadowedPathLossModel, rss: float) -> float:
    """Invert the mean trend: d = d0 * 10^((rss_d0 - rss) / (10 eta)).

    Exact inverse of the mean-RSS prediction. A non-positive eta has no
    inverse (RSS would not decrease with distance).
    """
    positive("eta", model.eta)
    return _invert(model, real("rss", rss))


def _invert(model: ShadowedPathLossModel, rss: float) -> float:
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
    return DataError("model has no fading model; fit or attach a sigma model first")


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
    level = probability("level", level)
    d_hat = estimate_distance(model, rss)
    rss = float(rss)  # estimate_distance has checked it
    if model.sigma is None:
        raise _no_sigma()
    sigma, clamped = sigma_at(model.sigma, d_hat)
    z = _NORMAL.inv_cdf((1.0 + level) / 2.0)
    shifted = rss + z * sigma
    try:
        d_lo = _invert(model, shifted)
    except DataError:
        raise _uninvertible_endpoint("lower", "+", rss, level, shifted) from None
    shifted = rss - z * sigma
    try:
        d_hi = _invert(model, shifted)
    except DataError:
        raise _uninvertible_endpoint("upper", "-", rss, level, shifted) from None
    return LocalizationEstimate(d_hat, d_lo, d_hi, level, sigma, clamped)


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
    sigma that is negative at a scanned point is refused by
    :func:`sigma_curve`, which names the first such point.
    """
    positive("eta", model.eta)  # the rule and message estimate_distance uses
    outage_z = nonnegative("outage_z", outage_z)
    sens = constants.receiver_sensitivity
    if sens >= model.rss_d0:
        raise DataError(
            f"sensitivity {sens!r} dBm is not below rss_d0 {model.rss_d0!r} "
            "dBm; the link has no coverage even at the reference distance"
        )

    if outage_z != 0.0 and model.sigma is None:
        raise _no_sigma()

    def margin(d: float) -> tuple[float, bool]:
        """(z*sigma(d), whether sigma was clamped); no sigma enters at z = 0."""
        if outage_z == 0.0:
            return 0.0, False
        sigma, clamped = sigma_at(model.sigma, d)
        return outage_z * sigma, clamped

    grid = np.geomspace(model.d0, RANGE_SEARCH_MAX, 4097)
    # Python float arithmetic overflows to inf silently; so does this scan.
    with np.errstate(over="ignore", invalid="ignore"):
        signal = mean_rss_curve(model, grid)
        if outage_z != 0.0:
            signal -= outage_z * sigma_curve(model.sigma, grid)
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
        if predict_mean_rss(model, mid) - margin(mid)[0] - sens >= 0.0:
            lo = mid
        else:
            hi = mid
    margin_db, clamped = margin(lo)
    return LinkPlan(lo, margin_db, outage_z, sens, clamped)
