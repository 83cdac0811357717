"""Model inversion: distance from RSSI, confidence intervals, range planning.

The mean-RSS trend is exactly invertible, so the point estimate is closed
form. Interval endpoints come from re-inverting rss +/- z*sigma, where sigma
is the fading spread evaluated once at the point estimate (a single
fixed-point step; sigma varies slowly and is clamped, so iterating to
self-consistency buys nothing and would blur the definition).

:func:`confidence_interval` checks its inputs once, at the top, then runs in
one frame: the three inversions inline, the estimate filled in place. Each
value is then correct by construction, so only an interval out of order
(``pow`` need not be monotone) goes to the public constructor, to be refused.

Range planning asks the opposite question: out to what distance does the
predicted signal, less an outage margin of z sigma, stay above the receiver
sensitivity? That is solved numerically rather than by algebra so clamped or
non-monotone sigma shapes are handled uniformly: one vectorised pass over a
logarithmic grid brackets the last sign change, then bisection on the scalar
objective tightens it. The grid and its x = 10*log10(d/d0) are built by
libm, once per d0, and kept read-only; sigma enters the pass as an array up
to d_max, where it varies, and as one scalar beyond. The closed-form
inversion (valid when z = 0) serves as an independent check elsewhere.
Planned ranges beyond the surveyed span rest on a clamped sigma and deserve
skepticism, so the result records whether clamping occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, NumericalError, nonnegative, positive, probability
from .errors import flag, real, settle
from .models import LinkConstants, ShadowedPathLossModel, _log_distance, _mean
from .models import _sigma, sigma_curve

# Bisection search ceiling and tolerance for max_range, in metres.
RANGE_SEARCH_MAX = 1e6
RANGE_TOLERANCE = 0.01


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
        settle(self, flag, "clamped")
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
        settle(self, flag, "clamped")


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
        raise _uninvertible(rss)
    return d


def _uninvertible(rss: float) -> DataError:
    return DataError(
        f"rss {rss!r} dBm is outside the range the model can invert: "
        "the distance is not a finite positive number"
    )


@lru_cache(maxsize=16)
def _z(level: float) -> float:
    """The two-sided normal quantile for a level in (0, 1)."""
    # Imported here: statistics brings fractions and decimal, which
    # a plan at z given in sigma units never needs.
    from statistics import NormalDist

    p = (1.0 + level) / 2.0
    if p == 1.0:  # inv_cdf refuses it
        raise DataError(f"level {level!r} is too close to 1 for a normal quantile")
    return NormalDist().inv_cdf(p)


@lru_cache(maxsize=16)
def _scan_grid(d0: float) -> tuple[np.ndarray, np.ndarray]:
    """max_range's read-only scan of [d0, RANGE_SEARCH_MAX] and its x, by libm."""
    ratio = RANGE_SEARCH_MAX / d0
    points = [d0 * ratio ** (k / 4096) for k in range(4097)]
    grid = np.array(points)
    x = np.array([_log_distance(d, d0) for d in points])
    grid.flags.writeable = x.flags.writeable = False
    return grid, x


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
    z = _z(level)
    positive("eta", model.eta)
    rss = real("rss", rss)
    # Each inversion is _invert's expression; a pow that overflows leaves
    # its distance inf, which the check after it refuses.
    d0, rss_d0, scale = model.d0, model.rss_d0, 10.0 * model.eta
    d_hat = d_lo = d_hi = math.inf
    try:
        d_hat = d0 * 10.0 ** ((rss_d0 - rss) / scale)
    except OverflowError:
        pass
    if not 0.0 < d_hat < math.inf:
        raise _uninvertible(rss)
    if model.sigma is None:
        raise _no_sigma()
    sigma, clamped = _sigma(model.sigma, d_hat)
    up, down = rss + z * sigma, rss - z * sigma
    try:
        d_lo = d0 * 10.0 ** ((rss_d0 - up) / scale)
        d_hi = d0 * 10.0 ** ((rss_d0 - down) / scale)
    except OverflowError:
        pass
    if not 0.0 < d_lo < math.inf:
        raise _uninvertible_endpoint("lower", "+", rss, level, up)
    if not 0.0 < d_hi < math.inf:
        raise _uninvertible_endpoint("upper", "-", rss, level, down)
    if not d_lo <= d_hat <= d_hi:  # pow need not be monotone; the constructor refuses
        return LocalizationEstimate(d_hat, d_lo, d_hi, level, sigma, clamped)
    est = object.__new__(LocalizationEstimate)  # fields canonical and ordered
    est.__dict__.update(d_hat=d_hat, d_lo=d_lo, d_hi=d_hi, level=level,
                        sigma_used=sigma, clamped=clamped)
    return est


def max_range(
    model: ShadowedPathLossModel,
    constants: LinkConstants = LinkConstants(),
    outage_z: float = 0.0,
) -> LinkPlan:
    """Largest distance whose margin-adjusted RSS stays above sensitivity.

    Finds the last point of {d : predict(d) - z*sigma(d) >= sensitivity} on
    [d0, 1e6 m]. The scalar objective, evaluated in one vectorised pass at
    4097 logarithmic points built once per d0, locates the final sign change
    (sigma need not be monotone, so the first bracket from the left would be
    wrong); bisection on it then tightens that to +/- 0.01 m. When z > 0 a
    sigma that is negative or not finite at a scanned point is refused by
    :func:`sigma_curve` or ``_sigma``, which name the first such point.
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
        sigma, clamped = _sigma(model.sigma, d)
        return outage_z * sigma, clamped

    grid, x = _scan_grid(model.d0)
    # Python float arithmetic overflows to inf silently; so does this scan.
    with np.errstate(over="ignore", invalid="ignore"):
        signal = model.rss_d0 - model.eta * x  # _mean at each grid point
        if outage_z != 0.0:  # sigma is constant past d_max (a ConstantSigma's: -inf)
            s = model.sigma
            k = grid.searchsorted(getattr(s, "d_max", -math.inf), "right")
            signal[:k] -= outage_z * sigma_curve(s, grid[:k])
            if k < grid.size:  # one scalar _sigma, refused by grid[k] as a scan is
                signal[k:] -= outage_z * _sigma(s, float(grid[k]))[0]
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
        if _mean(model, mid) - margin(mid)[0] - sens >= 0.0:
            lo = mid
        else:
            hi = mid
    margin_db, clamped = margin(lo)
    return LinkPlan(lo, margin_db, outage_z, sens, clamped)
