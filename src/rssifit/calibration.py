"""Calibration: fit the shadowing model to per-distance survey statistics.

Two fits happen in sequence. First the distance trend: mean RSS regressed on
10*log10(d/d0), giving the path-loss exponent eta and the reference power
rss_d0. Second the fading spread: a quartic polynomial of distance fitted to
either the per-distance sample standard deviations or to a residual-derived
spread proxy ((mean - fitted) / 1.96: signed, its size the half-width of a 95%
interval that would make the observed mean its boundary). Its quartic can dip
below zero; ``sigma_at`` refuses such a model where it is negative.

The trend fit supports two intercept modes. 'free' is ordinary least squares
with both slope and intercept estimated. 'anchored' pins rss_d0 to the
measured mean at the row nearest d0 and estimates only the slope; use it when
the reference-distance reading is trusted more than the ensemble. The two
modes disagree noticeably on short surveys (the embedded longwall data gives
eta of 2.31 free versus 2.65 anchored), so reports carry the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, DegenerateDataError, InsufficientDataError
from .errors import integer, nonnegative, one_of, positive, real, settle
from .models import INTERCEPT_MODES, SIGMA_TARGETS, ShadowedPathLossModel
from .models import SigmaPolynomial, _log_distance, predict_mean_rss
from .numerics import (
    SolveDiagnostics,
    _cached,
    _moment_system,
    _pair,
    _power_sums,
    _squares,
    polyfit_quartic,
    polyval,
    solve_dense,
)
from .surveys import SurveyStats

# Divisor turning an absolute residual into a spread proxy: the residual is
# read as the half-width of a 95% two-sided normal interval.
RESIDUAL_Z = 1.96


@dataclass(frozen=True)
class GoodnessOfFit:
    """Fit quality summary.

    ``rmse`` follows the degrees-of-freedom convention sqrt(SSE / dfe) with
    dfe = n_obs - n_params; :attr:`rmse_unadjusted` is the plain
    sqrt(SSE / n_obs). ``r2`` is defined as 0 when the observations have zero
    variance.
    """

    r2: float
    rmse: float
    sse: float
    dfe: int
    n_obs: int

    def __post_init__(self) -> None:
        settle(self, real, "r2")
        settle(self, nonnegative, "rmse", "sse")
        object.__setattr__(self, "dfe", integer("dfe", self.dfe, least=1))
        object.__setattr__(self, "n_obs", integer("n_obs", self.n_obs, least=1))

    @property
    def rmse_unadjusted(self) -> float:
        return math.sqrt(self.sse / self.n_obs)


def goodness_of_fit(observed: object, fitted: object, n_params: int) -> GoodnessOfFit:
    """Compute r^2 and dfe-adjusted RMSE for a fitted curve."""
    obs, fit = _pair(observed, fitted, "observed and fitted")
    n = obs.size
    dfe = n - integer("n_params", n_params, least=0)
    if dfe < 1:
        raise InsufficientDataError(
            f"{n} observations leave no residual degrees of freedom for "
            f"{n_params} parameters"
        )
    r2, sse = _squares(obs, fit)
    return GoodnessOfFit(
        r2=r2, rmse=math.sqrt(sse / dfe), sse=sse, dfe=dfe, n_obs=n
    )


@dataclass(frozen=True)
class FitReport:
    """Result of the distance-trend fit.

    ``residuals`` are observed minus fitted mean RSS per row; ``y_values``
    are those residuals divided by :data:`RESIDUAL_Z` (the spread proxy used
    as an alternative sigma-fit target). ``fit`` covers the trend itself.
    The fit takes its regressor and fitted values by the model's one trend
    formula, so ``y_values`` equal ``residual_y(stats, model)``, the
    'residual_y' target of :func:`sigma_target`, bit for bit.
    """

    model: ShadowedPathLossModel
    intercept_mode: str
    fit: GoodnessOfFit
    residuals: tuple[float, ...]
    y_values: tuple[float, ...]
    diagnostics: SolveDiagnostics = field(repr=False)

    @property
    def eta(self) -> float:
        return self.model.eta

    @property
    def rss_d0(self) -> float:
        return self.model.rss_d0


@lru_cache(maxsize=16)
def _regressor(d_bytes: bytes, d0: float) -> np.ndarray:
    """The model's x = 10*log10(d/d0) per distance, by libm, read-only."""
    d = np.frombuffer(d_bytes).tolist()
    try:
        x = np.array([_log_distance(v, d0) for v in d])
        if not np.all(np.isfinite(x)):  # some d/d0 overflowed
            raise ValueError
    except ValueError:  # or underflowed to 0
        raise DataError(
            f"d0 = {d0!r} takes d/d0 outside the float range for these "
            "distances"
        ) from None
    x.flags.writeable = False
    return x


def fit_path_loss(
    stats: SurveyStats, d0: float = 1.0, intercept_mode: str = "free"
) -> FitReport:
    """Fit mean RSS versus 10*log10(d/d0) to per-distance statistics.

    'free' estimates slope and intercept by OLS; 'anchored' fixes the
    intercept at the measured mean of the row nearest d0 and solves the
    single normal equation for the slope. Needs at least 3 rows so a line
    leaves at least one residual degree of freedom in either mode.
    """
    intercept_mode = one_of("intercept_mode", intercept_mode, INTERCEPT_MODES)
    d0 = positive("d0", d0)
    d, y = stats.distance_m, stats.mean_dbm
    if d.size < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct distances to fit a trend, got {d.size}"
        )
    x = _cached(_regressor, d)(d.tobytes(), d0)  # slope -eta, intercept rss_d0
    free = intercept_mode == "free"
    # Anchored, rss_d0 is the mean of the row nearest d0 (of two as near,
    # argmin takes the smaller distance) and only the slope is solved for.
    rss_d0 = 0.0 if free else y[np.argmin(np.abs(d - d0))].item()
    with np.errstate(over="ignore"):  # an infinite difference is refused below
        target = y - rss_d0
    powers = (1, 0) if free else (1,)
    coeffs, diagnostics = solve_dense(_moment_system(x, target, powers, "x and y"))
    eta = -coeffs[0].item()
    if free:
        rss_d0 = coeffs[1].item()
    fitted = rss_d0 - eta * x  # the model's mean, as _mean takes it
    gof = goodness_of_fit(y, fitted, n_params=len(powers))
    residuals = tuple((y - fitted).tolist())
    y_values = tuple(r / RESIDUAL_Z for r in residuals)
    model = ShadowedPathLossModel(d0=d0, rss_d0=rss_d0, eta=eta)
    return FitReport(model, intercept_mode, gof, residuals, y_values, diagnostics)


def residual_y(
    stats: SurveyStats, model: ShadowedPathLossModel, scaled: bool = True
) -> tuple[float, ...]:
    """Per-row trend residuals, optionally scaled to a 95% spread proxy.

    Returns (mean_rss - fitted) / 1.96 when scaled, the raw signed residual
    when not. Sign convention is RSS space: positive means the row sits above
    the fitted line (in path-loss space the sign flips, PL = Pt - RSS). The
    model need not have been fitted to these rows.
    """
    pairs = zip(stats.distances, stats.means)
    resid = tuple(mean - predict_mean_rss(model, d) for d, mean in pairs)
    if scaled:
        return tuple(v / RESIDUAL_Z for v in resid)
    return resid


def sigma_target(
    stats: SurveyStats,
    target: str = "sample_sd",
    trend: ShadowedPathLossModel | None = None,
) -> np.ndarray:
    """The per-row spread observations a sigma fit is fitted to.

    'sample_sd' is the SD column; 'residual_y' is the scaled residuals of
    ``trend``, which is fitted to the same rows with defaults when omitted.
    """
    if one_of("target", target, SIGMA_TARGETS) == "sample_sd":
        return stats.sd_db.copy()
    if trend is None:
        trend = fit_path_loss(stats).model
    return np.array(residual_y(stats, trend), dtype=np.float64)


@dataclass(frozen=True)
class SigmaFitReport:
    """Result of the quartic sigma fit.

    ``distances``, ``observed`` (the target values) and ``fitted`` (the
    quartic) are the per-row series the fit was made on.
    """

    sigma: SigmaPolynomial
    target: str
    fit: GoodnessOfFit
    diagnostics: SolveDiagnostics = field(repr=False)
    distances: tuple[float, ...] = field(repr=False)
    observed: tuple[float, ...] = field(repr=False)
    fitted: tuple[float, ...] = field(repr=False)

    @property
    def stationarity(self) -> tuple[float, ...]:
        """:func:`stationarity_sums` of this fit, computed on access."""
        resid = np.array(self.observed) - np.array(self.fitted)
        return tuple(_power_sums(np.array(self.distances), 4, resid))


def fit_sigma_polynomial(
    stats: SurveyStats,
    target: str = "sample_sd",
    trend: ShadowedPathLossModel | None = None,
) -> SigmaFitReport:
    """Fit the quartic sigma(d) model to a survey's spread observations.

    ``target`` selects what the quartic is fitted to: 'sample_sd' uses the
    per-distance sample standard deviations (the default, and the target the
    embedded published coefficients correspond to), 'residual_y' uses the
    scaled trend residuals. For 'residual_y' a trend model may be passed;
    when omitted one is fitted to the same rows with defaults. The
    polynomial's validity domain is set to the surveyed distance span.
    """
    target = one_of("target", target, SIGMA_TARGETS)
    y = sigma_target(stats, target, trend)
    d = stats.distance_m
    poly = polyfit_quartic(d, y)
    sigma = SigmaPolynomial(*poly.coefficients, d_min=d.min(), d_max=d.max())
    fitted = polyval(poly.coefficients, d)
    gof = goodness_of_fit(y, fitted, n_params=5)
    return SigmaFitReport(
        sigma=sigma, target=target, fit=gof, diagnostics=poly.diagnostics,
        distances=tuple(d.tolist()), observed=tuple(y.tolist()),
        fitted=tuple(fitted.tolist()),
    )


def stationarity_sums(
    stats: SurveyStats, sigma: SigmaPolynomial, target: str = "sample_sd",
    trend: ShadowedPathLossModel | None = None,
) -> tuple[float, ...]:
    """Normal-equation residual sums sum(resid * d^k) for k = 0..4.

    At the least-squares optimum every sum is exactly zero in exact
    arithmetic; their float magnitudes measure how well the solve hit the
    optimum. Returned lowest power first.
    """
    d = stats.distance_m
    resid = sigma_target(stats, target, trend) - polyval(sigma.coefficients, d)
    return tuple(_power_sums(d, 4, resid))


@dataclass(frozen=True)
class PrrCorrelations:
    """Pearson correlations of packet reception ratio with signal statistics.

    Reported, not interpreted: on the embedded surveys PRR correlates more
    strongly with the mean RSS than with the fading spread, so conclusions
    about which drives reception are left to the caller.
    """

    prr_vs_sd: float
    prr_vs_mean: float
    n_rows: int


def prr_correlations(stats: SurveyStats) -> PrrCorrelations:
    """Correlate PRR against per-distance sd and mean RSS."""
    has = ~np.isnan(stats.prr_pct)
    n_rows = int(has.sum())
    if n_rows < 3:
        raise InsufficientDataError(
            f"need at least 3 rows with PRR to correlate, got {n_rows}"
        )
    columns = stats.prr_pct[has], stats.sd_db[has], stats.mean_dbm[has]
    for name, col in zip(("prr", "sd", "mean_rss"), columns):
        if np.all(col == col[0]):
            raise DegenerateDataError(
                f"column {name!r} is constant; correlation is undefined"
            )
    # Each column scaled exactly, by a power of two, keeps corrcoef's sums in range.
    prr, sd, mean = (np.ldexp(c, -np.frexp(abs(c).max())[1]) for c in columns)
    return PrrCorrelations(
        prr_vs_sd=float(np.corrcoef(prr, sd)[0, 1]),
        prr_vs_mean=float(np.corrcoef(prr, mean)[0, 1]),
        n_rows=n_rows,
    )
