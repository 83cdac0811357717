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

import numpy as np

from .errors import DataError, DegenerateDataError, InsufficientDataError
from .errors import integer, nonnegative, one_of, positive, real, settle
from .models import ShadowedPathLossModel, SigmaPolynomial, predict_mean_rss
from .numerics import (
    DenseSystem,
    SolveDiagnostics,
    _pair,
    _squares,
    ols_line,
    polyfit_quartic,
    polyval,
    solve_dense,
)
from .surveys import SurveyStats

# Divisor turning an absolute residual into a spread proxy: the residual is
# read as the half-width of a 95% two-sided normal interval.
RESIDUAL_Z = 1.96

INTERCEPT_MODES = ("free", "anchored")
SIGMA_TARGETS = ("sample_sd", "residual_y")


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
    ``y_values`` match the 'residual_y' target of :func:`sigma_target` only
    to rounding: the fit evaluates its trend with numpy, the target with
    :func:`predict_mean_rss`, in another order and another log10. On
    the embedded tables (both intercept modes, d0 of 1, 2 and 5 m) they
    differ by at most 7.6e-15 dB, in 0 to 4 of 20 rows.
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


def _nearest_row(stats: SurveyStats, d0: float):
    return min(stats.rows, key=lambda r: (abs(r.distance - d0), r.distance))


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
    if len(stats.rows) < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct distances to fit a trend, "
            f"got {len(stats.rows)}"
        )
    d = np.array(stats.distances, dtype=np.float64)
    y = np.array(stats.means, dtype=np.float64)
    # Regressor: x = 10*log10(d/d0). Slope is -eta, intercept is rss_d0.
    with np.errstate(over="ignore", divide="ignore"):
        x = 10.0 * np.log10(d / d0)
    if not np.all(np.isfinite(x)):
        raise DataError(
            f"d0 = {d0!r} takes d/d0 outside the float range for these "
            "distances"
        )

    if intercept_mode == "free":
        line = ols_line(x, y)
        eta = -line.slope
        rss_d0 = line.intercept
        diagnostics = line.diagnostics
        n_params = 2
    else:
        anchor = _nearest_row(stats, d0)
        rss_d0 = anchor.mean_rss
        yc = y - rss_d0
        sxx = float(np.sum(x * x))
        if sxx == 0.0:
            raise DegenerateDataError("all distances equal d0; slope is undefined")
        # 1x1 normal equation, routed through the shared solver so anchored
        # fits report pivot/condition diagnostics like free ones.
        coeffs, diagnostics = solve_dense(
            DenseSystem([[sxx]], [float(np.sum(x * yc))])
        )
        eta = -float(coeffs[0])
        n_params = 1

    fitted = rss_d0 - eta * x
    gof = goodness_of_fit(y, fitted, n_params=n_params)
    residuals = tuple(float(v) for v in (y - fitted))
    y_values = tuple(r / RESIDUAL_Z for r in residuals)
    model = ShadowedPathLossModel(d0=d0, rss_d0=rss_d0, eta=eta)
    return FitReport(
        model=model,
        intercept_mode=intercept_mode,
        fit=gof,
        residuals=residuals,
        y_values=y_values,
        diagnostics=diagnostics,
    )


def residual_y(
    stats: SurveyStats, model: ShadowedPathLossModel, scaled: bool = True
) -> tuple[float, ...]:
    """Per-row trend residuals, optionally scaled to a 95% spread proxy.

    Returns (mean_rss - fitted) / 1.96 when scaled, the raw signed residual
    when not. Sign convention is RSS space: positive means the row sits above
    the fitted line (in path-loss space the sign flips, PL = Pt - RSS). The
    model need not have been fitted to these rows.
    """
    resid = tuple(
        r.mean_rss - predict_mean_rss(model, r.distance) for r in stats.rows
    )
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
        return np.array(stats.sds, dtype=np.float64)
    if trend is None:
        trend = fit_path_loss(stats).model
    return np.array(residual_y(stats, trend), dtype=np.float64)


def _weighted_sums(d: np.ndarray, resid: np.ndarray) -> tuple[float, ...]:
    """sum(resid * d^k) for k = 0..4, lowest power first."""
    return tuple(float(np.sum(resid * d**k)) for k in range(5))


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
        return _weighted_sums(np.array(self.distances), resid)


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
    d = np.array(stats.distances, dtype=np.float64)
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
    d = np.array(stats.distances, dtype=np.float64)
    resid = sigma_target(stats, target, trend) - polyval(sigma.coefficients, d)
    return _weighted_sums(d, resid)


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
    rows = [r for r in stats.rows if r.prr is not None]
    if len(rows) < 3:
        raise InsufficientDataError(
            f"need at least 3 rows with PRR to correlate, got {len(rows)}"
        )
    prr = np.array([r.prr for r in rows], dtype=np.float64)
    sd = np.array([r.sd for r in rows], dtype=np.float64)
    mean = np.array([r.mean_rss for r in rows], dtype=np.float64)
    for name, col in (("prr", prr), ("sd", sd), ("mean_rss", mean)):
        if np.all(col == col[0]):
            raise DegenerateDataError(
                f"column {name!r} is constant; correlation is undefined"
            )
    return PrrCorrelations(
        prr_vs_sd=float(np.corrcoef(prr, sd)[0, 1]),
        prr_vs_mean=float(np.corrcoef(prr, mean)[0, 1]),
        n_rows=len(rows),
    )
