"""Radio propagation model types and forward evaluations.

Three deterministic baselines (free-space, two-ray ground, log-distance) plus
the log-normal shadowing model used for calibrated work: mean received signal
strength falls off linearly in 10*log10(d), and the shadow-fading standard
deviation is itself distance dependent, modelled as a quartic polynomial of
distance with a clamped validity domain.

All calibrated quantities live in RSS (dBm) space rather than path-loss space:
field surveys record RSSI and rarely state the transmit power, and the
path-loss exponent is unaffected because PL = Pt - RSS differs from -RSS only
by a constant. :func:`path_loss_db` and :func:`rss_from_path_loss` convert for
callers who do know Pt.

The trend has one formula: x = 10*log10(d/d0) by libm (:func:`_log_distance`)
and the mean rss_d0 - eta*x, in that order. The fit, the mean, the residuals
and max_range's scan all take it, so none depends on numpy's SIMD dispatch.

Everything here is an immutable value; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DataError, NumericalError, nonnegative, positive, real, settle

# The choices a calibration takes: how the trend finds rss(d0), and which
# column the fading-SD quartic is fitted to. Spelled here, not in
# calibration, so that the CLI's parser offers them without loading the fits.
INTERCEPT_MODES = ("free", "anchored")
SIGMA_TARGETS = ("sample_sd", "residual_y")


@dataclass(frozen=True)
class FreeSpaceModel:
    """Line-of-sight model: received power falls off as 1/d^2.

    ``c_t`` is an opaque transceiver constant in linear power units times m^2;
    ``tx_power`` is the transmit power in linear units.
    """

    c_t: float
    tx_power: float

    def __post_init__(self) -> None:
        settle(self, positive, "c_t", "tx_power")


@dataclass(frozen=True)
class TwoRayModel:
    """Ground-reflection model: received power falls off as 1/d^4."""

    c_t2: float
    tx_power: float

    def __post_init__(self) -> None:
        settle(self, positive, "c_t2", "tx_power")


@dataclass(frozen=True)
class SigmaPolynomial:
    """Quartic model of the fading standard deviation versus distance.

    sigma(d) = a*d^4 + b*d^3 + c*d^2 + e*d + f, valid on [d_min, d_max].
    Evaluation clamps the distance to the validity domain: a quartic fitted on
    a 20 m survey extrapolates catastrophically (the longwall calibration
    exceeds 100 dB by d = 40 m), so out-of-domain queries return the boundary
    value and are flagged.
    """

    a: float
    b: float
    c: float
    e: float
    f: float
    d_min: float
    d_max: float

    def __post_init__(self) -> None:
        settle(self, real, "a", "b", "c", "e", "f", "d_max")
        settle(self, positive, "d_min")
        if self.d_max <= self.d_min:
            raise DataError(
                f"d_max must exceed d_min, got [{self.d_min!r}, {self.d_max!r}]"
            )

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        """Coefficients (a, b, c, e, f), highest power first."""
        return (self.a, self.b, self.c, self.e, self.f)


@dataclass(frozen=True)
class ConstantSigma:
    """Degenerate sigma model: the same standard deviation at every distance."""

    value: float

    def __post_init__(self) -> None:
        settle(self, nonnegative, "value")


SigmaModel = Union[SigmaPolynomial, ConstantSigma]


@dataclass(frozen=True)
class ShadowedPathLossModel:
    """Log-normal shadowing model in RSS space.

    Mean RSS at distance d is ``rss_d0 - eta * x`` with
    ``x = 10 * log10(d / d0)``; the fading term is zero-mean Gaussian in dB
    with standard deviation given by ``sigma`` (fixed mean of zero, not
    configurable): a :class:`SigmaPolynomial`, a :class:`ConstantSigma`, or
    None for a freshly fitted distance trend that has no fading model yet.
    """

    d0: float
    rss_d0: float
    eta: float
    sigma: SigmaModel | None = None

    def __post_init__(self) -> None:
        settle(self, positive, "d0")
        settle(self, real, "rss_d0", "eta")
        if not isinstance(self.sigma, (SigmaPolynomial, ConstantSigma, type(None))):
            raise DataError(
                "sigma must be a SigmaPolynomial, a ConstantSigma or None, "
                f"got {self.sigma!r}"
            )


@dataclass(frozen=True)
class LinkConstants:
    """Receiver-side planning constants.

    Default sensitivity is -92 dBm, the 1% packet-error-rate threshold of the
    2.4 GHz transceiver module used for the embedded surveys.
    """

    receiver_sensitivity: float = -92.0

    def __post_init__(self) -> None:
        settle(self, real, "receiver_sensitivity")
        if self.receiver_sensitivity >= 0:
            raise DataError(
                "receiver_sensitivity must be < 0 dBm, "
                f"got {self.receiver_sensitivity!r}"
            )


class SigmaValue(NamedTuple):
    """A sigma evaluation plus whether the distance was clamped."""

    value: float
    clamped: bool


def path_loss_db(pt_dbm: float, pr_dbm: float) -> float:
    """Path loss in dB between transmitted and received power in dBm.

    PL = 10*log10(Pt/Pr) collapses to a subtraction in dB units.
    """
    return real("pt_dbm", pt_dbm) - real("pr_dbm", pr_dbm)


def rss_from_path_loss(pt_dbm: float, pl_db: float) -> float:
    """Inverse of :func:`path_loss_db`: received power for a known Pt."""
    return real("pt_dbm", pt_dbm) - real("pl_db", pl_db)


def free_space_rx(model: FreeSpaceModel, d: float) -> float:
    """Received power (linear units) at distance d under the 1/d^2 model."""
    d = positive("d", d)
    return _received(model.c_t * model.tx_power, d, d * d)


def two_ray_rx(model: TwoRayModel, d: float) -> float:
    """Received power (linear units) at distance d under the 1/d^4 model."""
    d = positive("d", d)
    return _received(model.c_t2 * model.tx_power, d, d * d * d * d)


def _received(power: float, d: float, spread: float) -> float:
    """``power / spread``, refused by d unless finite: ``spread`` may be 0."""
    if spread and power / spread < math.inf:
        return power / spread
    raise DataError(f"received power at d {d!r} m overflows")


def predict_mean_rss(model: ShadowedPathLossModel, d: float) -> float:
    """Mean RSS in dBm at distance d (the fading term at its zero mean)."""
    return _mean(model, positive("d", d))


def _log_distance(d: float, d0: float) -> float:
    """The regressor x; ValueError if d/d0 underflows to 0, inf if it overflows."""
    return 10.0 * math.log10(d / d0)


def _mean(model: ShadowedPathLossModel, d: float) -> float:
    """:func:`predict_mean_rss` for a d already known finite and > 0."""
    try:
        mean = model.rss_d0 - model.eta * _log_distance(d, model.d0)
    except ValueError:  # d / d0 underflowed to 0
        raise DataError(f"d {d!r} m is too small beside d0 {model.d0!r} m") from None
    if mean - mean != 0.0:  # nan or an infinity: eta * x overflowed, say
        raise DataError(f"mean RSS at d {d!r} m overflows (rss_d0 {model.rss_d0!r} "
                        f"dBm, eta {model.eta!r})")
    return mean


def sigma_at(sigma: SigmaModel, d: float) -> SigmaValue:
    """Evaluate a sigma model at distance d.

    For a :class:`SigmaPolynomial` the distance is clamped to the validity
    domain first and the flag reports whether clamping occurred. A
    :class:`ConstantSigma` never clamps. A fitted quartic can dip below zero
    or overflow; a value that is negative or not finite is refused with a
    :class:`NumericalError` naming d.
    """
    return SigmaValue(*_sigma(sigma, positive("d", d)))


def _sigma(sigma: SigmaModel, d: float) -> tuple[float, bool]:
    """:func:`sigma_at` for a d already known finite and > 0."""
    if isinstance(sigma, ConstantSigma):
        return sigma.value, False
    dc = sigma.d_min if d < sigma.d_min else sigma.d_max if d > sigma.d_max else d
    value = (((sigma.a * dc + sigma.b) * dc + sigma.c) * dc + sigma.e) * dc + sigma.f
    if not 0.0 <= value < math.inf:  # nan fails both
        what = "negative" if -math.inf < value < 0.0 else "not finite"
        raise NumericalError(
            f"fitted sigma is {what} ({value:.4g} dB) at d = {d:.4g} m; "
            "the sigma model is invalid there"
        )
    return value, dc != d


def sigma_curve(sigma: SigmaModel, d: np.ndarray) -> np.ndarray:
    """:func:`sigma_at` values over an array of distances, all > 0.

    Same clamp, Horner arithmetic and refusal of a negative or non-finite
    value as the scalar form, so each value equals
    ``sigma_at(sigma, d[i]).value`` exactly. The distances are not validated
    and the clamp flags are not returned.
    """
    if isinstance(sigma, ConstantSigma):
        return np.full(d.shape, sigma.value)
    dc = d.clip(sigma.d_min, sigma.d_max)
    a, b, c, e, f = sigma.coefficients
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by d
        values = (((a * dc + b) * dc + c) * dc + e) * dc + f
    if values.size and not 0.0 <= values.min() <= values.max() < math.inf:
        for x in d.flat:  # a scalar scan refuses the first bad value
            sigma_at(sigma, float(x))
    return values


def shadow_pdf(psi: float, sigma: float) -> float:
    """Probability density of the zero-mean Gaussian fading term, in dB.

    A sigma so small that the density overflows is refused by psi and sigma.
    """
    psi = real("psi", psi)
    sigma = positive("sigma", sigma)
    z = psi / sigma
    density = math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma)
    if density < math.inf:
        return density
    raise DataError(f"fading density at psi {psi!r} dB, sigma {sigma!r} dB overflows")
