"""Synthetic survey generation from a calibrated model.

Samples are mean-trend predictions plus Gaussian shadow fading, produced by a
fully specified deterministic generator so a simulation spec maps to a
bit-identical survey on every platform and numpy version. No library RNG is
involved; the algorithm is part of the package contract:

1. Every quantity is a 64-bit unsigned integer with wrapping arithmetic.
   ``mix64`` is the SplitMix64 finalizer:
   z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
   z *= 0x94D049BB133111EB; z ^= z >> 31.
2. With GOLDEN = 0x9E3779B97F4A7C15, distance index i and sample index j
   (both 0-based):
   h = mix64(seed + GOLDEN*(i+1)); k = mix64(h + GOLDEN*(j+1)).
3. Two uniforms per sample: u1 = unit(mix64(k + GOLDEN)),
   u2 = unit(mix64(k + 2*GOLDEN)), where unit(w) = ((w >> 11) + 1) * 2^-53,
   which lies in (0, 1] so the logarithm below is always defined.
4. Box-Muller: z = sqrt(-2 ln u1) * cos(2 pi u2); the sample is
   predict_mean_rss(d) + sigma_clamped(d) * z.

Seeding is per (distance index, sample index), not a single stream:
appending distances or extending the sample count never perturbs samples
already generated, so incremental experiments stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .models import ShadowedPathLossModel, predict_mean_rss, sigma_at
from .surveys import RssiSurvey

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF
# The most float64 values numpy can size one array for on this platform; a
# larger survey fails the allocation with a ValueError, not a MemoryError.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate: model, measurement distances, repetitions, seed."""

    model: ShadowedPathLossModel
    distances: tuple[float, ...]
    samples_per_distance: int
    seed: int
    site: str = "simulated"

    def __post_init__(self) -> None:
        if not self.distances:
            raise DataError("distances must be non-empty")
        for d in self.distances:
            if not math.isfinite(d) or d <= 0:
                raise DataError(f"distances must be finite and > 0, got {d!r}")
        if self.samples_per_distance < 1:
            raise DataError(
                f"samples_per_distance must be >= 1, "
                f"got {self.samples_per_distance!r}"
            )
        if len(self.distances) * self.samples_per_distance > _MAX_SAMPLES:
            raise DataError(
                f"{len(self.distances)} distances x {self.samples_per_distance} "
                "samples are more than one float64 array can hold"
            )
        if not isinstance(self.seed, int):
            raise DataError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed <= _U64:
            # Seeds are taken mod 2**64; one outside would alias another.
            raise DataError(f"seed must be in [0, 2**64), got {self.seed!r}")


# The two uniform streams' offsets from k: GOLDEN and 2*GOLDEN.
_STREAMS = np.array([_GOLDEN, (2 * _GOLDEN) & _U64], dtype=np.uint64)[:, None, None]


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def _normals(seed: int, rows: np.ndarray, count: int) -> np.ndarray:
    """The documented draws for distance indices ``rows``, shape (rows, count).

    Row r of the result depends only on (seed, rows[r], j), so any subset of
    rows, in any order, gets the same values it would get on its own.
    """
    golden = np.uint64(_GOLDEN)
    i = np.asarray(rows, dtype=np.uint64) + np.uint64(1)
    h = _mix64(np.uint64(seed & _U64) + golden * i)
    j = np.arange(1, count + 1, dtype=np.uint64)
    k = _mix64(h[:, None] + golden * j)
    # unit(w) = ((w >> 11) + 1) * 2^-53 lies in (0, 1], so log is defined.
    u1, u2 = ((_mix64(k + _STREAMS) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def standard_normals(seed: int, distance_index: int, count: int) -> np.ndarray:
    """The deterministic standard-normal draws for one distance row."""
    return _normals(seed, np.array([distance_index & _U64]), count)[0]


def simulate_survey(spec: SimulationSpec) -> RssiSurvey:
    """Generate the survey a calibrated model predicts for a sampling plan.

    Each sample is predict_mean_rss(d) + sigma_clamped(d) * z with z from the
    module's documented generator. A model without a sigma model (or with
    sigma identically zero) yields noiseless samples equal to the mean trend.
    """
    model = spec.model
    means, sigmas = [], []
    for d in spec.distances:
        means.append(predict_mean_rss(model, d))
        if model.sigma is None:
            sigmas.append(0.0)
            continue
        sigma = sigma_at(model.sigma, d).value
        if sigma < 0:
            raise DataError(
                f"sigma model is negative ({sigma:.4g} dB) at "
                f"d = {d:.4g} m; cannot simulate"
            )
        sigmas.append(sigma)
    n = spec.samples_per_distance
    samples = np.repeat(np.array(means)[:, None], n, axis=1)
    sigmas = np.array(sigmas)
    # Rows with sigma == 0 draw nothing and stay exactly at the mean.
    noisy = np.flatnonzero(sigmas)
    if noisy.size:
        samples[noisy] += sigmas[noisy, None] * _normals(spec.seed, noisy, n)
    return RssiSurvey(
        site=spec.site,
        rows=tuple(zip(map(float, spec.distances), map(tuple, samples.tolist()))),
        metadata=(
            ("generator", "splitmix64-boxmuller-v1"),
            ("seed", str(spec.seed)),
        ),
    )
