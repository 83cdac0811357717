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

from .errors import DataError, integer, positive, settle, text
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
    """What to simulate: model, measurement distances, repetitions, seed.

    Distances are kept as a tuple of floats, the counts as plain ints.
    """

    model: ShadowedPathLossModel
    distances: tuple[float, ...]
    samples_per_distance: int
    seed: int
    site: str = "simulated"

    def __post_init__(self) -> None:
        try:
            distances = tuple(positive("distance", d) for d in self.distances)
        except TypeError:  # not iterable
            raise DataError(
                f"distances must be a sequence, got {self.distances!r}"
            ) from None
        if not distances:
            raise DataError("distances must be non-empty")
        object.__setattr__(self, "distances", distances)
        samples = integer("samples_per_distance", self.samples_per_distance, least=1)
        object.__setattr__(self, "samples_per_distance", samples)
        check_survey_size(len(distances), samples)
        settle(self, integer, "seed")
        if not 0 <= self.seed <= _U64:
            # Seeds are taken mod 2**64; one outside would alias another.
            raise DataError(f"seed must be in [0, 2**64), got {self.seed!r}")
        settle(self, text, "site")


def check_survey_size(points: int, samples: int) -> None:
    """Refuse a survey of ``points`` x ``samples`` that no array can hold.

    A ``samples`` below 1 counts as 1, so a huge count of points is refused
    before anything is built from them.
    """
    if points > _MAX_SAMPLES // max(samples, 1):
        raise DataError(
            f"{samples} samples at each of {points} points are more than an "
            "array holds"
        )


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
    seed, index = integer("seed", seed), integer("distance_index", distance_index)
    count = integer("count", count, least=0)
    check_survey_size(1, count)
    return _normals(seed, np.array([index & _U64]), count)[0]


def simulate_survey(spec: SimulationSpec) -> RssiSurvey:
    """Generate the survey a calibrated model predicts for a sampling plan.

    Each sample is predict_mean_rss(d) + sigma_clamped(d) * z with z from the
    module's documented generator. A model without a sigma model (or with
    sigma identically zero) yields noiseless samples equal to the mean trend;
    one whose sigma is negative at a distance is refused by ``sigma_at``.
    """
    model, sigma = spec.model, spec.model.sigma
    means, sigmas = [], []
    for d in spec.distances:
        means.append(predict_mean_rss(model, d))
        sigmas.append(0.0 if sigma is None else sigma_at(sigma, d).value)
    n = spec.samples_per_distance
    samples = np.repeat(np.array(means)[:, None], n, axis=1)
    sigmas = np.array(sigmas)
    # Rows with sigma == 0 draw nothing and stay exactly at the mean.
    noisy = np.flatnonzero(sigmas)
    if noisy.size:
        with np.errstate(over="ignore"):  # RssiSurvey refuses a non-finite sample
            samples[noisy] += sigmas[noisy, None] * _normals(spec.seed, noisy, n)
    metadata = (("generator", "splitmix64-boxmuller-v1"), ("seed", str(spec.seed)))
    return RssiSurvey(spec.site, zip(spec.distances, samples), metadata)
