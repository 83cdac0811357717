"""Survey containers: raw RSSI readings and their per-distance statistics.

A survey is a set of repeated RSSI readings taken at known transmitter to
receiver separations along a single path. Calibration never consumes the raw
readings directly; it works from per-distance summary rows (mean, sample
standard deviation, count, and optionally the packet reception ratio), which
is also the shape the embedded reference tables arrive in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataError, InsufficientDataError


def _check_distance(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d <= 0:
        raise DataError(f"distance must be finite and > 0, got {d!r}")
    return d


@dataclass(frozen=True)
class RssiSurvey:
    """Raw survey: per-distance tuples of RSSI samples in dBm.

    ``rows`` maps each measurement distance (m) to its sample tuple. Rows are
    kept in the order given; distances may repeat (they are merged by
    :func:`survey_stats`). ``metadata`` is free-form provenance.
    """

    site: str
    rows: tuple[tuple[float, tuple[float, ...]], ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.site:
            raise DataError("site must be a non-empty string")
        if not self.rows:
            raise DataError("survey must contain at least one row")
        checked = []
        for distance, samples in self.rows:
            distance = _check_distance(distance)
            samples = tuple(map(float, samples))
            if not samples:
                raise DataError(f"no samples at distance {distance} m")
            if not all(map(math.isfinite, samples)):
                raise DataError(f"non-finite RSSI sample at distance {distance} m")
            checked.append((distance, samples))
        object.__setattr__(self, "rows", tuple(checked))

    @property
    def n_samples(self) -> int:
        return sum(len(samples) for _, samples in self.rows)


@dataclass(frozen=True)
class DistanceStats:
    """Summary of the readings at one distance.

    ``sd`` is the n-1 sample standard deviation in dB. ``prr`` is the packet
    reception ratio in percent, or None when the survey did not record it.
    """

    distance: float
    mean_rss: float
    sd: float
    n: int
    prr: float | None = None

    def __post_init__(self) -> None:
        _check_distance(self.distance)
        if not math.isfinite(self.mean_rss):
            raise DataError(f"mean_rss must be finite, got {self.mean_rss!r}")
        if not math.isfinite(self.sd) or self.sd < 0:
            raise DataError(f"sd must be finite and >= 0, got {self.sd!r}")
        if self.n < 1:
            raise DataError(f"n must be >= 1, got {self.n!r}")
        if self.prr is not None:
            if not math.isfinite(self.prr) or not 0.0 <= self.prr <= 100.0:
                raise DataError(
                    f"prr must be in [0, 100] percent, got {self.prr!r}"
                )


@dataclass(frozen=True)
class SurveyStats:
    """Per-distance summaries for one site, sorted by ascending distance."""

    site: str
    rows: tuple[DistanceStats, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.site:
            raise DataError("site must be a non-empty string")
        if not self.rows:
            raise DataError("need at least one per-distance row")
        distances = [r.distance for r in self.rows]
        if sorted(distances) != distances:
            object.__setattr__(
                self, "rows", tuple(sorted(self.rows, key=lambda r: r.distance))
            )
            distances = [r.distance for r in self.rows]
        for prev, cur in zip(distances, distances[1:]):
            if prev == cur:
                raise DataError(f"duplicate distance {cur} m in summary rows")

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(r.distance for r in self.rows)

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(r.mean_rss for r in self.rows)

    @property
    def sds(self) -> tuple[float, ...]:
        return tuple(r.sd for r in self.rows)


def survey_stats(survey: RssiSurvey) -> SurveyStats:
    """Summarize a raw survey into per-distance statistics.

    Rows at the same distance are pooled before computing the mean and the
    n-1 sample standard deviation. Each pooled distance needs at least two
    samples, otherwise the standard deviation is undefined.

    Sums run left to right over the pooled samples in row order (bincount
    adds in input order), and squared deviations are exact IEEE products, so
    the result does not depend on the interpreter's ``sum`` or libm's ``pow``.
    """
    lengths = [len(samples) for _, samples in survey.rows]
    flat = np.fromiter(
        chain.from_iterable(samples for _, samples in survey.rows),
        dtype=np.float64,
        count=sum(lengths),
    )
    distances, group = np.unique(
        [distance for distance, _ in survey.rows], return_inverse=True
    )
    group = np.repeat(group, lengths)
    n = np.bincount(group, minlength=distances.size)
    short = np.flatnonzero(n < 2)
    if short.size:
        i = short[0]
        raise InsufficientDataError(
            f"need at least 2 samples at distance {float(distances[i])} m to "
            f"estimate a standard deviation, got {n[i]}"
        )
    means = np.bincount(group, weights=flat, minlength=distances.size) / n
    dev = flat - means[group]
    var = np.bincount(group, weights=dev * dev, minlength=distances.size) / (n - 1)
    out = tuple(
        DistanceStats(distance=d, mean_rss=m, sd=math.sqrt(v), n=k)
        for d, m, v, k in zip(
            distances.tolist(), means.tolist(), var.tolist(), n.tolist()
        )
    )
    return SurveyStats(site=survey.site, rows=out, metadata=survey.metadata)
