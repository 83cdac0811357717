"""Survey containers: raw RSSI readings and their per-distance statistics.

A survey is a set of repeated RSSI readings taken at known transmitter to
receiver separations along a single path; it keeps them in flat numpy arrays
and builds a tuple view of its rows only when asked. Calibration works from
per-distance summary rows (mean, n-1 standard deviation, count, optionally the
packet reception ratio), the shape the embedded reference tables arrive in.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError
from .errors import integer, nonnegative, number, positive, real, settle, text


@dataclass(frozen=True, eq=False)
class RssiSurvey:
    """Raw survey: RSSI samples in dBm, in rows that each hold one distance (m).

    Built from ``rows``, (distance, samples) pairs with any flat sequence of
    numbers as samples, and stored as read-only arrays: ``distances`` and
    ``counts`` per row, and ``samples`` row after row. Rows keep their order;
    distances may repeat (:func:`survey_stats` merges them). ``survey.rows``
    builds tuples of Python floats on access; ``==`` and ``hash`` follow
    (site, rows, metadata). ``metadata`` is free-form provenance.
    """

    site: str
    rows: InitVar[Iterable[tuple[float, Sequence[float]]]] = ()
    metadata: tuple[tuple[str, str], ...] = ()
    distances: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)
    samples: np.ndarray = field(init=False)

    def __post_init__(self, rows) -> None:
        settle(self, text, "site")
        distances, chunks = [], []
        for i, row in enumerate(rows):
            try:
                distance, samples = row
            except (TypeError, ValueError):
                raise DataError(f"row {i} is not a (distance, samples) pair") from None
            distance = positive("distance", distance)
            try:
                values = np.asarray(samples, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                values = None
            if values is None or values.ndim != 1:
                raise DataError(f"not a flat list of samples at distance {distance} m")
            if not values.size:
                raise DataError(f"no samples at distance {distance} m")
            if not np.isfinite(values).all():
                raise DataError(f"non-finite RSSI sample at distance {distance} m")
            distances.append(distance)
            chunks.append(values)
        if not chunks:
            raise DataError("survey must contain at least one row")
        counts = np.fromiter(map(len, chunks), np.intp, len(chunks))
        arrays = np.array(distances), counts, np.concatenate(chunks)
        for name, array in zip(("distances", "counts", "samples"), arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))

    @property
    def n_samples(self) -> int:
        return self.samples.size


def _rows(survey: RssiSurvey) -> tuple[tuple[float, tuple[float, ...]], ...]:
    ends = np.cumsum(survey.counts)[:-1]
    rows = map(np.ndarray.tolist, np.split(survey.samples, ends))
    return tuple(zip(survey.distances.tolist(), map(tuple, rows)))


# Set after the class body, where ``rows`` names the init argument.
RssiSurvey.rows = property(_rows, doc="The rows as tuples, built on access.")
_key = attrgetter("site", "rows", "metadata")


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
        settle(self, positive, "distance")
        settle(self, real, "mean_rss")
        settle(self, nonnegative, "sd")
        object.__setattr__(self, "n", integer("n", self.n, least=1))
        if self.prr is not None:
            settle(self, number, "prr")
            if not 0.0 <= self.prr <= 100.0:  # nan too
                raise DataError(f"prr must be in [0, 100] percent, got {self.prr!r}")


@dataclass(frozen=True)
class SurveyStats:
    """Per-distance summaries for one site, sorted by ascending distance."""

    site: str
    rows: tuple[DistanceStats, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        settle(self, text, "site")
        if not self.rows:
            raise DataError("need at least one per-distance row")
        rows = tuple(sorted(self.rows, key=attrgetter("distance")))
        object.__setattr__(self, "rows", rows)
        for prev, cur in zip(rows, rows[1:]):
            if prev.distance == cur.distance:
                raise DataError(f"duplicate distance {cur.distance} m in summary rows")

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
    distances, group = np.unique(survey.distances, return_inverse=True)
    group = np.repeat(group, survey.counts)
    n = np.bincount(group, minlength=distances.size)
    short = np.flatnonzero(n < 2)
    if short.size:
        i = short[0]
        raise InsufficientDataError(
            f"need at least 2 samples at distance {float(distances[i])} m to "
            f"estimate a standard deviation, got {n[i]}"
        )
    means = np.bincount(group, weights=survey.samples, minlength=distances.size) / n
    dev = survey.samples - means[group]
    var = np.bincount(group, weights=dev * dev, minlength=distances.size) / (n - 1)
    # np.sqrt rounds correctly, as math.sqrt does.
    columns = distances.tolist(), means.tolist(), np.sqrt(var).tolist(), n.tolist()
    rows = tuple(map(DistanceStats, *columns))
    return SurveyStats(site=survey.site, rows=rows, metadata=survey.metadata)
