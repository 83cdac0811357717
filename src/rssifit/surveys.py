"""Survey containers: raw RSSI readings and their per-distance statistics.

A survey is a set of repeated RSSI readings taken at known transmitter to
receiver separations along a single path. Calibration works from per-distance
summary rows (mean, n-1 standard deviation, count, optionally the packet
reception ratio). Both containers keep read-only numpy columns, checked in one
vectorised pass, and build a tuple view of their rows only when asked.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, _refused
from .errors import integer, nonnegative, pairs, percent, positive, real, settle, text

_key = attrgetter("site", "metadata")


class _Columns:
    """A frozen dataclass of the read-only columns named in ``_COLUMNS``."""

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__ and _key(self) == _key(other)
        return same and all(np.array_equal(  # a nan prr: none, as None == None
            getattr(self, k), getattr(other, k), equal_nan=k == "prr_pct"
        ) for k in self._COLUMNS)

    def __hash__(self) -> int:  # distances come first, finite and > 0: equal bytes
        return hash((*_key(self), getattr(self, self._COLUMNS[0]).tobytes()))

    @classmethod
    def _from_columns(cls, site: str, *columns: np.ndarray, metadata=()):
        """The instance of fresh columns, taken over and checked as rows are."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "site", text("site", site))
        object.__setattr__(obj, "metadata", metadata)
        obj._store(*columns)
        return obj

    def _freeze(self, *columns: np.ndarray) -> None:
        for name, column in zip(self._COLUMNS, columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)


@dataclass(frozen=True, eq=False)
class RssiSurvey(_Columns):
    """Raw survey: RSSI samples in dBm, in rows that each hold one distance (m).

    Built from ``rows``, (distance, samples) pairs with any flat sequence of
    numbers but text, bools and complex values as samples. Stored as read-only
    arrays: ``distances`` and ``counts`` per row, ``samples`` row after row.
    Rows keep their order; distances may repeat. ``survey.rows`` builds tuples
    of Python floats on access; ``==`` and ``hash`` follow site, metadata
    and the columns. ``metadata`` holds (str, str) provenance pairs.
    """

    _COLUMNS = ("distances", "counts", "samples")
    site: str
    rows: InitVar[Iterable[tuple[float, Sequence[float]]]] = ()
    metadata: tuple[tuple[str, str], ...] = ()
    distances: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)
    samples: np.ndarray = field(init=False)

    def __post_init__(self, rows) -> None:
        settle(self, text, "site")
        settle(self, pairs, "metadata")
        distances, chunks, fault = [], [], None
        try:
            for i, row in enumerate(rows):
                distance, values = _row(i, row)
                distances.append(distance)
                chunks.append(values)
        except TypeError:
            raise DataError("rows must be (distance, samples) pairs") from None
        except DataError as exc:  # raised once the rows before it pass
            fault = exc
        counts = np.fromiter(map(len, chunks), np.intp, len(chunks))
        samples = np.concatenate(chunks) if chunks else np.empty(0)
        self._store(np.array(distances, dtype=np.float64), counts, samples, fault)

    def _store(self, distances, counts, samples, fault=None) -> None:
        """Refuse the first row with a distance not finite and > 0, with no
        samples or with a non-finite one, then ``fault``; else store."""
        ok = positive.holds(distances) & (counts > 0)
        finite = np.isfinite(samples)
        if np.count_nonzero(ok) < ok.size or np.count_nonzero(finite) < finite.size:
            ok[np.repeat(np.arange(counts.size), counts)[~finite]] = False
            i = int(np.argmin(ok))
            d = positive("distance", distances[i].item())
            what = "no samples" if counts[i] < 1 else "non-finite RSSI sample"
            raise DataError(f"{what} at distance {d} m")
        if fault is not None:
            raise fault
        if not counts.size:
            raise DataError("survey must contain at least one row")
        self._freeze(distances, counts, samples)

    @property
    def n_samples(self) -> int:
        return self.samples.size


def _row(i: int, row) -> tuple[float, np.ndarray]:
    """Row ``i``'s distance, and its samples as a 1-D float64 array."""
    try:
        distance, samples = row
    except (TypeError, ValueError):
        raise DataError(f"row {i} is not a (distance, samples) pair") from None
    distance = positive("distance", distance)
    try:
        # A list of floats and ints converts in one pass; other lists and
        # object arrays may hide bools or text among numbers.
        plain = isinstance(samples, (list, tuple))
        plain = plain and set(map(type, samples)) <= {float, int}
        values = np.asarray(samples, np.float64 if plain else None)
        kind = values.dtype.kind
        typed = plain or values is samples and kind != "O"
        if values.ndim == 1 and kind in "iufO" and (
            typed or not any(map(_refused, samples))
        ):
            return distance, values.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"not a flat list of samples at distance {distance} m")


def _cut(survey: RssiSurvey) -> Iterable[tuple[float, np.ndarray]]:
    """Each row's distance, as a float, and a view of its samples."""
    ends = np.cumsum(survey.counts)[:-1]
    return zip(survey.distances.tolist(), np.split(survey.samples, ends))


def _rows(survey: RssiSurvey) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """The rows, built on access."""
    return tuple((d, tuple(samples.tolist())) for d, samples in _cut(survey))


# Set after the class body, where ``rows`` names the init argument.
RssiSurvey.rows = property(_rows, doc=_rows.__doc__)


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
            settle(self, percent, "prr")


@dataclass(frozen=True, eq=False, repr=False)
class SurveyStats(_Columns):
    """Per-distance summaries for one site, sorted by ascending distance.

    Built from :class:`DistanceStats` rows and stored as read-only columns:
    float64 ``distance_m``, ``mean_dbm``, ``sd_db`` and ``prr_pct`` (nan for
    no prr), int64 ``n``. ``rows`` is built on access; ``distances``,
    ``means`` and ``sds`` are tuples of Python floats.
    """

    _COLUMNS = ("distance_m", "mean_dbm", "sd_db", "n", "prr_pct")
    site: str
    rows: InitVar[Iterable[DistanceStats]] = ()
    metadata: tuple[tuple[str, str], ...] = ()
    distance_m: np.ndarray = field(init=False)
    mean_dbm: np.ndarray = field(init=False)
    sd_db: np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)
    prr_pct: np.ndarray = field(init=False)

    def __post_init__(self, rows) -> None:
        settle(self, text, "site")
        settle(self, pairs, "metadata")
        try:
            rows = tuple(rows)
        except TypeError:
            raise DataError(f"rows must be DistanceStats, got {rows!r}") from None
        for i, row in enumerate(rows):
            if not isinstance(row, DistanceStats):
                raise DataError(f"row {i} is not a DistanceStats")
        if not rows:
            raise DataError("need at least one per-distance row")
        rows = sorted(rows, key=attrgetter("distance"))
        columns = zip(*((r.distance, r.mean_rss, r.sd, r.n, r.prr) for r in rows))
        try:  # a None prr becomes nan; an n beyond int64 overflows
            columns = list(map(np.array, columns, (float,) * 3 + (np.int64, float)))
        except OverflowError:
            raise DataError("n must be below 2**63") from None
        self._store(*columns)

    def _store(self, d, mean, sd, n, prr) -> None:
        """Refuse the first row that breaks a rule of :class:`DistanceStats`,
        as it words it, then a distance not above the one before."""
        self._freeze(d, mean, sd, n, prr)
        ok = positive.holds(d) & real.holds(mean) & nonnegative.holds(sd) & (n > 0)
        ok &= percent.holds(prr) | np.isnan(prr)  # nan: no prr
        if not ok.all():  # DistanceStats refuses the first bad row
            i = int(ok.argmin())
            _stats_rows(self, slice(i, i + 1))
        step = np.flatnonzero(d[1:] <= d[:-1])  # rows come sorted: a repeat
        if step.size:
            raise DataError(f"duplicate distance {d[step[0] + 1]} m in summary rows")

    def __repr__(self) -> str:
        site, metadata = _key(self)
        return f"SurveyStats({site=!r}, rows={self.rows!r}, {metadata=!r})"

    distances = property(lambda self: tuple(self.distance_m.tolist()))
    means = property(lambda self: tuple(self.mean_dbm.tolist()))
    sds = property(lambda self: tuple(self.sd_db.tolist()))


def _stats_rows(stats: SurveyStats, rows=slice(None)) -> tuple[DistanceStats, ...]:
    """The rows, built on access; those in the slice ``rows`` if it is given."""
    *columns, prr = (getattr(stats, k)[rows].tolist() for k in stats._COLUMNS)
    return tuple(map(DistanceStats, *columns, [None if p != p else p for p in prr]))


SurveyStats.rows = property(_stats_rows, doc=_stats_rows.__doc__)


def survey_stats(survey: RssiSurvey) -> SurveyStats:
    """Summarize a raw survey into per-distance statistics.

    Rows at the same distance are pooled before computing the mean and the
    n-1 sample standard deviation. Each pooled distance needs at least two
    samples, otherwise the standard deviation is undefined.

    The counts come from the rows' counts, one addition per row. Sums run
    left to right over the pooled samples in row order (bincount adds in
    input order), and squared deviations are exact IEEE products, so the
    result does not depend on the interpreter's ``sum`` or libm's ``pow``.
    The deviations and their squares are built in place in one buffer.
    """
    distances, row = np.unique(survey.distances, return_inverse=True)
    n = np.zeros(distances.size, np.int64)
    np.add.at(n, row, survey.counts)
    group = np.repeat(row, survey.counts)
    short = np.flatnonzero(n < 2)
    if short.size:
        i = short[0]
        raise InsufficientDataError(
            f"need at least 2 samples at distance {float(distances[i])} m to "
            f"estimate a standard deviation, got {n[i]}"
        )
    means = np.bincount(group, weights=survey.samples, minlength=distances.size) / n
    dev = np.repeat(means[row], survey.counts)
    with np.errstate(over="ignore"):  # an infinite SD is refused by name
        np.subtract(survey.samples, dev, out=dev)
        dev *= dev
        var = np.bincount(group, weights=dev, minlength=distances.size) / (n - 1)
    # np.sqrt rounds correctly, as math.sqrt does.
    columns = distances, means, np.sqrt(var), n, np.full(distances.size, np.nan)
    return SurveyStats._from_columns(survey.site, *columns, metadata=survey.metadata)
