"""Raw survey containers and per-distance summarization."""

import dataclasses
import math
import re
import statistics
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssifit import (
    ConstantSigma,
    DataError,
    DistanceStats,
    InsufficientDataError,
    RssiSurvey,
    ShadowedPathLossModel,
    SimulationSpec,
    SurveyStats,
    dataio,
    embedded_dataset,
    fit_path_loss,
    fit_sigma_polynomial,
    load_stats_csv,
    load_survey_csv,
    prr_correlations,
    save_stats_csv,
    save_survey_csv,
    simulate_survey,
    stationarity_sums,
    survey_stats,
)
from rssifit.cli import main


def test_stats_use_sample_standard_deviation():
    samples = (-50.0, -52.0, -49.0, -55.0, -51.0)
    survey = RssiSurvey(site="lab", rows=((3.0, samples),))
    stats = survey_stats(survey)
    row = stats.rows[0]
    assert row.mean_rss == pytest.approx(statistics.fmean(samples))
    assert row.sd == pytest.approx(statistics.stdev(samples))  # n-1 form
    assert row.n == 5
    assert row.prr is None


def test_repeated_distances_pool_before_summary():
    survey = RssiSurvey(
        site="lab",
        rows=((1.0, (-50.0, -52.0)), (2.0, (-60.0, -62.0)), (1.0, (-54.0,))),
    )
    stats = survey_stats(survey)
    assert stats.distances == (1.0, 2.0)
    pooled = (-50.0, -52.0, -54.0)
    assert stats.rows[0].n == 3
    assert stats.rows[0].mean_rss == pytest.approx(statistics.fmean(pooled))
    assert stats.rows[0].sd == pytest.approx(statistics.stdev(pooled))


def test_rows_come_out_sorted_by_distance():
    survey = RssiSurvey(
        site="lab",
        rows=((5.0, (-70.0, -71.0)), (1.0, (-50.0, -51.0)), (3.0, (-60.0, -61.0))),
    )
    assert survey_stats(survey).distances == (1.0, 3.0, 5.0)


def test_single_sample_distance_rejected():
    survey = RssiSurvey(site="lab", rows=((4.0, (-60.0,)),))
    # The count is an int: "got 1", not "got 1.0".
    with pytest.raises(InsufficientDataError, match=r"distance 4\.0 m .*, got 1$"):
        survey_stats(survey)


def test_survey_validation():
    with pytest.raises(DataError):
        RssiSurvey(site="", rows=((1.0, (-50.0,)),))
    with pytest.raises(DataError):
        RssiSurvey(site="lab", rows=())
    with pytest.raises(DataError):
        RssiSurvey(site="lab", rows=((0.0, (-50.0,)),))
    with pytest.raises(DataError):
        RssiSurvey(site="lab", rows=((1.0, ()),))
    with pytest.raises(DataError):
        RssiSurvey(site="lab", rows=((1.0, (float("nan"),)),))
    with pytest.raises(DataError, match="^site must be a non-empty string$"):
        RssiSurvey(site=5, rows=((1.0, (-50.0,)),))


def test_distance_stats_validation():
    with pytest.raises(DataError):
        DistanceStats(distance=1.0, mean_rss=-50.0, sd=-0.1, n=5)
    with pytest.raises(DataError):
        DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=0)
    with pytest.raises(DataError):
        DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=5, prr=101.0)
    with pytest.raises(DataError):
        DistanceStats(distance=-2.0, mean_rss=-50.0, sd=1.0, n=5)
    for n in (2.5, True):
        with pytest.raises(DataError, match="^n must be an integer, got "):
            DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=n)


def test_summary_rows_sorted_and_unique():
    a = DistanceStats(distance=2.0, mean_rss=-55.0, sd=1.0, n=5)
    b = DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=5)
    stats = SurveyStats(site="s", rows=(a, b))
    assert stats.distances == (1.0, 2.0)
    with pytest.raises(DataError, match="duplicate"):
        SurveyStats(site="s", rows=(a, a))
    with pytest.raises(DataError, match="^site must be a non-empty string$"):
        SurveyStats(site=5, rows=(a, b))


def test_sample_count_totals():
    survey = RssiSurvey(
        site="lab", rows=((1.0, (-50.0, -51.0)), (2.0, (-60.0, -61.0, -62.0)))
    )
    assert survey.n_samples == 5


def per_row_survey_stats(survey):
    """Pool, then sum with explicit left-to-right ``acc += x`` loops.

    Not ``sum()``: from CPython 3.12 it adds floats with compensation, so a
    reference built on it would change with the interpreter.
    """
    pooled = {}
    for distance, samples in survey.rows:
        pooled.setdefault(distance, []).extend(samples)
    rows = []
    for distance in sorted(pooled):
        samples = pooled[distance]
        n = len(samples)
        if n < 2:
            raise InsufficientDataError(
                f"need at least 2 samples at distance {distance} m to "
                f"estimate a standard deviation, got {n}"
            )
        acc = 0.0
        for s in samples:
            acc += s
        mean = acc / n
        acc = 0.0
        for s in samples:
            dev = s - mean
            acc += dev * dev
        rows.append((distance, mean, math.sqrt(acc / (n - 1)), n))
    return rows


def stats_outcome(summarize, survey):
    try:
        stats = summarize(survey)
    except InsufficientDataError as exc:
        return ("error", str(exc))
    if isinstance(stats, SurveyStats):
        stats = [(r.distance, r.mean_rss, r.sd, r.n) for r in stats.rows]
    return [(d.hex(), m.hex(), sd.hex(), n) for d, m, sd, n in stats]


survey_rows = st.lists(
    st.tuples(
        # a small pool of distances, so repeats come in any order
        st.sampled_from((0.5, 1.0, 2.0, 3.5, 20.0)),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(rows=survey_rows)
@example(rows=[(2.0, [-50.0]), (1.0, [-40.0, -41.0]), (2.0, [-52.0])])
@example(rows=[(1.0, [-40.0, -41.0]), (3.5, [-60.0])])
# One distance in three rows apart, holding 1, 3 and 2 samples.
@example(rows=[(2.0, [-50.0]), (1.0, [-40.0, -41.0]), (2.0, [-51.0, -0.0, 3.5]),
               (3.5, [-60.0, -61.0]), (2.0, [-52.0, -53.5])])
def test_survey_stats_matches_per_row_reference(rows):
    survey = RssiSurvey(site="lab", rows=tuple((d, tuple(s)) for d, s in rows))
    assert stats_outcome(survey_stats, survey) == stats_outcome(
        per_row_survey_stats, survey
    )


def _check_distance(d: float) -> float:
    """The distance check the reference class below called, kept verbatim
    from the library as the reference for the distance field rule."""
    try:
        if isinstance(d, (str, bytes, bytearray)):
            raise TypeError  # float() would read the text as a number
        d = float(d)
    except (TypeError, ValueError):
        raise DataError(f"distance must be a number, got {d!r}") from None
    except OverflowError:  # an int beyond the float range
        d = math.inf if d > 0 else -math.inf
    if not math.isfinite(d) or d <= 0:
        raise DataError(f"distance must be finite and > 0, got {d!r}")
    return d


@dataclass(frozen=True)
class ParentRssiSurvey:
    """The tuple-backed survey the array-backed one replaced, kept verbatim
    (but for its name) as the reference for rows, equality and errors."""

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


def _built(cls, site, rows):
    try:
        return cls(site=site, rows=rows)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


@st.composite
def raw_rows(draw):
    """1-30 rows over a few distances (ints and repeats included), with
    samples as tuples, lists or numpy arrays of ints and floats (±0.0 too),
    and sometimes one bad row at any position."""
    value = st.one_of(
        st.integers(-200, 200), st.floats(-1e3, 1e3), st.sampled_from((0.0, -0.0))
    )
    row = st.tuples(
        st.sampled_from((0.5, 1, 1.0, 2, 3.5, 20.0, 1e-300)),
        st.tuples(
            st.sampled_from((tuple, list, np.array)),
            st.lists(value, min_size=1, max_size=6),
        ).map(lambda kind_values: kind_values[0](kind_values[1])),
    )
    rows = draw(st.lists(row, min_size=1, max_size=30))
    bad = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from((0.5, 2.0)),
        st.sampled_from(((), (float("nan"),), (-50.0, float("inf")), [float("-inf")])),
    ), st.tuples(
        st.sampled_from((0.0, -0.0, -1.0, float("nan"), float("inf"))),
        st.just((-50.0,)),
    )))
    if bad is not None:
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(("lab", "")), rows=raw_rows())
@example(site="lab", rows=((1, (-0.0, 0)), (1.0, np.array([0.0, -0.0]))))
@example(site="lab", rows=((2.0, [-50]), (0.0, ()), (1.0, ())))
def test_survey_matches_the_tuple_backed_class(site, rows):
    new = _built(RssiSurvey, site, rows)
    old = _built(ParentRssiSurvey, site, rows)
    if isinstance(old, tuple):
        assert new == old
        return
    assert repr(new.rows) == repr(old.rows)
    assert new.n_samples == old.n_samples
    assert new == RssiSurvey(site=site, rows=old.rows)
    assert hash(new) == hash(RssiSurvey(site=site, rows=old.rows))
    changed = dataclasses.replace(new, rows=new.rows[:-1] + ((2.0, (-1.0,)),))
    assert (changed == new) == (changed.rows == old.rows)
    assert dataclasses.replace(new, site="other") != new
    assert dataclasses.replace(new, site="other").rows == new.rows


def _row_key(obj):
    """Equality by the row tuples: class, site, rows and metadata, kept as the
    reference for the column comparison."""
    return obj.__class__, obj.site, obj.rows, obj.metadata


_NAN_PAYLOAD = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
_metadata = st.sampled_from(((), (("seed", "3"),)))


@st.composite
def survey_pairs(draw):
    """Two surveys over distances 1 and 2 and samples 0.0, -0.0 and -50.0: the
    second has the first's rows with each zero's sign flipped, or its
    distances and samples with the samples cut into rows elsewhere, or is
    drawn afresh."""
    def rows():
        return draw(st.lists(st.tuples(
            st.sampled_from((1.0, 2.0)),
            st.lists(st.sampled_from((0.0, -0.0, -50.0)), min_size=1, max_size=3),
        ), min_size=1, max_size=3))

    first = rows()
    how = draw(st.sampled_from(("flip", "cut", "fresh")))
    if how == "fresh":
        second = rows()
    elif how == "flip":
        second = [(d, [-x if x == 0 else x for x in s]) for d, s in first]
    else:
        flat = [x for _, s in first for x in s]
        cuts = sorted(draw(st.lists(
            st.integers(1, max(1, len(flat) - 1)), min_size=len(first) - 1,
            max_size=len(first) - 1, unique=True,
        )))
        ends = zip([0, *cuts], [*cuts, len(flat)])
        second = [(d, flat[i:j]) for (d, _), (i, j) in zip(first, ends)]
    return tuple(
        RssiSurvey("lab", tuple((d, tuple(s)) for d, s in r), draw(_metadata))
        for r in (first, second)
    )


def _flipped(x):
    """``x`` with the other zero's sign, or the other nan payload."""
    if x != x:
        return np.nan if x is _NAN_PAYLOAD else _NAN_PAYLOAD
    return -x if x == 0 else x


@st.composite
def stats_pairs(draw):
    """Two stats tables over distances 1-3, with means, SDs and prr from a few
    values (±0.0, and a nan prr with either payload), built from columns or
    from rows: the second has the first's values with each zero's sign and
    nan payload flipped, or is drawn afresh."""
    def columns():
        d = draw(st.lists(
            st.sampled_from((1.0, 2.0, 3.0)), min_size=1, max_size=3, unique=True
        ))
        return [sorted(d)] + [
            draw(st.lists(st.sampled_from(values), min_size=len(d), max_size=len(d)))
            for values in ((0.0, -0.0, -50.0), (0.0, -0.0, 1.5), (1, 2),
                           (np.nan, _NAN_PAYLOAD, 0.0, -0.0, 50.0))
        ]

    def built(columns):
        d, mean, sd, n, prr = columns
        columns = *map(np.array, (d, mean, sd)), np.array(n, np.int64), np.array(prr)
        stats = SurveyStats._from_columns("lab", *columns, metadata=draw(_metadata))
        if draw(st.booleans()):
            return stats
        return SurveyStats("lab", stats.rows, stats.metadata)

    first = columns()
    if draw(st.booleans()):
        second = columns()
    else:
        second = first[:1] + [list(map(_flipped, c)) for c in first[1:]]
    return built(first), built(second)


@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(survey_pairs(), stats_pairs()))
@example(pair=(
    RssiSurvey("lab", ((1.0, (-0.0, -50.0)),)),
    RssiSurvey("lab", ((1.0, (0.0,)), (1.0, (-50.0,)))),
))
@example(pair=(
    RssiSurvey("lab", ((1.0, (-0.0, -50.0)), (1.0, (0.0,)))),
    RssiSurvey("lab", ((1.0, (-0.0,)), (1.0, (-50.0, 0.0)))),
))
@example(pair=(
    RssiSurvey("lab", ((1.0, (0.0,)),)),
    RssiSurvey("lab", ((1.0, (-0.0,)),), (("seed", "3"),)),
))
def test_equality_follows_the_row_key_and_equal_objects_hash_alike(pair):
    a, b = pair
    assert (a == b) == (b == a) == (_row_key(a) == _row_key(b))
    assert (a != b) == (not a == b)
    if a == b:
        assert hash(a) == hash(b)
    assert a == a and hash(a) == hash(a)


@pytest.mark.parametrize(
    "samples",
    ["12", -50.0, ((-50.0, -51.0),), [[-50.0], [-51.0, -52.0]], np.zeros((1, 2)),
     ("x",), [-50.0, 1 + 2j], {-50.0}, [10**400]],
)
def test_malformed_sample_rows_are_refused_naming_the_distance(samples):
    with pytest.raises(
        DataError, match=r"^not a flat list of samples at distance 2\.5 m$"
    ):
        RssiSurvey(site="lab", rows=((1.0, (-50.0,)), (2.5, samples)))


def test_survey_arrays_are_read_only_copies():
    source = np.array([-50.0, -51.0, -52.0])
    survey = RssiSurvey(site="lab", rows=((1.0, source[:2]), (4, source[2:])))
    source[:] = 0.0
    assert survey.distances.dtype == survey.samples.dtype == np.float64
    assert survey.counts.dtype == np.intp
    assert survey.distances.tolist() == [1.0, 4.0]
    assert survey.counts.tolist() == [2, 1]
    assert survey.samples.tolist() == [-50.0, -51.0, -52.0]
    for array in (survey.distances, survey.counts, survey.samples):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        survey.samples = np.zeros(3)


def test_hot_paths_never_build_the_rows_view(monkeypatch):
    model = ShadowedPathLossModel(
        d0=1.0, rss_d0=-40.0, eta=2.0, sigma=ConstantSigma(3.0)
    )
    spec = SimulationSpec(
        model=model, distances=(1.0, 2.0, 5.0, 2.0), samples_per_distance=50, seed=3
    )
    data = save_survey_csv(simulate_survey(spec))
    expected = survey_stats(load_survey_csv(data))

    def boxed(self):
        raise AssertionError("a hot path built the rows view")

    def row_loop(text):
        raise AssertionError("a well-formed survey fell back to the row loop")

    monkeypatch.setattr(RssiSurvey, "rows", property(boxed))
    monkeypatch.setattr(dataio, "_survey_rows", row_loop)
    survey = simulate_survey(spec)
    assert survey.n_samples == 200
    survey_stats(survey)
    assert survey_stats(load_survey_csv(data)) == expected


def test_stats_and_fits_never_build_distance_stats(monkeypatch, capsys):
    embedded = embedded_dataset("longwall-face").stats
    spec = SimulationSpec(
        model=ShadowedPathLossModel(
            d0=1.0, rss_d0=-40.0, eta=2.0, sigma=ConstantSigma(3.0)
        ),
        distances=tuple(float(d) for d in range(1, 9)),
        samples_per_distance=5,
        seed=3,
    )
    survey = simulate_survey(spec)
    twins = (
        (survey, RssiSurvey(survey.site, survey.rows, survey.metadata)),
        (embedded, SurveyStats(embedded.site, embedded.rows, embedded.metadata)),
    )
    exports = {save_stats_csv: embedded, save_survey_csv: survey}
    saved = {save: save(data) for save, data in exports.items()}
    fit = ["fit", "longwall-face", "--format", "json"]
    assert main(fit) == 0
    fitted = capsys.readouterr().out

    def boxed(self):
        raise AssertionError("a hot path built the rows view")

    monkeypatch.setattr(SurveyStats, "rows", property(boxed))
    monkeypatch.setattr(RssiSurvey, "rows", property(boxed))
    for stats in (survey_stats(survey), embedded):
        for mode in ("free", "anchored"):
            fit_path_loss(stats, d0=2.0, intercept_mode=mode)
        for target in ("sample_sd", "residual_y"):
            sigma = fit_sigma_polynomial(stats, target=target).sigma
            stationarity_sums(stats, sigma, target=target)
    prr_correlations(embedded)
    for data, twin in twins:
        assert data == twin and hash(data) == hash(twin)
    assert survey != embedded and survey_stats(survey) != embedded
    assert {save: save(data) for save, data in exports.items()} == saved
    assert main(fit) == 0
    assert capsys.readouterr().out == fitted


@pytest.mark.parametrize(
    "distance",
    ["12", b"12", bytearray(b"12"), None, (1, 2), "x", True, np.True_, np.array("1")],
)
def test_a_distance_that_is_not_a_number_is_refused_by_name(distance):
    message = rf"^distance must be a number, got {re.escape(repr(distance))}$"
    with pytest.raises(DataError, match=message):
        RssiSurvey(site="s", rows=((distance, (1.0,)),))
    with pytest.raises(DataError, match=message):
        DistanceStats(distance=distance, mean_rss=-50.0, sd=1.0, n=2)


@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_distance_beyond_the_float_range_is_refused_as_out_of_range(sign):
    expected = "inf" if sign > 0 else "-inf"
    message = f"^distance must be finite and > 0, got {expected}$"
    with pytest.raises(DataError, match=message):
        RssiSurvey(site="s", rows=((sign * 10**400, (1.0,)),))


@pytest.mark.parametrize("row", [((1.0,),), (1.0,), (1.0, (1.0,), 3), 2.0, None])
def test_a_row_that_is_not_a_pair_is_refused_by_name(row):
    with pytest.raises(DataError, match=r"^row 1 is not a \(distance, samples\) pair$"):
        RssiSurvey(site="s", rows=((1.0, (-50.0,)), row))


def test_distances_that_are_numbers_still_convert():
    survey = RssiSurvey(site="s", rows=((np.float32(2.5), (1.0,)), (3, (2.0,))))
    assert survey.distances.tolist() == [2.5, 3.0]
    assert DistanceStats(distance=np.int64(4), mean_rss=-50.0, sd=1.0, n=2).n == 2


@pytest.mark.parametrize(
    "samples",
    [("-50", "-51"), (True, False), [True, -50.5], [-50.0, np.float64(1), np.True_],
     np.array([-50.0 + 1j, -51.0]), np.array([True, -50.5], dtype=object),
     [b"-50"], ["-50", -51.0]],
)
def test_samples_that_are_not_numbers_are_refused_naming_the_distance(samples):
    with pytest.raises(
        DataError, match=r"^not a flat list of samples at distance 2\.5 m$"
    ):
        RssiSurvey(site="lab", rows=((1.0, (-50.0,)), (2.5, samples)))


@pytest.mark.parametrize("rows", [5, None, 2.5, object()])
def test_rows_that_are_not_iterable_are_refused_by_name(rows):
    with pytest.raises(DataError, match=r"^rows must be \(distance, samples\) pairs$"):
        RssiSurvey(site="lab", rows=rows)


def _column_bytes(stats):
    return [(c.dtype.str, c.tobytes()) for c in
            (stats.distance_m, stats.mean_dbm, stats.sd_db, stats.n, stats.prr_pct)]


@settings(max_examples=200, deadline=None)
@given(rows=survey_rows, metadata=st.sampled_from(((), (("seed", "3"),))))
def test_survey_stats_equal_the_stats_built_from_their_rows(rows, metadata):
    survey = RssiSurvey("lab", tuple((d, tuple(s)) for d, s in rows), metadata)
    try:
        stats = survey_stats(survey)
    except InsufficientDataError:
        return
    again = SurveyStats(site="lab", rows=stats.rows, metadata=metadata)
    assert again == stats
    assert hash(again) == hash(stats)
    assert repr(again) == repr(stats)
    assert _column_bytes(again) == _column_bytes(stats)
    for row in stats.rows:
        assert type(row) is DistanceStats
        assert [type(v) for v in dataclasses.astuple(row)] == [
            float, float, float, int, type(None)
        ]
    assert stats.distances == tuple(r.distance for r in stats.rows)
    assert stats.means == tuple(r.mean_rss for r in stats.rows)
    assert stats.sds == tuple(r.sd for r in stats.rows)
    for column in _column_bytes(stats):
        assert column[0] in ("<f8", "<i8")
    with pytest.raises(ValueError, match="read-only"):
        stats.mean_dbm[0] = 0.0


@st.composite
def faulty_rows(draw):
    """Rows of numbers in which any row may hold a bad distance, no samples
    or a non-finite sample, so a survey can have several faults."""
    distance = st.sampled_from(
        (0.5, 1.0, 2.0, 1e-300, 0.0, -0.0, -1.0, math.nan, math.inf)
    )
    value = st.sampled_from((-50.0, -51.5, 0.0, math.nan, math.inf, -math.inf))
    rows = st.tuples(distance, st.lists(value, max_size=4).map(tuple))
    return tuple(draw(st.lists(rows, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(rows=faulty_rows())
@example(rows=((1.0, (math.nan,)), (0.0, (1.0,)), (2.0, ())))
@example(rows=((1.0, (1.0,)), (2.0, ()), (-1.0, (math.nan,))))
@example(rows=())
def test_array_entry_and_row_entry_agree_on_surveys_and_first_errors(rows):
    distances = np.array([d for d, _ in rows], dtype=np.float64)
    counts = np.array([len(s) for _, s in rows], dtype=np.intp)
    samples = np.array([v for _, s in rows for v in s], dtype=np.float64)
    from_arrays = _built(
        lambda site, rows: RssiSurvey._from_columns(
            site, distances, counts, samples, metadata=(("k", "v"),)
        ),
        "lab", rows,
    )
    from_rows = _built(
        lambda site, rows: RssiSurvey(site, rows, (("k", "v"),)), "lab", rows
    )
    assert from_arrays == from_rows
    parent = _built(ParentRssiSurvey, "lab", rows)
    if isinstance(parent, tuple):  # the first bad row, refused as row by row
        assert from_rows == parent
    else:
        assert hash(from_arrays) == hash(from_rows)
        assert from_arrays.rows == from_rows.rows == parent.rows


@st.composite
def faulty_stats_rows(draw):
    """1-8 summary rows at distances 1, 2, ..., with up to three faults put
    in any row and column. A nan prr is an absent one, and a prr of 0, 100
    or -0.0 and an sd of -0.0 are in range."""
    good = (
        (-50.0, 0.0, -1.7e308), (0.0, -0.0, 1.5, 5e-324), (1, 20, 2**62),
        (math.nan, 0.0, -0.0, 50.0, 100.0),
    )
    bad = (
        (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf),
        (math.nan, math.inf, -math.inf),
        (-0.5, -5e-324, math.nan, math.inf),
        (0, -1),
        (100.5, -0.5, math.inf, -math.inf),
    )
    k = draw(st.integers(1, 8))
    rows = [[i + 1.0, *(draw(st.sampled_from(g)) for g in good)] for i in range(k)]
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.integers(0, 4))
        rows[draw(st.integers(0, k - 1))][column] = draw(st.sampled_from(bad[column]))
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(rows=faulty_stats_rows())
@example(rows=((1.0, -50.0, 1.0, 5, 100.5),))
@example(rows=((1.0, -50.0, 1.0, 5, math.nan), (2.0, -50.0, -0.5, 0, -0.5)))
@example(rows=((1.0, -50.0, -0.0, 5, -0.0), (2.0, -50.0, 1.0, 5, 100.0)))
def test_stats_columns_refuse_the_first_bad_row_as_distance_stats_words_it(rows):
    def from_rows(site, rows):  # DistanceStats refuses each row in turn
        rows = [DistanceStats(*r[:4], None if r[4] != r[4] else r[4]) for r in rows]
        return SurveyStats(site, rows, (("k", "v"),))

    def from_columns(site, rows):
        columns = map(np.array, zip(*rows), (float,) * 3 + (np.int64, float))
        return SurveyStats._from_columns(site, *columns, metadata=(("k", "v"),))

    assert _built(from_columns, "lab", rows) == _built(from_rows, "lab", rows)


@pytest.mark.parametrize("column, value", [
    (0, 0.0), (1, math.nan), (2, -0.5), (3, 0), (4, 100.5),
])  # a distance <= 0, a mean not finite, sd < 0, n < 1, prr > 100
@pytest.mark.parametrize("where", [0, 50_000, 99_999])
def test_a_large_stats_table_builds_only_its_first_bad_row(
    monkeypatch, column, value, where
):
    n = 100_000
    columns = [np.arange(1.0, n + 1.0), np.full(n, -60.0), np.full(n, 2.0),
               np.full(n, 20, dtype=np.int64), np.full(n, math.nan)]
    columns[column][where] = value
    row = [c[where].item() for c in columns]
    with pytest.raises(DataError) as want:
        DistanceStats(*row[:4], None if row[4] != row[4] else row[4])
    built, post_init = [], DistanceStats.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DistanceStats, "__post_init__", counted)
    with pytest.raises(DataError) as got:
        SurveyStats._from_columns("big", *columns)
    assert str(got.value) == str(want.value) and len(built) == 1


def test_prr_column_round_trips_present_and_absent_values():
    rows = (
        DistanceStats(1.0, -50.0, 1.5, 20, 100.0),
        DistanceStats(2.0, -55.0, 2.0, 20),
        DistanceStats(4.0, -61.0, 2.5, 19, 0.0),
        DistanceStats(8.0, -66.0, 3.0, 18),
    )
    stats = SurveyStats(site="s", rows=rows)
    assert np.isnan(stats.prr_pct).tolist() == [False, True, False, True]
    loaded = load_stats_csv(save_stats_csv(stats), site="s")
    assert loaded == stats
    assert _column_bytes(loaded) == _column_bytes(stats)
    assert [r.prr for r in loaded.rows] == [100.0, None, 0.0, None]


def test_stats_columns_are_sorted_read_only_and_refused_by_name():
    a = DistanceStats(distance=2.0, mean_rss=-55.0, sd=1.0, n=5, prr=90.0)
    b = DistanceStats(distance=1.0, mean_rss=-50.0, sd=0.5, n=7)
    stats = SurveyStats(site="s", rows=[a, b])
    assert stats.distance_m.tolist() == [1.0, 2.0]
    assert stats.n.tolist() == [7, 5]
    assert stats.rows == (b, a)
    assert repr(stats) == f"SurveyStats(site='s', rows={(b, a)!r}, metadata=())"
    with pytest.raises(ValueError, match="read-only"):
        stats.n[0] = 1
    with pytest.raises(DataError, match=r"^n must be below 2\*\*63$"):
        SurveyStats(site="s", rows=[dataclasses.replace(a, n=2**63)])
    # A squared deviation overflows, then a deviation itself; pyproject.toml
    # makes an escaped RuntimeWarning an error.
    for wide in ((1e308, -1e308, 1e308), (1.7e308, -1.6e308, -1.6e308)):
        survey = RssiSurvey("s", ((1.0, wide), (2.0, (1.0, 2.0))))
        with pytest.raises(DataError, match=r"^sd must be finite and >= 0, got inf$"):
            survey_stats(survey)
    with pytest.raises(DataError, match=r"^mean_rss must be finite, got inf$"):
        survey_stats(RssiSurvey("s", ((1.0, (1e308, 1e308)), (2.0, (1.0, 2.0)))))
