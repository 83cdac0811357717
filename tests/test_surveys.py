"""Raw survey containers and per-distance summarization."""

import math
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssifit import (
    DataError,
    DistanceStats,
    InsufficientDataError,
    RssiSurvey,
    SurveyStats,
    survey_stats,
)


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
    with pytest.raises(InsufficientDataError, match="4"):
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


def test_distance_stats_validation():
    with pytest.raises(DataError):
        DistanceStats(distance=1.0, mean_rss=-50.0, sd=-0.1, n=5)
    with pytest.raises(DataError):
        DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=0)
    with pytest.raises(DataError):
        DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=5, prr=101.0)
    with pytest.raises(DataError):
        DistanceStats(distance=-2.0, mean_rss=-50.0, sd=1.0, n=5)


def test_summary_rows_sorted_and_unique():
    a = DistanceStats(distance=2.0, mean_rss=-55.0, sd=1.0, n=5)
    b = DistanceStats(distance=1.0, mean_rss=-50.0, sd=1.0, n=5)
    stats = SurveyStats(site="s", rows=(a, b))
    assert stats.distances == (1.0, 2.0)
    with pytest.raises(DataError, match="duplicate"):
        SurveyStats(site="s", rows=(a, a))


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
def test_survey_stats_matches_per_row_reference(rows):
    survey = RssiSurvey(site="lab", rows=tuple((d, tuple(s)) for d, s in rows))
    assert stats_outcome(survey_stats, survey) == stats_outcome(
        per_row_survey_stats, survey
    )
