"""Codec round trips, format validation, and canonical exports."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssifit import (
    ConstantSigma,
    DataError,
    DistanceStats,
    FormatError,
    RssiSurvey,
    ShadowedPathLossModel,
    SigmaPolynomial,
    SurveyStats,
    embedded_dataset,
    load_stats_csv,
    load_survey_csv,
    model_from_json,
    model_to_json,
    save_stats_csv,
    save_survey_csv,
)

# sha256 of the canonical stats exports, pinned against silent edits to the
# embedded tables or the renderer
LONGWALL_EXPORT_SHA256 = (
    "29df453cdf2827f41ce2e7d09409f63e2e27c05b592164c452fa10c781c99b0e"
)
GATEROAD_EXPORT_SHA256 = (
    "6822553c9df409c23caa66612a143a1addc1730f1b862cdd23de538d59800c26"
)

finite_db = st.floats(
    min_value=-200.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
distances_st = st.lists(
    st.floats(min_value=0.001, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
    unique=True,
)
site_st = st.text(
    alphabet=st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=20,
)


@st.composite
def surveys(draw):
    rows = tuple(
        (d, tuple(draw(st.lists(finite_db, min_size=1, max_size=5))))
        for d in draw(distances_st)
    )
    return RssiSurvey(site=draw(site_st), rows=rows)


@st.composite
def stats_tables(draw):
    rows = []
    for d in sorted(draw(distances_st)):
        rows.append(
            DistanceStats(
                distance=d,
                mean_rss=draw(finite_db),
                sd=draw(st.floats(min_value=0.0, max_value=50.0)),
                n=draw(st.integers(min_value=1, max_value=1000)),
                prr=draw(
                    st.one_of(
                        st.none(), st.floats(min_value=0.0, max_value=100.0)
                    )
                ),
            )
        )
    return SurveyStats(site="generated", rows=tuple(rows))


@st.composite
def models(draw):
    sigma = draw(
        st.one_of(
            st.none(),
            st.builds(
                ConstantSigma,
                value=st.floats(min_value=0.0, max_value=50.0),
            ),
            st.builds(
                SigmaPolynomial,
                a=finite_db,
                b=finite_db,
                c=finite_db,
                e=finite_db,
                f=finite_db,
                d_min=st.floats(min_value=0.001, max_value=10.0),
                d_max=st.floats(min_value=11.0, max_value=1e4),
            ),
        )
    )
    return ShadowedPathLossModel(
        d0=draw(st.floats(min_value=0.001, max_value=100.0)),
        rss_d0=draw(finite_db),
        eta=draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)),
        sigma=sigma,
    )


@settings(max_examples=150, deadline=None)
@given(surveys())
def test_survey_csv_round_trips(survey):
    assert load_survey_csv(save_survey_csv(survey)) == survey


@settings(max_examples=150, deadline=None)
@given(stats_tables())
def test_stats_csv_round_trips(stats):
    loaded = load_stats_csv(save_stats_csv(stats), site=stats.site)
    assert loaded == stats


@settings(max_examples=150, deadline=None)
@given(models())
def test_model_json_round_trips(model):
    assert model_from_json(model_to_json(model)) == model


def test_negative_zero_round_trips_with_its_sign():
    survey = RssiSurvey(site="s", rows=((1.0, (-0.0, 0.0)),))
    text = save_survey_csv(survey)
    (_, (neg, pos)), = load_survey_csv(text).rows
    assert math.copysign(1.0, neg) == -1.0
    assert math.copysign(1.0, pos) == 1.0
    stats = SurveyStats(
        site="s",
        rows=(DistanceStats(distance=1.0, mean_rss=-0.0, sd=0.0, n=2, prr=-0.0),),
    )
    row = load_stats_csv(save_stats_csv(stats), site="s").rows[0]
    assert math.copysign(1.0, row.mean_rss) == -1.0
    assert math.copysign(1.0, row.prr) == -1.0
    assert math.copysign(1.0, row.sd) == 1.0


def test_survey_csv_shape():
    survey = RssiSurvey(site="A", rows=((1.0, (-50.0, -52.0)),))
    text = save_survey_csv(survey).decode()
    assert text.splitlines() == ["site,distance_m,rssi_dbm", "A,1,-50", "A,1,-52"]
    assert "\r" not in text


def test_survey_load_pools_repeated_distances():
    data = b"site,distance_m,rssi_dbm\nA,1,-50\nA,2,-60\nA,1,-52\n"
    survey = load_survey_csv(data)
    assert survey.rows == ((1.0, (-50.0, -52.0)), (2.0, (-60.0,)))


def test_survey_load_rejects_mixed_sites():
    data = b"site,distance_m,rssi_dbm\nA,1,-50\nB,1,-52\n"
    with pytest.raises(FormatError, match="line 3"):
        load_survey_csv(data)


def test_survey_load_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        load_survey_csv(b"wrong,header\nA,1,-50\n")
    with pytest.raises(FormatError, match="line 3.*distance_m"):
        load_survey_csv(b"site,distance_m,rssi_dbm\nA,1,-50\nA,zero,-50\n")
    with pytest.raises(FormatError, match="line 2.*rssi_dbm"):
        load_survey_csv(b"site,distance_m,rssi_dbm\nA,1,abc\n")
    with pytest.raises(FormatError, match="line 2"):
        load_survey_csv(b"site,distance_m,rssi_dbm\nA,0,-50\n")
    with pytest.raises(FormatError):
        load_survey_csv(b"site,distance_m,rssi_dbm\n")


def test_stats_csv_canonical_first_line(longwall):
    lines = save_stats_csv(longwall).decode().splitlines()
    assert lines[0] == "distance_m,mean_dbm,sd_db,prr_pct,n"
    assert lines[1] == "1,-51.65,0.48936,100,20"
    assert len(lines) == 21


def test_stats_exports_pinned_checksums(longwall, gateroad):
    assert (
        hashlib.sha256(save_stats_csv(longwall)).hexdigest()
        == LONGWALL_EXPORT_SHA256
    )
    assert (
        hashlib.sha256(save_stats_csv(gateroad)).hexdigest()
        == GATEROAD_EXPORT_SHA256
    )


def test_stats_export_is_byte_stable(longwall):
    assert save_stats_csv(longwall) == save_stats_csv(longwall)


def test_stats_empty_prr_field_loads_as_absent():
    data = b"distance_m,mean_dbm,sd_db,prr_pct,n\n1,-50,1.5,,20\n2,-60,2,95.5,20\n"
    stats = load_stats_csv(data)
    assert stats.rows[0].prr is None
    assert stats.rows[1].prr == 95.5


def test_stats_load_rejects_invalid_rows():
    header = b"distance_m,mean_dbm,sd_db,prr_pct,n\n"
    with pytest.raises(FormatError, match="line 2"):
        load_stats_csv(header + b"1,-50,-0.5,,20\n")  # negative sd
    with pytest.raises(FormatError, match="line 2"):
        load_stats_csv(header + b"0,-50,1,,20\n")  # distance 0
    with pytest.raises(FormatError, match="n"):
        load_stats_csv(header + b"1,-50,1,,20.5\n")  # non-integer count
    with pytest.raises(FormatError, match="line 2"):
        load_stats_csv(header + b"1,-50,1,,20,extra\n")
    with pytest.raises(FormatError, match="line 1"):
        load_stats_csv(b"distance,mean\n")


def test_embedded_export_round_trips_through_loader(gateroad):
    # exported table reloads to the identical statistics
    reloaded = load_stats_csv(save_stats_csv(gateroad), site=gateroad.site)
    assert reloaded == gateroad
    assert embedded_dataset("gateroad-conveyor").stats == reloaded


def test_model_document_shape():
    model = ShadowedPathLossModel(
        d0=1.0,
        rss_d0=-51.65,
        eta=2.14,
        sigma=SigmaPolynomial(
            a=2.626e-6, b=6.176e-3, c=-0.2276, e=2.403, f=-1.721,
            d_min=1.0, d_max=20.0,
        ),
    )
    doc = json.loads(model_to_json(model).decode())
    assert doc["format_version"] == 1
    assert doc["d0_m"] == 1.0
    assert doc["rss_d0_dbm"] == -51.65
    assert doc["eta"] == 2.14
    assert doc["sigma"]["d_min_m"] == 1.0
    assert doc["sigma"]["d_max_m"] == 20.0


def test_constant_sigma_document_form():
    model = ShadowedPathLossModel(
        d0=1.0, rss_d0=-40.0, eta=2.0, sigma=ConstantSigma(2.0)
    )
    doc = json.loads(model_to_json(model).decode())
    assert doc["sigma"] == {"constant_db": 2.0}
    reloaded = model_from_json(model_to_json(model))
    from rssifit import sigma_at

    assert sigma_at(reloaded.sigma, 1.0) == (2.0, False)
    assert sigma_at(reloaded.sigma, 500.0) == (2.0, False)


def test_model_document_rejects_unknown_fields_with_paths():
    base = {
        "format_version": 1,
        "d0_m": 1.0,
        "rss_d0_dbm": -40.0,
        "eta": 2.0,
        "sigma": None,
    }
    bad_top = dict(base, extra=1)
    with pytest.raises(FormatError, match="'extra'"):
        model_from_json(json.dumps(bad_top).encode())
    bad_sigma = dict(base, sigma={"constant_db": 2.0, "bogus": 1})
    with pytest.raises(FormatError, match="'sigma.bogus'"):
        model_from_json(json.dumps(bad_sigma).encode())
    bad_poly = dict(
        base,
        sigma={"a": 0, "b": 0, "c": 0, "e": 0, "f": 1, "d_min_m": 1, "d_max": 2},
    )
    with pytest.raises(FormatError, match="'sigma.d_max'"):
        model_from_json(json.dumps(bad_poly).encode())


def test_model_document_rejects_missing_and_mistyped_fields():
    doc = {"format_version": 1, "d0_m": 1.0, "rss_d0_dbm": -40.0, "sigma": None}
    with pytest.raises(FormatError, match="'eta'"):
        model_from_json(json.dumps(doc).encode())
    no_sigma = {"format_version": 1, "d0_m": 1.0, "rss_d0_dbm": -40.0, "eta": 2.0}
    with pytest.raises(FormatError, match="'sigma'"):
        model_from_json(json.dumps(no_sigma).encode())
    booled = dict(doc, eta=True, sigma=None)
    with pytest.raises(FormatError, match="'eta'.*number"):
        model_from_json(json.dumps(booled).encode())
    with pytest.raises(FormatError, match="format_version"):
        model_from_json(
            json.dumps(dict(doc, eta=2.0, format_version=99)).encode()
        )
    with pytest.raises(FormatError):
        model_from_json(b"not json at all")
    with pytest.raises(FormatError):
        model_from_json(b"[1, 2, 3]")


def test_model_document_semantic_validation_still_applies():
    doc = {
        "format_version": 1,
        "d0_m": -1.0,
        "rss_d0_dbm": -40.0,
        "eta": 2.0,
        "sigma": None,
    }
    with pytest.raises(DataError):
        model_from_json(json.dumps(doc).encode())


def test_site_with_line_break_cannot_be_saved():
    survey = RssiSurvey(site="a\nb", rows=((1.0, (-50.0,)),))
    with pytest.raises(DataError):
        save_survey_csv(survey)


def test_quoted_site_with_comma_round_trips():
    survey = RssiSurvey(site="mine, level 2", rows=((1.0, (-50.0, -51.0)),))
    assert load_survey_csv(save_survey_csv(survey)) == survey
