"""Codec round trips, format validation, and canonical exports."""

import copy
import csv
import hashlib
import io
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssifit import (
    ConstantSigma,
    DataError,
    DistanceStats,
    FormatError,
    RssiSurvey,
    ShadowedPathLossModel,
    SigmaPolynomial,
    SimulationSpec,
    SurveyStats,
    embedded_dataset,
    load_stats_csv,
    load_survey_csv,
    model_from_json,
    model_to_json,
    save_stats_csv,
    save_survey_csv,
    simulate_survey,
    survey_stats,
)
from rssifit import dataio

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


@pytest.mark.parametrize("site", ["", '""'])
def test_empty_site_field_is_a_format_error_naming_the_line(site):
    data = f"site,distance_m,rssi_dbm\n{site},1,-50\n{site},2,-60\n".encode()
    with pytest.raises(
        FormatError, match=r"^line 2, column 'site': must not be empty$"
    ):
        load_survey_csv(data)


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


def _row_writer(stats):
    """A stats writer over ``stats.rows``, kept as the reference for the
    column writer's bytes."""
    return dataio.csv_text(dataio.STATS_HEADER, (
        (dataio._fmt(r.distance), dataio._fmt(r.mean_rss), dataio._fmt(r.sd),
         "" if r.prr is None else dataio._fmt(r.prr), str(r.n))
        for r in stats.rows
    )).encode("utf-8")


def _either(special, low, high):
    """Signed zeros and integral values, or any float in [low, high]."""
    return st.one_of(st.sampled_from(special), st.floats(low, high))


@st.composite
def export_tables(draw):
    distances = draw(st.lists(
        _either((1.0, 2.0, 20.0, 0.1 + 0.2), 1e-3, 1e4), min_size=1, max_size=6,
        unique=True,
    ))
    return SurveyStats(site="s", rows=tuple(
        DistanceStats(
            distance=d,
            mean_rss=draw(_either((0.0, -0.0, -50.0, -51.65), -200.0, 100.0)),
            sd=draw(_either((0.0, -0.0, 3.0, 0.48936), 0.0, 50.0)),
            n=draw(st.sampled_from((1, 2**63 - 1)) | st.integers(1, 2**63 - 1)),
            prr=draw(st.none() | _either((0.0, -0.0, 100.0, 99.5), 0.0, 100.0)),
        )
        for d in distances
    ))


@settings(max_examples=200, deadline=None)
@given(export_tables())
@example(SurveyStats(site="s", rows=(
    DistanceStats(0.30000000000000004, -0.0, -0.0, 2**63 - 1, -0.0),
    DistanceStats(2.0, -51.65, 1e-17, 1, None),
)))
def test_stats_export_matches_the_row_writer(stats):
    assert save_stats_csv(stats) == _row_writer(stats)


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
    for n in (2**63, 10**20):  # a count past int64, which stores n
        with pytest.raises(FormatError) as caught:
            load_stats_csv(header + b"1,-50,1,,20\n2,-55,1,,%d\n" % n)
        assert str(caught.value) == (
            f"line 3, column 'n': value must be below 2**63, got '{n}'"
        )
    assert load_stats_csv(header + b"1,-50,1,,%d\n" % (2**63 - 1)).n[0] == 2**63 - 1
    with pytest.raises(FormatError, match="line 2"):
        load_stats_csv(header + b"1,-50,1,,20,extra\n")
    with pytest.raises(FormatError, match="line 1"):
        load_stats_csv(b"distance,mean\n")
    for data, message in (
        (b"", "line 1: empty file, expected header "
              "'distance_m,mean_dbm,sd_db,prr_pct,n'"),
        (header, "line 2: no data rows"),
    ):
        with pytest.raises(FormatError) as caught:
            load_stats_csv(data)
        assert str(caught.value) == message


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
    for version in (99, True, 1.0):  # True == 1 == 1.0, yet neither is 1
        with pytest.raises(FormatError, match="unsupported format_version"):
            model_from_json(
                json.dumps(dict(doc, eta=2.0, format_version=version)).encode()
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


_POLY = {"a": 0, "b": 0, "c": 0, "e": 0.1, "f": 1, "d_min_m": 1, "d_max_m": 20}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"d0_m": 0}, "field 'd0_m' must be finite and > 0, got 0.0"),
        ({"eta": 1e400}, "field 'eta' must be finite, got inf"),
        (
            {"sigma": {"constant_db": -1}},
            "field 'sigma.constant_db' must be finite and >= 0, got -1.0",
        ),
        (
            {"sigma": dict(_POLY, d_min_m=0)},
            "field 'sigma.d_min_m' must be finite and > 0, got 0.0",
        ),
        (
            {"sigma": dict(_POLY, d_min_m=20, d_max_m=5)},
            "field 'sigma.d_max_m' must exceed field 'sigma.d_min_m', "
            "got [20.0, 5.0]",
        ),
        (
            {"sigma": dict(_POLY, d_max_m=1)},
            "field 'sigma.d_max_m' must exceed field 'sigma.d_min_m', "
            "got [1.0, 1.0]",
        ),
    ],
)
def test_model_document_names_a_value_out_of_range_by_its_key(fields, message):
    doc = dict(
        {"format_version": 1, "d0_m": 1, "rss_d0_dbm": -40, "eta": 2, "sigma": None},
        **fields,
    )
    text = json.dumps(doc).encode()
    with pytest.raises(FormatError) as raised:
        model_from_json(text)
    assert str(raised.value) == message


def test_site_with_line_break_cannot_be_saved():
    survey = RssiSurvey(site="a\nb", rows=((1.0, (-50.0,)),))
    with pytest.raises(DataError):
        save_survey_csv(survey)


def test_quoted_site_with_comma_round_trips():
    survey = RssiSurvey(site="mine, level 2", rows=((1.0, (-50.0, -51.0)),))
    assert load_survey_csv(save_survey_csv(survey)) == survey


# -- bulk survey loading against the row loop it replaced ---------------------
# The loader as it was before bulk parsing, kept verbatim (with its helpers)
# as the reference for the differential property below, except that it reads
# numbers by the package's rule instead of by bare float().


def _ref_number(text: str) -> float:
    """The package's number rule, restated: no ``_``, ASCII, then float."""
    core = text.strip()
    if "_" in core or not core.isascii():
        raise ValueError(text)
    return float(core)


def _ref_parse_float(text: str, line: int, column: str) -> float:
    try:
        value = _ref_number(text)
    except ValueError:
        raise FormatError(
            f"line {line}, column {column!r}: not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise FormatError(
            f"line {line}, column {column!r}: value must be finite, "
            f"got {text!r}"
        )
    return value


def _ref_check_header(row, expected) -> None:
    if row is None:
        raise FormatError(f"line 1: empty file, expected header "
                          f"{','.join(expected)!r}")
    if tuple(row) != expected:
        raise FormatError(
            f"line 1: bad header {','.join(row)!r}, "
            f"expected {','.join(expected)!r}"
        )


def _ref_check_width(row, line: int, expected: int) -> None:
    if len(row) != expected:
        raise FormatError(
            f"line {line}: expected {expected} fields, got {len(row)}"
        )


def reference_load_survey_csv(data: bytes) -> RssiSurvey:
    """Parse a survey file; pools repeated distances by first appearance."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    _ref_check_header(next(reader, None), dataio.SURVEY_HEADER)
    site = None
    pooled: dict[float, list[float]] = {}
    for row in reader:
        line = reader.line_num
        if not row:
            raise FormatError(f"line {line}: blank line")
        _ref_check_width(row, line, 3)
        row_site, d_text, rssi_text = row
        if site is None:
            site = row_site
        elif row_site != site:
            raise FormatError(
                f"line {line}: site {row_site!r} differs from {site!r}; "
                "a survey file holds one site"
            )
        distance = _ref_parse_float(d_text, line, "distance_m")
        if distance <= 0:
            raise FormatError(
                f"line {line}, column 'distance_m': must be > 0, "
                f"got {d_text!r}"
            )
        rssi = _ref_parse_float(rssi_text, line, "rssi_dbm")
        pooled.setdefault(distance, []).append(rssi)
    if site is None:
        raise FormatError("line 2: no data rows")
    return RssiSurvey(
        site=site,
        rows=tuple((d, tuple(samples)) for d, samples in pooled.items()),
    )


def _outcome(load, data: bytes):
    """A loader's result in comparable form: repr keeps the sign of zero."""
    try:
        survey = load(data)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    return survey.site, repr(survey.rows)


# Numbers both parsers read alike, then ones where they differ or that the
# row loop rejects.
GOOD_NUMBERS = ("1", "2.0", "-51.25", "-0", "+1", ".5", "1.", "1E-2", " 1",
                "1 ", "\t2", "\xa01", '"3"', '" -2"', "-71.23456789012345",
                "-105.12345678901234", "-0.12345678901234567", "9007199254740993")
ODD_NUMBERS = ("0", "-1", "1e400", "-1e400", "1e-400", "nan", "-nan", "inf",
               "Infinity", "-inf", "1_0", "\u0661", "1\x1c", "\x1f1", "1\x00",
               '"3"x', "0x10", "1e", "", "abc")
SITES = ("A", "face A", " A", "A ", "a,b", 'a"b', "a\nb", "a\r\nb", "",
         "\ufeffA", "A\x1c", "A\x0c", "mine, level 2", "A\x00")
DEFECTS = ("none",) * 6 + ("odd-number",) * 3 + (
    "blank", "blank-first", "space", "short", "long",
    "other-site", "bare-cr", "trailing-blank", "header", "no-rows", "not-utf8",
)


def _site_field(site: str, quoted: bool) -> str:
    if quoted or any(c in site for c in ',"\r\n'):
        return '"' + site.replace('"', '""') + '"'
    return site


@st.composite
def raw_survey_csv(draw):
    """Raw survey text: a well-formed file with at most one defect."""
    defect = draw(st.sampled_from(DEFECTS))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    site = draw(st.sampled_from(SITES))
    quoted = draw(st.booleans())
    distances = draw(
        st.lists(st.sampled_from(("1", "2", "2.0", "3", "10", "0.5", "+7")),
                 min_size=1, max_size=4)
    )
    n_rows = draw(st.integers(min_value=0 if defect == "no-rows" else 1,
                              max_value=0 if defect == "no-rows" else 8))
    lines = []
    for _ in range(n_rows):
        rssi = draw(st.one_of(st.integers(-99, -10).map(str),
                              st.sampled_from(GOOD_NUMBERS)))
        d = draw(st.sampled_from(distances))
        lines.append([_site_field(site, quoted), d, rssi])
    if lines and defect in ("odd-number", "short", "long", "other-site"):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        if defect == "odd-number":
            row[draw(st.integers(1, 2))] = draw(st.sampled_from(ODD_NUMBERS))
        elif defect == "short":
            del row[2]
        elif defect == "long":
            row.append(draw(st.sampled_from(("", "1"))))
        else:
            other = draw(st.sampled_from(SITES))
            row[0] = _site_field(other, draw(st.booleans()))
    rows = [",".join(fields) for fields in lines]
    if rows and defect == "bare-cr":
        k = draw(st.integers(0, len(rows) - 1))
        cut = draw(st.integers(0, len(rows[k])))
        rows[k] = rows[k][:cut] + "\r" + rows[k][cut:]
    if rows and defect in ("blank", "space"):
        blank = "" if defect == "blank" else draw(st.sampled_from((" ", "\t")))
        rows.insert(draw(st.integers(1, len(rows))), blank)
    if defect == "blank-first":
        rows.insert(0, "")
    header = "site,distance_m,rssi_dbm"
    if defect == "header":
        header = draw(st.sampled_from(('"site",distance_m,rssi_dbm',
                                       "site,distance,rssi_dbm",
                                       "site,distance_m,rssi_dbm,")))
    text = ending.join([header, *rows]) + draw(st.sampled_from((ending, "")))
    if defect == "trailing-blank":
        text += ending
    data = text.encode("utf-8")
    if defect == "not-utf8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=600, deadline=None)
@given(raw_survey_csv())
def test_load_survey_csv_matches_row_loop(data):
    expected = _outcome(reference_load_survey_csv, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no reader may warn, on any file
        got = _outcome(load_survey_csv, data)
    if expected[0] in (csv.Error, UnicodeDecodeError):
        # These escaped the old loader; they now cross as FormatError.
        assert got[0] is FormatError
    elif expected == (DataError, "site must be a non-empty string"):
        # The old loader let RssiSurvey word this; it now names the line.
        assert got[0] is FormatError and got[1].endswith(
            "column 'site': must not be empty"
        )
    else:
        assert got == expected


def test_well_formed_surveys_never_fall_back_to_the_row_loop(monkeypatch):
    def row_loop(text):
        raise AssertionError("well-formed survey fell back to the row loop")

    # Plain decimals with LF or CRLF line ends, the last line ended or not,
    # under a bare or a quoted site, and the writer's own 17-digit samples
    # are all the kernel's.
    lines = [f"{(k % 20) + 1},{-40 - k % 53}" for k in range(10_000)]
    model = ShadowedPathLossModel(1.0, -45.0, 2.3, ConstantSigma(4.0))
    spec = SimulationSpec(model, tuple(range(1, 21)), 500, seed=11)
    files = [
        "site,distance_m,rssi_dbm\n" + "".join(f"A,{l}\n" for l in lines),
        "site,distance_m,rssi_dbm\r\n" + "".join(f"A,{l}\r\n" for l in lines),
        "site,distance_m,rssi_dbm\r\n" + "\r\n".join(f"A,{l}" for l in lines),
        "site,distance_m,rssi_dbm\nA,1,-50",
        "site,distance_m,rssi_dbm\n"
        + "".join(f'"mine, ""2""",{l}\n' for l in lines[:-1])
        + f'"mine, ""2""",{lines[-1]}',
        save_survey_csv(simulate_survey(spec)).decode(),
    ]
    samples = re.findall(r"([0-9]+)\.([0-9]+)$", files[-1], re.M)
    assert max(len((a + b).lstrip("0")) for a, b in samples) == 17
    expected = [reference_load_survey_csv(f.encode()) for f in files]
    monkeypatch.setattr(dataio, "_survey_rows", row_loop)
    for text, survey in zip(files, expected):
        assert load_survey_csv(text.encode()) == survey
    first_row = tuple(float(-40 - k % 53) for k in range(0, 10_000, 20))
    assert expected[0].rows[0] == (1.0, first_row)
    assert expected[1] == expected[0]


def test_survey_fields_over_the_csv_limit_are_format_errors():
    limit = csv.field_size_limit()
    header = "site,distance_m,rssi_dbm\n"
    for row in (
        "x" * (limit + 1) + ",1,-50\n",
        "A,1,0." + "0" * limit + "1\n",  # finite: only the limit rejects it
        "A,1," + " " * limit + "-50\n",
    ):
        data = (header + "A,2,-60\n" + row).encode()
        with pytest.raises(csv.Error):
            reference_load_survey_csv(data)
        with pytest.raises(FormatError, match="line 3: .*field limit"):
            load_survey_csv(data)
    old = csv.field_size_limit(9)  # "distance_m" is over it; "A,2,-60" is not
    try:
        with pytest.raises(FormatError, match="line 1: .*field limit"):
            load_survey_csv((header + "A,2,-60\n").encode())
    finally:
        csv.field_size_limit(old)


def test_undecodable_bytes_and_stray_carriage_returns_are_format_errors():
    survey_header = b"site,distance_m,rssi_dbm\n"
    stats_header = b"distance_m,mean_dbm,sd_db,prr_pct,n\n"
    for load, header, row in (
        (load_survey_csv, survey_header, b"A,1,-50\n"),
        (load_stats_csv, stats_header, b"1,-50,1.5,,20\n"),
    ):
        offset = len(header) + 2
        with pytest.raises(FormatError, match=rf"^byte {offset}: not valid UTF-8"):
            load(header + row[:2] + b"\xff" + row[2:])
        with pytest.raises(FormatError, match=r"^line 3: malformed CSV record"):
            load(header + row + row.replace(b",", b"\r,", 1))


def test_a_carriage_return_anywhere_reads_as_the_row_loop_reads_it():
    # The kernel drops a CR that ends a line; any other CR falls in the site
    # field or a number, which sends the file to the row loop.
    base = 'site,distance_m,rssi_dbm\n"a,b",1,-50\n"a,b",2.5,-51.25\n"a,b",1,-52'
    kernel = 0
    for text in (base, base + "\n", base.replace("\n", "\r\n") + "\r\n"):
        for k in range(len(text) + 1):
            for cr in ("\r", "\r\n", "\r\r"):
                data = (text[:k] + cr + text[k:]).encode()
                expected = _outcome(reference_load_survey_csv, data)
                got = _outcome(load_survey_csv, data)
                if expected[0] is csv.Error:
                    assert got[0] is FormatError
                else:
                    assert got == expected
                kernel += dataio._survey_bulk(data) is not None
    assert kernel >= 5


def test_misaligned_lines_with_the_right_number_of_breaks_go_to_the_row_loop():
    # A comma too few on one line and one too many on a later line leave the
    # block's break count right but the breaks out of line with the lines.
    # Under the site "7", read three breaks at a time, the lines even start
    # with the site field and hold numbers where the numbers go.
    error = (FormatError, "line 3: expected 3 fields, got 2")
    for lines in (
        ["A,1,-50", "A,1", "A,1,-50", "A,1,-50,7", "A,2,-51"],
        ["7,1,-50", "7,1", "7,7,1,-51", "7,2,-52"],
    ):
        data = ("site,distance_m,rssi_dbm\n" + "\n".join(lines) + "\n").encode()
        assert dataio._survey_bulk(data) is None
        assert _outcome(reference_load_survey_csv, data) == error
        assert _outcome(load_survey_csv, data) == error


def test_a_nul_in_the_site_sends_the_file_to_the_row_loop():
    # The csv module refuses a NUL before Python 3.11 and reads it after;
    # the row loop then reads the file as csv does on each version.
    for site in ("a\x00b", '"a\x00b"', '"a,\x00"'):
        data = f"site,distance_m,rssi_dbm\n{site},1,-50\n{site},1,-51\n".encode()
        assert dataio._survey_bulk(data) is None
        expected = _outcome(reference_load_survey_csv, data)
        got = _outcome(load_survey_csv, data)
        if expected[0] is csv.Error:
            assert got[0] is FormatError and "NUL" in got[1]
        else:
            assert got == expected


def _ingest_shaped(per_pass: int) -> bytes:
    """20 distances out and back, integer dBm: the back pass repeats each."""
    lines = ["site,distance_m,rssi_dbm\n"]
    for order in (range(20), reversed(range(20))):
        for k in order:
            lines += (f"ingest,{k + 1},{-40 - (j * 7 + k) % 53}\n"
                      for j in range(per_pass))
    return "".join(lines).encode()


def test_the_kernel_reads_a_file_without_decoding_it(monkeypatch):
    # Only the row loop decodes: the kernel reads the bytes, a UTF-8 site
    # included, and names no file undecodable.
    model = ShadowedPathLossModel(1.0, -45.0, 2.3, ConstantSigma(4.0))
    lf = save_survey_csv(simulate_survey(
        SimulationSpec(model, tuple(range(1, 21)), 50, seed=5)
    ))
    ingest = _ingest_shaped(100)
    files = [ingest, lf, lf.replace(b"\n", b"\r\n"),
             ingest.replace(b"\ningest,", "\n\xe9 \u2014,".encode())]
    expected = [reference_load_survey_csv(data) for data in files]
    assert expected[-1].site == "\xe9 \u2014"

    def no_decode(data):
        raise AssertionError("the kernel's file was decoded")

    monkeypatch.setattr(dataio, "_decode", no_decode)
    for data, survey in zip(files, expected):
        assert load_survey_csv(data) == survey


def _plain_file() -> bytes:
    """2x10^5 integer rows in 20 runs of one distance each."""
    return ("site,distance_m,rssi_dbm\n" + "".join(
        f"A,{k // 10_000 + 1},{-40 - k % 53}\n" for k in range(200_000)
    )).encode()


def _traced_peak(fn, *args) -> int:
    """The traced peak of a second call of ``fn``, once caches are warm."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_plain_file_peaks_below_four_times_its_bytes():
    # The readings are held once at a time: no text copy of the file, the
    # blocks' columns never joined, the runs moved whole into the samples.
    data = _plain_file()
    peak = _traced_peak(load_survey_csv, data)
    assert peak <= 4 * len(data), peak / len(data)


def test_survey_stats_peaks_below_two_and_a_half_times_its_samples():
    # One n-sized group index and one buffer for the deviations and their
    # squares, beside the samples.
    survey = load_survey_csv(_plain_file())
    peak = _traced_peak(survey_stats, survey)
    assert peak <= 2.5 * survey.samples.nbytes, peak / survey.samples.nbytes


def reference_pooled(distance, rssi):
    """Pool by distance in a dict, which keeps first appearance order."""
    pooled = {}
    for d, r in zip(distance, rssi):
        pooled.setdefault(d, []).append(r)
    return list(pooled), [len(r) for r in pooled.values()], sum(pooled.values(), [])


def _pooling_sample(k: int) -> float:
    """Distinct by row but for the zeros, whose signs alternate."""
    return (0.0, -0.0)[k % 2] if k % 5 == 0 else (-1.0) ** k * k / 4


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from((1.0, 2.0, 2.5, 7.0, 40.0)), st.integers(1, 50)),
    min_size=1, max_size=12,
))
# 2.0 comes back after 1.0; 3.5 is first seen last.
@example([(2.0, 3), (1.0, 50), (2.0, 1), (1.0, 7), (3.5, 2)])
# Every row its own run, over more distances than a uint8 ranks.
@example([(float(k % 300 + 1), 1) for k in range(900)])
def test_pooling_by_runs_matches_a_dict_of_rows(runs):
    distance = [d for d, size in runs for _ in range(size)]
    rssi = [_pooling_sample(k) for k in range(len(distance))]
    survey = dataio._pooled("A", [(np.array(distance), np.array(rssi))])
    distances, counts, samples = reference_pooled(distance, rssi)
    assert survey.distances.tolist() == distances
    assert survey.counts.tolist() == counts
    assert survey.samples.view(np.uint64).tolist() == (
        np.array(samples).view(np.uint64).tolist()
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from((1.0, 2.0, 2.5, 7.0, 40.0)), st.integers(1, 50)),
        min_size=1, max_size=12,
    ),
    st.lists(st.integers(1, 900), max_size=8),
)
# Each run of 30 cut in half, and a cut on a run's edge.
@example([(2.0, 30), (1.0, 30), (2.0, 30)], [15, 45, 60, 75])
# Every row its own run, over more distances than a uint8 ranks.
@example([(float(k % 300 + 1), 1) for k in range(900)], [1, 256, 600])
def test_both_move_rules_pool_chunked_runs_as_a_dict_of_rows(runs, cuts):
    # The rows come in chunks, as the kernel's blocks do, cut at ``cuts``;
    # each rule is forced by the rows-per-run ratio it is chosen by.
    distance = [d for d, size in runs for _ in range(size)]
    rssi = [_pooling_sample(k) for k in range(len(distance))]
    edges = sorted({0, len(distance), *(c for c in cuts if c < len(distance))})
    columns = [
        (np.array(distance[a:b]), np.array(rssi[a:b]))
        for a, b in zip(edges, edges[1:])
    ]
    distances, counts, samples = reference_pooled(distance, rssi)
    for ratio in (0, len(distance) + 1):  # whole runs, then sorted rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_RUN", ratio)
            survey = dataio._pooled("A", columns)
        assert survey.distances.tolist() == distances
        assert survey.counts.tolist() == counts
        assert survey.samples.view(np.uint64).tolist() == (
            np.array(samples).view(np.uint64).tolist()
        )


# -- the one number rule ---------------------------------------------------
# What numbers are made of, inf/nan and their letters, and what the rule
# refuses by name (``_`` and a non-ASCII digit), with a few blanks inside.
_NUMBER_PARTS = (
    *"0123456789+-.eE_", *"infatyINFATY", "inf", "nan", "Infinity", "\u0661",
    " ", "\t", "\xa0", "\x1c",
)
_BLANKS = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def _loadtxt_number(text: str):
    # A line break can only sit inside a quoted field.
    field = f'"{text}"' if "\n" in text or "\r" in text else text
    try:
        table = np.loadtxt(
            io.StringIO(f"A,1,{field}\n"), delimiter=",", comments=None,
            quotechar='"', usecols=2, ndmin=1,
        )
    except ValueError:
        return None
    return repr(float(table[0]))


@settings(max_examples=1500, deadline=None)
@given(
    st.sampled_from(("",) + _BLANKS),
    st.lists(st.sampled_from(_NUMBER_PARTS), max_size=6).map("".join),
    st.sampled_from(("",) + _BLANKS),
)
def test_number_rule_reads_what_loadtxt_reads(before, core, after):
    text = before + core + after
    try:
        ours = repr(dataio.parse_number(text))
    except ValueError:
        ours = None
    assert ours == _loadtxt_number(text)


def test_spellings_only_python_reads_are_rejected_by_name():
    header = "site,distance_m,rssi_dbm\n"
    for row, message in (
        ("A,1_0,-50", "line 3, column 'distance_m': not a number: '1_0'"),
        ("A,1,-5_0", "line 3, column 'rssi_dbm': not a number: '-5_0'"),
        ("A,\u0661,-50", "line 3, column 'distance_m': not a number: '\u0661'"),
    ):
        with pytest.raises(FormatError) as caught:
            load_survey_csv((header + "A,2,-60\n" + row + "\n").encode())
        assert str(caught.value) == message
    # U+001C..U+001F are str.isspace blanks, like NBSP: they pad a number.
    padded = load_survey_csv((header + "A,1,-50\x1c\n").encode())
    assert padded.rows == ((1.0, (-50.0,)),)
    stats = b"distance_m,mean_dbm,sd_db,prr_pct,n\n1,-50,1.5,,2_0\n"
    with pytest.raises(FormatError, match="column 'n': not an integer: '2_0'"):
        load_stats_csv(stats)


# -- the plain-decimal kernel against float() -------------------------------
# The kernel reads ``[+-]digits[.digits]`` of at most 19 bytes after the sign,
# whatever its digits, and refuses anything else; what it reads, it reads to
# float()'s bits.
_PLAIN = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?", re.ASCII)


def _plain(field: str) -> bool:
    return bool(_PLAIN.fullmatch(field)) and len(field.lstrip("+-")) <= 19


def _kernel(fields) -> list[str] | None:
    """``dataio._decimals`` over ``fields``, one to a line."""
    block = np.frombuffer("".join(f + "\n" for f in fields).encode(), np.uint8)
    hi = np.flatnonzero(block == 10)
    values = dataio._decimals(block, np.concatenate(([0], hi[:-1] + 1)), hi)
    return None if values is None else list(map(repr, values.tolist()))


def _pointed(sign: str, digits: int, point: int) -> str:
    """``digits`` with a point ``point`` places from the right (0: none)."""
    text = str(digits)
    if 0 < point < len(text):
        text = text[:-point] + "." + text[-point:]
    return sign + text


_DIGITS = st.text("0123456789", min_size=1, max_size=19)
_SIGNS = st.sampled_from(("", "", "+", "-"))
kernel_fields = st.one_of(
    st.builds(
        lambda sign, whole, fraction: sign + whole + fraction,
        _SIGNS,
        _DIGITS,
        st.one_of(st.just(""), _DIGITS.map(".".__add__)),
    ),
    # Mantissas of 16 to 20 digits, around and far above 2**53.
    st.builds(
        _pointed,
        _SIGNS,
        st.one_of(st.integers(2**53 - 4, 2**53 + 4),
                  st.integers(10**15, 10**20 - 1)),
        st.integers(0, 19),
    ),
    st.sampled_from((
        "-0", "+0.0", "0", "-0.000", "007", "-007.50", "0000000000000000007",
        "-000000000000000000.5", "9007199254740991", "9007199254740992",
        "-9007199254740993", "9007199254740993", "18014398509481985",
        "9999999999999999999", "-9999999999999999999", "+999999999.999999999",
        "12345678901234567890", "-1234567890.123456789", "00000000000000000000",
        "900719925474099.1", "0.000000000000001", "0.0000000000000001",
        "-0.000000000000001", "12345678901234567", "123456789012345678",
        "-71.23456789012345", "-105.12345678901234", "-0.12345678901234567",
        "-1234567890123456.", "1.", ".5", "-", "+", "", "1.2.3", "1e3", "1E-2",
        "--1", "+-1", "1-", " 1", "1 ", "\xa01", "\u0661", "1_0", "0x1f", "nan",
        "inf", "-.5",
    )),
    st.text("0123456789+-.e ", max_size=21),
)


@settings(max_examples=1500, deadline=None)
@given(st.lists(kernel_fields, min_size=1, max_size=6))
@example(["9007199254740991", "9007199254740992", "9007199254740993",
          "18014398509481985", "9999999999999999999", "-0.000",
          "0000000000000000007", "-71.23456789012345"])
@example(["12345678901234567890"])
@example(["1", "-1234567890.123456789"])
def test_kernel_reads_plain_decimals_as_float_and_refuses_the_rest(fields):
    got = _kernel(fields)
    if all(map(_plain, fields)):
        assert got == [repr(float(f)) for f in fields]
    else:
        assert got is None


@pytest.mark.parametrize("defect", (
    "none", "runs", "letter", "exponent", "other-site", "long", "short",
    "merged", "zero-distance",
))
def test_multi_block_surveys_read_as_the_row_loop(monkeypatch, defect):
    # Blocks of 40 bytes hold two lines of about 19 bytes, and the longer
    # lines make blocks of their own; the last line has no line break. In
    # "runs", each distance holds for 5 lines, across the block cuts, and
    # comes back every 4 runs.
    monkeypatch.setattr(dataio, "_BLOCK", 40)
    site = '"a, ""b"""'
    rows = [f"{site},{1 + k % 7}.5,{-40 - k % 53}" for k in range(60)]
    if defect == "runs":
        rows = [f"{site},{1 + k // 5 % 4}.5,{-40 - k % 53}" for k in range(60)]
    rows[21] = f"{site},0001234567890.125,-1234567890123.25"
    rows[33] = f"{site},12.345678901234567,-105.12345678901234"  # 17 digits
    rows[-1] = {
        "none": rows[-1],
        "runs": rows[-1],
        "letter": f"{site},2,-5x",
        "exponent": f"{site},2,-5e1",
        "other-site": "A,2,-50",
        "long": f"{site},2,-50,",
        "short": f"{site},2",
        "merged": f"{site},2,-50,{site},3\n7",  # two lines' commas in all
        "zero-distance": f"{site},0.0,-50",
    }[defect]
    data = ("site,distance_m,rssi_dbm\n" + "\n".join(rows)).encode()
    expected = _outcome(reference_load_survey_csv, data)
    if defect in ("none", "runs"):  # the kernel reads it all
        monkeypatch.setattr(dataio, "_survey_rows", None)
    assert _outcome(load_survey_csv, data) == expected


# -- the survey writer against the per-sample writer it replaced --------------
# The writer (and its number format) as it was before it read the survey's
# arrays, kept verbatim but for the names as the reference.


def _parent_fmt(value: float) -> str:
    """Shortest decimal that reloads to the same float; ints undotted."""
    if value == int(value):
        if value == 0 and math.copysign(1.0, value) < 0:
            return "-0"  # int() would drop the sign of negative zero
        return str(int(value))
    return repr(value)


def parent_save_survey_csv(survey: RssiSurvey) -> bytes:
    """Serialize a raw survey, one sample per row."""
    if "\n" in survey.site or "\r" in survey.site:
        raise DataError("site must not contain line breaks")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataio.SURVEY_HEADER)
    for distance, samples in survey.rows:
        for sample in samples:
            writer.writerow((survey.site, _parent_fmt(distance), _parent_fmt(sample)))
    return buf.getvalue().encode("utf-8")


def _written(save, survey: RssiSurvey):
    try:
        return save(survey)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


# Characters the csv module quotes or that look like blanks, then any text; a
# site may start or end with a blank or hold a line break.
writer_sites = st.builds(
    lambda before, core, after: before + core + after,
    st.sampled_from(("", "", " ", "\t", "\x1c", "\xe9", "\n", "\r")),
    st.text(
        alphabet=st.one_of(
            st.sampled_from(',"\t \x1c\xe9€'),
            st.characters(blacklist_categories=("Cs",)),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(("", " ", "\t", '"', ",")),
)
writer_samples = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e22, -1e22, 1e300, 2.0**53)),
    st.floats(min_value=-1e300, max_value=1e300).map(lambda x: float(math.trunc(x))),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(allow_nan=False, allow_infinity=False),
)
writer_rows = st.lists(
    st.tuples(
        st.one_of(  # a small pool, so distances repeat
            st.sampled_from((1.0, 2.5, 1e-300, 5e-324, 3.0, 1e22)),
            st.floats(min_value=5e-324, max_value=1e300),
        ),
        st.lists(writer_samples, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=500, deadline=None)
@given(site=writer_sites, rows=writer_rows)
def test_survey_writer_matches_the_per_sample_writer(site, rows):
    survey = RssiSurvey(site=site, rows=rows)
    assert _written(save_survey_csv, survey) == _written(
        parent_save_survey_csv, survey
    )


def test_survey_writer_reads_the_arrays_not_the_rows_view(monkeypatch):
    survey = RssiSurvey(
        site=' "face", A ', rows=((2.5, (-50.0, -0.0)), (1.0, (1e300,)), (2.5, (7,)))
    )
    expected = parent_save_survey_csv(survey)

    def boxed(self):
        raise AssertionError("save_survey_csv built the rows view")

    monkeypatch.setattr(RssiSurvey, "rows", property(boxed))
    assert save_survey_csv(survey) == expected


# -- the model document against the per-field codec it replaced ---------------
# The writer and reader as they were before one key table drove them, kept
# verbatim as the reference but for the names and for _parent_keyed: a value
# the model's constructors refuse is now named by its key, as a FormatError.


def _parent_reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise FormatError(f"unknown field {where!r}")


def _parent_take_number(obj: dict, key: str, path: str) -> float:
    where = f"{path}.{key}" if path else key
    if key not in obj:
        raise FormatError(f"missing field {where!r}")
    value = obj[key]
    # bool is an int subclass; a JSON true is not a number here.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"field {where!r} must be a number, got {value!r}")
    return float(value)


# Each constructor field's key in the model document.
_PARENT_FIELD_KEYS = {
    "d0": "d0_m", "rss_d0": "rss_d0_dbm", "eta": "eta", "value": "sigma.constant_db",
    "a": "sigma.a", "b": "sigma.b", "c": "sigma.c", "e": "sigma.e", "f": "sigma.f",
    "d_min": "sigma.d_min_m", "d_max": "sigma.d_max_m",
}


def _parent_keyed(kind, **values):
    """``kind(**values)``; a value it refuses is named by its document key,
    in a FormatError."""
    try:
        return kind(**values)
    except DataError as exc:
        head, tail = str(exc).split(", got ")
        words = (
            f"field {_PARENT_FIELD_KEYS[word]!r}"
            if word in _PARENT_FIELD_KEYS
            else word
            for word in head.split(" ")
        )
        raise FormatError(" ".join(words) + ", got " + tail) from None


def parent_model_to_json(model: ShadowedPathLossModel) -> bytes:
    """Serialize a model to the versioned JSON document."""
    sigma: object
    if model.sigma is None:
        sigma = None
    elif isinstance(model.sigma, ConstantSigma):
        sigma = {"constant_db": model.sigma.value}
    else:
        sigma = {
            "a": model.sigma.a,
            "b": model.sigma.b,
            "c": model.sigma.c,
            "e": model.sigma.e,
            "f": model.sigma.f,
            "d_min_m": model.sigma.d_min,
            "d_max_m": model.sigma.d_max,
        }
    doc = {
        "format_version": dataio.MODEL_FORMAT_VERSION,
        "d0_m": model.d0,
        "rss_d0_dbm": model.rss_d0,
        "eta": model.eta,
        "sigma": sigma,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def parent_model_from_json(data: bytes) -> ShadowedPathLossModel:
    """Parse and validate a model document; unknown fields are errors."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not a valid JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("document root must be a JSON object")
    _parent_reject_unknown(
        doc, ("format_version", "d0_m", "rss_d0_dbm", "eta", "sigma"), ""
    )
    if "format_version" not in doc:
        raise FormatError("missing field 'format_version'")
    version = doc["format_version"]
    if type(version) is not int or version != dataio.MODEL_FORMAT_VERSION:
        raise FormatError(
            f"unsupported format_version {version!r}; "
            f"this reader understands {dataio.MODEL_FORMAT_VERSION}"
        )
    if "sigma" not in doc:
        raise FormatError("missing field 'sigma' (may be null)")
    raw_sigma = doc["sigma"]
    sigma: ConstantSigma | SigmaPolynomial | None
    if raw_sigma is None:
        sigma = None
    elif isinstance(raw_sigma, dict):
        if "constant_db" in raw_sigma:
            _parent_reject_unknown(raw_sigma, ("constant_db",), "sigma")
            sigma = _parent_keyed(
                ConstantSigma,
                value=_parent_take_number(raw_sigma, "constant_db", "sigma"),
            )
        else:
            _parent_reject_unknown(
                raw_sigma,
                ("a", "b", "c", "e", "f", "d_min_m", "d_max_m"),
                "sigma",
            )
            sigma = _parent_keyed(
                SigmaPolynomial,
                a=_parent_take_number(raw_sigma, "a", "sigma"),
                b=_parent_take_number(raw_sigma, "b", "sigma"),
                c=_parent_take_number(raw_sigma, "c", "sigma"),
                e=_parent_take_number(raw_sigma, "e", "sigma"),
                f=_parent_take_number(raw_sigma, "f", "sigma"),
                d_min=_parent_take_number(raw_sigma, "d_min_m", "sigma"),
                d_max=_parent_take_number(raw_sigma, "d_max_m", "sigma"),
            )
    else:
        raise FormatError(
            "field 'sigma' must be an object or null, "
            f"got {type(raw_sigma).__name__}"
        )
    return _parent_keyed(
        ShadowedPathLossModel,
        d0=_parent_take_number(doc, "d0_m", ""),
        rss_d0=_parent_take_number(doc, "rss_d0_dbm", ""),
        eta=_parent_take_number(doc, "eta", ""),
        sigma=sigma,
    )


def _read(load, data: bytes):
    try:
        return load(data)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


_TOP_KEYS = ("format_version", "d0_m", "rss_d0_dbm", "eta", "sigma")
_POLY_KEYS = ("a", "b", "c", "e", "f", "d_min_m", "d_max_m")
_FIELD_NUMBERS = st.one_of(
    st.sampled_from((1, 1.0, 2.0, 20.0, 0.5, -40.0)),
    st.integers(-5, 50),
    st.floats(-100.0, 100.0),
)
# What a field may hold instead of a number: a fresh copy each draw, since
# model_documents writes into a drawn {} and may put {"a": 1} inside itself.
_ODD_VALUES = st.sampled_from(
    (True, False, None, "1", "", [1], {}, {"a": 1}, float("nan"), float("inf"))
).map(copy.deepcopy)


@st.composite
def model_documents(draw):
    """A model document, mostly valid: sigma kinds with mixed keys, fields
    missing, extra, mistyped or boolean, keys in any order."""
    doc = {key: draw(_FIELD_NUMBERS) for key in _TOP_KEYS[1:4]}
    doc["d0_m"] = draw(st.sampled_from((1, 1.0, 0.5, 2.0, 3, 0.25, 0, -1.0)))
    doc["format_version"] = draw(st.sampled_from((1,) * 6 + (1.0, True, 2, "1")))
    sigma_keys = draw(
        st.sampled_from(
            (("constant_db",),) * 2 + (_POLY_KEYS,) * 3
            + (("constant_db", "a"), ("constant_db", "d_min_m"), _POLY_KEYS[:-1], ())
        )
    )
    sigma = {key: abs(draw(_FIELD_NUMBERS)) for key in sigma_keys}
    if "d_min_m" in sigma and draw(st.integers(0, 3)):
        sigma["d_min_m"], sigma["d_max_m"] = 1.0, 20.0
    doc["sigma"] = draw(st.sampled_from((sigma,) * 6 + (None, None, [], "x")))
    for _ in range(draw(st.integers(0, 2))):
        obj = doc
        if isinstance(doc.get("sigma"), dict) and draw(st.booleans()):
            obj = doc["sigma"]
        action = draw(st.sampled_from(("drop", "extra", "mistype")))
        if action == "extra":
            obj[draw(st.sampled_from(("extra", "d_max", "constant_db", "eta")))] = 1.0
        elif obj:
            key = draw(st.sampled_from(sorted(obj)))
            if action == "drop":
                del obj[key]
            else:
                obj[key] = draw(_ODD_VALUES)
    keys = draw(st.permutations(sorted(doc)))
    return json.dumps({key: doc[key] for key in keys}).encode()


@settings(max_examples=800, deadline=None)
@given(model_documents())
def test_model_reader_matches_the_per_field_reader(data):
    parent = _read(parent_model_from_json, data)
    assert _read(model_from_json, data) == parent
    if isinstance(parent, ShadowedPathLossModel):
        assert model_to_json(parent) == parent_model_to_json(parent)


@settings(max_examples=150, deadline=None)
@given(models())
def test_model_writer_matches_the_per_field_writer(model):
    assert model_to_json(model) == parent_model_to_json(model)


def test_model_writer_finds_the_sigma_kind_by_isinstance():
    class Constant(ConstantSigma):
        pass

    model = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=Constant(2.0))
    assert model_to_json(model) == parent_model_to_json(model)
    assert json.loads(model_to_json(model))["sigma"] == {"constant_db": 2.0}
