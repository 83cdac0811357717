"""CSV codecs for surveys and statistics, and the JSON model document.

All formats are UTF-8 with LF newlines. Numeric fields are rendered with
Python's shortest-round-trip float representation (integers without a
decimal point), so saving and reloading reproduces values bit for bit and
repeated exports are byte-stable (tests/test_dataio.py: ``*_round_trips``,
``test_stats_export*``). :func:`csv_text` is the one CSV writer, for these
codecs and for the CLI's tables.

Survey CSV  header ``site,distance_m,rssi_dbm``, one sample per row. A file
            holds one site. Loading pools rows by distance in order of first
            appearance, so a survey whose distances are distinct round-trips
            exactly; one with repeated distance rows reloads in the pooled
            form. Two readers share the work. A well-formed file, LF or CRLF,
            whose numbers are all plain decimals (:func:`_decimals`, the
            17-digit samples the writer emits included) is read from its
            bytes by a kernel that decodes only the site field; any other
            file (an exponent, blanks or quotes around a number, a site that
            is not UTF-8 or holds a NUL, a malformed record) is decoded and
            read by a row loop over ``csv.reader``. Results, error messages
            and line numbers are the row loop's whichever reads the file.
            Both hand their columns to one pooling step, which moves each
            reading once: as part of a whole run, or by one sort of the rows.
            Saving reads the survey's arrays: the site is quoted once and
            each distance formatted once.

Stats CSV   header ``distance_m,mean_dbm,sd_db,prr_pct,n``, one distance per
            row, mirroring the embedded survey tables. ``prr_pct`` may be
            empty (absent). The site label is not part of the format; supply
            it on load.

Model JSON  strict versioned document (``format_version`` 1). Unknown fields
            are rejected with their path rather than ignored: a misspelled
            field that silently defaulted would corrupt a calibration. One
            table of keys per dataclass (the model, each sigma kind) drives
            the writer, the reader and its errors, which name every field by
            its key, a value out of range included.

Every number, in a CSV field or a CLI argument, is read by
:func:`parse_number`: blanks stripped, then ``float`` if the rest is ASCII
and holds no ``_``, so ``1_0`` and non-ASCII digits are not numbers.

A CSV file that is not UTF-8 (named by byte offset), or that the csv module
cannot parse, such as a bare CR inside a line or a field over the csv field
limit (named by line), raises :class:`FormatError` like any other malformed
file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import fields
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, FormatError, number
from .models import ConstantSigma, ShadowedPathLossModel, SigmaPolynomial
from .surveys import DistanceStats, RssiSurvey, SurveyStats, _cut

SURVEY_HEADER = ("site", "distance_m", "rssi_dbm")
STATS_HEADER = ("distance_m", "mean_dbm", "sd_db", "prr_pct", "n")
MODEL_FORMAT_VERSION = 1


def _fmt(value: float) -> str:
    """Shortest decimal that reloads to the same float; ints undotted."""
    if value == int(value):
        if value == 0 and math.copysign(1.0, value) < 0:
            return "-0"  # int() would drop the sign of negative zero
        return str(int(value))
    return repr(value)


def parse_number(text: str, kind: type = float):
    """Read ``text`` as a ``kind`` (float or int) by the package's one rule:
    strip ``str.isspace`` blanks, refuse the rest if it holds ``_`` or is not
    ASCII, else call ``kind``. Raises ValueError for anything refused."""
    core = text.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(core)


# By kind: what a refused text is not, the rule a value must meet and its
# words. An int column is stored as int64.
_KINDS = {
    float: ("a number", math.isfinite, "finite"),
    int: ("an integer", lambda n: n < 2**63, "below 2**63"),
}


def _parse(text: str, line: int, column: str, kind: type = float):
    """``text`` read by :func:`parse_number`, refused by line and column."""
    what, holds, rule = _KINDS[kind]
    where = f"line {line}, column {column!r}"
    try:
        value = parse_number(text, kind)
    except ValueError:
        raise FormatError(f"{where}: not {what}: {text!r}") from None
    if not holds(value):
        raise FormatError(f"{where}: value must be {rule}, got {text!r}")
    return value


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"byte {exc.start}: not valid UTF-8 ({exc.reason})"
        ) from None


def _check_header(row: list[str] | None, expected: tuple[str, ...]) -> None:
    if row is None:
        raise FormatError(f"line 1: empty file, expected header "
                          f"{','.join(expected)!r}")
    if tuple(row) != expected:
        raise FormatError(
            f"line 1: bad header {','.join(row)!r}, "
            f"expected {','.join(expected)!r}"
        )


def _records(text: str, header: tuple[str, ...]):
    """Yield ``(line, fields)`` for each data row after checking the header.

    Blank lines, rows of the wrong width and records the csv module cannot
    parse (a bare CR, an over-long field) raise :class:`FormatError` naming
    the line.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        _check_header(next(reader, None), header)
        for row in reader:
            line = reader.line_num
            if not row:
                raise FormatError(f"line {line}: blank line")
            if len(row) != len(header):
                raise FormatError(
                    f"line {line}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            yield line, row
    except csv.Error as exc:
        # Drop the module's advice about opening files in newline mode.
        reason = str(exc).split(" - ")[0]
        raise FormatError(
            f"line {reader.line_num}: malformed CSV record: {reason}"
        ) from None


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The package's one CSV writer: ``header``, then ``rows``, LF-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def save_survey_csv(survey: RssiSurvey) -> bytes:
    """Serialize a raw survey, one sample per row."""
    if "\n" in survey.site or "\r" in survey.site:
        raise DataError("site must not contain line breaks")
    site = csv_text((survey.site,), ())[:-1]  # quoted as the csv module quotes it
    parts = [csv_text(SURVEY_HEADER, ())]
    for distance, samples in _cut(survey):
        start = f"{site},{_fmt(distance)},"
        parts += start, f"\n{start}".join(map(_fmt, samples.tolist())), "\n"
    return "".join(parts).encode("utf-8")


_RUN = 96  # rows per run, on average, from which _pooled moves whole runs


def _pooled(site: str, columns) -> RssiSurvey:
    """Pool samples by distance in order of first appearance, in file order.

    ``columns`` holds the file's ``(distance, rssi)`` pairs in order: the
    kernel's blocks, or the row loop's two lists. Each run of equal
    distances in a pair (a cut between pairs splits a run into two pieces of
    one rank) is ranked by the run its distance first appears in, and each
    sample is moved once: runs of ``_RUN`` rows or more on average as whole
    slices in rank order; shorter ones, where a slice per run costs more,
    by one stable sort of the rows' ranks (a radix sort, as the ranks are a
    small unsigned type) and one gather. The counts are the run lengths
    summed per rank.
    """
    heads, edges, rssi = [], [], []
    for distance, readings in columns:
        distance = np.asarray(distance)
        step = np.flatnonzero(distance[1:] != distance[:-1]) + 1
        edges.append(np.concatenate(([0], step, [distance.size])))
        heads.append(distance[edges[-1][:-1]])
        rssi.append(np.asarray(readings))
    heads, sizes = np.concatenate(heads), np.concatenate([np.diff(e) for e in edges])
    unique = np.unique(heads)
    inverse = np.searchsorted(unique, heads)  # no argsort of the runs
    first = np.full(unique.size, heads.size)
    np.minimum.at(first, inverse, np.arange(heads.size))
    order = np.argsort(first)
    rank = np.argsort(order).astype(np.min_scalar_type(order.size))[inverse]
    if sizes.sum() < _RUN * sizes.size:
        by = np.argsort(np.repeat(rank, sizes), kind="stable")
        samples = np.concatenate(rssi)[by]
    else:
        edges = [e.tolist() for e in edges]
        runs = [r[a:b] for r, e in zip(rssi, edges) for a, b in zip(e, e[1:])]
        samples = np.concatenate([runs[i] for i in np.argsort(rank, kind="stable")])
    counts = np.zeros(unique.size, np.intp)
    np.add.at(counts, rank, sizes)
    return RssiSurvey._from_columns(site, unique[order], counts, samples)


def _survey_rows(text: str) -> RssiSurvey:
    """The reference row loop: the one place that words survey errors."""
    site, distances, readings = None, [], []
    for line, (row_site, d_text, rssi_text) in _records(text, SURVEY_HEADER):
        if site is None:
            site, first = row_site, line
        elif row_site != site:
            raise FormatError(
                f"line {line}: site {row_site!r} differs from {site!r}; "
                "a survey file holds one site"
            )
        distance = _parse(d_text, line, "distance_m")
        if distance <= 0:
            raise FormatError(
                f"line {line}, column 'distance_m': must be > 0, "
                f"got {d_text!r}"
            )
        distances.append(distance)
        readings.append(_parse(rssi_text, line, "rssi_dbm"))
    if site is None:
        raise FormatError("line 2: no data rows")
    if not site:
        raise FormatError(f"line {first}, column 'site': must not be empty")
    return _pooled(site, [(distances, readings)])


# The header, then the first row's site field as written and its comma:
# quoted, with "" for a quote inside, or bare; neither holds a line break
# or a NUL (which the csv module refuses before Python 3.11).
_SURVEY_START = re.compile(
    re.escape(",".join(SURVEY_HEADER).encode())
    + rb'\r?\n((?:"(?:[^"\r\n\x00]|"")*"|[^",\r\n\x00]*),)'
)


def _survey_bulk(data: bytes) -> RssiSurvey | None:
    """Parse a well-formed survey file in bulk from its bytes; None, and the
    row loop decodes and reads the file, whenever it cannot show that the
    file reads exactly as the row loop reads it: another header spelling; a
    line that does not start with the first row's site field, that has a
    comma more or less than that field and the two number columns, or that
    holds a CR anywhere but at its end; a line longer than the csv field
    limit; a number that is not a plain decimal (:func:`_decimals`); a site
    that is not UTF-8 or holds a NUL; anything :class:`RssiSurvey` refuses.
    A record running over a line break would hold a quote or a comma of the
    next line's site field in a number, which the kernel does not read. All
    else is ASCII and each site field the first one's bytes, so the file is
    UTF-8 exactly when the first site decodes."""
    first = _SURVEY_START.match(data)
    limit = csv.field_size_limit()
    if first is None or first.start(1) - 1 > limit:  # the header line too
        return None
    prefix = first.group(1)
    mark, commas = np.frombuffer(prefix, np.uint8), prefix.count(b",") + 1
    crlf, columns = b"\r" in data, []
    for block in _blocks(data, first.start(1)):
        fields = _survey_fields(block, mark, commas, limit, crlf)
        if fields is None:
            return None
        lo, comma, hi = fields
        pair = _decimals(block, lo, comma), _decimals(block, comma + 1, hi)
        if pair[0] is None or pair[1] is None:
            return None
        columns.append(pair)
    site = prefix[:-1]
    if site.startswith(b'"'):
        site = site[1:-1].replace(b'""', b'"')
    try:
        return _pooled(site.decode("utf-8"), columns)
    except (UnicodeDecodeError, DataError):
        return None


# Bytes per block of a survey body: the kernel's temporaries, a few times a
# block, stay small next to the file.
_BLOCK = 1 << 18


def _blocks(data: bytes, start: int):
    """``data[start:]`` as uint8 views of about ``_BLOCK`` bytes, each cut
    after a line break (a longer line makes a longer block)."""
    end = len(data)
    while start < end:
        cut = end
        if start + _BLOCK < end:
            cut = data.rfind(b"\n", start, start + _BLOCK) + 1
            if not cut:
                cut = data.find(b"\n", start + _BLOCK) + 1 or end
        yield np.frombuffer(data, np.uint8, cut - start, start)
        start = cut


def _survey_fields(block, mark, commas: int, limit: int, crlf: bool):
    """The number fields of a block of survey lines: each line's first
    distance byte, the comma after the distance and the line's end, before
    a CR that ends it where ``crlf`` (the file holds a CR). None unless every
    line starts with the bytes ``mark`` (the site field and its comma), holds
    ``commas`` commas and at most ``limit`` bytes. Lines are checked, not
    breaks: with ``commas + 1`` breaks (comma or line break) per line and
    each line's last break a line break, every other break is a comma. Any
    other CR is inside the site field, which then differs from ``mark``, or
    inside a number, which :func:`_decimals` refuses."""
    newline = block == 10
    breaks = np.flatnonzero(newline | (block == 44))
    lines = np.count_nonzero(newline)
    if not newline[-1]:  # the file's last line, with no line break
        breaks, lines = np.append(breaks, block.size), lines + 1
    if breaks.size != lines * (commas + 1):
        return None
    breaks = breaks.reshape(lines, commas + 1)
    ends = breaks[:, -1]
    if not newline[ends[:-1]].all():  # the last line's end is the block's
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    size = ends - starts
    if size.min() < mark.size or size.max() > limit:
        return None
    for j, byte in enumerate(mark.tolist()):
        if (block[starts + j] != byte).any():
            return None
    if crlf:  # ends - 1 >= 0: a line holds ``mark``
        ends = ends - (block[ends - 1] == 13)
    return starts + mark.size, breaks[:, -2], ends


# Exact powers of ten, from Python ints: 10**k for k <= 22 is a double.
_POWERS = np.array([float(10**k) for k in range(19)])


def _decimals(block, lo, hi):
    """The numbers in ``block[lo:hi]``, each ``[+-]digits[.digits]`` of at
    most 19 bytes after the sign, to ``float()``'s bits; None when any field
    is not.

    A field is m / 10**k for its digits m, below 10**19, and k <= 18. The
    digits are summed exactly: in float64 while no field has more than 15
    bytes after its sign, else in uint64. Below 2**53, m and 10**k are exact
    doubles, so one division rounds correctly (Clinger, *How to Read
    Floating Point Numbers Accurately*, PLDI 1990); a larger m is divided as
    Python ints, whose true division rounds correctly too.
    """
    sign = block.take(lo, mode="clip")  # an empty last field reads its comma
    lo = lo + ((sign == 43) | (sign == 45))
    size = hi - lo
    if size.min() < 1 or size.max() > 19:
        return None
    # Horner's rule over the fields right-aligned, column by column: column
    # j holds the byte ``wide - j`` before each field's end, or, ahead of a
    # shorter field, a zero (its index, at worst negative, is read and
    # discarded). The point's column leaves the mantissa as it is.
    wide = int(size.max())
    kind = np.float64 if wide <= 15 else np.uint64
    ten, mantissa = kind(10), np.zeros(size.size, kind)
    scale = None  # the fraction digits, once any field has a point
    for j in range(wide):
        digit = block[hi - (wide - j)] - np.uint8(48)  # below "0" wraps
        if size.min() < wide - j:
            digit[size < wide - j] = 0
        point = digit == 254  # "."
        if not point.any():
            if digit.max() > 9:
                return None
            mantissa = mantissa * ten + digit
            continue
        if (
            ((digit > 9) & ~point).any()
            or j == wide - 1  # no digit after the point
            or (point & (size == wide - j)).any()  # none before it
            or scale is not None and (point & (scale > 0)).any()  # two points
        ):
            return None
        scale = np.where(point, wide - 1 - j, 0 if scale is None else scale)
        mantissa = np.where(point, mantissa, mantissa * ten + digit)
    value = np.asarray(mantissa, float) if scale is None else mantissa / _POWERS[scale]
    if kind is np.uint64:
        big = np.flatnonzero(mantissa >= np.uint64(2**53))
        k = np.zeros_like(big) if scale is None else scale[big]
        value[big] = [m / 10**e for m, e in zip(mantissa[big].tolist(), k.tolist())]
    return np.negative(value, out=value, where=sign == 45)


def load_survey_csv(data: bytes) -> RssiSurvey:
    """Parse a survey file; pools repeated distances by first appearance.

    A well-formed file is read in bulk; any other input goes through the
    row loop, which returns the same survey or raises the same error.
    """
    survey = _survey_bulk(data)
    return _survey_rows(_decode(data)) if survey is None else survey


def save_stats_csv(stats: SurveyStats) -> bytes:
    """Serialize per-distance statistics, one distance per row."""
    *floats, prr, n = (getattr(stats, name).tolist() for name in STATS_HEADER)
    prr = ("" if p != p else _fmt(p) for p in prr)  # nan: no prr, an empty field
    rows = zip(*(map(_fmt, c) for c in floats), prr, map(str, n))
    return csv_text(STATS_HEADER, rows).encode("utf-8")


def load_stats_csv(data: bytes, site: str = "stats") -> SurveyStats:
    """Parse a statistics file into per-distance summaries."""
    rows = []
    for line, row in _records(_decode(data), STATS_HEADER):
        d_text, mean_text, sd_text, prr_text, n_text = row
        try:
            rows.append(DistanceStats(
                _parse(d_text, line, "distance_m"),
                _parse(mean_text, line, "mean_dbm"),
                _parse(sd_text, line, "sd_db"),
                _parse(n_text, line, "n", int),
                None if prr_text == "" else _parse(prr_text, line, "prr_pct"),
            ))
        except FormatError:
            raise
        except DataError as exc:
            raise FormatError(f"line {line}: {exc}") from None
    if not rows:
        raise FormatError("line 2: no data rows")
    return SurveyStats(site=site, rows=tuple(rows))


# The model document's keys, in the order of the dataclass fields they hold:
# the model's d0, rss_d0 and eta (its sigma sits under "sigma"), and each
# sigma kind's fields. No other line spells them.
_MODEL_KEYS = ("d0_m", "rss_d0_dbm", "eta")
_SIGMA_KEYS = {
    ConstantSigma: ("constant_db",),
    SigmaPolynomial: ("a", "b", "c", "e", "f", "d_min_m", "d_max_m"),
}


def _document(obj, keys: tuple[str, ...]) -> dict:
    return {key: getattr(obj, f.name) for key, f in zip(keys, fields(obj))}


def _reject_unknown(obj: dict, allowed: tuple[str, ...], prefix: str) -> None:
    for key in obj:
        if key not in allowed:
            raise FormatError(f"unknown field {prefix + key!r}")


def _build(kind: type, obj: dict, keys: tuple[str, ...], prefix: str, *rest):
    """A ``kind`` from the numbers under ``keys`` (then ``rest``); every value
    refused, as no number or by ``kind``'s own rules, is named by its key."""
    names = {f.name: f"field {prefix + key!r}" for key, f in zip(keys, fields(kind))}
    numbers = []
    for key, name in zip(keys, names.values()):
        if key not in obj:
            raise FormatError(f"missing field {prefix + key!r}")
        try:
            numbers.append(number(name, obj[key]))
        except DataError as exc:
            raise FormatError(str(exc)) from None
    try:  # the values are floats, so the only words in a refusal are field names
        return kind(*numbers, *rest)
    except DataError as exc:
        message = re.sub(r"\w+", lambda m: names.get(m[0], m[0]), str(exc))
        raise FormatError(message) from None


def model_to_json(model: ShadowedPathLossModel) -> bytes:
    """Serialize a model to the versioned JSON document."""
    sigma = model.sigma
    if sigma is not None:
        kind = ConstantSigma if isinstance(sigma, ConstantSigma) else SigmaPolynomial
        sigma = _document(sigma, _SIGMA_KEYS[kind])
    doc = {"format_version": MODEL_FORMAT_VERSION, **_document(model, _MODEL_KEYS),
           "sigma": sigma}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def model_from_json(data: bytes) -> ShadowedPathLossModel:
    """Parse and validate a model document; unknown fields are errors."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not a valid JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("document root must be a JSON object")
    _reject_unknown(doc, ("format_version", *_MODEL_KEYS, "sigma"), "")
    if "format_version" not in doc:
        raise FormatError("missing field 'format_version'")
    version = doc["format_version"]
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # not True, 1.0
        raise FormatError(
            f"unsupported format_version {version!r}; "
            f"this reader understands {MODEL_FORMAT_VERSION}"
        )
    if "sigma" not in doc:
        raise FormatError("missing field 'sigma' (may be null)")
    sigma = doc["sigma"]
    if isinstance(sigma, dict):
        (constant,) = _SIGMA_KEYS[ConstantSigma]
        kind = ConstantSigma if constant in sigma else SigmaPolynomial
        _reject_unknown(sigma, _SIGMA_KEYS[kind], "sigma.")
        sigma = _build(kind, sigma, _SIGMA_KEYS[kind], "sigma.")
    elif sigma is not None:
        raise FormatError(
            "field 'sigma' must be an object or null, "
            f"got {type(sigma).__name__}"
        )
    return _build(ShadowedPathLossModel, doc, _MODEL_KEYS, "", sigma)
