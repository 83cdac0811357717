"""Embedded survey datasets from an underground-mine measurement campaign.

Two per-distance statistics tables from a 2.4 GHz IEEE 802.15.4 link surveyed
in a working longwall coal mine (GDK 10A incline, SCCL, India): one run along
the longwall face, one along the gate road beside the belt conveyor. Each
table covers transmitter-receiver separations of 1 to 20 m with 20 RSSI
readings per position; rows carry the mean RSSI, the sample standard
deviation, and the packet reception ratio, transcribed digit for digit from
the published tables. A third record holds only the field range test for the
mine-car pathway, where no per-distance table was published.

The published model fits for the two survey sites are embedded alongside the
data so recomputed fits can be compared against them. Values are stored as
printed; where a recomputation disagrees (the longwall path-loss exponent,
see :data:`PUBLISHED_FITS`) the note on the published record says so, and the
comparison is surfaced rather than silently adopted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DatasetNotFoundError
from .surveys import DistanceStats, SurveyStats

# Each row: (distance m, mean RSSI dBm, sample SD dB, PRR percent).
# 20 readings per position throughout.
_SAMPLES_PER_ROW = 20

_LONGWALL_ROWS = (
    (1, -51.65, 0.48936, 100.0),
    (2, -57.65, 2.00722, 100.0),
    (3, -71.5, 4.54799, 96.59),
    (4, -69.8, 3.67924, 96.76),
    (5, -73.95, 5.78996, 96.29),
    (6, -76.1, 4.93004, 95.83),
    (7, -76.85, 5.83343, 95.7),
    (8, -78.45, 6.88665, 95.07),
    (9, -80.25, 6.04261, 95.08),
    (10, -76.55, 6.60522, 95.45),
    (11, -76.8, 5.94491, 95.65),
    (12, -81.15, 4.56828, 93.92),
    (13, -80.95, 3.64872, 93.89),
    (14, -81.85, 4.22119, 93.9),
    (15, -79.35, 3.54334, 94.2),
    (16, -80.95, 4.20443, 93.77),
    (17, -82.6, 4.87097, 92.71),
    (18, -81.6, 3.93901, 93.85),
    (19, -84.15, 4.51051, 90.05),
    (20, -86.85, 4.88041, 86.2),
)

_GATEROAD_ROWS = (
    (1, -54.2857, 3.48056, 99.37),
    (2, -60.0952, 1.92106, 99.3),
    (3, -68.5714, 7.59402, 95.73),
    (4, -67.0476, 7.89087, 95.22),
    (5, -67.0, 7.75887, 96.19),
    (6, -73.0, 4.12311, 96.04),
    (7, -73.6667, 6.5904, 95.98),
    (8, -70.6191, 5.45414, 96.53),
    (9, -73.1905, 6.14261, 95.9),
    (10, -68.2381, 5.76052, 96.3),
    (11, -66.1905, 4.44491, 97.24),
    (12, -69.5714, 3.35517, 96.83),
    (13, -69.0, 3.6606, 96.89),
    (14, -75.0, 5.12119, 95.5),
    (15, -75.3333, 4.23478, 95.81),
    (16, -79.8095, 4.7394, 94.0),
    (17, -75.5714, 3.99464, 95.14),
    (18, -76.5714, 5.59081, 94.63),
    (19, -74.5455, 5.41363, 94.99),
    (20, -83.0, 5.54076, 92.8),
)

_CAMPAIGN = (
    "2.4 GHz IEEE 802.15.4 (XBee) point-to-point link surveyed in an "
    "underground longwall coal mine (GDK 10A incline, SCCL, India); "
    "20 RSSI readings per position at 1 m spacings over 1-20 m."
)


@dataclass(frozen=True)
class DatasetRecord:
    """One embedded dataset: summary rows plus field-test context.

    ``range_test`` is the (min, max) communication range observed in the
    field walk-out at the site, in metres, or None where not measured.
    ``stats`` is None for range-only records.
    """

    name: str
    stats: SurveyStats | None
    range_test: tuple[float, float] | None
    provenance: str


@dataclass(frozen=True)
class PublishedFit:
    """Model parameters as printed in the campaign's published analysis.

    ``sigma_coefficients`` are the quartic (a, b, c, e, f), highest power
    first; ``r2``/``rmse`` are the printed fit-quality figures for that
    quartic. ``note`` records any known discrepancy between the printed
    value and what least squares on the printed table reproduces.
    """

    eta: float
    sigma_coefficients: tuple[float, float, float, float, float]
    r2: float
    rmse: float
    note: str | None = None


def _stats(site: str, rows) -> SurveyStats:
    n = _SAMPLES_PER_ROW
    return SurveyStats(site, tuple(DistanceStats(d, m, s, n, p) for d, m, s, p in rows))


_REGISTRY = {
    "longwall-face": DatasetRecord(
        name="longwall-face",
        stats=_stats("longwall-face", _LONGWALL_ROWS),
        range_test=(40.0, 45.0),
        provenance=_CAMPAIGN + " Survey run along the longwall face.",
    ),
    "gateroad-conveyor": DatasetRecord(
        name="gateroad-conveyor",
        stats=_stats("gateroad-conveyor", _GATEROAD_ROWS),
        range_test=(60.0, 65.0),
        provenance=(
            _CAMPAIGN
            + " Survey run along the gate road beside the belt conveyor. "
            "Several printed means (e.g. -54.2857 = -1140/21) imply 21 "
            "samples at some positions; n is recorded as the stated 20."
        ),
    ),
    "mine-car-pathway": DatasetRecord(
        name="mine-car-pathway",
        stats=None,
        range_test=(75.0, 85.0),
        provenance=(
            _CAMPAIGN
            + " Range test only, along the mine-car pathway; no per-distance "
            "table was published for this site."
        ),
    ),
}

PUBLISHED_FITS = {
    "longwall-face": PublishedFit(
        eta=2.14,
        sigma_coefficients=(2.626e-6, 6.176e-3, -0.2276, 2.403, -1.721),
        r2=0.8332,
        rmse=0.6958,
        note=(
            "the printed exponent 2.14 is not reproduced by ordinary least "
            "squares on the printed table (which gives about 2.31 with a "
            "free intercept); the exact procedure behind 2.14 is not "
            "recoverable, so recomputed and printed values are reported "
            "side by side"
        ),
    ),
    "gateroad-conveyor": PublishedFit(
        eta=1.568,
        sigma_coefficients=(-6.685e-4, 3.418e-2, -0.5813, 3.599, -0.4563),
        r2=0.474,
        rmse=1.281,
    ),
}


def dataset_names() -> tuple[str, ...]:
    """Registry names, in registration order."""
    return tuple(_REGISTRY)


def _lookup(table: dict, name: str, missing: str):
    """``table[name]``, or a refusal that lists the names ``table`` holds."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key
        names = ", ".join(sorted(table))
        raise DatasetNotFoundError(f"{missing} {name!r}; available: {names}") from None


def embedded_dataset(name: str) -> DatasetRecord:
    """Look up an embedded dataset by name.

    Unknown names raise :class:`DatasetNotFoundError` listing what exists.
    """
    return _lookup(_REGISTRY, name, "no embedded dataset named")


def published_fit(name: str) -> PublishedFit:
    """Published model parameters for a survey dataset, if any."""
    return _lookup(PUBLISHED_FITS, name, "no published fit for")
