"""The library boundary: every public constructor and entry function that
takes scalars either returns canonical values or refuses junk by name.

One property drives each such callable in ``rssifit.__all__`` with valid
arguments but one scalar replaced by a value from a pool of junk and of
near-numbers: numeric strings, bools, None, nan and the infinities, numpy
scalars and 0-d arrays, tuples, bare objects. The ``rows`` of the survey
containers, a row of them and a row's samples are slots too. The call must
either succeed, with every float, int, bool and str field of what it returns
holding exactly that type and a float result finite, or raise a
``RssifitError`` whose message names the field. Every model it returns, at
any depth, must survive the JSON model document.
"""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rssifit
from rssifit import (
    ConstantSigma,
    LinkConstants,
    RssifitError,
    ShadowedPathLossModel,
    SigmaPolynomial,
    embedded_dataset,
    model_from_json,
    model_to_json,
    save_stats_csv,
)

_STATS = embedded_dataset("longwall-face").stats
_SIGMA = SigmaPolynomial(a=0.0, b=0.0, c=0.0, e=0.1, f=2.0, d_min=1.0, d_max=20.0)
_MODEL = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=ConstantSigma(3.0))


def _with(slot, junk, base):
    """``base`` with ``slot`` replaced by ``junk``; a slot inside a sequence
    argument is written ``argument[index]``."""
    kwargs = dict(base)
    if slot == "distances[1]":
        kwargs["distances"] = (1.0, junk)
    elif slot == "rows[0].distance":
        kwargs["rows"] = ((junk, (-50.0, -51.0)),)
    elif slot == "rows[0].samples":
        kwargs["rows"] = ((1.0, junk),)
    elif slot == "rows[0]":
        kwargs["rows"] = (junk,) + tuple(base["rows"][1:])
    else:
        kwargs[slot] = junk
    return kwargs


# name -> (valid keyword arguments, the scalar slots to fill with junk)
CALLS = {
    "FreeSpaceModel": ({"c_t": 1.0, "tx_power": 1.0}, ("c_t", "tx_power")),
    "TwoRayModel": ({"c_t2": 1.0, "tx_power": 1.0}, ("c_t2", "tx_power")),
    "SigmaPolynomial": (
        dataclasses.asdict(_SIGMA), ("a", "b", "c", "e", "f", "d_min", "d_max")
    ),
    "ConstantSigma": ({"value": 3.0}, ("value",)),
    "ShadowedPathLossModel": (
        {"d0": 1.0, "rss_d0": -40.0, "eta": 2.0, "sigma": _SIGMA},
        ("d0", "rss_d0", "eta", "sigma"),
    ),
    "LinkConstants": ({"receiver_sensitivity": -92.0}, ("receiver_sensitivity",)),
    "DistanceStats": (
        {"distance": 1.0, "mean_rss": -50.0, "sd": 1.0, "n": 20, "prr": 95.0},
        ("distance", "mean_rss", "sd", "n", "prr"),
    ),
    "SurveyStats": (
        {"site": "s", "rows": _STATS.rows},
        ("site", "rows", "rows[0]", "metadata"),
    ),
    "RssiSurvey": (
        {"site": "s", "rows": ((1.0, (-50.0, -51.0)),)},
        ("site", "rows", "rows[0]", "rows[0].distance", "rows[0].samples",
         "metadata"),
    ),
    "SimulationSpec": (
        {"model": _MODEL, "distances": (1.0, 2.0), "samples_per_distance": 2,
         "seed": 1, "site": "s"},
        ("distances[1]", "samples_per_distance", "seed", "site"),
    ),
    "LocalizationEstimate": (
        {"d_hat": 10.0, "d_lo": 5.0, "d_hi": 20.0, "level": 0.95,
         "sigma_used": 3.0, "clamped": False},
        ("d_hat", "d_lo", "d_hi", "level", "sigma_used", "clamped"),
    ),
    "LinkPlan": (
        {"max_range": 50.0, "margin_db": 1.0, "outage_z": 1.0,
         "sensitivity": -92.0, "clamped": False},
        ("max_range", "margin_db", "outage_z", "sensitivity", "clamped"),
    ),
    "GoodnessOfFit": (
        {"r2": 0.5, "rmse": 1.0, "sse": 2.0, "dfe": 2, "n_obs": 3},
        ("r2", "rmse", "sse", "dfe", "n_obs"),
    ),
    "path_loss_db": ({"pt_dbm": 0.0, "pr_dbm": -60.0}, ("pt_dbm", "pr_dbm")),
    "rss_from_path_loss": ({"pt_dbm": 0.0, "pl_db": 60.0}, ("pt_dbm", "pl_db")),
    "free_space_rx": (
        {"model": rssifit.FreeSpaceModel(1.0, 1.0), "d": 10.0}, ("d",)
    ),
    "two_ray_rx": ({"model": rssifit.TwoRayModel(1.0, 1.0), "d": 10.0}, ("d",)),
    "predict_mean_rss": ({"model": _MODEL, "d": 10.0}, ("d",)),
    "sigma_at": ({"sigma": _SIGMA, "d": 10.0}, ("d",)),
    # At psi = 0 a tiny sigma makes the density overflow.
    "shadow_pdf": ({"psi": 0.0, "sigma": 3.0}, ("psi", "sigma")),
    "estimate_distance": ({"model": _MODEL, "rss": -60.0}, ("rss",)),
    "confidence_interval": (
        {"model": _MODEL, "rss": -60.0, "level": 0.9}, ("rss", "level")
    ),
    "max_range": (
        {"model": _MODEL, "constants": LinkConstants(), "outage_z": 1.0},
        ("outage_z",),
    ),
    "fit_path_loss": (
        {"stats": _STATS, "d0": 1.0, "intercept_mode": "free"},
        ("d0", "intercept_mode"),
    ),
    "fit_sigma_polynomial": ({"stats": _STATS, "target": "sample_sd"}, ("target",)),
    "stationarity_sums": (
        {"stats": _STATS, "sigma": _SIGMA, "target": "sample_sd"}, ("target",)
    ),
    "goodness_of_fit": (
        {"observed": [1.0, 2.0, 4.0], "fitted": [1.0, 2.5, 3.5], "n_params": 1},
        ("n_params",),
    ),
    "standard_normals": (
        {"seed": 1, "distance_index": 0, "count": 3},
        ("seed", "distance_index", "count"),
    ),
    "embedded_dataset": ({"name": "longwall-face"}, ("name",)),
    "published_fit": ({"name": "longwall-face"}, ("name",)),
    "load_stats_csv": ({"data": save_stats_csv(_STATS), "site": "s"}, ("site",)),
}

# Public names the property leaves out, and why.
NOT_DRIVEN = {
    # exceptions and constants
    "CONDITION_FALLBACK", "DataError", "DatasetNotFoundError",
    "DegenerateDataError", "FormatError", "InsufficientDataError",
    "NumericalError", "RssifitError", "SingularMatrixError",
    # records the library fills in from values it has computed
    "DatasetRecord", "FitReport", "LineFit", "PolynomialFit",
    "PrrCorrelations", "PublishedFit", "SigmaFitReport", "SigmaValue",
    "SolveDiagnostics",
    # arrays, documents and objects only; no scalar argument
    "DenseSystem", "dataset_names", "load_survey_csv", "model_from_json",
    "model_to_json", "ols_line", "orthogonal_solve", "polyfit_quartic",
    "polyval", "prr_correlations", "save_stats_csv", "save_survey_csv",
    "simulate_survey", "solve_dense", "survey_stats",
    # a flag: any truthy value selects the scaled residuals
    "residual_y",
}

# What else a refusal may name the field by: the element of a sequence, or
# the quantity that a size or lookup error words it as.
LABELS = {
    ("SimulationSpec", "distances[1]"): "distance",
    ("SimulationSpec", "samples_per_distance"): "samples at each of",
    ("RssiSurvey", "rows[0].distance"): "distance",
    ("RssiSurvey", "rows[0].samples"): "samples",
    ("RssiSurvey", "rows[0]"): "row 0",
    ("RssiSurvey", "rows"): "row",
    ("SurveyStats", "rows[0]"): "row 0",
    ("SurveyStats", "rows"): "row",
    ("standard_normals", "count"): "samples at each of",
    ("goodness_of_fit", "n_params"): "parameters",
    ("max_range", "outage_z"): "margin-adjusted signal",
    ("embedded_dataset", "name"): "no embedded dataset named",
    ("published_fit", "name"): "no published fit for",
}

SLOTS = [(name, slot) for name, (_, slots) in CALLS.items() for slot in slots]

JUNK = st.sampled_from(
    (
        "1", "-60", "0.9", "", " 2 ", "nan", b"1", bytearray(b"1"),
        True, False, np.True_, np.False_, None,
        math.nan, math.inf, -math.inf, 10**400, -(10**400),
        np.float64(2.0), np.float32(0.5), np.int64(3), np.uint8(1),
        np.float64("nan"), np.array(2.0), np.array(3), np.array("1"),
        np.array(True), np.array([1.0]), (1.0,), (), [1.0], object(), 1j,
        np.complex128(1.0), Fraction(1, 2), Decimal("0.5"),
        0, 1, -1, 0.5, 2.0, -92.0, 2**64,
        5e-324, 1e-300, 1e300, 1.7e308, -1.7e308,
        "free", "anchored", "sample_sd", "residual_y", "longwall-face",
        np.str_("residual_y"), np.str_("anchored"), np.str_("s"),
        ConstantSigma(2.0), _SIGMA,
    )
)

_CANONICAL = {
    "float": (float,),
    "int": (int,),
    "str": (str,),
    "bool": (bool,),
    "float | None": (float, type(None)),
    "str | None": (str, type(None)),
}


def _annotations(value):
    """(field, annotation) pairs of a dataclass or named tuple, else None."""
    if dataclasses.is_dataclass(value):
        return [(f.name, f.type) for f in dataclasses.fields(value)]
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return list(type(value).__annotations__.items())
    return None


def _check_canonical(value, where="result"):
    """Every float/int/str field holds exactly that type; every model found
    round-trips through the model document."""
    if isinstance(value, ShadowedPathLossModel):
        assert model_from_json(model_to_json(value)) == value, where
    annotations = _annotations(value)
    if annotations is not None:
        for name, annotation in annotations:
            field = getattr(value, name)
            kinds = _CANONICAL.get(annotation)
            if kinds is not None:
                assert type(field) in kinds, (where, name, field)
            if annotation == "tuple[float, ...]":
                assert all(type(v) is float for v in field), (where, name)
            if annotation == "tuple[tuple[str, str], ...]":
                assert type(field) is tuple, (where, name)
                assert all(type(p) is tuple and len(p) == 2 for p in field)
                assert all(type(s) is str for p in field for s in p)
                hash(value)
            _check_canonical(field, f"{where}.{name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _check_canonical(item, f"{where}[{i}]")


def test_every_public_name_is_driven_or_set_aside():
    assert set(CALLS) | NOT_DRIVEN == set(rssifit.__all__)
    assert not set(CALLS) & NOT_DRIVEN


@settings(max_examples=1500, deadline=None)
@given(case=st.sampled_from(SLOTS), junk=JUNK)
@example(case=("LinkConstants", "receiver_sensitivity"), junk="-90")
@example(case=("estimate_distance", "rss"), junk="-60")
@example(case=("confidence_interval", "level"), junk="0.9")
@example(case=("max_range", "outage_z"), junk="1")
@example(case=("fit_path_loss", "d0"), junk="1")
@example(case=("fit_path_loss", "d0"), junk=True)
@example(case=("ConstantSigma", "value"), junk="3")
@example(case=("ConstantSigma", "value"), junk=True)
@example(case=("LinkPlan", "max_range"), junk="5")
@example(case=("goodness_of_fit", "n_params"), junk="1")
@example(case=("standard_normals", "seed"), junk=1.5)
@example(case=("ShadowedPathLossModel", "sigma"), junk=5)
@example(case=("ShadowedPathLossModel", "d0"), junk="1")
@example(case=("ShadowedPathLossModel", "eta"), junk=True)
@example(case=("GoodnessOfFit", "sse"), junk=-1)
@example(case=("GoodnessOfFit", "dfe"), junk=2.5)
@example(case=("LocalizationEstimate", "clamped"), junk="no")
@example(case=("LinkPlan", "clamped"), junk=1)
@example(case=("LinkPlan", "clamped"), junk=np.True_)
@example(case=("shadow_pdf", "sigma"), junk=5e-324)
@example(case=("DistanceStats", "n"), junk=2.5)
@example(case=("DistanceStats", "n"), junk=True)
@example(case=("FreeSpaceModel", "c_t"), junk=True)
@example(case=("SurveyStats", "site"), junk=5)
@example(case=("RssiSurvey", "site"), junk=5)
@example(case=("SimulationSpec", "site"), junk=5)
@example(case=("standard_normals", "count"), junk=10**400)
@example(case=("SurveyStats", "rows[0]"), junk=(1.0, -50.0, 1.0, 5))
@example(case=("SurveyStats", "rows[0]"), junk=None)
@example(case=("SurveyStats", "rows"), junk="ab")
@example(case=("SurveyStats", "rows"), junk=5)
@example(case=("SurveyStats", "rows"), junk=None)
@example(case=("RssiSurvey", "rows"), junk=5)
@example(case=("RssiSurvey", "rows"), junk=None)
@example(case=("RssiSurvey", "rows[0].samples"), junk=("-50", "-51"))
@example(case=("RssiSurvey", "rows[0].samples"), junk=(True, False))
@example(case=("RssiSurvey", "rows[0].samples"), junk=np.array([1j, 2.0]))
@example(case=("RssiSurvey", "metadata"), junk=[("a", "b")])
@example(case=("RssiSurvey", "metadata"), junk=5)
@example(case=("SurveyStats", "metadata"), junk=[["a", np.str_("b")]])
@example(case=("SurveyStats", "metadata"), junk=(("a", 1.0),))
def test_scalars_are_canonical_or_refused_by_name(case, junk):
    name, slot = case
    base, _ = CALLS[name]
    call = getattr(rssifit, name)
    try:
        result = call(**_with(slot, junk, base))
    except RssifitError as exc:
        names = (slot, LABELS.get(case, slot))
        assert any(n in str(exc) for n in names), (name, slot, junk, str(exc))
        return
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64
    elif isinstance(result, (float, int)):
        assert type(result) is float, (name, slot, junk, result)
        assert math.isfinite(result), (name, slot, junk, result)
    else:
        _check_canonical(result, name)

