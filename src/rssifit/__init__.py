"""RSSI path-loss calibration, distance estimation, and range planning.

Fits a log-normal shadowing model (mean RSS linear in 10*log10(d), fading SD
a quartic polynomial of distance) to per-distance survey statistics, then
inverts it for localization, confidence intervals, and maximum-range
planning. Ships the underground-mine survey tables the model family was
developed on, a deterministic survey simulator, and CSV/JSON codecs; the
``rssifit`` command exposes the pipeline.

``import rssifit`` loads none of the modules below. Each public name loads
on first access (PEP 562) from the one table, ``_EXPORTS``, which also gives
``__all__``; the value is then kept in this namespace, so later lookups cost
a dict hit.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public API: each module and the names it defines.
_EXPORTS = {
    "calibration": (
        "FitReport", "GoodnessOfFit", "PrrCorrelations", "SigmaFitReport",
        "fit_path_loss", "fit_sigma_polynomial", "goodness_of_fit",
        "prr_correlations", "residual_y", "stationarity_sums",
    ),
    "dataio": (
        "load_stats_csv", "load_survey_csv", "model_from_json", "model_to_json",
        "save_stats_csv", "save_survey_csv",
    ),
    "datasets": (
        "DatasetRecord", "PublishedFit", "dataset_names", "embedded_dataset",
        "published_fit",
    ),
    "errors": (
        "DataError", "DatasetNotFoundError", "DegenerateDataError", "FormatError",
        "InsufficientDataError", "NumericalError", "RssifitError",
        "SingularMatrixError",
    ),
    "localization": (
        "LinkPlan", "LocalizationEstimate", "confidence_interval",
        "estimate_distance", "max_range",
    ),
    "models": (
        "ConstantSigma", "FreeSpaceModel", "LinkConstants", "ShadowedPathLossModel",
        "SigmaPolynomial", "SigmaValue", "TwoRayModel", "free_space_rx",
        "path_loss_db", "predict_mean_rss", "rss_from_path_loss", "shadow_pdf",
        "sigma_at", "two_ray_rx",
    ),
    "numerics": (
        "CONDITION_FALLBACK", "DenseSystem", "LineFit", "PolynomialFit",
        "SolveDiagnostics", "ols_line", "orthogonal_solve", "polyfit_quartic",
        "polyval", "solve_dense",
    ),
    "simulate": ("SimulationSpec", "simulate_survey", "standard_normals"),
    "surveys": ("DistanceStats", "RssiSurvey", "SurveyStats", "survey_stats"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, as ``import rssifit.<name>`` binds it
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
