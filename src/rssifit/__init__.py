"""RSSI path-loss calibration, distance estimation, and range planning.

Fits a log-normal shadowing model (mean RSS linear in 10*log10(d), fading SD
a quartic polynomial of distance) to per-distance survey statistics, then
inverts it for localization, confidence intervals, and maximum-range
planning. Ships the underground-mine survey tables the model family was
developed on, a deterministic survey simulator, and CSV/JSON codecs; the
``rssifit`` command exposes the pipeline.
"""

from types import ModuleType as _ModuleType

from .calibration import (
    FitReport,
    GoodnessOfFit,
    PrrCorrelations,
    SigmaFitReport,
    fit_path_loss,
    fit_sigma_polynomial,
    goodness_of_fit,
    prr_correlations,
    residual_y,
    stationarity_sums,
)
from .dataio import (
    load_stats_csv,
    load_survey_csv,
    model_from_json,
    model_to_json,
    save_stats_csv,
    save_survey_csv,
)
from .datasets import (
    DatasetRecord,
    PublishedFit,
    dataset_names,
    embedded_dataset,
    published_fit,
)
from .errors import (
    DataError,
    DatasetNotFoundError,
    DegenerateDataError,
    FormatError,
    InsufficientDataError,
    NumericalError,
    RssifitError,
    SingularMatrixError,
)
from .localization import (
    LinkPlan,
    LocalizationEstimate,
    confidence_interval,
    estimate_distance,
    max_range,
)
from .models import (
    ConstantSigma,
    FreeSpaceModel,
    LinkConstants,
    ShadowedPathLossModel,
    SigmaPolynomial,
    SigmaValue,
    TwoRayModel,
    free_space_rx,
    path_loss_db,
    predict_mean_rss,
    rss_from_path_loss,
    shadow_pdf,
    sigma_at,
    two_ray_rx,
)
from .numerics import (
    CONDITION_FALLBACK,
    DenseSystem,
    LineFit,
    PolynomialFit,
    SolveDiagnostics,
    ols_line,
    orthogonal_solve,
    polyfit_quartic,
    polyval,
    solve_dense,
)
from .simulate import SimulationSpec, simulate_survey, standard_normals
from .surveys import DistanceStats, RssiSurvey, SurveyStats, survey_stats

__version__ = "0.1.0"

# The imports above are the public API: every name they bind except modules.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
