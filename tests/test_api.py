"""The package's public name list."""

import types

import rssifit

PUBLIC = """
CONDITION_FALLBACK ConstantSigma DataError DatasetNotFoundError DatasetRecord
DegenerateDataError DenseSystem DistanceStats FitReport FormatError
FreeSpaceModel GoodnessOfFit InsufficientDataError LineFit LinkConstants
LinkPlan LocalizationEstimate NumericalError PolynomialFit PrrCorrelations
PublishedFit RssiSurvey RssifitError ShadowedPathLossModel SigmaFitReport
SigmaPolynomial SigmaValue SimulationSpec SingularMatrixError SolveDiagnostics
SurveyStats TwoRayModel confidence_interval dataset_names embedded_dataset
estimate_distance fit_path_loss fit_sigma_polynomial free_space_rx
goodness_of_fit load_stats_csv load_survey_csv max_range model_from_json
model_to_json ols_line orthogonal_solve path_loss_db polyfit_quartic polyval
predict_mean_rss prr_correlations published_fit residual_y rss_from_path_loss
save_stats_csv save_survey_csv shadow_pdf sigma_at simulate_survey solve_dense
standard_normals stationarity_sums survey_stats two_ray_rx
""".split()


def test_all_lists_exactly_the_public_api():
    assert len(PUBLIC) == 65
    assert sorted(rssifit.__all__) == sorted(PUBLIC)
    for name in rssifit.__all__:
        value = getattr(rssifit, name)
        assert not isinstance(value, types.ModuleType), name


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from rssifit import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(rssifit, name)
    assert not {"calibration", "cli", "models", "simulate"} & set(namespace)
