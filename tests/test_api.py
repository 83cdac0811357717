"""The package's public name list, and its names loaded on first access."""

import importlib
import json
import types

import pytest

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


FIRST_ACCESS = """
import json, sys
import rssifit
loaded = lambda: sorted(m for m in sys.modules if m.startswith("rssifit"))
before = loaded(), [name for name in rssifit.__all__ if name in vars(rssifit)]
rssifit.max_range
after = loaded(), "max_range" in vars(rssifit)
print(json.dumps([before, after, rssifit.numerics.__name__, loaded()[-1]]))
"""


def test_import_loads_no_module_until_a_name_is_used(fresh_python):
    done = fresh_python(["-c", FIRST_ACCESS])
    assert done.returncode == 0, done.stderr
    before, after, module, last = json.loads(done.stdout)
    assert before == [["rssifit"], []]
    assert after == [
        ["rssifit", "rssifit.errors", "rssifit.localization", "rssifit.models"],
        True,  # kept in the namespace
    ]
    # A module is an attribute too, as if imported by name.
    assert module == last == "rssifit.numerics"


@pytest.mark.parametrize("module", sorted(rssifit._EXPORTS))
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"rssifit.{module}")
    for name in rssifit._EXPORTS[module]:
        value = getattr(defining, name)
        assert getattr(rssifit, name) is value, name
        assert vars(rssifit)[name] is value, name  # kept after first access
        assert getattr(value, "__module__", defining.__name__) == defining.__name__


def test_dir_lists_every_public_name_and_unknown_names_are_refused():
    assert set(rssifit.__all__) <= set(dir(rssifit))
    assert not hasattr(rssifit, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        rssifit.nope
    with pytest.raises(ImportError):
        exec("from rssifit import nope", {})
