"""Closing the loop: simulate a survey, persist it, reload it, refit it.

Uses the deterministic seeded simulator to generate a synthetic RSSI
survey from a known model, writes it through the survey CSV codec, reads
it back, and re-estimates the model parameters — demonstrating that the
whole pipeline (model -> samples -> file -> statistics -> fit) recovers
what it was given.
"""

import tempfile
from pathlib import Path

from rssifit import (
    ConstantSigma,
    ShadowedPathLossModel,
    SimulationSpec,
    fit_path_loss,
    load_survey_csv,
    model_from_json,
    model_to_json,
    save_survey_csv,
    simulate_survey,
    survey_stats,
)

truth = ShadowedPathLossModel(
    d0=1.0, rss_d0=-50.0, eta=1.8, sigma=ConstantSigma(2.5)
)
print(f"ground truth: rss(1 m) = {truth.rss_d0} dBm, eta = {truth.eta}, "
      f"sigma = {truth.sigma.value} dB")
print()

spec = SimulationSpec(
    model=truth,
    distances=tuple(float(d) for d in range(1, 21)),
    samples_per_distance=200,
    seed=20260822,
    site="synthetic-tunnel",
)
survey = simulate_survey(spec)
print(f"simulated {survey.n_samples} readings over {survey.distances.size} positions "
      f"(seed {spec.seed})")
again = simulate_survey(spec)
print(f"re-running with the same seed reproduces every sample: {survey == again}")
print()

# --- persist and reload through the CSV codec -------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "synthetic.csv"
    path.write_bytes(save_survey_csv(survey))
    size = path.stat().st_size
    reloaded = load_survey_csv(path.read_bytes())
print(f"wrote {size} bytes of survey CSV; reload identical: {reloaded == survey}")
print()

# --- refit from the reloaded data -------------------------------------
stats = survey_stats(reloaded)
report = fit_path_loss(stats, d0=1.0)
print("refit from reloaded samples:")
print(f"  eta      = {report.eta:.4f}   (truth {truth.eta})")
print(f"  rss(1 m) = {report.rss_d0:.2f} dBm (truth {truth.rss_d0})")
print(f"  r^2      = {report.fit.r2:.4f}")
sds = stats.sd_db
print(f"  per-position sample SD spans [{sds.min():.2f}, {sds.max():.2f}] dB "
      f"(truth {truth.sigma.value})")
print()

# --- the model document survives the same treatment -------------------
doc = model_to_json(truth)
print("model document round trip:", model_from_json(doc) == truth)
print(doc.decode().rstrip())
