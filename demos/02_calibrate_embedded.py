"""Calibrating the path-loss model from the embedded mine surveys.

Fits the log-distance trend (path-loss exponent + reference RSS) and the
quartic fading-SD polynomial to both embedded datasets, compares against
the published analysis of the same campaign, and checks the least-squares
stationarity conditions that certify the polynomial solve.
"""

from rssifit import (
    dataset_names,
    embedded_dataset,
    fit_path_loss,
    fit_sigma_polynomial,
    prr_correlations,
    published_fit,
    stationarity_sums,
)

print("embedded datasets:", ", ".join(dataset_names()))
print()

for name in ("longwall-face", "gateroad-conveyor"):
    record = embedded_dataset(name)
    stats = record.stats
    pub = published_fit(name)

    print("=" * 64)
    print(f"{name}  ({stats.distance_m.size} survey positions)")
    print("=" * 64)
    print(record.provenance)
    print()

    # --- path-loss exponent -------------------------------------------
    free = fit_path_loss(stats, d0=1.0, intercept_mode="free")
    anchored = fit_path_loss(stats, d0=1.0, intercept_mode="anchored")
    print("log-distance trend (free intercept):")
    print(f"  eta     = {free.eta:.4f}   (published: {pub.eta})")
    print(f"  rss(d0) = {free.rss_d0:.2f} dBm")
    print(f"  r^2     = {free.fit.r2:.4f},  rmse = {free.fit.rmse:.3f} dB")
    print(f"anchored variant pins rss(d0) to the 1 m row: eta = {anchored.eta:.4f}")
    if pub.note:
        print(f"  note: {pub.note}")
    print()

    # --- fading-SD quartic --------------------------------------------
    report = fit_sigma_polynomial(stats, target="sample_sd")
    s = report.sigma
    print("fading SD quartic sigma(d) = a*d^4 + b*d^3 + c*d^2 + e*d + f:")
    for label, ours, theirs in zip(
        "abcef", s.coefficients, pub.sigma_coefficients
    ):
        print(f"  {label} = {ours:+.6e}   (published {theirs:+.6e})")
    print(f"  valid over [{s.d_min}, {s.d_max}] m")
    print(f"  r^2  = {report.fit.r2:.4f}  (published {pub.r2})")
    print(f"  rmse = {report.fit.rmse:.4f} (published {pub.rmse})")

    sums = stationarity_sums(stats, s, target="sample_sd")
    largest = max(abs(v) for v in sums)
    print(f"  stationarity residual sums (k = 0..4): max |.| = {largest:.2e}")
    print()

    # --- packet delivery vs channel quality ---------------------------
    corr = prr_correlations(stats)
    print("packet received rate correlations:")
    print(f"  corr(PRR, fading SD) = {corr.prr_vs_sd:+.3f}")
    print(f"  corr(PRR, mean RSS)  = {corr.prr_vs_mean:+.3f}")
    print()

print("=" * 64)
print("The third record ships without row data — range observations only:")
record = embedded_dataset("mine-car-pathway")
low, high = record.range_test
print(f"  mine-car-pathway: usable range {low:.0f}-{high:.0f} m")
print(f"  {record.provenance}")
