"""Inverting the calibrated model: distance estimates, intervals, range.

Builds the full longwall model (trend + fading quartic), then runs the
inverse problems: point distance estimates from a single RSSI reading,
confidence intervals that widen with the local fading SD, and maximum
usable range under a receiver-sensitivity constraint with an optional
fade margin.
"""

from rssifit import (
    LinkConstants,
    ShadowedPathLossModel,
    confidence_interval,
    embedded_dataset,
    estimate_distance,
    fit_path_loss,
    fit_sigma_polynomial,
    max_range,
    predict_mean_rss,
)

stats = embedded_dataset("longwall-face").stats
trend = fit_path_loss(stats, d0=1.0)
sigma = fit_sigma_polynomial(stats).sigma
model = ShadowedPathLossModel(
    d0=trend.model.d0,
    rss_d0=trend.rss_d0,
    eta=trend.eta,
    sigma=sigma,
)
print("calibrated longwall model:")
print(f"  rss(d) = {model.rss_d0:.2f} - 10 * {model.eta:.4f} * log10(d)  [dBm]")
print(f"  fading SD: quartic over [{sigma.d_min}, {sigma.d_max}] m")
print()

print("=" * 64)
print("1. Point estimates invert the trend exactly")
print("=" * 64)
print(f"{'true d':>8} {'mean RSS':>10} {'estimate':>10}")
for d in (2.0, 5.0, 10.0, 18.0):
    rss = predict_mean_rss(model, d)
    print(f"{d:8.1f} {rss:10.2f} {estimate_distance(model, rss):10.4f}")
print()

print("=" * 64)
print("2. Confidence intervals widen with the local fading SD")
print("=" * 64)
print(f"{'RSS (dBm)':>10} {'d_hat':>8} {'95% interval':>20} {'sigma used':>11}")
for d in (3.0, 10.0, 17.0):
    rss = predict_mean_rss(model, d)
    est = confidence_interval(model, rss, level=0.95)
    print(
        f"{rss:10.2f} {est.d_hat:8.2f} "
        f"[{est.d_lo:7.2f}, {est.d_hi:7.2f}] m {est.sigma_used:9.2f} dB"
    )
est99 = confidence_interval(model, predict_mean_rss(model, 10.0), level=0.99)
print(f"at 99% the 10 m interval grows to [{est99.d_lo:.2f}, {est99.d_hi:.2f}] m")
print()

print("=" * 64)
print("3. Range planning against receiver sensitivity")
print("=" * 64)
constants = LinkConstants()  # -92 dBm sensitivity
print(f"receiver sensitivity: {constants.receiver_sensitivity} dBm")
print(
    f"{'outage z':>9} {'max range (m)':>14} {'fade margin (dB)':>17} "
    f"{'extrapolated?':>14}"
)
for z in (0.0, 1.0, 1.96):
    plan = max_range(model, constants, outage_z=z)
    print(
        f"{z:9.2f} {plan.max_range:14.2f} {plan.margin_db:17.2f} "
        f"{str(plan.clamped):>14}"
    )
print()
print("z = 0 plans for the median link with no fade margin at all; z = 1.96")
print("reserves enough headroom that only ~2.5% of locations at the planned")
print("range fade below sensitivity.  When the solution lands beyond the")
print("20 m survey span (the z = 1 row here), the fading SD is a clamped")
print("extrapolation — the plan flags it, and it should be read as optimistic.")
