"""Forward propagation models: from idealized power laws to shadowed RSS.

Walks the forward direction only — given a model, what signal strength do
we expect at each distance?  Covers the free-space (1/d^2) and two-ray
ground-reflection (1/d^4) received-power laws, the log-distance RSS trend,
and a distance-dependent fading SD evaluated with domain clamping.
"""

import numpy as np

from rssifit import (
    ConstantSigma,
    FreeSpaceModel,
    ShadowedPathLossModel,
    SigmaPolynomial,
    TwoRayModel,
    free_space_rx,
    predict_mean_rss,
    shadow_pdf,
    sigma_at,
    two_ray_rx,
)

print("=" * 64)
print("1. Idealized received-power laws")
print("=" * 64)

free = FreeSpaceModel(c_t=1.0e-3, tx_power=0.1)
two_ray = TwoRayModel(c_t2=1.0e-3, tx_power=0.1)

print(f"{'d (m)':>8} {'free-space (W)':>16} {'two-ray (W)':>16}")
for d in (1.0, 2.0, 4.0, 8.0, 16.0):
    print(f"{d:8.1f} {free_space_rx(free, d):16.3e} {two_ray_rx(two_ray, d):16.3e}")

print()
print("Doubling distance costs 6 dB in free space, 12 dB under two-ray:")
ratio_fs = free_space_rx(free, 2.0) / free_space_rx(free, 4.0)
ratio_tr = two_ray_rx(two_ray, 2.0) / two_ray_rx(two_ray, 4.0)
db_fs, db_tr = 10 * np.log10(ratio_fs), 10 * np.log10(ratio_tr)
print(f"  free-space ratio per doubling: {ratio_fs:.1f}x ({db_fs:.1f} dB)")
print(f"  two-ray ratio per doubling:    {ratio_tr:.1f}x ({db_tr:.1f} dB)")

print()
print("=" * 64)
print("2. Log-distance RSS trend")
print("=" * 64)

# A tunnel-like link: exponent below 2 because the walls duct energy
# forward instead of letting it spread into free space.
model = ShadowedPathLossModel(d0=1.0, rss_d0=-52.0, eta=1.6)
print(f"model: rss(d0={model.d0} m) = {model.rss_d0} dBm, eta = {model.eta}")
print(f"{'d (m)':>8} {'mean RSS (dBm)':>16}")
for d in (1.0, 10.0, 100.0):
    print(f"{d:8.1f} {predict_mean_rss(model, d):16.2f}")
decade_drop = predict_mean_rss(model, 1.0) - predict_mean_rss(model, 10.0)
print(f"drop per decade of distance: {decade_drop:.1f} dB  (= 10 * eta)")

print()
print("=" * 64)
print("3. Distance-dependent fading SD with domain clamp")
print("=" * 64)

# Fading severity is itself a function of distance; the quartic is only
# trusted over the surveyed span, so evaluation clamps outside [1, 20] m.
sigma = SigmaPolynomial(
    a=2.6e-6, b=6.2e-3, c=-0.23, e=2.4, f=-1.7, d_min=1.0, d_max=20.0
)
print(f"{'d (m)':>8} {'sigma (dB)':>12} {'clamped?':>10}")
for d in (0.5, 1.0, 5.0, 12.0, 20.0, 35.0):
    value, clamped = sigma_at(sigma, d)
    print(f"{d:8.1f} {value:12.3f} {str(clamped):>10}")

constant = ConstantSigma(2.0)
value, clamped = sigma_at(constant, 1000.0)
print(f"constant fading model at 1 km: sigma = {value} dB, clamped = {clamped}")

print()
print("=" * 64)
print("4. Shadowing distribution around the trend")
print("=" * 64)

shadowed = ShadowedPathLossModel(d0=1.0, rss_d0=-52.0, eta=1.6, sigma=constant)
d = 10.0
mean = predict_mean_rss(shadowed, d)
sd = sigma_at(shadowed.sigma, d).value
print(f"at d = {d} m the mean RSS is {mean:.2f} dBm (fading SD {sd} dB);")
print("density of the deviation psi = observed - mean:")
for psi in np.linspace(-4.0, 4.0, 5):
    print(f"  p(psi = {psi:+5.1f} dB) = {shadow_pdf(psi, sd):.4f}")
psi_grid = np.linspace(-16.0, 16.0, 2001)
density = np.array([shadow_pdf(p, sd) for p in psi_grid])
# trapezoid rule, written out: np.trapz is gone in numpy 2, np.trapezoid
# is missing before it
mass = float(np.sum((density[1:] + density[:-1]) * np.diff(psi_grid)) / 2.0)
print(f"numerical integral over +/-8 SD: {mass:.6f} (should be ~1)")
