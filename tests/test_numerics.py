"""Dense solver and least-squares fits, checked against independent oracles."""

import numpy as np
import pytest

from rssifit import (
    CONDITION_FALLBACK,
    DataError,
    DegenerateDataError,
    DenseSystem,
    InsufficientDataError,
    SingularMatrixError,
    ols_line,
    orthogonal_solve,
    polyfit_quartic,
    polyval,
    solve_dense,
)
from rssifit.numerics import _moment_system


def naive_full_pivot_solve(a, b):
    """Reference solver: Gauss-Jordan with full pivoting, no shortcuts.

    Deliberately a different algorithm from the implementation under test
    (full rather than partial pivoting, reduced row echelon rather than
    back-substitution) so shared bugs are unlikely.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    perm = list(range(n))
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i_off, j_off = np.unravel_index(np.argmax(sub), sub.shape)
        i, j = k + i_off, k + j_off
        if a[i, j] == 0.0:
            raise ZeroDivisionError("singular")
        a[[k, i]] = a[[i, k]]
        b[[k, i]] = b[[i, k]]
        a[:, [k, j]] = a[:, [j, k]]
        perm[k], perm[j] = perm[j], perm[k]
        piv = a[k, k]
        a[k] /= piv
        b[k] /= piv
        for r in range(n):
            if r != k and a[r, k] != 0.0:
                b[r] -= a[r, k] * b[k]
                a[r] -= a[r, k] * a[k]
    x = np.empty(n)
    x[perm] = b
    return x


def test_solver_matches_full_pivot_oracle_on_random_systems():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        x, diag = solve_dense(DenseSystem(a, b))
        x_ref = naive_full_pivot_solve(a, b)
        scale = np.maximum(np.abs(x_ref), 1e-12)
        worst = max(worst, float(np.max(np.abs(x - x_ref) / scale)))
        assert len(diag.pivot_magnitudes) == n
    assert worst <= 1e-9


def test_partial_pivot_picks_largest_magnitude():
    # column 0 magnitudes are 1 and 4; the pivot must be 4
    system = DenseSystem([[1.0, 3.0], [4.0, 1.0]], [5.0, 6.0])
    x, diag = solve_dense(system)
    assert diag.pivot_magnitudes[0] == 4.0
    assert not diag.used_orthogonal
    np.testing.assert_allclose(x, naive_full_pivot_solve(
        [[1.0, 3.0], [4.0, 1.0]], [5.0, 6.0]))


def test_exactly_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve_dense(DenseSystem([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        orthogonal_solve(DenseSystem([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        solve_dense(DenseSystem([[0.0]], [1.0]))


def test_ill_conditioned_system_reroutes_through_qr():
    system = DenseSystem([[1.0, 0.0], [0.0, 1e-13]], [1.0, 1e-13])
    x, diag = solve_dense(system)
    assert diag.condition_estimate > CONDITION_FALLBACK
    assert diag.used_orthogonal
    assert diag.pivot_magnitudes == ()
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-9)


def test_orthogonal_solve_agrees_with_elimination_when_well_conditioned():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=6)
    x_elim, _ = solve_dense(DenseSystem(a, b))
    x_qr = orthogonal_solve(DenseSystem(a, b))
    np.testing.assert_allclose(x_elim, x_qr, rtol=1e-9, atol=1e-12)


def test_system_validation():
    with pytest.raises(DataError):
        DenseSystem([[1.0, 2.0]], [1.0])  # not square
    with pytest.raises(DataError):
        DenseSystem([[np.inf]], [1.0])
    with pytest.raises(DataError):
        DenseSystem([[1.0]], [1.0, 2.0])  # rhs length mismatch
    system = DenseSystem([[2.0]], [4.0])
    with pytest.raises(ValueError):
        system.matrix[0, 0] = 1.0  # arrays are frozen


def test_line_fit_matches_covariance_form_oracle():
    # oracle: slope = cov(x,y)/var(x), a different algebraic route than the
    # 2x2 normal-equation solve under test
    rng = np.random.default_rng(99)
    x = rng.uniform(0, 50, size=40)
    y = 3.5 * x - 12.0 + rng.normal(0, 2.0, size=40)
    fit = ols_line(x, y)
    xm, ym = x.mean(), y.mean()
    slope_ref = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    intercept_ref = ym - slope_ref * xm
    assert fit.slope == pytest.approx(slope_ref, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept_ref, rel=1e-12)


def test_line_fit_exact_on_collinear_points():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    fit = ols_line(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_line_fit_r2_zero_for_constant_observations():
    fit = ols_line([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 0.0


def test_line_fit_rejects_degenerate_abscissa():
    with pytest.raises(DegenerateDataError):
        ols_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        ols_line([1.0], [1.0])


def test_quartic_recovers_known_coefficients():
    true = (1e-6, 2e-3, -0.2, 2.0, -1.0)
    d = np.arange(1.0, 21.0)
    fit = polyfit_quartic(d, polyval(true, d))
    for got, want in zip(fit.coefficients, true):
        assert got == pytest.approx(want, rel=1e-8)
    assert not fit.diagnostics.scaled


def test_quartic_on_constant_column_returns_constant_polynomial():
    d = np.arange(1.0, 21.0)
    fit = polyfit_quartic(d, np.full(20, 3.25))
    a, b, c, e, f = fit.coefficients
    for coeff in (a, b, c, e):
        assert abs(coeff) <= 1e-9
    assert f == pytest.approx(3.25, abs=1e-9)


def test_quartic_moment_matrix_uses_raw_powers():
    # entry (i, j) must be sum(d^(8-i-j)); checked against direct sums
    d = np.array([1.0, 2.0, 3.0, 5.0, 7.0, 11.0])
    y = np.ones_like(d)
    system = _moment_system(d, y, 4)
    for i in range(5):
        for j in range(5):
            assert system.matrix[i, j] == pytest.approx(
                float(np.sum(d ** (8 - i - j))), rel=1e-15
            )
        assert system.rhs[i] == pytest.approx(
            float(np.sum(y * d ** (4 - i))), rel=1e-15
        )


def test_quartic_rescales_when_raw_moments_overflow_conditioning():
    # spans like 100..2000 m push the raw moment condition past the
    # fallback threshold; the rescaled fit must still recover coefficients
    true = (1e-10, -3e-8, 2e-5, -0.004, 1.5)
    d = np.linspace(100.0, 2000.0, 25)
    raw_cond = float(np.linalg.cond(_moment_system(d, polyval(true, d), 4).matrix))
    assert raw_cond > CONDITION_FALLBACK
    fit = polyfit_quartic(d, polyval(true, d))
    assert fit.diagnostics.scaled
    for got, want in zip(fit.coefficients, true):
        assert got == pytest.approx(want, rel=1e-8)


def test_quartic_needs_six_distinct_distances():
    with pytest.raises(InsufficientDataError):
        polyfit_quartic([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5)
    with pytest.raises(InsufficientDataError):
        # six values but only five distinct
        polyfit_quartic([1.0, 2.0, 3.0, 4.0, 5.0, 5.0], [1.0] * 6)


def test_polyval_horner_matches_numpy():
    coeffs = (2.0, -1.0, 0.5, 3.0, -7.0)
    d = np.linspace(0.5, 30.0, 17)
    np.testing.assert_allclose(
        polyval(coeffs, d), np.polyval(coeffs, d), rtol=1e-13
    )


def test_quartic_fit_estimates_the_raw_condition_once(monkeypatch):
    # One estimate per DenseSystem: the raw moments alone (1..20 m), or the
    # raw and the d/d_max moments of a refit (100..2000 m), and the raw
    # estimate is the one reported either way.
    cond = np.linalg.cond
    for d, systems in ((np.arange(1.0, 21.0), 1), (np.linspace(100.0, 2000.0, 25), 2)):
        y = 0.01 * d**2 + 1.0
        expected = polyfit_quartic(d, y).diagnostics
        assert expected.scaled == (systems == 2)
        assert expected.condition_estimate == cond(_moment_system(d, y, 4).matrix)
        calls = []
        monkeypatch.setattr(
            np.linalg, "cond", lambda m: calls.append(m.shape) or cond(m)
        )
        assert polyfit_quartic(d, y).diagnostics == expected
        assert calls == [(5, 5)] * systems
        monkeypatch.undo()
