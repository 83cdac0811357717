"""Dense solver and least-squares fits, checked against independent oracles."""

import platform
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rssifit import (
    CONDITION_FALLBACK,
    DataError,
    DegenerateDataError,
    DenseSystem,
    DistanceStats,
    InsufficientDataError,
    SingularMatrixError,
    SurveyStats,
    dataset_names,
    embedded_dataset,
    fit_path_loss,
    fit_sigma_polynomial,
    ols_line,
    orthogonal_solve,
    polyfit_quartic,
    polyval,
    solve_dense,
    stationarity_sums,
)
from rssifit import calibration, numerics
from rssifit.calibration import INTERCEPT_MODES, SIGMA_TARGETS
from rssifit.numerics import CACHE_MAX_DISTANCES, _moment_matrix, _moment_system

QUARTIC = (4, 3, 2, 1, 0)


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


def test_line_fit_names_x_and_y_when_a_normal_equation_sum_overflows():
    # sum(x^2) overflows: the line's inputs are named, not a span of distances
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as caught:
            ols_line([1e200, 2e200, 3e200], [1.0, 2.0, 3.0])
    assert str(caught.value) == (
        "x and y are too large: a normal-equation sum overflows"
    )


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
    system = _moment_system(d, y, QUARTIC, "d and y")
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
    raw = _moment_system(d, polyval(true, d), QUARTIC, "d and y")
    raw_cond = float(np.linalg.cond(raw.matrix))
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


@given(
    st.lists(
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.5, 5e-324, 7.0, 11.0, 1e3, -2.0)),
        min_size=1,
        max_size=12,
    )
)
def test_quartic_counts_distinct_distances_as_np_unique_does(d):
    # +0.0 and -0.0 are one distance, as np.unique counts them.
    distinct = np.unique(np.array(d)).size
    try:
        polyfit_quartic(d, [1.0] * len(d))
    except InsufficientDataError as exc:
        assert str(exc).endswith(f"got {distinct}")
    else:
        assert distinct >= 6


def test_polyval_horner_matches_numpy():
    coeffs = (2.0, -1.0, 0.5, 3.0, -7.0)
    d = np.linspace(0.5, 30.0, 17)
    np.testing.assert_allclose(
        polyval(coeffs, d), np.polyval(coeffs, d), rtol=1e-13
    )


def test_quartic_fit_estimates_the_condition_once_per_distance_set(monkeypatch):
    # One estimate per distance set: the raw moments alone (1..20 m), or the
    # raw and the d/d_max moments of a refit (100..2000 m), and the raw
    # estimate is the one reported either way. A second fit on the same
    # distances, whatever its y, reads the cached estimates.
    cond = np.linalg.cond
    calls = []
    monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m.shape) or cond(m))
    for d, systems in ((np.arange(1.0, 21.0), 1), (np.linspace(100.0, 2000.0, 25), 2)):
        _moment_matrix.cache_clear()
        y = 0.01 * d**2 + 1.0
        first = polyfit_quartic(d, y).diagnostics
        assert calls == [(5, 5)] * systems
        assert first.scaled == (systems == 2)
        raw = _moment_system(d, y, QUARTIC, "d and y")
        assert first.condition_estimate == cond(raw.matrix)
        calls.clear()
        second = polyfit_quartic(d, 3.0 - 0.02 * d).diagnostics
        assert calls == []
        assert second.condition_estimate == first.condition_estimate
        assert second.scaled == first.scaled


def eliminate_reference(a, b):
    """The one-pass partial-pivot elimination that solve_dense replaced: rhs
    and matrix reduced together, then back-substituted as solve_dense does."""
    n = len(a)
    pivots = []
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        row = a[p]
        pivot = row[k]
        if pivot == 0.0:
            raise SingularMatrixError(f"zero pivot in column {k}")
        if p != k:
            a[k], a[p] = row, a[k]
            b[k], b[p] = b[p], b[k]
        pivots.append(abs(pivot))
        for i in range(k + 1, n):
            target = a[i]
            factor = target[k] / pivot
            for j in range(k + 1, n):
                target[j] -= factor * row[j]
            b[i] -= factor * b[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        total = 0.0
        for j in range(k + 1, n):
            total += a[k][j] * x[j]
        x[k] = (b[k] - total) / a[k][k]
    return x, tuple(pivots)


# Small integers make pivot ties and row swaps common; wide floats do not.
_ENTRIES = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 4.0]),
    st.floats(-1e6, 1e6, allow_subnormal=False),
)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 6))
    vectors = st.lists(_ENTRIES, min_size=n, max_size=n)
    return draw(st.lists(vectors, min_size=n, max_size=n)), draw(vectors), draw(vectors)


@given(square_systems())
@example(([[1.0, 2.0], [-1.0, 3.0]], [1.0, 1.0], [0.0, 2.0]))  # a pivot tie
@example(([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], [3.0, 4.0]))  # a row swap
def test_solve_dense_gives_the_bits_of_one_pass_elimination(case):
    # Each rhs solved against one matrix's stored factors, the second through
    # the shared matrix half, gives the bits of reducing matrix and rhs
    # together.
    a, b, c = case
    system = DenseSystem(a, b)
    assume(system.condition_estimate <= CONDITION_FALLBACK)
    for rhs, solved in ((b, system), (c, DenseSystem(system._half, c))):
        x, diag = solve_dense(solved)
        assert not diag.used_orthogonal
        want_x, want_pivots = eliminate_reference([r[:] for r in a], list(rhs))
        assert x.tolist() == want_x
        assert diag.pivot_magnitudes == want_pivots


def _caches_clear():
    _moment_matrix.cache_clear()
    calibration._regressor.cache_clear()


def _wide_span():
    d = np.linspace(100.0, 2000.0, 25)
    rows = [
        DistanceStats(x, -40.0 - 0.01 * x, 1.0 + 1e-3 * x + 0.1 * (i % 3), 10)
        for i, x in enumerate(d.tolist())
    ]
    return SurveyStats("wide", rows)


def test_fits_give_the_same_reports_from_a_cold_and_a_warm_cache():
    surveys = [embedded_dataset(name).stats for name in dataset_names()]
    surveys = [s for s in surveys if s is not None] + [_wide_span()]
    assert len(surveys) == 3
    for stats, d0 in zip(surveys, (1.0, 1.0, 100.0)):
        fits = [partial(fit_path_loss, stats, d0, m) for m in INTERCEPT_MODES]
        fits += [partial(fit_sigma_polynomial, stats, t) for t in SIGMA_TARGETS]
        for fit in fits:
            _caches_clear()
            cold = fit()
            warm = fit()
            assert warm == cold
            assert warm.diagnostics == cold.diagnostics
            assert repr(warm) == repr(cold)
    assert fit_sigma_polynomial(_wide_span()).diagnostics.scaled


def test_an_overflowing_distance_set_is_refused_alike_on_every_call():
    far = np.geomspace(1e37, 1e39, 8)
    messages = []
    for _ in range(2):
        with pytest.raises(DataError) as caught:
            polyfit_quartic(far, np.ones(8))
        messages.append(str(caught.value))
        with pytest.raises(DataError) as caught:
            ols_line([1e200, 2e200, 3e200], [1.0, 2.0, 3.0])
        messages.append(str(caught.value))
    assert messages[:2] == messages[2:]
    assert messages[0].endswith("the moment sums of d^8 overflow")
    assert messages[1] == "x and y are too large: a normal-equation sum overflows"


def test_a_singular_system_is_refused_on_every_solve():
    system = DenseSystem([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            solve_dense(system)
        # The factors themselves (never cached when they fail) refuse it too.
        with pytest.raises(SingularMatrixError):
            system._half.factors


def test_the_cached_arrays_are_read_only():
    d = np.arange(1.0, 21.0)
    system = _moment_system(d, np.ones(20), QUARTIC, "d and y")
    x = calibration._regressor(d.tobytes(), 1.0)
    assert x is calibration._regressor(d.tobytes(), 1.0)
    assert system.matrix is _moment_matrix(d.tobytes(), QUARTIC).matrix
    for array in (system.matrix, system.rhs, x):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_seventeen_distance_sets_evict_one_and_change_no_result():
    _caches_clear()
    sets = [np.append(np.arange(1.0, 20.0), 20.0 + k / 16) for k in range(17)]
    y = np.sin(np.arange(20.0)) + 3.0
    first = [polyfit_quartic(d, y) for d in sets]
    info = _moment_matrix.cache_info()
    assert (info.misses, info.currsize) == (17, 16)
    assert polyfit_quartic(sets[-1], y) == first[-1]
    assert _moment_matrix.cache_info().misses == 17  # the newest is kept
    assert polyfit_quartic(sets[0], y) == first[0]
    assert _moment_matrix.cache_info().misses == 18  # the oldest was evicted
    assert [polyfit_quartic(d, y) for d in sets] == first


def test_large_distance_sets_are_not_kept_as_cache_keys():
    # Kept as keys, 16 lines on distinct 10^6-point x held ~129 MB.
    _caches_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(16):
            x = np.arange(1e6) + k
            ols_line(x, 2.0 * x + 1.0)
        del x
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 4e6
    assert _moment_matrix.cache_info().currsize == 0


def _all_fits(d):
    y = np.sin(d) + 0.01 * d + 3.0
    rows = [DistanceStats(v, -40.0 - 0.2 * v, w, 10) for v, w in zip(d, y.tolist())]
    stats = SurveyStats("threshold", rows)
    fits = [polyfit_quartic(d, y), ols_line(d, y), fit_path_loss(stats)]
    fits += [fit_sigma_polynomial(stats, target) for target in SIGMA_TARGETS]
    return fits, [(f, f.diagnostics, repr(f)) for f in fits]


@pytest.mark.parametrize("n", [CACHE_MAX_DISTANCES + k for k in (-1, 0, 1)])
def test_sets_at_the_cache_threshold_fit_alike_on_both_paths(monkeypatch, n):
    d = np.linspace(1.0, 60.0, n).tolist()
    results = []
    for limit in (0, n, CACHE_MAX_DISTANCES):  # never, always, as shipped
        monkeypatch.setattr(numerics, "CACHE_MAX_DISTANCES", limit)
        _caches_clear()
        fits, summary = _all_fits(np.array(d))
        cached = (_moment_matrix.cache_info().currsize,
                  calibration._regressor.cache_info().currsize)
        assert all(cached) if n <= limit else not any(cached)
        results.append(summary)
    assert results[0] == results[1] == results[2]
    # The embedded 20-distance surveys stay on the cached path.
    _caches_clear()
    stats = embedded_dataset("longwall-face").stats
    fit_sigma_polynomial(stats, "residual_y", fit_path_loss(stats).model)
    assert calibration._regressor.cache_info().currsize
    assert _moment_matrix.cache_info().currsize


def moment_reference(d, y, powers):
    """The normal equations as documented for ``powers`` (highest first):
    d^k as repeated products, each sum taken over the rows in row order, in
    plain Python floats."""
    top = powers[0]
    moments = [0.0] * (2 * top + 1)
    weighted = [0.0] * (top + 1)
    for dr, yr in zip(d.tolist(), y.tolist()):
        power = 1.0
        for k in range(2 * top + 1):
            moments[k] += power
            if k <= top:
                weighted[k] += yr * power
            power *= dr
    matrix = [[moments[p + q] for q in powers] for p in powers]
    return matrix, [weighted[p] for p in powers]


def test_moment_sums_follow_the_documented_order_bit_for_bit():
    # The quartic, the free line and the anchored line, and the stationarity
    # sums, which must add resid * d^k as the quartic's right-hand side does.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(6, 80))
        d = rng.uniform(0.1, 2.0, n) * 10.0 ** rng.integers(-3, 4)
        if rng.random() < 0.5:
            d = -d
        y = rng.normal(0.0, 10.0, n)
        for powers in (QUARTIC, (1, 0), (1,)):
            matrix, rhs = moment_reference(d, y, powers)
            system = _moment_system(d, y, powers, "d and y")
            assert system.matrix.tolist() == matrix
            assert system.rhs.tolist() == rhs
    for _ in range(50):
        n = int(rng.integers(6, 80))
        d = np.unique(rng.uniform(0.5, 60.0, n))
        rows = [
            DistanceStats(x, -40.0, s, 10)
            for x, s in zip(d.tolist(), rng.uniform(1.0, 5.0, d.size).tolist())
        ]
        stats = SurveyStats("moments", rows)
        sigma = fit_sigma_polynomial(stats).sigma
        resid = stats.sd_db - polyval(sigma.coefficients, d)
        _, rhs = moment_reference(d, resid, QUARTIC)
        assert stationarity_sums(stats, sigma) == tuple(rhs[::-1])


def partial_pivot_reference(a, b):
    """Textbook partial-pivot elimination in Python floats: the first row
    with the largest |a[i][k]| pivots, rows are reduced in full, and each
    back-substitution sum runs left to right."""
    a = [list(map(float, row)) for row in a]
    b = list(map(float, b))
    n = len(a)
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        a[k], a[p] = a[p], a[k]
        b[k], b[p] = b[p], b[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [a[i][j] - f * a[k][j] for j in range(n)]
            b[i] = b[i] - f * b[k]
    x = [0.0] * n
    for k in reversed(range(n)):
        total = 0.0
        for j in range(k + 1, n):
            total = total + a[k][j] * x[j]
        x[k] = (b[k] - total) / a[k][k]
    return x, [abs(a[k][k]) for k in range(n)]


def test_elimination_follows_the_documented_order_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-5, 6, size=(n, n))
        b = rng.normal(size=n)
        x, diag = solve_dense(DenseSystem(a, b))
        assert not diag.used_orthogonal
        x_ref, pivots = partial_pivot_reference(a, b)
        assert x.tolist() == x_ref
        assert list(diag.pivot_magnitudes) == pivots


def test_small_condition_estimate_agrees_with_numpy_at_every_scale():
    rng = np.random.default_rng(13)
    for exponent in range(-300, 301, 25):
        for n in (1, 2):
            for _ in range(20):
                # singular values 1 and 10^-u, u up to 3, turned at random
                q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
                q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
                s = 10.0 ** -rng.uniform(0.0, 3.0, n)
                m = (q1 * s) @ q2 * 10.0**exponent
                got = DenseSystem(m, np.ones(n)).condition_estimate
                want = float(np.linalg.cond(m))
                assert got == pytest.approx(want, rel=1e-12), (m, got, want)


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 3.0], [0.0, 0.0]],
        [[1e-300, 2e-300], [2e-300, 4e-300]],
        [[1e300, 1e300], [1e300, 1e300]],
        [[1.0, 0.0], [0.0, 1e-13]],
        [[1.0, 0.0], [0.0, 1e-310]],
    ],
)
def test_small_condition_estimate_chooses_the_path_numpy_would(matrix):
    estimate = DenseSystem(matrix, [1.0] * len(matrix)).condition_estimate
    assert (estimate <= CONDITION_FALLBACK) == (
        np.linalg.cond(np.array(matrix)) <= CONDITION_FALLBACK
    )
    assert estimate > CONDITION_FALLBACK


FIT_REPRS = """
from rssifit import embedded_dataset, fit_path_loss, fit_sigma_polynomial
for name in ("longwall-face", "gateroad-conveyor"):
    stats = embedded_dataset(name).stats
    for mode in ("free", "anchored"):
        print(repr(fit_path_loss(stats, intercept_mode=mode)))
    for target in ("sample_sd", "residual_y"):
        print(repr(fit_sigma_polynomial(stats, target=target)))
"""


def _outputs(fresh_python, code, *changes):
    """The stdout of ``code`` in one fresh interpreter per dict of changes to
    the environment (None removes a variable), importing this rssifit."""
    outputs = []
    for change in changes:
        done = fresh_python(["-c", code], change)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    return outputs


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OpenBLAS core types named here are x86-64 kernels",
)
def test_fits_do_not_depend_on_the_blas_kernel(fresh_python):
    # OpenBLAS picks its kernels by OPENBLAS_CORETYPE: Haswell's use FMA,
    # Prescott's do not. A BLAS call anywhere in a fit shows up in its digits.
    outputs = _outputs(
        fresh_python,
        FIT_REPRS, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"}
    )
    assert outputs[0].count("\n") == 8
    assert outputs[0] == outputs[1]


STATIONARITY_REPR = """
import numpy as np
from rssifit import DistanceStats, SurveyStats
from rssifit import fit_sigma_polynomial, stationarity_sums
rng = np.random.default_rng(5)
d = np.sort(rng.uniform(0.5, 60.0, 400)).tolist()
sds = rng.uniform(2.0, 3.0, 400).tolist()
stats = SurveyStats("dispatch", map(DistanceStats, d, [-40.0] * 400, sds, [10] * 400))
print(repr(stationarity_sums(stats, fit_sigma_polynomial(stats).sigma)))
"""


# numpy's AVX-512 targets, switched off by NPY_DISABLE_CPU_FEATURES.
NO_AVX512 = "AVX512_SPR,AVX512_ICL,AVX512_CNL,AVX512_CLX,AVX512_SKX,X86_V4"


def test_stationarity_sums_do_not_depend_on_the_simd_dispatch(fresh_python):
    # np.power's AVX-512 kernels round d^3 and d^4 differently from the
    # baseline's. Powers taken as repeated products do not: the sums come out
    # the same with those targets switched off. Elsewhere both runs agree
    # trivially.
    outputs = _outputs(
        fresh_python,
        STATIONARITY_REPR,
        {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
        {"NPY_DISABLE_CPU_FEATURES": None},
    )
    assert outputs[0].count("\n") == 1
    assert outputs[0] == outputs[1]


TREND_DIGESTS = """
import hashlib
import numpy as np
from rssifit import DistanceStats, LinkConstants, ShadowedPathLossModel, SurveyStats
from rssifit import embedded_dataset, fit_path_loss, fit_sigma_polynomial, max_range
rng = np.random.default_rng(11)
fits, sigmas = hashlib.sha256(), hashlib.sha256()
for _ in range(300):
    d = np.unique(rng.uniform(0.5, 200.0, 20)).tolist()
    means = rng.uniform(-95.0, -40.0, len(d)).tolist()
    rows = map(DistanceStats, d, means, [2.0] * len(d), [10] * len(d))
    stats = SurveyStats("dispatch", rows)
    for mode in ("free", "anchored"):
        trend = fit_path_loss(stats, d0=rng.uniform(0.5, 5.0), intercept_mode=mode)
        fits.update(repr(trend).encode())
        sigma = fit_sigma_polynomial(stats, "residual_y", trend.model)
        sigmas.update(repr(sigma).encode())
longwall = embedded_dataset("longwall-face").stats
trend = fit_path_loss(longwall).model
sigma = fit_sigma_polynomial(longwall, trend=trend).sigma
model = ShadowedPathLossModel(trend.d0, trend.rss_d0, trend.eta, sigma)
plans = [
    max_range(model, LinkConstants(-60.0 - 0.2 * k), z)
    for k in range(200) for z in (0.0, 1.96)
]
print(fits.hexdigest(), sigmas.hexdigest(), len(plans))
print(hashlib.sha256(repr(plans).encode()).hexdigest())
"""


def test_trend_fits_and_plans_do_not_depend_on_the_simd_dispatch(fresh_python):
    # numpy's AVX-512 log10 differs from the baseline's in the last place for
    # ~3% of doubles. The trend's regressor, its fitted values and max_range's
    # scan take libm's log10, so 600 trend fits on random surveys, their
    # residual_y sigma fits and 400 plans come out the same bits either way.
    outputs = _outputs(
        fresh_python,
        TREND_DIGESTS,
        {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
        {"NPY_DISABLE_CPU_FEATURES": None},
    )
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]
