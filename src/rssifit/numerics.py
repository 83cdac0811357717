"""Dense linear solves and the least-squares fits built on them.

The calibration fits are deliberately solved through explicit normal
equations: the RSS trend a 2x2 system (1x1 anchored), the quartic sigma
polynomial a 5x5 moment system in raw powers of distance (d^8 down to d^0).
One power-sum builder makes all three and the quartic's stationarity sums.
The solver is Gaussian elimination with partial pivoting, written out rather
than delegated, so the pivot sequence and failure behaviour are part of the
tested contract. A QR orthogonal factorization takes the rare
ill-conditioned system, and refuses one singular to working precision.

The elimination and the power sums run in plain float64 operations in one
documented order: elimination and back substitution in Python floats (the
first row with the largest |a[i][k]| pivots; each back-substitution sum runs
left to right), d^k as np.vander's repeated products, not np.power, and every
sum over the rows in row order; kappa_1, the condition estimate, is solved
from the same factors. None of it calls BLAS, which changes with the CPU, and
only the QR fallback calls LAPACK: the solves, the estimates and the
stationarity sums give the same bits whatever BLAS build numpy runs on.

Why this is safe here: the moment matrix of d = 1..20 has a condition
estimate around 3.1e11. That sounds alarming, but the quantity the callers
check is the stationarity of the normal equations (sum of resid * d^k per
power k), and partial pivoting in float64 drives those sums to 1.4e-8 or less
on the embedded surveys, comfortably inside the 1e-6 acceptance bound. Iterative
refinement was tried and removed: one refinement step made the stationarity
sums slightly worse (residual rounding dominates at this scale). Beyond a
condition estimate of 1e12 the solve goes through QR, which buys no accuracy
here (against each system's exact rational solution, elimination errs no more
on the trend, and from 1e15 QR refuses many systems that elimination answers)
but refuses a system singular to working precision. A rescaled fit in d/d_max
covers surveys whose span pushes the moments there. A moment matrix, its
condition estimate (which the QR fallback and the refit both read) and its
factors are computed once per distance set, in a cache of the 16 sets last
used, each keyed by the bytes of its distances; a fit sums and solves only
its right-hand side. Sets above CACHE_MAX_DISTANCES skip the cache and its
key, so no large key is kept or copied, and get the same bits afresh. A span
float64 cannot carry (raw moments that overflow, or d_max^k that underflows
when the refit is undone) is refused by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    SingularMatrixError,
)

# Condition estimate above which solve_dense abandons elimination for QR.
CONDITION_FALLBACK = 1e12

# The most distances a set may have for the caches to key on its bytes.
CACHE_MAX_DISTANCES = 4096


class _Factored:
    """A validated read-only matrix and what it alone fixes, each computed on
    first use: its partial-pivot factors and the condition estimate solved
    from them."""

    def __init__(self, matrix: object) -> None:
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError(f"matrix must be square 2-D, got shape {m.shape}")
        if m.shape[0] == 0:
            raise DataError("matrix must be non-empty")
        if not np.isfinite(m).all():
            raise DataError("matrix entries must be finite")
        m.flags.writeable = False
        self.matrix = m

    @cached_property
    def condition_estimate(self) -> float:
        """kappa_1 = |A|_1 * |A^-1|_1, A^-1 solved a column at a time from the
        factors and each column's |entries| summed by fsum (correctly rounded);
        inf if the factors find A singular or a sum overflows or is nan."""
        eye = np.eye(len(self.matrix)).tolist()
        # fsum raises OverflowError where finite terms sum past the float range.
        try:
            factors = self.factors
            inverse = [math.fsum(map(abs, _solve(factors, e))) for e in eye]
            norm = max(math.fsum(map(abs, c)) for c in self.matrix.T.tolist())
        except (SingularMatrixError, OverflowError):
            return math.inf
        if not all(map(math.isfinite, inverse)):
            return math.inf
        return norm * max(inverse)

    @cached_property
    def factors(self) -> tuple[tuple, tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """Partial-pivot elimination in Python floats: per column the row swapped
        in and the multipliers below it, the upper triangle, the pivot sizes."""
        a = self.matrix.tolist()
        n = len(a)
        steps, pivots = [], []
        for k in range(n):
            # max() keeps the first row among ties, which makes the elimination
            # order deterministic for symmetric inputs.
            p = max(range(k, n), key=lambda i: abs(a[i][k]))
            row = a[p]
            pivot = row[k]
            if pivot == 0.0:
                raise SingularMatrixError(
                    f"zero pivot in column {k}: matrix is singular"
                )
            a[k], a[p] = row, a[k]
            pivots.append(abs(pivot))
            # Column k below the pivot is never read again, so it is not zeroed.
            column = [target[k] / pivot for target in a[k + 1:]]
            for target, factor in zip(a[k + 1:], column):
                for j in range(k + 1, n):
                    target[j] -= factor * row[j]
            steps.append((p, tuple(column)))
        # Tuples: one cached matrix hands its factors to every solve.
        return tuple(steps), tuple(map(tuple, a)), tuple(pivots)


@dataclass(frozen=True, eq=False)
class DenseSystem:
    """A validated square system A x = b, arrays frozen read-only."""

    matrix: np.ndarray
    rhs: np.ndarray
    _half: _Factored = field(repr=False)

    def __init__(self, matrix: object, rhs: object) -> None:
        half = matrix if isinstance(matrix, _Factored) else _Factored(matrix)
        n, v = len(half.matrix), np.array(rhs, dtype=np.float64)
        if v.shape != (n,):
            raise DataError(f"rhs must have shape ({n},), got {v.shape}")
        if not np.isfinite(v).all():
            raise DataError("rhs entries must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "matrix", half.matrix)
        object.__setattr__(self, "rhs", v)
        object.__setattr__(self, "_half", half)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def condition_estimate(self) -> float:
        """1-norm condition number of ``matrix``, computed once per matrix half.

        ``inf`` for a singular matrix. Solved from the elimination's factors in
        plain floats, so it has the same bits on every machine. It only
        decides the QR fallback and the quartic's refit against
        :data:`CONDITION_FALLBACK`.
        """
        return self._half.condition_estimate


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver did: pivots, conditioning, and which path ran."""

    pivot_magnitudes: tuple[float, ...]
    condition_estimate: float
    used_orthogonal: bool = False
    scaled: bool = False


def _back_substitute(r: list[list[float]], y: list[float]) -> list[float]:
    """Solve the upper triangle of ``r``; each row's sum runs left to right."""
    n = len(r)
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = r[k]
        total = 0.0
        for j in range(k + 1, n):
            total += row[j] * x[j]
        x[k] = (y[k] - total) / row[k]
    return x


def _solve(factors: tuple, b: list[float]) -> list[float]:
    """x of A x = b from A's factors: the list ``b`` takes the elimination's swaps
    and updates in place and in order, then the upper triangle is solved."""
    steps, upper, _ = factors
    for k, (p, column) in enumerate(steps):
        b[k], b[p] = b[p], b[k]
        for i, factor in enumerate(column, k + 1):
            b[i] -= factor * b[k]
    return _back_substitute(upper, b)


def orthogonal_solve(system: DenseSystem) -> np.ndarray:
    """Solve A x = b through a QR factorization of A.

    The fallback path of :func:`solve_dense`, and callable directly. No more
    accurate than elimination on the fits' moment systems, it refuses one
    singular to working precision: a rank-deficient matrix leaves a diagonal
    entry of R at roundoff scale rather than exactly zero, so singularity is
    judged against a tolerance relative to the largest diagonal entry.
    """
    q, r = np.linalg.qr(system.matrix)
    diag = np.abs(np.diag(r))
    tol = np.finfo(np.float64).eps * system.size * float(diag.max(initial=0.0))
    if np.any(diag <= tol):
        raise SingularMatrixError(
            "matrix is singular to working precision (negligible diagonal "
            "in the triangular factor)"
        )
    return np.array(_back_substitute(r.tolist(), (q.T @ system.rhs).tolist()))


def solve_dense(system: DenseSystem) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve A x = b, choosing elimination or QR by condition estimate.

    Elimination with partial pivoting is the primary path. When the system's
    :attr:`~DenseSystem.condition_estimate` exceeds
    :data:`CONDITION_FALLBACK` (or is not finite) the solve is redone through
    QR and the diagnostics say so. An exactly singular matrix raises
    :class:`SingularMatrixError` from either path.
    """
    cond = system.condition_estimate
    if not cond <= CONDITION_FALLBACK:
        x = orthogonal_solve(system)
        return x, SolveDiagnostics((), cond, used_orthogonal=True)
    factors = system._half.factors
    x = _solve(factors, system.rhs.tolist())
    return np.array(x), SolveDiagnostics(factors[2], cond)


def _pair(a: object, b: object, names: str) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as float64 arrays, refused unless equal-length 1-D."""
    av, bv = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise DataError(
            f"{names} must be equal-length 1-D, got {av.shape} and {bv.shape}"
        )
    return av, bv


def _squares(observed: np.ndarray, fitted: np.ndarray) -> tuple[float, float]:
    """(r^2, SSE), r^2 being 0 for a constant; refuses what it cannot sum."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        sse = float(((observed - fitted) ** 2).sum())
        sst = float(((observed - observed.mean()) ** 2).sum())
    if not (math.isfinite(sse) and math.isfinite(sst)):
        for name, values in (("observed", observed), ("fitted", fitted)):
            if not np.isfinite(values).all():
                raise DataError(f"{name} must be finite")
        raise DataError(
            "observed and fitted are too large: a sum of squares overflows"
        )
    return (0.0 if sst == 0.0 else 1.0 - sse / sst), sse


def _out_of_range(d: np.ndarray, reason: str) -> DataError:
    span = f"distances {d.min():g} to {d.max():g} are out of range"
    return DataError(f"{span} for a polynomial fit in float64: {reason}")


def _power_sums(d: np.ndarray, top: int, y: np.ndarray | None = None) -> list[float]:
    """sum(y * d^k) for k = 0..top (top >= 1), or sum(d^k) without y.

    d^k is a repeated product (d, d*d, ...) and each sum runs over the rows
    in row order. A sum that overflows is left inf or nan for the caller.
    """
    # np.vander's column k is d^k, multiply.accumulate's product chain along
    # each row; a sum over axis 0 of two or more columns adds whole rows one
    # after another (numpy sums one contiguous column pairwise).
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.vander(d, top + 1, increasing=True)
        if y is not None:
            powers *= y[:, np.newaxis]
        return powers.sum(axis=0).tolist()


_QUARTIC = (4, 3, 2, 1, 0)  # the quartic's powers of d, highest first


def _cached(fn, d: np.ndarray, *args):
    """``fn(d, *args)``: through ``fn``'s lru_cache, keyed by d's bytes, for a
    set of at most CACHE_MAX_DISTANCES distances, else undecorated on the
    array itself: the same bits, and no large key kept or copy made."""
    if d.size <= CACHE_MAX_DISTANCES:
        return fn(d.tobytes(), *args)
    return fn.__wrapped__(np.ascontiguousarray(d), *args)


@lru_cache(maxsize=16)
def _moment_matrix(d_buffer, powers: tuple[int, ...]) -> _Factored | None:
    """_moment_system's matrix half, or None (refused there) if its moments
    overflow; ``d_buffer`` holds float64 distances, bytes or array (_cached)."""
    d, top = np.frombuffer(d_buffer), powers[0]
    moments = _power_sums(d, 2 * top)
    # No entry exceeds n + sum(d^(2*top)) in size, so a finite corner means
    # a finite matrix.
    if math.isfinite(moments[2 * top]):
        return _Factored([[moments[p + q] for q in powers] for p in powers])
    return None


def _moment_system(
    d: np.ndarray, y: np.ndarray, powers: tuple[int, ...], names: str
) -> DenseSystem:
    """Normal equations of y = sum(c_i * d^p_i) for ``powers``, highest first.

    Matrix entry (i, j) is sum(d^(p_i + p_j)), rhs entry i sum(y * d^p_i). A
    sum that overflows is refused naming ``names``, or above a line the span.
    """
    half = _cached(_moment_matrix, d, powers)
    if half is None and powers[0] > 1:
        raise _out_of_range(d, f"the moment sums of d^{2 * powers[0]} overflow")
    weighted = _power_sums(d, powers[0], y)
    rhs = [weighted[p] for p in powers]
    if half is None or not all(map(math.isfinite, rhs)):
        raise DataError(f"{names} are too large: a normal-equation sum overflows")
    return DenseSystem(half, rhs)


@dataclass(frozen=True)
class LineFit:
    """Straight-line least squares y = slope * x + intercept."""

    slope: float
    intercept: float
    r2: float
    diagnostics: SolveDiagnostics = field(repr=False)


def ols_line(x: object, y: object) -> LineFit:
    """Ordinary least squares line through (x, y), via 2x2 normal equations.

    r^2 is defined as 0 when the observations have zero variance (a constant
    y is explained perfectly by its mean, and the usual ratio is 0/0).
    """
    xv, yv = _pair(x, y, "x and y")
    n = xv.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 points for a line, got {n}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DataError("x and y must be finite")
    if (xv == xv[0]).all():
        raise DegenerateDataError("all x values are identical; slope is undefined")
    coeffs, diag = solve_dense(_moment_system(xv, yv, (1, 0), "x and y"))
    slope, intercept = coeffs.tolist()
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise DataError("x and y are too large: the solved line overflows")
    r2, _ = _squares(yv, slope * xv + intercept)
    return LineFit(slope=slope, intercept=intercept, r2=r2, diagnostics=diag)


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares polynomial coefficients, highest power first."""

    coefficients: tuple[float, ...]
    diagnostics: SolveDiagnostics = field(repr=False)


def _fit_moments(
    d: np.ndarray, y: np.ndarray
) -> tuple[tuple[float, ...], SolveDiagnostics]:
    system = _moment_system(d, y, _QUARTIC, "d and y")
    if system.condition_estimate <= CONDITION_FALLBACK:
        coeffs, diag = solve_dense(system)
        return tuple(coeffs.tolist()), diag
    # Raw moments are numerically hopeless here. Refit in s = d/d_max, where
    # all powers stay within [0, 1], then undo the scaling per coefficient:
    # y = sum a_k d^k = sum (a_k d_max^k) s^k.
    d_max = float(np.max(np.abs(d)))
    scaled = _moment_system(d / d_max, y, _QUARTIC, "d and y")
    scaled_coeffs, diag = solve_dense(scaled)
    # d_max^k as repeated products, as the moments take them. Near 0, d_max^k
    # underflows and a quotient overflows: refused below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coeffs = scaled_coeffs / np.vander([d_max], 5)[0]
    if not np.isfinite(coeffs).all():
        raise _out_of_range(d, "undoing the d/d_max scaling overflows")
    diag = replace(diag, condition_estimate=system.condition_estimate, scaled=True)
    return tuple(coeffs.tolist()), diag


def polyfit_quartic(d: object, y: object) -> PolynomialFit:
    """Fit y = a*d^4 + b*d^3 + c*d^2 + e*d + f by least squares.

    Solved through the explicit 5x5 moment system. Requires at least 6
    distinct d values: 5 would interpolate exactly and leave no residual
    degrees of freedom.
    """
    dv, yv = _pair(d, y, "d and y")
    if not (np.isfinite(dv).all() and np.isfinite(yv).all()):
        raise DataError("d and y must be finite")
    # Only a refusal counts all of dv (finite, so no nan is counted apart).
    if len(set(dv[:64].tolist())) < 6 and (n_distinct := len(set(dv.tolist()))) < 6:
        raise InsufficientDataError(
            f"quartic fit needs at least 6 distinct distances, got {n_distinct}"
        )
    coeffs, diag = _fit_moments(dv, yv)
    return PolynomialFit(coefficients=coeffs, diagnostics=diag)


def polyval(coefficients: tuple[float, ...], d: object) -> np.ndarray:
    """Evaluate a polynomial (highest power first) at d, via Horner."""
    dv = np.asarray(d, dtype=np.float64)
    result = np.zeros_like(dv)
    for c in coefficients:
        result = result * dv + c
    return result
