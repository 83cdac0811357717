"""Dense linear solves and the least-squares fits built on them.

The calibration fits are deliberately solved through explicit normal
equations: the straight-line RSS trend becomes a 2x2 system and the quartic
sigma polynomial a 5x5 moment system in raw powers of distance (d^8 down to
d^0). The solver is Gaussian elimination with partial pivoting, written out
rather than delegated, so the pivot sequence and failure behaviour are part
of the tested contract. A QR orthogonal factorization handles the rare
ill-conditioned system.

Why this is safe here: the moment matrix of d = 1..20 has a condition
estimate around 2.3e11. That sounds alarming, but the quantity the callers
check is the stationarity of the normal equations (sum of resid * d^k per
power k), and partial pivoting in float64 drives those sums below 1e-8 on the
embedded surveys, comfortably inside the 1e-6 acceptance bound. Iterative
refinement was tried and removed: one refinement step made the stationarity
sums slightly worse (residual rounding dominates at this scale). The QR path
exists for condition estimates beyond 1e12, where elimination through the
normal equations can no longer be trusted; a rescaled fit in d/d_max covers
surveys whose span pushes the moments there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    SingularMatrixError,
)

# Condition estimate above which solve_dense abandons elimination for QR.
CONDITION_FALLBACK = 1e12


def _as_matrix(a: object) -> np.ndarray:
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError(f"matrix must be square 2-D, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DataError("matrix must be non-empty")
    if not np.all(np.isfinite(m)):
        raise DataError("matrix entries must be finite")
    return m


def _as_rhs(b: object, n: int) -> np.ndarray:
    v = np.array(b, dtype=np.float64)
    if v.shape != (n,):
        raise DataError(f"rhs must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError("rhs entries must be finite")
    return v


@dataclass(frozen=True, eq=False)
class DenseSystem:
    """A validated square system A x = b, arrays frozen read-only."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __init__(self, matrix: object, rhs: object) -> None:
        m = _as_matrix(matrix)
        v = _as_rhs(rhs, m.shape[0])
        m.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", v)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver did: pivots, conditioning, and which path ran."""

    pivot_magnitudes: tuple[float, ...]
    condition_estimate: float
    used_orthogonal: bool = False
    scaled: bool = False


def _eliminate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
    """In-place partial-pivot elimination; returns solution and pivot sizes."""
    n = a.shape[0]
    pivots = []
    for k in range(n):
        # np.argmax returns the lowest index among ties, which makes the
        # elimination order deterministic for symmetric inputs.
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise SingularMatrixError(
                f"zero pivot in column {k}: matrix is singular"
            )
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        pivots.append(abs(float(a[k, k])))
        if k + 1 < n:
            factors = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k:] -= factors[:, np.newaxis] * a[k, k:]
            b[k + 1 :] -= factors * b[k]
    return _back_substitute(a, b), tuple(pivots)


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = r.shape[0]
    x = np.empty(n, dtype=np.float64)
    for k in range(n - 1, -1, -1):
        if r[k, k] == 0.0:
            raise SingularMatrixError(
                f"zero diagonal in triangular factor at row {k}"
            )
        x[k] = (y[k] - r[k, k + 1 :] @ x[k + 1 :]) / r[k, k]
    return x


def orthogonal_solve(system: DenseSystem) -> np.ndarray:
    """Solve A x = b through a QR factorization of A.

    More rounding-tolerant than elimination on ill-conditioned systems; used
    by :func:`solve_dense` as the fallback path and callable directly. A
    rank-deficient matrix leaves a diagonal entry of R at roundoff scale
    rather than exactly zero, so singularity is judged against a tolerance
    relative to the largest diagonal entry.
    """
    q, r = np.linalg.qr(system.matrix)
    diag = np.abs(np.diag(r))
    tol = np.finfo(np.float64).eps * system.size * float(diag.max(initial=0.0))
    if np.any(diag <= tol):
        raise SingularMatrixError(
            "matrix is singular to working precision (negligible diagonal "
            "in the triangular factor)"
        )
    return _back_substitute(r, q.T @ system.rhs)


def solve_dense(
    system: DenseSystem, *, cond: float | None = None
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve A x = b, choosing elimination or QR by condition estimate.

    Elimination with partial pivoting is the primary path. When the condition
    estimate exceeds :data:`CONDITION_FALLBACK` the solve is redone through
    QR and the diagnostics say so. An exactly singular matrix raises
    :class:`SingularMatrixError` from either path. ``cond`` is the
    condition estimate of ``system.matrix`` when the caller already has it;
    otherwise it is computed here.
    """
    if cond is None:
        cond = float(np.linalg.cond(system.matrix))
    if not np.isfinite(cond) or cond > CONDITION_FALLBACK:
        x = orthogonal_solve(system)
        return x, SolveDiagnostics(
            pivot_magnitudes=(),
            condition_estimate=cond,
            used_orthogonal=True,
        )
    x, pivots = _eliminate(system.matrix.copy(), system.rhs.copy())
    return x, SolveDiagnostics(
        pivot_magnitudes=pivots,
        condition_estimate=cond,
        used_orthogonal=False,
    )


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
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DataError(
            f"x and y must be equal-length 1-D, got {xv.shape} and {yv.shape}"
        )
    n = xv.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 points for a line, got {n}")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise DataError("x and y must be finite")
    if np.all(xv == xv[0]):
        raise DegenerateDataError(
            "all x values are identical; slope is undefined"
        )
    sx = float(np.sum(xv))
    sxx = float(np.sum(xv * xv))
    sy = float(np.sum(yv))
    sxy = float(np.sum(xv * yv))
    system = DenseSystem([[sxx, sx], [sx, float(n)]], [sxy, sy])
    coeffs, diag = solve_dense(system)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    fitted = slope * xv + intercept
    sse = float(np.sum((yv - fitted) ** 2))
    sst = float(np.sum((yv - np.mean(yv)) ** 2))
    r2 = 0.0 if sst == 0.0 else 1.0 - sse / sst
    return LineFit(slope=slope, intercept=intercept, r2=r2, diagnostics=diag)


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares polynomial coefficients, highest power first."""

    coefficients: tuple[float, ...]
    diagnostics: SolveDiagnostics = field(repr=False)


def _moment_system(d: np.ndarray, y: np.ndarray, degree: int) -> DenseSystem:
    """Normal equations for a degree-``degree`` polynomial in raw powers.

    Matrix entry (i, j) is sum(d^(2*degree - i - j)); rhs entry i is
    sum(y * d^(degree - i)). For the quartic that means moments d^8 .. d^0.
    """
    powers = d[:, np.newaxis] ** np.arange(degree, -1, -1)
    matrix = powers.T @ powers
    rhs = powers.T @ y
    return DenseSystem(matrix, rhs)


def _fit_moments(
    d: np.ndarray, y: np.ndarray, degree: int
) -> tuple[tuple[float, ...], SolveDiagnostics]:
    system = _moment_system(d, y, degree)
    cond = float(np.linalg.cond(system.matrix))
    if np.isfinite(cond) and cond <= CONDITION_FALLBACK:
        coeffs, diag = solve_dense(system, cond=cond)
        return tuple(float(c) for c in coeffs), diag
    # Raw moments are numerically hopeless here. Refit in s = d/d_max, where
    # all powers stay within [0, 1], then undo the scaling per coefficient:
    # y = sum a_k d^k = sum (a_k d_max^k) s^k.
    d_max = float(np.max(np.abs(d)))
    scaled_system = _moment_system(d / d_max, y, degree)
    scaled_coeffs, diag = solve_dense(scaled_system)
    unscale = d_max ** np.arange(degree, -1, -1, dtype=np.float64)
    coeffs = tuple(float(c) for c in scaled_coeffs / unscale)
    return coeffs, replace(diag, condition_estimate=cond, scaled=True)


def polyfit_quartic(d: object, y: object) -> PolynomialFit:
    """Fit y = a*d^4 + b*d^3 + c*d^2 + e*d + f by least squares.

    Solved through the explicit 5x5 moment system. Requires at least 6
    distinct d values: 5 would interpolate exactly and leave no residual
    degrees of freedom.
    """
    dv = np.asarray(d, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if dv.shape != yv.shape or dv.ndim != 1:
        raise DataError(
            f"d and y must be equal-length 1-D, got {dv.shape} and {yv.shape}"
        )
    if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(yv))):
        raise DataError("d and y must be finite")
    n_distinct = np.unique(dv).size
    if n_distinct < 6:
        raise InsufficientDataError(
            f"quartic fit needs at least 6 distinct distances, got {n_distinct}"
        )
    coeffs, diag = _fit_moments(dv, yv, degree=4)
    return PolynomialFit(coefficients=coeffs, diagnostics=diag)


def polyval(coefficients: tuple[float, ...], d: object) -> np.ndarray:
    """Evaluate a polynomial (highest power first) at d, via Horner."""
    dv = np.asarray(d, dtype=np.float64)
    result = np.zeros_like(dv)
    for c in coefficients:
        result = result * dv + c
    return result
