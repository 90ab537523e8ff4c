"""Smallest eigenvalue of the second-variation form at a branch point.

A solution u at parameter lambda is semi-stable when the quadratic form

    Q(psi) = int (Delta psi)^2 dx - lambda int f'(u) psi^2 dx

is nonnegative over test functions with psi = 0 on the boundary but Delta
psi free there.  Discretely the form is psi^T (K^T W K - lambda W F') psi
with K = -Delta_h, W the r^(N-1) cell-quadrature weights and
F' = diag(f'(u)); since W K is symmetric (flux-form stencil) the form
operator reduces to the plain matrix B = K^2 - lambda F', with the second
boundary condition emerging naturally because the form never samples
Delta psi at the boundary node.  Its symmetric similarity transform
T = W^(1/2) B W^(-1/2) is pentadiagonal.

Every point takes the same path: a shift sigma is certified just left of
the leftmost eigenvalue mu1, then shifted inverse power iteration runs on
the banded Cholesky factor of T - sigma.  A factorization succeeds exactly
when sigma < mu1 (to about eps ||T||).  The W-Rayleigh quotient of the
start vector, the previous point's eigenfunction along a branch and a
positive bump otherwise, bounds mu1 from above and is the ceiling.  Trial
shifts step left of the ceiling, each step BRACKET_GROWTH times the last,
until a factorization succeeds; bisection then narrows the bracket
between that success and the failure to its right to one margin.  The
factor at the final success does every solve, so a point costs a few O(n)
factorizations and solves.

The Rayleigh quotients are evaluated in the W inner product as
||K psi||_W^2 - lambda <f'(u) psi, psi>_W, and precision always comes from
this factored quotient, never from the shift: a direct K^2 psi product
would lose half the significant digits to cancellation.

At the zero solution B = K^2, so the reported value equals (to rounding)
the square of the ground eigenvalue of the discrete Dirichlet Laplacian
built from the same stencil; that identity is the spectral sanity check of
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .branch import BranchPoint
from .families import NonlinearityFamily
from .radial import minus_laplacian, volume_weights, RadialGrid

__all__ = [
    "StabilityReport",
    "EigenIterationError",
    "smallest_stability_eigenvalue",
    "dirichlet_laplacian_ground_eigenvalue",
]

EIG_TOL = 1e-10
MAX_INVERSE_ITERS = 400
# iterate change that ends inverse iteration; see _inverse_iteration
_VEC_TOL = max(1e-8, np.sqrt(EIG_TOL) * 1e-3)
BRACKET_GROWTH = 4.0  # ratio of successive trial-shift steps


@dataclass
class StabilityReport:
    mu1: float
    eigenfunction: np.ndarray
    iterations: int


class EigenIterationError(RuntimeError):
    """Inverse iteration failed to stabilize within the step limit."""


def _start_vector(grid: RadialGrid) -> np.ndarray:
    """Positive bump vanishing at r = 1; good ground-state overlap."""
    return np.cos(0.5 * np.pi * grid.r)


def _stability_bands(K, s, lam, fpu):
    """Upper bands of T = S (K^2 - lam F') S^(-1), S = diag(s) = W^(1/2), in
    LAPACK storage, exactly symmetric because W K is, plus the one-norm of T
    (the absolute accuracy scale of any factorization or bisection on T)."""
    sub, diag, sup = K.sub, K.diag, K.sup
    M = len(diag)
    upper = np.zeros((3, M))
    upper[0, 2:] = sup[:-2] * sup[1:-1] * s[:-2] / s[2:]
    upper[1, 1:] = sup[:-1] * (diag[:-1] + diag[1:]) * s[:-1] / s[1:]
    upper[2, :] = diag * diag
    upper[2, :-1] += sup[:-1] * sub[1:]
    upper[2, 1:] += sub[1:] * sup[:-1]
    upper[2, :] -= lam * fpu
    colsum = np.abs(upper[2, :])
    colsum[:-1] += np.abs(upper[1, 1:])
    colsum[1:] += np.abs(upper[1, 1:])
    colsum[:-2] += np.abs(upper[0, 2:])
    colsum[2:] += np.abs(upper[0, 2:])
    return upper, float(np.max(colsum))


def _cholesky(upper, sigma):
    """Banded Cholesky factor of T - sigma, or None when it is not positive
    definite."""
    shifted = upper.copy()
    shifted[2, :] -= sigma
    chol, info = dpbtrf(shifted, overwrite_ab=1)
    return chol if info == 0 else None


def _certify_shift(upper, t_norm, ceiling):
    """Banded Cholesky factor of T - sigma at a shift sigma below mu1.

    ``ceiling`` bounds mu1 from above.  The trials step left of it until a
    factorization succeeds, each step BRACKET_GROWTH times the last; below
    -||T||_1 the shifted matrix is diagonally dominant, so a failure there
    raises EigenIterationError.  Bisection then narrows the bracket to one
    margin, which is at least 2 eps ||T||_1 so that every midpoint lies
    strictly inside, and the factor at the last success is returned.
    """
    margin = max(2.0 * np.finfo(float).eps * t_norm, 1e-6 * (1.0 + abs(ceiling)))
    fail, step = ceiling, margin
    sigma = fail - step
    chol = _cholesky(upper, sigma)
    while chol is None:
        if sigma < -t_norm:
            raise EigenIterationError("no positive definite shift found below the "
                                      "leftmost eigenvalue")
        fail, step = sigma, step * BRACKET_GROWTH
        sigma = fail - step
        chol = _cholesky(upper, sigma)
    while fail - sigma > margin:
        mid = 0.5 * (sigma + fail)
        mid_chol = _cholesky(upper, mid)
        if mid_chol is None:
            fail = mid
        else:
            sigma, chol = mid, mid_chol
    return chol


def _inverse_iteration(solve, apply_B, W, x0):
    """Fixed-shift inverse power iteration with W-Rayleigh quotients.

    ``solve(x)`` applies the inverse of the shifted operator.  Returns the
    quotient, the W-normalized iterate and the number of solves.
    Convergence is declared on the W-norm change of the (sign-aligned)
    iterate: a vector change below _VEC_TOL = 1e-8 pins the Rayleigh
    quotient to a relative accuracy of order 1e-16, comfortably beyond
    EIG_TOL, and — unlike a relative test on the eigenvalue itself — stays
    meaningful when the eigenvalue crosses zero at a fold.  Raises
    EigenIterationError after MAX_INVERSE_ITERS solves.
    """
    x = x0 / np.sqrt(x0 @ (W * x0))
    for it in range(1, MAX_INVERSE_ITERS + 1):
        y = solve(x)
        if float(y @ (W * x)) < 0.0:
            y = -y
        y = y / np.sqrt(y @ (W * y))
        dx = float(np.sqrt((y - x) @ (W * (y - x))))
        x = y
        if dx <= _VEC_TOL:
            return float(apply_B(x)), x, it
    raise EigenIterationError(
        f"eigenvalue failed to stabilize to {EIG_TOL:g} within {MAX_INVERSE_ITERS} steps"
    )


def smallest_stability_eigenvalue(
    family: NonlinearityFamily, point: BranchPoint, previous: StabilityReport | None = None
) -> StabilityReport:
    """Smallest eigenvalue of K^2 - lambda f'(u) in the weighted inner product.

    ``previous``, the report of a neighbouring point on the same grid,
    lends its eigenfunction as the start vector, whose Rayleigh quotient is
    the ceiling of the shift certificate.  The returned eigenfunction is
    W-normalized and its Rayleigh quotient reproduces mu1 to the solver
    tolerance.  Raises EigenIterationError if the operator is not finite, no
    shift is certified or the quotient has not stabilized after
    MAX_INVERSE_ITERS solves.
    """
    grid = point.grid
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    lam = point.lam
    fpu = np.asarray(family.fp(point.u), dtype=float) if lam != 0.0 else np.zeros(grid.size)
    s = np.sqrt(W)
    upper, t_norm = _stability_bands(K, s, lam, fpu)
    if not np.isfinite(t_norm):
        raise EigenIterationError("stability operator has non-finite entries")

    def apply_B(y):
        # <y, (K^2 - lam f') y>_W via ||Ky||_W^2: K^2 y would cancel badly
        Ky = K.apply(y)
        return float(Ky @ (W * Ky)) - lam * float(y @ (W * fpu * y))

    x0 = _start_vector(grid) if previous is None else previous.eigenfunction
    if x0.shape != (grid.size,):
        raise ValueError("previous report lives on a different grid")
    chol = _certify_shift(upper, t_norm, apply_B(x0) / float(x0 @ (W * x0)))

    def solve(x):
        # (B - sigma)^(-1) = W^(-1/2) (T - sigma)^(-1) W^(1/2)
        return dpbtrs(chol, s * x)[0] / s

    mu, vec, iters = _inverse_iteration(solve, apply_B, W, x0)
    return StabilityReport(mu1=mu, eigenfunction=vec, iterations=iters)


def dirichlet_laplacian_ground_eigenvalue(grid: RadialGrid) -> float:
    """Ground eigenvalue of -Delta_h with Dirichlet data, same stencil.

    Used as the oracle for the spectral identity: at the zero solution the
    stability eigenvalue equals the square of this value.  Zero-shift
    inverse iteration on a banded LU solve, independent of the Cholesky
    certificate.
    """
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    M = grid.size
    ab = np.zeros((5, M))
    ab[1, 1:] = K.sup[:-1]
    ab[2, :] = K.diag
    ab[3, :-1] = K.sub[1:]

    def solve(x):
        return solve_banded((2, 2), ab, x, check_finite=False)

    def apply_B(y):
        return float(y @ (W * K.apply(y)))

    return _inverse_iteration(solve, apply_B, W, _start_vector(grid))[0]
