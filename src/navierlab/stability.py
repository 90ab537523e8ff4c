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

Every point is solved the same way: a shift sigma is certified just left
of the leftmost eigenvalue mu1, then shifted inverse power iteration runs
on the banded Cholesky factor of T - sigma.  A factorization succeeds
exactly when sigma < mu1 (to about eps ||T||), so the certificate is a
bracket of two adjacent trial shifts, a success at sigma and a failure one
step to its right: sigma lies below mu1 and within one step of it.  Along
a branch the previous point's mu1 aims the trial shifts, lowered to the
current Rayleigh quotient of the previous eigenfunction when that is
smaller (every quotient bounds mu1 from above).  The trials step away from
the aim geometrically until the bracket closes, and the previous
eigenfunction starts the iteration, so a point costs a few O(n)
factorizations and solves.  The banded bisection ``eig_banded`` aims the
shift only for a point with no predecessor, or when no bracket is found
within MAX_BRACKET_FACTORIZATIONS.  The factor that certified the shift
is the one every solve uses.

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
from scipy.linalg import eig_banded, solve_banded
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
# trial factorizations before an aimed bracket gives way to the bisection
MAX_BRACKET_FACTORIZATIONS = 10
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


def _bracket(upper, aim, margin):
    """Certify a shift near ``aim`` by trial factorizations of T - sigma.

    The first trial sits ``margin`` left of the aim; the trials then step
    left while the factorization fails and right while it succeeds, each
    step BRACKET_GROWTH times the last, and stop at a success with a
    failure one step to its right.  Returns the factor at that shift, or
    None after MAX_BRACKET_FACTORIZATIONS trials.
    """
    sigma, step = aim - margin, margin
    chol = _cholesky(upper, sigma)
    rightward = chol is not None
    for _ in range(MAX_BRACKET_FACTORIZATIONS - 1):
        trial = sigma + step if rightward else sigma - step
        trial_chol = _cholesky(upper, trial)
        if rightward and trial_chol is None:
            return chol
        if not rightward and trial_chol is not None:
            return trial_chol
        sigma, chol = trial, trial_chol
        step *= BRACKET_GROWTH
    return None


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
    aims the shift certificate and starts the iteration.  The returned
    eigenfunction is W-normalized and its Rayleigh quotient reproduces mu1
    to the solver tolerance.  Raises EigenIterationError if no shift is
    certified or the quotient has not stabilized after MAX_INVERSE_ITERS
    solves.
    """
    grid = point.grid
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    lam = point.lam
    fpu = np.asarray(family.fp(point.u), dtype=float) if lam != 0.0 else np.zeros(grid.size)
    s = np.sqrt(W)
    upper, t_norm = _stability_bands(K, s, lam, fpu)

    def margin(aim):
        # a factorization decides sigma < mu1 only to about eps * ||T||
        return max(2.0 * np.finfo(float).eps * t_norm, 1e-6 * (1.0 + abs(aim)))

    def apply_B(y):
        # <y, (K^2 - lam f') y>_W via ||Ky||_W^2: K^2 y would cancel badly
        Ky = K.apply(y)
        return float(Ky @ (W * Ky)) - lam * float(y @ (W * fpu * y))

    chol = None
    x0 = _start_vector(grid)
    if previous is not None:
        x0 = previous.eigenfunction
        if x0.shape != (grid.size,):
            raise ValueError("previous report lives on a different grid")
        # every Rayleigh quotient bounds mu1 from above, so the quotient of
        # the previous eigenfunction lowers an aim that is provably too high
        aim = min(previous.mu1, apply_B(x0) / float(x0 @ (W * x0)))
        chol = _bracket(upper, aim, margin(aim))
    if chol is None:
        target = float(eig_banded(upper, lower=False, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])
        chol = _bracket(upper, target, margin(target))
        if chol is None:
            raise EigenIterationError("no positive definite shift found below the "
                                      "leftmost eigenvalue")

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
    certificate and of the bisection.
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
