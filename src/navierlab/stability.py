"""Smallest eigenvalue of the second-variation form at a branch point.

A solution u at parameter lambda is semi-stable when the quadratic form

    Q(psi) = int (Delta psi)^2 dx - lambda int f'(u) psi^2 dx

is nonnegative over test functions with psi = 0 on the boundary but Delta
psi free there.  Discretely the form is psi^T (K^T W K - lambda W F') psi
with K = -Delta_h, W the r^(N-1) cell-quadrature weights and
F' = diag(f'(u)); since W K is symmetric (flux-form stencil) the form
operator reduces to the plain matrix B = K^2 - lambda F', with the second
boundary condition emerging naturally because the form never samples
Delta psi at the boundary node.

The smallest eigenvalue is computed by shifted inverse power iteration on
the pentadiagonal B, with Rayleigh quotients evaluated in the W inner
product as ||K psi||_W^2 - lambda <f'(u) psi, psi>_W — the factored form
avoids the cancellation that makes a direct K^2 psi product lose half the
significant digits.  A zero shift homes in on the eigenvalue of smallest
magnitude, which deep past the fold is no longer the leftmost; a coarse
banded bisection therefore checks for modes strictly below the candidate
and, when one exists, the shift is re-aimed just left of it (precision
always comes from the factored quotient, never from the bisection).

At the zero solution B = K^2, so the reported value equals (to rounding)
the square of the ground eigenvalue of the discrete Dirichlet Laplacian
built from the same stencil; that identity is the spectral sanity check of
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, solve_banded

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
_NOT_STABILIZED = (
    f"eigenvalue failed to stabilize to {EIG_TOL:g} within {MAX_INVERSE_ITERS} steps"
)


@dataclass
class StabilityReport:
    mu1: float
    eigenfunction: np.ndarray
    iterations: int
    converged: bool


class EigenIterationError(RuntimeError):
    """Inverse iteration failed to stabilize within the step limit."""


def _tridiag_square_bands(K) -> np.ndarray:
    """Band storage (l = u = 2) of the matrix square of a tridiagonal operator."""
    sub, diag, sup = K.sub, K.diag, K.sup
    M = len(diag)
    ab = np.zeros((5, M))
    # offsets +2 .. -2 into rows 0 .. 4 of LAPACK band storage
    ab[0, 2:] = sup[:-2] * sup[1:-1]
    ab[1, 1:] = sup[:-1] * (diag[:-1] + diag[1:])
    ab[2, :] = diag * diag
    ab[2, :-1] += sup[:-1] * sub[1:]
    ab[2, 1:] += sub[1:] * sup[:-1]
    ab[3, :-1] = sub[1:] * (diag[1:] + diag[:-1])
    ab[4, :-2] = sub[1:-1] * sub[2:]
    return ab


def _start_vector(grid: RadialGrid) -> np.ndarray:
    """Positive bump vanishing at r = 1; good ground-state overlap."""
    return np.cos(0.5 * np.pi * grid.r)


def _symmetrized_upper_bands(ab, W):
    """Upper bands of T = W^(1/2) B W^(-1/2), exactly symmetric when W B is,
    plus the one-norm of T (the absolute accuracy scale of banded bisection)."""
    M = ab.shape[1]
    s = np.sqrt(W)
    upper = np.zeros((3, M))
    upper[0, 2:] = ab[0, 2:] * s[:-2] / s[2:]
    upper[1, 1:] = ab[1, 1:] * s[:-1] / s[1:]
    upper[2, :] = ab[2, :]
    colsum = np.abs(upper[2, :]).copy()
    colsum[:-1] += np.abs(upper[1, 1:])
    colsum[1:] += np.abs(upper[1, 1:])
    colsum[:-2] += np.abs(upper[0, 2:])
    colsum[2:] += np.abs(upper[0, 2:])
    return upper, float(np.max(colsum))


def _eigenvalues_below(upper, cutoff):
    """Eigenvalues of the symmetric banded T below ``cutoff`` (bisection);
    accurate only to ~eps * ||T||, which suffices to locate modes."""
    return eig_banded(
        upper, lower=False, select="v", select_range=(-1e308, cutoff), eigvals_only=True
    )


def _inverse_iteration(ab_shifted, apply_B, W, x0):
    """Fixed-shift inverse power iteration with W-Rayleigh quotients.

    Convergence is declared on the W-norm change of the (sign-aligned)
    iterate: a vector change below _VEC_TOL = 1e-8 pins the Rayleigh
    quotient to a relative accuracy of order 1e-16, comfortably beyond
    EIG_TOL, and — unlike a relative test on the eigenvalue itself — stays
    meaningful when the eigenvalue crosses zero at a fold.
    """
    x = x0 / np.sqrt(x0 @ (W * x0))
    mu = None
    for it in range(1, MAX_INVERSE_ITERS + 1):
        y = solve_banded((2, 2), ab_shifted, x, check_finite=False)
        if float(y @ (W * x)) < 0.0:
            y = -y
        y = y / np.sqrt(y @ (W * y))
        dx = float(np.sqrt((y - x) @ (W * (y - x))))
        x = y
        if dx <= _VEC_TOL:
            mu = apply_B(y)
            return float(mu), x, it, True
    mu = apply_B(x)
    return float(mu), x, MAX_INVERSE_ITERS, False


def smallest_stability_eigenvalue(
    family: NonlinearityFamily, point: BranchPoint
) -> StabilityReport:
    """Smallest eigenvalue of K^2 - lambda f'(u) in the weighted inner product.

    The returned eigenfunction is W-normalized and its Rayleigh quotient
    reproduces mu1 to the solver tolerance.  Raises EigenIterationError if
    the quotient has not stabilized after MAX_INVERSE_ITERS solves.
    """
    grid = point.grid
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    lam = point.lam
    fpu = np.asarray(family.fp(point.u), dtype=float) if lam != 0.0 else np.zeros(grid.size)
    ab = _tridiag_square_bands(K)
    ab[2, :] -= lam * fpu
    D = float(np.max(np.abs(K.diag)))

    def apply_B(y):
        # <y, (K^2 - lam f') y>_W via ||Ky||_W^2: K^2 y would cancel badly
        Ky = K.apply(y)
        quad_term = float(Ky @ (W * Ky))
        mass_term = float(y @ (W * fpu * y)) if lam != 0.0 else 0.0
        return quad_term - lam * mass_term

    x0 = _start_vector(grid)

    def iterate_at(sigma):
        ab_shifted = ab.copy()
        for _ in range(3):
            ab_shifted[2, :] = ab[2, :] - sigma
            try:
                return _inverse_iteration(ab_shifted, apply_B, W, x0)
            except np.linalg.LinAlgError:
                # singular factorization exactly at the shift: nudge and retry
                sigma = sigma + 1e-8 * max(1.0, abs(sigma), D * np.finfo(float).eps)
        raise EigenIterationError("factorization singular at the shifted operator")

    mu, vec, iters, ok = iterate_at(0.0)
    total_iters = iters
    # the zero-shift iteration targets the eigenvalue of smallest magnitude,
    # which past the fold need not be the leftmost (and near |mu1| = |mu2| it
    # stalls outright).  A coarse banded bisection locates any mode strictly
    # below the candidate; if one exists, re-aim the shift just left of it.
    upper, t_norm = _symmetrized_upper_bands(ab, W)
    eps_t = np.finfo(float).eps * t_norm
    for _ in range(3):
        margin = max(5.0 * eps_t, 1e-6 * (1.0 + abs(mu)))
        below = _eigenvalues_below(upper, mu - margin)
        if ok and below.size == 0:
            return StabilityReport(
                mu1=float(mu), eigenfunction=vec, iterations=total_iters, converged=True
            )
        target = float(below.min()) if below.size else mu
        sigma = target - max(2.0 * eps_t, 1e-6 * (1.0 + abs(target)))
        mu, vec, iters, ok = iterate_at(sigma)
        total_iters += iters
    raise EigenIterationError(_NOT_STABILIZED)


def dirichlet_laplacian_ground_eigenvalue(grid: RadialGrid) -> float:
    """Ground eigenvalue of -Delta_h with Dirichlet data, same stencil.

    Used as the oracle for the spectral identity: at the zero solution the
    stability eigenvalue equals the square of this value.
    """
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    M = grid.size
    ab = np.zeros((5, M))
    ab[1, 1:] = K.sup[:-1]
    ab[2, :] = K.diag
    ab[3, :-1] = K.sub[1:]

    def apply_B(y):
        return float(y @ (W * K.apply(y)))

    mu, _, iters, ok = _inverse_iteration(ab, apply_B, W, _start_vector(grid))
    if not ok:
        raise EigenIterationError(_NOT_STABILIZED)
    return mu
