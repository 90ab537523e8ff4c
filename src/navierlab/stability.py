"""Smallest eigenvalue of the second-variation form at a branch point.

A solution u at parameter lambda is semi-stable when the quadratic form

    Q(psi) = int (Delta psi)^2 dx - lambda int f'(u) psi^2 dx

is nonnegative over test functions with psi = 0 on the boundary but Delta
psi free there.  Discretely the form is psi^T (K^T W K - lambda W F') psi
with K = -Delta_h, W the r^(N-1) cell-quadrature weights and
F' = diag(f'(u)); since W K is symmetric (flux-form stencil) the form
operator reduces to the plain matrix B = K^2 - lambda F', with the second
boundary condition emerging naturally because the form never samples
Delta psi at the boundary node.  B is also the branch Newton Jacobian, and
both start from the one shared ``K.square_bands``.  The symmetric
similarity transform T = W^(1/2) B W^(-1/2) is pentadiagonal.

Every point takes the same path: a shift sigma is certified within one
margin below the leftmost eigenvalue mu1, then shifted inverse power
iteration runs on the banded Cholesky factor of T - sigma (LAPACK
``dpbtrf``/``dpbtrs`` from ``navierlab._lapack``).  A factorization
succeeds exactly when sigma < mu1 (to about eps ||T||).  The search starts
from a vector x: the previous point's eigenfunction along a branch, the
ground mode of K^2 otherwise (the hinged plate's response K^-2 1 to a
uniform load, iterated under K^-2 until its quotient settles).  Its
W-Rayleigh quotient rho bounds mu1 from above, and some eigenvalue lies
within its residual ||B x - rho x||_W of rho (Krylov-Weinstein), so the
first trial, rho less that residual, succeeds whenever x is nearest the
ground mode.  One inverse step with that factor gives another quotient
rho1 >= mu1, and a success one margin below rho1 closes the bracket.  Only
after a failed trial do the shifts step left, each step BRACKET_GROWTH
times the last, and bisect.  The factor at the final success does every
later solve, so most points cost two O(n) factorizations and a few solves.

The Rayleigh quotients are evaluated in the W inner product as
||K psi||_W^2 - lambda <f'(u) psi, psi>_W, and precision always comes from
this factored quotient, never from the shift: a direct K^2 psi product
would lose half the significant digits to cancellation.

At the zero solution B = K^2, so the reported value equals (to rounding)
the square of the ground eigenvalue of K; the test suite checks that
identity against a symmetric tridiagonal eigensolver that shares no code
with the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .errors import EigenIterationError
from .families import NonlinearityFamily
from .radial import minus_laplacian, solve_navier_biharmonic, volume_weights, RadialGrid

if TYPE_CHECKING:
    from .branch import BranchPoint

__all__ = [
    "StabilityReport",
    "EigenIterationError",
    "smallest_stability_eigenvalue",
]

EIG_TOL = 1e-10
MAX_INVERSE_ITERS = 400
# iterate change that ends inverse iteration; see _inverse_iteration
_VEC_TOL = max(1e-8, np.sqrt(EIG_TOL) * 1e-3)
BRACKET_GROWTH = 4.0  # ratio of successive trial-shift steps
_EPS_MARGIN = 2.0 * np.finfo(float).eps  # rounding margin of factoring T, per ||T||_1
_REL_MARGIN = 1e-6  # the certificate's margin, per 1 + |quotient|


@dataclass
class StabilityReport:
    mu1: float
    eigenfunction: np.ndarray
    iterations: int


def _start_vector(grid: RadialGrid) -> np.ndarray:
    """The ground mode of K^2, W-normalized: the hinged plate's response
    K^-2 1 to a uniform load, iterated under K^-2 until its W-Rayleigh
    quotient changes by at most the certificate's relative margin.  Each
    plate solve damps the other modes by (nu1 / nu2)^2 or more, nu1 < nu2
    the two lowest eigenvalues of K, so four to seven settle it (N = 3 to
    14).  From K^-2 1 itself, the cut below the first inverse step's
    quotient failed at a chain's first point, and bisection took 19-20
    trials."""
    W = volume_weights(grid)
    x = solve_navier_biharmonic(grid, np.ones(grid.size))[0]
    x = x / np.sqrt(x @ (W * x))
    rho = np.inf
    for _ in range(MAX_INVERSE_ITERS):
        y = solve_navier_biharmonic(grid, x)[0]
        yy = float(y @ (W * y))
        # the quotient of y: <K^2 y, y>_W = <x, y>_W, as K^2 y = x
        last, rho = rho, float(x @ (W * y)) / yy
        x = y / np.sqrt(yy)
        if abs(last - rho) <= _REL_MARGIN * (1.0 + rho):
            break
    return x


def _stability_bands(K, s, lam, fpu):
    """Upper bands of T = S (K^2 - lam F') S^(-1), S = diag(s) = W^(1/2), in
    LAPACK storage, exactly symmetric because W K is, plus the one-norm of T
    (the absolute accuracy scale of any factorization or bisection on T)."""
    upper = K.square_bands[:3].copy()
    upper[0, 2:] = upper[0, 2:] * s[:-2] / s[2:]
    upper[1, 1:] = upper[1, 1:] * s[:-1] / s[1:]
    upper[2, :] -= lam * fpu
    colsum = np.abs(upper[2, :])
    colsum[:-1] += np.abs(upper[1, 1:])
    colsum[1:] += np.abs(upper[1, 1:])
    colsum[:-2] += np.abs(upper[0, 2:])
    colsum[2:] += np.abs(upper[0, 2:])
    return upper, float(np.max(colsum))


def _cholesky(upper, sigma):
    """Banded Cholesky factor of T - sigma, or None if it is not positive definite."""
    shifted = upper.copy()
    shifted[2, :] -= sigma
    chol, info = dpbtrf(shifted, overwrite_ab=1)
    return chol if info == 0 else None


def _semi_stable(K, grid, lam, fpu) -> bool:
    """Whether T has a banded Cholesky factor at the shift -_EPS_MARGIN ||T||_1."""
    upper, t_norm = _stability_bands(K, np.sqrt(volume_weights(grid)), lam, fpu)
    return bool(np.isfinite(t_norm)) and _cholesky(upper, -_EPS_MARGIN * t_norm) is not None


def _certify_shift(upper, t_norm, ceiling, residual, inverse_step):
    """Banded Cholesky factor of T - sigma at a shift sigma within one margin below mu1.

    ``ceiling`` is the W-Rayleigh quotient of the start vector and
    ``residual`` the W-norm of its residual, so some eigenvalue lies within
    ``residual`` of the ceiling (Krylov-Weinstein).  The first trial steps
    left of the ceiling by the residual, or by 1e-6 (1 + |ceiling|) if that
    is larger, so it succeeds whenever that eigenvalue is mu1.  Each step
    after a failure is BRACKET_GROWTH times the last; below -||T||_1 the
    shifted matrix is diagonally dominant, so a failure there raises
    EigenIterationError.

    ``inverse_step(chol)`` takes one inverse step with the first successful
    factor and returns the Rayleigh quotient of its result, another upper
    bound of mu1.  The next trial sits one margin below the lower of that
    quotient and the last failure, so its success closes the bracket;
    otherwise bisection narrows it to one margin, and the factor at the last
    success is returned.  The margin is at least 2 eps ||T||_1, so that every
    trial lies strictly inside the bracket; its relative term takes the
    smaller of the ceiling and the last failure, as a poor start vector's
    quotient can lie far above mu1.
    """
    eps_margin = _EPS_MARGIN * t_norm
    fail, step = ceiling, max(eps_margin, _REL_MARGIN * (1.0 + abs(ceiling)), residual)
    sigma = fail - step
    chol = _cholesky(upper, sigma)
    while chol is None:
        if sigma < -t_norm:
            raise EigenIterationError("no positive definite shift found below the "
                                      "leftmost eigenvalue")
        fail, step = sigma, step * BRACKET_GROWTH
        sigma = fail - step
        chol = _cholesky(upper, sigma)
    margin = max(eps_margin, _REL_MARGIN * (1.0 + min(abs(ceiling), abs(fail))))
    fail = min(fail, inverse_step(chol))
    if fail - sigma > margin:
        cut = _cholesky(upper, fail - margin)
        if cut is not None:
            return cut
        fail -= margin
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
    lends its eigenfunction as the start vector, whose Rayleigh quotient and
    residual place the first trial shift.  The report's ``iterations``
    counts every solve, the inverse step before the final factor included.
    The returned eigenfunction is W-normalized and its Rayleigh quotient
    reproduces mu1 to the solver tolerance.  Raises EigenIterationError if
    the operator is not finite, no shift is certified or the quotient has
    not stabilized after MAX_INVERSE_ITERS solves.
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
    x = x0 / np.sqrt(x0 @ (W * x0))
    ceiling = apply_B(x)
    r = K.apply(K.apply(x)) - (lam * fpu + ceiling) * x  # B x - ceiling x
    residual = float(np.sqrt(r @ (W * r)))

    def solver(chol):
        # (B - sigma)^(-1) = W^(-1/2) (T - sigma)^(-1) W^(1/2)
        return lambda y: dpbtrs(chol, s * y)[0] / s

    def inverse_step(chol):
        nonlocal x
        y = solver(chol)(x)
        x = y / np.sqrt(y @ (W * y))
        return apply_B(x)

    chol = _certify_shift(upper, t_norm, ceiling, residual, inverse_step)
    mu, vec, iters = _inverse_iteration(solver(chol), apply_B, W, x)
    return StabilityReport(mu1=mu, eigenfunction=vec, iterations=iters + 1)
