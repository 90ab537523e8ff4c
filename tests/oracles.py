"""Closed forms the test suite checks the lab against.

No command computes these, so they live with the tests:
- the coefficients of Delta and Delta^2 applied to r^s and to a log r, the
  symbolic oracle for two applications of ``minus_laplacian``;
- the ground eigenvalue of -Delta_h from a symmetric tridiagonal
  eigensolver, the spectral oracle for the stability certificate;
- the paper's general regularity theorem, in exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from navierlab import bootstrap as bs
from navierlab.radial import RadialGrid, minus_laplacian

# rule tags of the general theorem: each names the predicate that fired
RULE_GAMMA = "growth-ratio:N<8/gamma"
RULE_LIMINF = "curvature-liminf:N<=7"
RULE_LOWDIM = "low-dimension:N<=5"


def radial_power_laplacian(s: float, N: int) -> float:
    """Coefficient c with Delta r^s = c r^(s-2):  c = s(s+N-2)."""
    return s * (s + N - 2.0)


def radial_power_bilaplacian(s: float, N: int) -> float:
    """Coefficient c with Delta^2 r^s = c r^(s-4).

    Two applications of Delta r^s = s(s+N-2) r^(s-2) give
    c = s (s+N-2) (s-2) (s+N-4).
    """
    return s * (s + N - 2.0) * (s - 2.0) * (s + N - 4.0)


def log_laplacian_coefficient(a: float, N: int) -> float:
    """Coefficient c with Delta (a log r) = c r^(-2):  c = a(N-2)."""
    return a * (N - 2.0)


def log_bilaplacian_coefficient(a: float, N: int) -> float:
    """Coefficient c with Delta^2 (a log r) = c r^(-4).

    Delta(a log r) = a(N-2) r^(-2) and Delta r^(-2) = -2(N-4) r^(-4), hence
    c = -2 a (N-2)(N-4).
    """
    return -2.0 * a * (N - 2.0) * (N - 4.0)


def laplacian_ground_eigenvalue(grid: RadialGrid) -> float:
    """Smallest eigenvalue of K = -Delta_h by LAPACK's symmetric tridiagonal
    solver.  K is similar to the symmetric matrix with its diagonal and the
    off-diagonal sqrt(K[i, i+1] K[i+1, i]), as the products are positive."""
    K = minus_laplacian(grid)
    off = np.sqrt(K.sup[:-1] * K.sub[1:])
    return float(eigvalsh_tridiagonal(K.diag, off, select="i", select_range=(0, 0))[0])


def regularity_from_growth(
    N: int,
    delta_liminf: Fraction | float | None = None,
    gamma_limsup: Fraction | float | None = None,
) -> tuple[str, str]:
    """The paper's general theorem for an arbitrary regular f.

    Checked sharpest first: N < 8/gamma when the curvature-ratio limsup
    gamma is finite and positive, N <= 7 when the liminf is positive, and
    the unconditional N <= 5.  The bound is compared exactly, a float at its
    binary value, so pass an exact gamma: for (1+t)^p it is 1 - 1/Fraction(p),
    as the binary64 1 - 1/1.25 lies below 1/5 and would call N = 40 regular.
    """
    if gamma_limsup is not None and gamma_limsup > 0 and N * Fraction(gamma_limsup) < 8:
        return bs.REGULAR, RULE_GAMMA
    if delta_liminf is not None and delta_liminf > 0 and N <= 7:
        return bs.REGULAR, RULE_LIMINF
    if N <= 5:
        return bs.REGULAR, RULE_LOWDIM
    return bs.UNKNOWN, bs.RULE_NONE
