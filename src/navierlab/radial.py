"""Radial discretization of the Laplacian and biharmonic operator.

Profiles live on a uniform mesh of [0, 1] in the unit ball of R^N.  With n
interior nodes the spacing is h = 1/(n+1); the active unknowns are the
center and the interior nodes, and homogeneous Dirichlet data is eliminated
at r = 1.  A radial field is a plain numpy array aligned with ``grid.r``.

The Laplacian u'' + (N-1)/r u' is discretized in conservative (flux) form

    (Delta_h u)_i = [k_{i+1/2}(u_{i+1}-u_i) - k_{i-1/2}(u_i-u_{i-1})] / (h^2 rho_i)

with k = r^(N-1) at half nodes and rho_i the cell average of r^(N-1); at the
center the symmetric-ghost rule gives Delta_h u(0) = 2N(u_1-u_0)/h^2.  The
stencil is second-order, exact on quadratics, and -- the reason for the flux
form -- exactly self-adjoint in the inner product weighted by the cell
integrals of r^(N-1).  That symmetry makes the discrete spectrum of the
composed biharmonic operator equal, to rounding, to the squared spectrum of
the discrete Laplacian, mirroring the continuous identity for the hinged
(u = Delta u = 0) boundary conditions.

Radial integrals int_Omega phi dx = omega_{N-1} int phi(r) r^(N-1) dr use
composite Simpson quadrature (with a 3/8 tail when the interval count is
odd), fourth-order for smooth integrands.  Symbolic coefficients for
Delta^2 r^s and Delta^2 (a log r) serve as oracles for the stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "RadialGrid",
    "BandedOperator",
    "laplacian_matrix",
    "minus_laplacian",
    "volume_weights",
    "unit_sphere_area",
    "integrate_radial",
    "radial_gradient",
    "radial_power_laplacian",
    "radial_power_bilaplacian",
    "log_laplacian_coefficient",
    "log_bilaplacian_coefficient",
    "apply_laplacian_stencil",
    "solve_navier_biharmonic",
    "field_rows",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh on [0, 1] in the unit ball of R^dim_N.

    ``n`` counts interior nodes; the active node set adds the center.  ``r``
    holds the active radii 0, h, ..., 1 - h in increasing order.
    """

    dim_N: int
    n: int
    h: float = field(init=False)
    r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim_N < 2:
            raise ValueError("dimension must be >= 2")
        if self.n < 4:
            raise ValueError("need at least 4 interior nodes")
        h = 1.0 / (self.n + 1)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", np.arange(0, self.n + 1) * h)

    @property
    def size(self) -> int:
        """Number of active nodes (length of a field)."""
        return self.n + 1

    def key(self) -> str:
        return f"ball-N{self.dim_N}-n{self.n}"

    def json_header(self) -> dict:
        return {"N": self.dim_N, "n": self.n, "r_inner": 0.0, "r_outer": 1.0}


@dataclass
class BandedOperator:
    """Tridiagonal operator on the active nodes of the ball, given by its
    ``sub``, ``diag`` and ``sup`` diagonals; the eliminated boundary node at
    r = 1 carries homogeneous Dirichlet data."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        x = np.asarray(values, dtype=float)
        y = self.diag * x
        y[1:] += self.sub[1:] * x[:-1]
        y[:-1] += self.sup[:-1] * x[1:]
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the operator by banded LU with partial pivoting."""
        ab = np.zeros((3, self.size))
        ab[0, 1:] = self.sup[:-1]
        ab[1, :] = self.diag
        ab[2, :-1] = self.sub[1:]
        return solve_banded((1, 1), ab, np.asarray(rhs, dtype=float), check_finite=False)


def laplacian_matrix(grid: RadialGrid) -> BandedOperator:
    """Discrete radial Laplacian Delta_h on the active nodes (flux form)."""
    N, h, r = grid.dim_N, grid.h, grid.r
    M = grid.size
    sub = np.zeros(M)
    diag = np.zeros(M)
    sup = np.zeros(M)
    diag[0] = -2.0 * N / h**2
    sup[0] = 2.0 * N / h**2
    ri = r[1:]
    km = (ri - h / 2.0) ** (N - 1)
    kp = (ri + h / 2.0) ** (N - 1)
    rho = ((ri + h / 2.0) ** N - (ri - h / 2.0) ** N) / (N * h)
    sub[1:] = km / (h**2 * rho)
    diag[1:] = -(km + kp) / (h**2 * rho)
    sup[1:] = kp / (h**2 * rho)
    sup[M - 1] = 0.0
    return BandedOperator(sub, diag, sup)


def minus_laplacian(grid: RadialGrid) -> BandedOperator:
    """-Delta_h, the positive-definite form used by the solvers."""
    L = laplacian_matrix(grid)
    return BandedOperator(-L.sub, -L.diag, -L.sup)


def unit_sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def volume_weights(grid: RadialGrid) -> np.ndarray:
    """Cell-integral weights of r^(N-1) dx on active nodes (times sphere area).

    w_i = omega_{N-1} * int_{cell i} r^(N-1) dr with cells of width h
    centered at the nodes (half cell at the center).  These are the weights
    in which the flux-form Laplacian is exactly self-adjoint; quadrature
    accuracy is O(h^2), sufficient for inner products and eigenvalue work.
    For high-order integrals use ``integrate_radial``.
    """
    N, h, r = grid.dim_N, grid.h, grid.r
    w = np.zeros(grid.size)
    w[0] = (h / 2.0) ** N / N
    ri = r[1:]
    w[1:] = ((ri + h / 2.0) ** N - (ri - h / 2.0) ** N) / N
    return unit_sphere_area(N) * w


def _simpson_weights(npts: int, h: float) -> np.ndarray:
    """Composite Simpson weights on npts uniform nodes, 3/8 tail if needed."""
    intervals = npts - 1
    if intervals < 3:
        raise ValueError("too few quadrature nodes")
    w = np.zeros(npts)
    if intervals % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    # odd interval count: Simpson on the leading even block, 3/8 on the last 3
    m = intervals - 3
    if m > 0:
        w[0] = w[m] = 1.0
        w[1:m:2] = 4.0
        w[2:m:2] = 2.0
        w[: m + 1] *= h / 3.0
    tail = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    w[-4:] += tail
    return w


def integrate_radial(values: np.ndarray, grid: RadialGrid, outer: float = 0.0) -> float:
    """Integral over the ball of a radial integrand given on active nodes.

    Computes omega_{N-1} * int_0^1 phi(r) r^(N-1) dr by composite Simpson.
    ``outer`` supplies the integrand value at the eliminated boundary node
    r = 1; it defaults to zero, which is correct for quantities vanishing on
    the boundary but must be set explicitly for e.g. f(u) with u = 0 there.
    """
    x = np.asarray(values, dtype=float)
    if len(x) != grid.size:
        raise ValueError("field length does not match grid")
    full_vals = np.concatenate([x, [outer]])
    full_r = np.concatenate([grid.r, [1.0]])
    w = _simpson_weights(len(full_r), grid.h)
    return unit_sphere_area(grid.dim_N) * float(
        np.sum(w * full_vals * full_r ** (grid.dim_N - 1))
    )


def radial_gradient(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Radial derivative u'(r): centered interior, one-sided O(h^2) at r = 1 - h.

    The center value is the symmetry condition u'(0) = 0.  Only active-node
    data is used, so the one-sided stencil at the outer end does not presume
    a boundary value.
    """
    x = np.asarray(values, dtype=float)
    if len(x) != grid.size:
        raise ValueError("field length does not match grid")
    h = grid.h
    d = np.empty_like(x)
    d[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
    d[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
    d[0] = 0.0
    return d


# ---------------------------------------------------------------------------
# symbolic oracles for radial powers and the log profile
# ---------------------------------------------------------------------------


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


def apply_laplacian_stencil(r_nodes: np.ndarray, values: np.ndarray, N: int) -> np.ndarray:
    """Flux-form Laplacian of sampled data on a uniform radius array.

    Free-standing stencil for oracle cross-checks: given values at the
    uniformly spaced radii ``r_nodes`` (which may include boundary points),
    returns Delta_h values at the interior entries 1..len-2.  No boundary
    conditions are involved.
    """
    r = np.asarray(r_nodes, dtype=float)
    x = np.asarray(values, dtype=float)
    h = r[1] - r[0]
    ri = r[1:-1]
    km = (ri - h / 2.0) ** (N - 1)
    kp = (ri + h / 2.0) ** (N - 1)
    rho = ((ri + h / 2.0) ** N - (ri - h / 2.0) ** N) / (N * h)
    return (kp * (x[2:] - x[1:-1]) - km * (x[1:-1] - x[:-2])) / (h**2 * rho)


def solve_navier_biharmonic(grid: RadialGrid, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve Delta^2 u = rhs with u = Delta u = 0 on the boundary.

    Split into the pair -Delta v = rhs, -Delta u = v with Dirichlet data,
    matching the structural substitution v = -Delta u used throughout.
    Returns (u, v).
    """
    K = minus_laplacian(grid)
    v = K.solve(np.asarray(rhs, dtype=float))
    u = K.solve(v)
    return u, v


def field_rows(values: np.ndarray, grid: RadialGrid) -> list[tuple[float, float]]:
    """(r, value) pairs of a field, the CSV serialization order."""
    x = np.asarray(values, dtype=float)
    if len(x) != grid.size:
        raise ValueError("field length does not match grid")
    return [(float(r), float(v)) for r, v in zip(grid.r, x)]
