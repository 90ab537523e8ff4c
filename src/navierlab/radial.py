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
odd), fourth-order for smooth integrands.  The test suite's symbolic
oracle applies ``minus_laplacian`` itself twice to r^s and -4 log r.

Solves against -Delta_h call LAPACK ``dgtsv`` (from ``navierlab._lapack``)
on the three diagonals directly.  ``minus_laplacian``, ``volume_weights``
and the quadrature weights of ``integrate_radial`` are built once per grid
and shared, read-only, with every later caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._lapack import dgtsv

__all__ = [
    "RadialGrid",
    "BandedOperator",
    "minus_laplacian",
    "volume_weights",
    "unit_sphere_area",
    "integrate_radial",
    "radial_gradient",
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
    r: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim_N < 2:
            raise ValueError("dimension must be >= 2")
        if self.n < 4:
            raise ValueError("need at least 4 interior nodes")
        h = 1.0 / (self.n + 1)
        # the center cell's volume weight (see volume_weights) must not
        # underflow to 0: the stability solve divides by its square root.
        # With h/2 <= 0.1, (h/2)^N is 0 by N = 344, where Gamma(N/2) starts to
        # overflow, so unit_sphere_area is only reached below that.
        w0 = (h / 2.0) ** self.dim_N / self.dim_N
        if w0 == 0.0 or unit_sphere_area(self.dim_N) * w0 == 0.0:
            raise ValueError(f"dimension {self.dim_N} is too large for {self.n} interior "
                             "nodes: the center cell's volume weight underflows to 0")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", np.arange(0, self.n + 1) * h)

    @property
    def size(self) -> int:
        """Number of active nodes (length of a field)."""
        return self.n + 1

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
        """Solve against the operator by tridiagonal LU with partial pivoting
        (LAPACK ``gtsv``, which copies its inputs)."""
        *_, x, info = dgtsv(self.sub[1:], self.diag, self.sup[:-1], np.asarray(rhs, dtype=float))
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
        return x

    @cached_property
    def square_bands(self) -> np.ndarray:
        """The five diagonals of the operator's square in LAPACK band storage
        (row 2 + i - j holds entry (i, j)); computed once, read-only."""
        sub, diag, sup = self.sub, self.diag, self.sup
        bands = np.zeros((5, len(diag)))
        bands[0, 2:] = sup[:-2] * sup[1:-1]
        bands[1, 1:] = sup[:-1] * (diag[:-1] + diag[1:])
        bands[2] = diag * diag
        bands[2, :-1] += sup[:-1] * sub[1:]
        bands[2, 1:] += sub[1:] * sup[:-1]
        bands[3, :-1] = sub[1:] * (diag[:-1] + diag[1:])
        bands[4, :-2] = sub[2:] * sub[1:-1]
        return _read_only(bands)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


@lru_cache(maxsize=8)
def minus_laplacian(grid: RadialGrid) -> BandedOperator:
    """-Delta_h on the active nodes (flux form), the positive-definite form
    used by the solvers.  Built once per grid and shared by every later call,
    so its arrays are read-only."""
    N, h, r = grid.dim_N, grid.h, grid.r
    M = grid.size
    sub = np.zeros(M)
    diag = np.zeros(M)
    sup = np.zeros(M)
    diag[0] = 2.0 * N / h**2
    sup[0] = -2.0 * N / h**2
    ri = r[1:]
    km = (ri - h / 2.0) ** (N - 1)
    kp = (ri + h / 2.0) ** (N - 1)
    rho = ((ri + h / 2.0) ** N - (ri - h / 2.0) ** N) / (N * h)
    sub[1:] = -km / (h**2 * rho)
    diag[1:] = (km + kp) / (h**2 * rho)
    sup[1:] = -kp / (h**2 * rho)
    sup[M - 1] = 0.0
    return BandedOperator(_read_only(sub), _read_only(diag), _read_only(sup))


def unit_sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@lru_cache(maxsize=8)
def volume_weights(grid: RadialGrid) -> np.ndarray:
    """Cell-integral weights of r^(N-1) dx on active nodes (times sphere area).

    w_i = omega_{N-1} * int_{cell i} r^(N-1) dr with cells of width h
    centered at the nodes (half cell at the center).  These are the weights
    in which the flux-form Laplacian is exactly self-adjoint; quadrature
    accuracy is O(h^2), sufficient for inner products and eigenvalue work.
    For high-order integrals use ``integrate_radial``.  Shared, read-only.
    """
    N, h, r = grid.dim_N, grid.h, grid.r
    w = np.zeros(grid.size)
    w[0] = (h / 2.0) ** N / N
    ri = r[1:]
    w[1:] = ((ri + h / 2.0) ** N - (ri - h / 2.0) ** N) / N
    return _read_only(unit_sphere_area(N) * w)


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


@lru_cache(maxsize=8)
def _quadrature_weights(grid: RadialGrid) -> np.ndarray:
    """omega_{N-1} r^(N-1) times the Simpson weights on the active nodes and
    the boundary node r = 1, last; built once per grid, read-only."""
    full_r = np.append(grid.r, 1.0)
    w = _simpson_weights(len(full_r), grid.h)
    return _read_only(unit_sphere_area(grid.dim_N) * w * full_r ** (grid.dim_N - 1))


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
    w = _quadrature_weights(grid)
    return float(w[:-1] @ x) + float(w[-1]) * outer


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
