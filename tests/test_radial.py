"""Radial operators: stencil exactness, quadrature, symbolic oracles,
manufactured-solution convergence, discrete integration by parts."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from navierlab import radial
from navierlab.radial import (
    RadialGrid,
    minus_laplacian,
    volume_weights,
    unit_sphere_area,
    integrate_radial,
    radial_gradient,
    solve_navier_biharmonic,
    field_rows,
)
from oracles import (
    radial_power_laplacian,
    radial_power_bilaplacian,
    log_laplacian_coefficient,
    log_bilaplacian_coefficient,
)


def manufactured_profile(grid):
    """(1-r^2)^2 + (4/N)(1-r^2): vanishes with its Laplacian at r = 1 and has
    constant bilaplacian 8N(N+2)."""
    r, N = grid.r, grid.dim_N
    return (1 - r**2) ** 2 + (4.0 / N) * (1 - r**2)


# ---------------------------------------------------------------------------
# grid basics
# ---------------------------------------------------------------------------


def test_grid_geometry():
    g = RadialGrid(3, 100)
    assert g.size == 101
    assert abs(g.h * (g.n + 1) - 1.0) < 1e-15
    assert g.r[0] == 0.0 and abs(g.r[-1] - (1.0 - g.h)) < 1e-14
    assert np.all(np.diff(g.r) > 0)
    assert g.json_header() == {"N": 3, "n": 100, "r_inner": 0.0, "r_outer": 1.0}
    # a grid's identity is its (N, n)
    assert g == RadialGrid(3, 100) and hash(g) == hash(RadialGrid(3, 100))
    assert g != RadialGrid(4, 100) and g != RadialGrid(3, 101)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1, 100)
    with pytest.raises(ValueError):
        RadialGrid(3, 2)


@pytest.mark.parametrize("n, first_N", [(4, 209), (64, 127), (2048, 82)])
def test_grid_rejects_underflowing_center_weight(n, first_N):
    # one dimension below the bound the center weight is still positive
    assert volume_weights(RadialGrid(first_N - 1, n))[0] > 0.0
    with pytest.raises(ValueError, match="underflows"):
        RadialGrid(first_N, n)
    with pytest.raises(ValueError, match="underflows"):  # not Gamma(N/2)'s OverflowError
        RadialGrid(400, n)


# ---------------------------------------------------------------------------
# Laplacian stencil
# ---------------------------------------------------------------------------


# The operator eliminates the node r = 1 with u = 0 there, so the exactness
# tests below take profiles that vanish at r = 1.


def test_laplacian_annihilates_constants():
    g = RadialGrid(4, 128)
    K = minus_laplacian(g)
    c = np.full(g.size, 3.7)
    # every row but the one next to the eliminated node sees a zero row sum
    out = K.apply(c)
    assert np.max(np.abs(out[:-1])) < 1e-9


def test_laplacian_exact_on_r_squared():
    # Delta (1 - r^2) = -2N: the r^2 term is reproduced exactly
    for N in (2, 3, 5, 10):
        g = RadialGrid(N, 200)
        out = -minus_laplacian(g).apply(1.0 - g.r**2)
        assert np.max(np.abs(out + 2.0 * N)) < 1e-8


def test_laplacian_quartic_second_order():
    # Delta (1 - r^2)^2 = 4(N+2) r^2 - 4N; error contracts by ~4 per refinement
    N = 3
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(N, n)
        out = -minus_laplacian(g).apply((1.0 - g.r**2) ** 2)
        errs.append(np.max(np.abs(out - (4.0 * (N + 2) * g.r**2 - 4.0 * N))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_operator_solve_round_trip():
    g = RadialGrid(3, 200)
    K = minus_laplacian(g)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(g.size)
    assert np.max(np.abs(K.solve(K.apply(x)) - x)) < 1e-8


@pytest.mark.parametrize("N, n", [(3, 64), (8, 512)])
def test_operator_solve_matches_solve_banded_bits(N, n):
    # the direct LAPACK gtsv call is the routine solve_banded((1, 1), ...)
    # dispatches to, so the solution keeps every bit
    g = RadialGrid(N, n)
    K = minus_laplacian(g)
    ab = np.zeros((3, g.size))
    ab[0, 1:] = K.sup[:-1]
    ab[1, :] = K.diag
    ab[2, :-1] = K.sub[1:]
    rhs = np.random.default_rng(N).standard_normal(g.size)
    expected = solve_banded((1, 1), ab, rhs, check_finite=False)
    assert np.array_equal(K.solve(rhs), expected)


@pytest.mark.parametrize("N", [3, 8])
def test_square_bands_match_dense_square(N):
    # row 2 + i - j of the bands holds entry (i, j) of K^2; the corners no
    # entry maps to stay zero
    g = RadialGrid(N, 16)
    K = minus_laplacian(g)
    dense = np.diag(K.diag) + np.diag(K.sub[1:], -1) + np.diag(K.sup[:-1], 1)
    square = dense @ dense
    bands = K.square_bands
    from_bands = np.zeros_like(square)
    for i in range(g.size):
        for j in range(max(0, i - 2), min(g.size, i + 3)):
            from_bands[i, j] = bands[2 + i - j, j]
    eps = np.finfo(float).eps
    assert np.max(np.abs(from_bands - square)) <= 4.0 * eps * np.max(np.abs(square))
    assert not (bands[0, :2].any() or bands[1, 0] or bands[3, -1] or bands[4, -2:].any())


def test_operator_and_weights_built_once_per_grid():
    g = RadialGrid(5, 32)
    K, W, Q = minus_laplacian(g), volume_weights(g), radial._quadrature_weights(g)
    assert minus_laplacian(RadialGrid(5, 32)) is K
    assert volume_weights(RadialGrid(5, 32)) is W
    assert radial._quadrature_weights(RadialGrid(5, 32)) is Q
    assert K.square_bands is K.square_bands
    # shared, so nobody may write to them
    for x in (K.sub, K.diag, K.sup, K.square_bands, W, Q):
        assert not x.flags.writeable


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_integrate_unit_ball_volumes():
    g3 = RadialGrid(3, 512)
    vol3 = integrate_radial(np.ones(g3.size), g3, outer=1.0)
    assert abs(vol3 - 4.0 * math.pi / 3.0) < 1e-10
    g2 = RadialGrid(2, 512)
    vol2 = integrate_radial(np.ones(g2.size), g2, outer=1.0)
    assert abs(vol2 - math.pi) < 1e-10


@pytest.mark.parametrize("n", [63, 64])
def test_integrate_radial_is_composite_simpson(n):
    # against the rule written out node by node: Simpson over an even count
    # of intervals, and over all but the last three, with 3/8 on those, for
    # an odd count
    g = RadialGrid(5, n)
    r = list(g.r) + [1.0]
    phi = [math.exp(-x) * x**4 for x in r]  # the integrand times r^(N-1)
    h, last = g.h, len(r) - 1
    simpson_end = last if last % 2 == 0 else last - 3
    total = sum((1 if i in (0, simpson_end) else 4 if i % 2 else 2) * phi[i] * h / 3.0
                for i in range(simpson_end + 1))
    if simpson_end < last:
        total += sum(c * phi[simpson_end + k] * 3.0 * h / 8.0 for k, c in enumerate((1, 3, 3, 1)))
    expected = unit_sphere_area(5) * total
    value = integrate_radial(np.exp(-g.r), g, outer=math.exp(-1.0))
    assert abs(value - expected) <= 1e-14 * abs(expected)


def test_integrate_r_squared_dim_four():
    g = RadialGrid(4, 512)
    val = integrate_radial(g.r**2, g, outer=1.0)
    # omega_3 * int_0^1 r^5 dr = 2 pi^2 / 6
    assert abs(val - math.pi**2 / 3.0) < 1e-10


def test_volume_weights_sum():
    # cell weights cover the ball minus the outer half cell
    g = RadialGrid(3, 400)
    total = volume_weights(g).sum()
    missing = unit_sphere_area(3) * (1.0 - (1.0 - g.h / 2) ** 3) / 3.0
    assert abs(total + missing - 4.0 * math.pi / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_constant_and_quadratic():
    g = RadialGrid(3, 300)
    assert np.max(np.abs(radial_gradient(np.full(g.size, 2.0), g))) == 0.0
    d = radial_gradient(g.r**2, g)
    assert np.max(np.abs(d - 2.0 * g.r)) < 1e-11


def test_gradient_sine_second_order():
    # sin(pi r) is not an even radial profile (u'(0) = pi), so the enforced
    # center symmetry is excluded from the convergence window
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(3, n)
        d = radial_gradient(np.sin(np.pi * g.r), g)
        errs.append(np.max(np.abs(d[1:] - np.pi * np.cos(np.pi * g.r[1:]))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_gradient_even_profile_center_included():
    # for genuinely radial (even) profiles the center rule is exact order-2
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(3, n)
        d = radial_gradient(np.cos(np.pi * g.r), g)
        errs.append(np.max(np.abs(d + np.pi * np.sin(np.pi * g.r))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# symbolic oracles
# ---------------------------------------------------------------------------


def test_power_bilaplacian_coefficients():
    for N in (2, 3, 5, 10):
        assert radial_power_bilaplacian(2.0, N) == 0.0
    assert radial_power_bilaplacian(4.0, 3) == 120.0  # 4*5*2*3
    assert radial_power_laplacian(2.0, 3) == 6.0


def test_log_coefficients():
    assert log_laplacian_coefficient(-4.0, 10) == -32.0
    assert log_bilaplacian_coefficient(-4.0, 10) == 384.0
    # consistency: applying the power rule to the log's r^-2 image
    a, N = -4.0, 10
    assert log_laplacian_coefficient(a, N) * radial_power_laplacian(-2.0, N) == 384.0


def test_double_stencil_matches_symbolic():
    # (-Delta_h)^2 r^s reproduces c(s, N) r^(s-4) at O(h^2).  Grids stay
    # coarse: composing two 1/h^2 stencils amplifies rounding by 1/h^4,
    # which would swamp the truncation error past n ~ 400.  The window
    # avoids the center, where odd powers lose smoothness, and the two rows
    # next to r = 1, where the operator takes r^s = 1 for 0.
    for s in (2.0, 3.0, 4.0, 6.0):
        for N in (2, 3, 5, 10):
            errs = []
            scale = 1.0
            for n in (64, 128):
                g = RadialGrid(N, n)
                K = minus_laplacian(g)
                window = (g.r >= 0.25) & (g.r <= 0.75)
                lap2 = K.apply(K.apply(g.r**s))[window]
                exact = radial_power_bilaplacian(s, N) * g.r[window] ** (s - 4.0)
                errs.append(np.max(np.abs(lap2 - exact)))
                scale = max(1.0, np.max(np.abs(exact)))
            # second order or better, unless already at the rounding floor of
            # the composed 1/h^4 stencils (the s = 2 image is exactly zero)
            floor = 1e-6 * scale
            assert errs[1] <= max(errs[0] / 2.8, floor), (s, N, errs)


def test_double_stencil_log_profile():
    # Delta^2 (-4 log r) = 384 r^-4 in dimension 10, checked away from r = 0
    N, a = 10, -4.0
    g = RadialGrid(N, 512)
    K = minus_laplacian(g)
    w = np.zeros(g.size)
    w[1:] = a * np.log(g.r[1:])
    window = (g.r >= 0.25) & (g.r <= 0.75)
    lap2 = K.apply(K.apply(w))[window]
    exact = log_bilaplacian_coefficient(a, N) * g.r[window] ** -4.0
    rel = np.max(np.abs((lap2 - exact) / exact))
    assert rel < 5e-4


# ---------------------------------------------------------------------------
# manufactured solution and integration by parts
# ---------------------------------------------------------------------------


def test_manufactured_navier_convergence():
    for N in (3, 7):
        errs = []
        for n in (256, 512, 1024):
            g = RadialGrid(N, n)
            u, v = solve_navier_biharmonic(g, np.full(g.size, 8.0 * N * (N + 2)))
            errs.append(np.max(np.abs(u - manufactured_profile(g))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_manufactured_boundary_values():
    # the profile satisfies u(1) = 0 and Delta u(1) = 0 analytically
    for N in (3, 5):
        u_at_1 = (1 - 1.0) ** 2 + (4.0 / N) * (1 - 1.0)
        lap_at_1 = (-4.0 * N + 4.0 * (N + 2) * 1.0) + (4.0 / N) * (-2.0 * N)
        assert u_at_1 == 0.0 and lap_at_1 == 0.0


def one_sided_end_derivative(values, h):
    # derivative at r = 1 from the last active nodes and the zero boundary value
    return (3.0 * 0.0 - 4.0 * values[-1] + values[-2]) / (2.0 * h)


def test_discrete_integration_by_parts():
    # <-Delta psi, phi>_w ~ int psi' phi' r^(N-1) for fields vanishing at
    # r = 1.  The gradient side must include the outer boundary value of
    # psi' phi' (the fields vanish there, their derivatives do not).
    diffs = []
    for n in (256, 512):
        g = RadialGrid(3, n)
        K = minus_laplacian(g)
        W = volume_weights(g)
        psi = np.sin(np.pi * g.r)
        phi = g.r**2 * (1.0 - g.r)
        lhs = float(K.apply(psi) @ (W * phi))
        dpsi = radial_gradient(psi, g)
        dphi = radial_gradient(phi, g)
        outer = one_sided_end_derivative(psi, g.h) * one_sided_end_derivative(phi, g.h)
        rhs = integrate_radial(dpsi * dphi, g, outer=outer)
        diffs.append(abs(lhs - rhs))
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.6)
    assert diffs[1] < 1e-4


def test_operator_weighted_symmetry():
    # the flux-form stencil is exactly self-adjoint in the cell weights
    g = RadialGrid(4, 200)
    K = minus_laplacian(g)
    W = volume_weights(g)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, g.size))
    a = float(K.apply(x) @ (W * y))
    b = float(x @ (W * K.apply(y)))
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_field_rows_serialization():
    g = RadialGrid(3, 8)
    rows = field_rows(g.r**2, g)
    assert len(rows) == g.size
    assert rows[0] == (0.0, 0.0)
    assert rows[3][0] == pytest.approx(3 * g.h)
    with pytest.raises(ValueError):
        field_rows(np.ones(3), g)
