"""Radial operators: stencil exactness, quadrature, symbolic oracles,
manufactured-solution convergence, discrete integration by parts."""

import math

import numpy as np
import pytest

from navierlab.radial import (
    RadialGrid,
    laplacian_matrix,
    minus_laplacian,
    volume_weights,
    unit_sphere_area,
    integrate_radial,
    radial_gradient,
    radial_power_laplacian,
    radial_power_bilaplacian,
    log_laplacian_coefficient,
    log_bilaplacian_coefficient,
    apply_laplacian_stencil,
    solve_navier_biharmonic,
    field_rows,
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
    assert "ball-N3-n100" == g.key()


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1, 100)
    with pytest.raises(ValueError):
        RadialGrid(3, 2)


# ---------------------------------------------------------------------------
# Laplacian stencil
# ---------------------------------------------------------------------------


def laplacian_with_boundary_value(g, values, outer):
    """Delta_h of ``values`` with ``outer`` at the eliminated node r = 1: the
    operator's product plus the free-standing stencil's boundary coupling."""
    out = laplacian_matrix(g).apply(values)
    unit_at_boundary = np.array([0.0, 0.0, 1.0])
    out[-1] += outer * apply_laplacian_stencil(np.append(g.r[-2:], 1.0), unit_at_boundary,
                                               g.dim_N)[0]
    return out


def test_laplacian_annihilates_constants():
    g = RadialGrid(4, 128)
    L = laplacian_matrix(g)
    c = np.full(g.size, 3.7)
    # interior rows away from the boundary see an exact zero row sum
    out = L.apply(c)
    assert np.max(np.abs(out[:-1])) < 1e-9
    # supplying the boundary value completes the stencil everywhere
    out_bc = laplacian_with_boundary_value(g, c, 3.7)
    assert np.max(np.abs(out_bc)) < 1e-8


def test_laplacian_exact_on_r_squared():
    for N in (2, 3, 5, 10):
        g = RadialGrid(N, 200)
        out = laplacian_with_boundary_value(g, g.r**2, 1.0)
        assert np.max(np.abs(out - 2.0 * N)) < 1e-8


def test_laplacian_quartic_second_order():
    # Delta r^4 = 4(N+2) r^2; error contracts by ~4 per refinement
    N = 3
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(N, n)
        out = laplacian_with_boundary_value(g, g.r**4, 1.0)
        errs.append(np.max(np.abs(out - 4.0 * (N + 2) * g.r**2)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_operator_solve_round_trip():
    g = RadialGrid(3, 200)
    K = minus_laplacian(g)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(g.size)
    assert np.max(np.abs(K.solve(K.apply(x)) - x)) < 1e-8


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
    # two stencil applications on r^s reproduce c(s, N) r^(s-4) at O(h^2).
    # Grids stay coarse: composing two 1/h^2 stencils amplifies rounding by
    # 1/h^4, which would swamp the truncation error past n ~ 400.  The
    # window avoids the center where odd powers lose smoothness.
    for s in (2.0, 3.0, 4.0, 6.0):
        for N in (2, 3, 5, 10):
            errs = []
            scale = 1.0
            for n in (64, 128):
                r = np.linspace(0.0, 1.0, n + 2)
                w = r**s
                lap1 = apply_laplacian_stencil(r, w, N)
                lap2 = apply_laplacian_stencil(r[1:-1], lap1, N)
                rr = r[2:-2]
                exact = radial_power_bilaplacian(s, N) * rr ** (s - 4.0)
                window = (rr >= 0.25) & (rr <= 0.75)
                errs.append(np.max(np.abs((lap2 - exact)[window])))
                scale = max(1.0, np.max(np.abs(exact[window])))
            # second order or better, unless already at the rounding floor of
            # the composed 1/h^4 stencils (the s = 2 image is exactly zero)
            floor = 1e-6 * scale
            assert errs[1] <= max(errs[0] / 2.8, floor), (s, N, errs)


def test_double_stencil_log_profile():
    # Delta^2 (-4 log r) = 384 r^-4 in dimension 10, checked away from r = 0
    N, a = 10, -4.0
    n = 512
    r = np.linspace(0.0, 1.0, n + 2)
    w = np.zeros_like(r)
    w[1:] = a * np.log(r[1:])
    lap1 = apply_laplacian_stencil(r, w, N)
    lap2 = apply_laplacian_stencil(r[1:-1], lap1, N)
    rr = r[2:-2]
    exact = log_bilaplacian_coefficient(a, N) * rr**-4.0
    window = (rr >= 0.25) & (rr <= 0.75)
    rel = np.max(np.abs((lap2 - exact)[window] / exact[window]))
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
