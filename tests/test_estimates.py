"""Estimate certification: trivial states, certified branch points,
sanity inversions, preconditions, and the exponential identity."""

import math

import numpy as np
import pytest

from navierlab.branch import Branch, BranchPoint, continue_branch, trivial_point
from navierlab.estimates import (
    BASIC_ENERGY,
    ENERGY,
    G_H,
    POINTWISE_BOUND,
    check_L2,
    check_crucial_integrals,
    check_fprime_integral,
    run_pointwise_suite,
)
from navierlab.families import exponential, g_aux, h_aux_grid, mems, power
from navierlab.radial import RadialGrid, integrate_radial, radial_gradient


@pytest.fixture(scope="module")
def exp_branch():
    grid = RadialGrid(3, 512)
    return exponential(), continue_branch(exponential(), grid, 3.0)


@pytest.fixture(scope="module")
def mems_branch():
    grid = RadialGrid(4, 512)
    return mems(2.0), continue_branch(mems(2.0), grid, 0.85)


@pytest.fixture(scope="module")
def power_branch():
    grid = RadialGrid(6, 512)
    return power(2.0), continue_branch(power(2.0), grid, 5.0)


def single_point_branch(pt):
    """Wrap a reference point so it is the (single) pre-fold sample."""
    return Branch([pt], pt.grid)


def suite(fam, pt):
    """The per-point reports by name."""
    return {rep.name: rep for rep in run_pointwise_suite(fam, pt)}


# ---------------------------------------------------------------------------
# trivial state
# ---------------------------------------------------------------------------


def test_trivial_pointwise_bound():
    rep = suite(exponential(), trivial_point(RadialGrid(3, 128)))[POINTWISE_BOUND]
    assert rep.margin == 0.0 and rep.satisfied


def test_trivial_energy():
    rep = suite(exponential(), trivial_point(RadialGrid(3, 128)))[ENERGY]
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied


def test_trivial_gH():
    grid = RadialGrid(3, 256)
    rep = suite(exponential(), trivial_point(grid))[G_H]
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)  # f(0) |Omega|
    assert rep.satisfied


def test_trivial_basic_energy():
    rep = suite(exponential(), trivial_point(RadialGrid(3, 128)))[BASIC_ENERGY]
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.satisfied


def test_trivial_supremum_values():
    grid = RadialGrid(3, 256)
    fam = exponential()
    branch = single_point_branch(trivial_point(grid))
    ratio, mass = check_crucial_integrals(fam, branch)
    vol = 4.0 * math.pi / 3.0
    assert ratio.values[0] == pytest.approx(vol, rel=1e-9)
    assert mass.values[0] == pytest.approx(vol, rel=1e-9)
    assert check_L2(fam, branch).values[0] == pytest.approx(vol, rel=1e-9)
    assert check_fprime_integral(fam, branch).values[0] == pytest.approx(vol, rel=1e-9)


def test_empty_branch_tracks_nothing():
    assert check_L2(exponential(), Branch([], RadialGrid(3, 16))).values == []


# ---------------------------------------------------------------------------
# certified branch points
# ---------------------------------------------------------------------------


def test_mid_branch_certified(exp_branch):
    fam, branch = exp_branch
    pt = branch.pre_fold_points[len(branch.pre_fold_points) // 2]
    reports = run_pointwise_suite(fam, pt)
    names = [r.name for r in reports]
    assert names == [POINTWISE_BOUND, ENERGY, G_H, BASIC_ENERGY]
    for rep in reports:
        assert rep.satisfied, rep.name
    assert reports[0].margin > 0.0  # strict interior margin


def test_all_pre_fold_points_certified(exp_branch):
    fam, branch = exp_branch
    for pt in branch.pre_fold_points:
        for rep in run_pointwise_suite(fam, pt):
            assert rep.satisfied, (rep.name, pt.m)


@pytest.mark.parametrize("which", ["exp_branch", "power_branch", "mems_branch"])
def test_reports_pin_the_four_formulas(which, request):
    # each report's two sides are exactly the inequality's two integrals
    fam, branch = request.getfixturevalue(which)
    pt = branch.pre_fold_points[len(branch.pre_fold_points) // 2]
    grid, u, v, lam = pt.grid, pt.u, pt.v, pt.lam
    mass = integrate_radial(fam.f(u), grid, outer=float(fam.f(0.0)))
    du = radial_gradient(u, grid)
    expected = {
        POINTWISE_BOUND: (float(np.max(math.sqrt(lam) * g_aux(fam, u) - v)), 0.0),
        ENERGY: (integrate_radial(fam.fpp(u) * v * du**2, grid), lam * mass),
        G_H: (integrate_radial(g_aux(fam, u) * h_aux_grid(fam, u), grid), mass),
        BASIC_ENERGY: (integrate_radial(fam.fp(u) * u**2, grid),
                       integrate_radial(fam.f(u) * u, grid)),
    }
    reports = suite(fam, pt)
    assert list(reports) == list(expected)
    for name, (lhs, rhs) in expected.items():
        assert (reports[name].lhs, reports[name].rhs) == (lhs, rhs), name


def test_power_and_mems_gH(power_branch, mems_branch):
    for fam, branch in (power_branch, mems_branch):
        pt = branch.pre_fold_points[-1]
        reports = suite(fam, pt)
        assert reports[G_H].satisfied
        assert reports[BASIC_ENERGY].satisfied


def test_negated_field_fails_pointwise(exp_branch):
    fam, branch = exp_branch
    pt = branch.pre_fold_points[-1]
    flipped = BranchPoint(pt.m, pt.lam, pt.u, -pt.v, pt.residual_norm, 0, pt.grid)
    rep = suite(fam, flipped)[POINTWISE_BOUND]
    assert not rep.satisfied and rep.margin < 0.0


def test_post_fold_reports_produced_not_asserted(exp_branch):
    # hypothesis fails past the fold: the report must still be computable
    fam, branch = exp_branch
    post = branch.points[-1]
    rep = suite(fam, post)[ENERGY]
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)


def test_suprema_bounded_and_flat(exp_branch):
    # each integral grows along the minimal branch, so its supremum over the
    # semi-stable segment is its value at the fold sample u*
    fam, branch = exp_branch
    ratio, mass = check_crucial_integrals(fam, branch)
    for sup in (ratio, mass, check_L2(fam, branch), check_fprime_integral(fam, branch)):
        assert sup.finite
        assert sup.sup < 1e3
        assert len(sup.values) == branch.fold_index + 1
        assert sup.sup == sup.values[-1]


def test_exponential_identity(exp_branch):
    # f' = f makes the tracked power integral and the squared mass identical
    fam, branch = exp_branch
    sq = check_L2(fam, branch)
    fp = check_fprime_integral(fam, branch)
    for a, b in zip(sq.values, fp.values):
        assert abs(a - b) <= 1e-8 * abs(a)


def test_mems_L2_bounded(mems_branch):
    fam, branch = mems_branch
    sup = check_L2(fam, branch)
    assert sup.finite and sup.sup < 1e3


def test_mems_fprime_allowed(mems_branch):
    # curvature ratio (p+1)/p = 1.5 lies in (0, 2): the bound applies
    fam, branch = mems_branch
    sup = check_fprime_integral(fam, branch)
    assert sup.finite


def test_quadrature_consistency(exp_branch):
    # doubling the grid moves the certified integrals by a small margin
    fam, branch = exp_branch
    pt = branch.pre_fold_points[-1]
    rep = suite(fam, pt)[G_H]
    fine_grid = RadialGrid(3, 1024)
    fine = continue_branch(fam, fine_grid, pt.m + 1e-9)
    rep_fine = suite(fam, fine.points[-1])[G_H]
    assert abs(rep.lhs - rep_fine.lhs) <= 1e-4 * max(abs(rep_fine.lhs), 1.0)
    assert abs(rep.rhs - rep_fine.rhs) <= 1e-4 * max(abs(rep_fine.rhs), 1.0)


# ---------------------------------------------------------------------------
# preconditions and flags
# ---------------------------------------------------------------------------


def test_crucial_rejects_singular(mems_branch):
    fam, branch = mems_branch
    with pytest.raises(ValueError):
        check_crucial_integrals(fam, branch)


def test_L2_rejects_subcritical_mems():
    grid = RadialGrid(3, 64)
    branch = single_point_branch(trivial_point(grid))
    with pytest.raises(ValueError):
        check_L2(mems(0.5), branch)


def test_fprime_rejects_gamma_out_of_range():
    grid = RadialGrid(3, 64)
    branch = single_point_branch(trivial_point(grid))
    with pytest.raises(ValueError):
        check_fprime_integral(mems(0.5), branch)  # gamma = 3 not in (0, 2)


def test_report_metadata(exp_branch):
    fam, branch = exp_branch
    pt = branch.pre_fold_points[0]
    rep = suite(fam, pt)[BASIC_ENERGY]
    assert rep.m == pt.m and rep.lam == pt.lam
    assert rep.tol == pytest.approx(1e-6 * max(abs(rep.lhs), abs(rep.rhs), 1.0))
