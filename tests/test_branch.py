"""Branch solver: manufactured oracle, small-amplitude law, folds, guards."""

import dataclasses
import warnings

import numpy as np
import pytest

from navierlab import branch as branch_module
from navierlab.branch import (
    MEMS_M_MAX,
    Branch,
    BranchPoint,
    ContinuationError,
    NewtonDivergedError,
    SolverConfig,
    continue_branch,
    solve_at_amplitude,
    trivial_point,
)
from navierlab.cli import MAX_GRID_NODES
from navierlab.families import exponential, mems, parse_family, power
from navierlab.radial import RadialGrid, minus_laplacian, solve_navier_biharmonic
from navierlab.stability import smallest_stability_eigenvalue


class ConstantSource:
    """Stand-in nonlinearity f = c: turns the solve into the linear
    biharmonic problem, whose exact profile is known in closed form."""

    singular = False
    spec = "constant"

    def __init__(self, c):
        self.c = float(c)

    def f(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def fp(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def fpp(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@pytest.fixture(scope="module")
def exp_branch():
    grid = RadialGrid(3, 512)
    return exponential(), continue_branch(exponential(), grid, 3.0)


def test_manufactured_constant_source():
    # with f = 8N(N+2) and the matching center amplitude, the solved pair is
    # the quartic Navier profile and lambda returns to 1
    N = 3
    grid = RadialGrid(N, 512)
    m = 1.0 + 4.0 / N
    pt = solve_at_amplitude(ConstantSource(8.0 * N * (N + 2)), grid, m)
    u_ms = (1 - grid.r**2) ** 2 + (4.0 / N) * (1 - grid.r**2)
    assert abs(pt.lam - 1.0) < 1e-3
    assert np.max(np.abs(pt.u - pt.lam * u_ms)) < 1e-4
    assert pt.u[0] == pytest.approx(m, abs=1e-12)
    assert np.min(pt.u) >= 0.0


def test_small_amplitude_linear_law():
    # lambda(m)/m approaches 1/Phi(0) with Phi the hinged-plate response to
    # a unit load; in closed form 1/Phi(0) = 8 N^2 (N+2) / (N+4)
    N = 3
    grid = RadialGrid(N, 512)
    Phi, _ = solve_navier_biharmonic(grid, np.ones(grid.size))
    m = 1e-3
    pt = solve_at_amplitude(exponential(), grid, m)
    assert abs(pt.lam / m * Phi[0] - 1.0) < 5e-3
    closed = 8.0 * N**2 * (N + 2) / (N + 4)
    assert abs(pt.lam / m - closed) / closed < 5e-3


def test_small_amplitude_point_shape():
    grid = RadialGrid(3, 256)
    pt = solve_at_amplitude(exponential(), grid, 0.1)
    assert isinstance(pt, BranchPoint)
    assert pt.lam > 0.0
    assert np.all(np.diff(pt.u) <= 1e-12)  # radially decreasing
    assert np.min(pt.u) >= -1e-8 and np.min(pt.v) >= -1e-8
    assert pt.residual_norm <= 1e-10


def test_warm_start_matches_cold(exp_branch):
    fam, branch = exp_branch
    grid = branch.grid
    target = branch.points[3]
    warm = solve_at_amplitude(fam, grid, target.m, guess=branch.points[2])
    assert abs(warm.lam - target.lam) < 1e-8 * max(1.0, target.lam)


def test_branch_fold_and_monotonicity(exp_branch):
    fam, branch = exp_branch
    assert branch.fold_detected
    lams = np.array([pt.lam for pt in branch.points])
    k = branch.fold_index
    assert 0 < k < len(branch.points) - 1
    assert np.all(np.diff(lams[: k + 1]) > 0)  # pre-fold lambda increasing
    assert np.all(lams <= branch.lambda_star_estimate + 1e-12)
    # minimality: profiles grow pointwise with amplitude before the fold
    for a, b in zip(branch.pre_fold_points, branch.pre_fold_points[1:]):
        assert np.all(b.u - a.u >= -1e-10)


def test_branch_positivity_pre_fold(exp_branch):
    _, branch = exp_branch
    for pt in branch.pre_fold_points:
        assert np.min(pt.u) >= -1e-8 and np.min(pt.v) >= -1e-8


def test_points_carry_v_equal_to_K_u(exp_branch):
    # v is no Newton unknown: each accepted point sets it to K u
    _, branch = exp_branch
    K = minus_laplacian(branch.grid)
    for pt in branch.points:
        assert np.array_equal(pt.v, K.apply(pt.u))


def test_branch_below_fold_is_monotone():
    grid = RadialGrid(3, 256)
    branch = continue_branch(exponential(), grid, 0.8)  # fold sits near 1.66
    assert not branch.fold_detected
    assert branch.points[-1].m == 0.8  # with no fold the march runs to m_max
    lams = [pt.lam for pt in branch.points]
    assert np.all(np.diff(lams) > 0)
    assert branch.lambda_star_estimate == pytest.approx(lams[-1])
    empty = Branch([], grid)
    assert empty.fold_detected is False
    assert empty.lambda_star_estimate == 0.0
    assert empty.pre_fold_points == []


def test_mems_branch_terminates_before_touchdown():
    grid = RadialGrid(4, 512)
    branch = continue_branch(mems(2.0), grid, 0.9)
    assert branch.fold_detected
    assert 0.0 < branch.lambda_star_estimate < np.inf
    for pt in branch.points:
        assert np.max(pt.u) < 1.0 - 1e-6
    # the singular family's fold lies well inside the unit range
    assert branch.points[branch.fold_index].m < 0.8


def test_power_branch_fold():
    grid = RadialGrid(6, 512)
    branch = continue_branch(power(2.0), grid, 5.0)
    assert branch.fold_detected


def test_amplitude_preconditions():
    grid = RadialGrid(3, 256)
    with pytest.raises(ValueError):
        solve_at_amplitude(exponential(), grid, -0.5)
    with pytest.raises(ValueError):
        solve_at_amplitude(mems(2.0), grid, 1.0 - 1e-9)  # above MEMS_M_MAX
    with pytest.raises(ValueError):
        continue_branch(mems(2.0), grid, 1.0)
    with pytest.raises(ValueError):
        continue_branch(mems(2.0), grid, MEMS_M_MAX + 1e-6)


@pytest.mark.parametrize("solve", [continue_branch, solve_at_amplitude],
                         ids=["continue_branch", "solve_at_amplitude"])
@pytest.mark.parametrize("family", [exponential(), mems(2.0)], ids=lambda f: f.spec)
@pytest.mark.parametrize("limit", [np.nan, np.inf, 0.0])
def test_amplitude_limit_must_be_positive_and_finite(solve, family, limit):
    # nan fails every comparison, so it once read as no limit at all and
    # slipped past the mems clamp that inf hits
    with pytest.raises(ValueError, match="positive and finite"):
        solve(family, RadialGrid(3, 64), limit)


def test_no_amplitude_tried_past_m_max(monkeypatch):
    # mems:p=2 N=8, whose fold at m = 0.955 lies close to touchdown: the
    # first step is clamped to m_max and fails there, the retry takes half
    # the step tried, and no solve repeats the amplitude and start of one
    # that failed
    tried = []
    starts = []
    newton = branch_module._newton

    def recording_newton(K, family, grid, m, u, lam, *args):
        tried.append(m)
        starts.append((m, u.tobytes(), lam))
        return newton(K, family, grid, m, u, lam, *args)

    monkeypatch.setattr(branch_module, "_newton", recording_newton)
    continue_branch(mems(2.0), RadialGrid(8, 64), MEMS_M_MAX, SolverConfig(amplitude_step=1.0))
    assert tried and max(tried) <= MEMS_M_MAX
    assert MEMS_M_MAX in tried  # the clamp itself was tried
    assert len(set(starts)) == len(starts)


def test_stalled_march_below_one_ulp_ends_partial(monkeypatch):
    # with a first step of 1e-300 the step floor lies far below one ulp of m,
    # so a march that diverges past m = 1 halves its retry step until it no
    # longer moves m; it once left the loop there and returned the branch
    # as if it had reached m_max
    newton = branch_module._newton

    def diverging_newton(K, family, grid, m, *args):
        if m > 1.0:
            raise NewtonDivergedError(f"diverged at m={m:g}")
        return newton(K, family, grid, m, *args)

    monkeypatch.setattr(branch_module, "_newton", diverging_newton)
    with pytest.raises(ContinuationError, match="no longer moves m") as info:
        continue_branch(exponential(), RadialGrid(3, 64), 2.0, SolverConfig(amplitude_step=1e-300))
    kept = info.value.partial.points
    assert len(kept) > 1000 and kept[-1].m <= 1.0 and not info.value.partial.fold_detected


def _lambda_star_ratios(ns):
    """For exp N=3 (m_max 2), each n's ratio of the successive differences
    lambda*(n/2) - lambda*(n/4) and lambda*(n) - lambda*(n/2), divided by
    the ratio an h^2 trend gives, h = 1/(n+1)."""
    lam = {n: continue_branch(exponential(), RadialGrid(3, n), 2.0).lambda_star_estimate
           for n in {ns[0] // 4, ns[0] // 2, *ns}}
    h2 = {n: (n + 1.0) ** -2 for n in lam}
    return [(lam[n // 2] - lam[n // 4]) / (lam[n] - lam[n // 2])
            * (h2[n // 2] - h2[n]) / (h2[n // 4] - h2[n // 2]) for n in ns]


def test_lambda_star_keeps_its_h2_trend_up_to_the_grid_limit():
    # the command line accepts no grid finer than this trend holds on
    ratios = _lambda_star_ratios([MAX_GRID_NODES // 2, MAX_GRID_NODES])
    assert ratios == pytest.approx([1.0, 1.0], rel=0.01)


@pytest.mark.xfail(strict=True, reason="the K^2 tangent loses its digits at n = 8192 "
                   "(ROADMAP item 13: Newton in the split form)")
def test_lambda_star_keeps_its_h2_trend_at_8192():
    assert _lambda_star_ratios([8192]) == pytest.approx([1.0], rel=0.01)


def test_march_stops_one_sample_past_the_fold():
    # a larger m_max solves exactly the same points, and both fold
    # indicators stay observable: the last point lies below lambda at the
    # fold and is unstable
    fam, grid = exponential(), RadialGrid(3, 256)
    branch = continue_branch(fam, grid, 6.0)
    longer = continue_branch(fam, grid, 12.0)
    assert [(pt.m, pt.lam) for pt in longer.points] == [(pt.m, pt.lam) for pt in branch.points]
    assert all(np.array_equal(a.u, b.u) for a, b in zip(longer.points, branch.points))
    last, fold = branch.points[-1], branch.points[branch.fold_index]
    assert branch.fold_detected and last.m < 6.0
    assert last.lam < fold.lam
    assert smallest_stability_eigenvalue(fam, last).mu1 < 0.0


def test_sample_past_the_reported_fold_is_unstable():
    # near the critical dimension exp N=12.5 on n=2048 has lambda flat to
    # about 1e-12, and rounding makes it decrease between semi-stable
    # samples; read from lambda, that was a fold at m = 27.825 with mu1
    # +409.8 there and at the next sample
    fam = exponential()
    branch = continue_branch(fam, RadialGrid(12.5, 2048), 60.0, SolverConfig(amplitude_step=0.1))
    assert branch.fold_detected
    past = branch.points[branch.fold_index + 1]
    assert smallest_stability_eigenvalue(fam, past).mu1 < 0.0


def test_sample_just_past_the_fold_on_a_fine_grid():
    # on n=4096 the semi-stability check's rounding margin 2 eps ||T||_1 is
    # about 9.4, and the default march's samples past the fold at m = 1.93
    # keep mu1 above -9.5 up to m = 2.006: read from the factorization
    # alone, they were semi-stable, and lambda* came out 7e-4 low
    fam, grid = exponential(), RadialGrid(4, 4096)
    branch = continue_branch(fam, grid, 6.0)
    fine = continue_branch(fam, grid, 6.0, SolverConfig(amplitude_step=0.01))
    assert branch.fold_detected
    assert all(pt.dlam_dm > 0.0 for pt in branch.pre_fold_points[:-1])
    assert branch.lambda_star_estimate == pytest.approx(fine.lambda_star_estimate, rel=1e-9)


def _upper_branch(m_stop):
    """exp N=3 on n=64 from m = 3, solved from the march's sample past its
    fold, up the unstable branch by unit steps to m_stop, each solve
    started from the point before."""
    fam, grid = exponential(), RadialGrid(3, 64)
    past = continue_branch(fam, grid, m_stop, SolverConfig(amplitude_step=1.0)).points[-1]
    points = [solve_at_amplitude(fam, grid, 3.0, guess=past)]
    while points[-1].m < m_stop:
        m = points[-1].m + 1.0
        points.append(solve_at_amplitude(fam, grid, m, guess=points[-1]))
    return points


def test_no_stall_at_the_rounding_floor():
    # far past the fold (m = 157 and beyond) the residual sits near its
    # rounding floor, and the solves there must still converge
    points = _upper_branch(200.0)
    assert points[0].m == 3.0 and points[-1].m == 200.0


def test_overflow_past_the_fold_raises_without_warning():
    # e^u overflows binary64 near m = 709.8: every solve up to m = 709
    # converges, the one at 710 raises NewtonDivergedError, and none warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDivergedError, match="m=710"):
            _upper_branch(710.0)


def test_one_residual_per_iterate(monkeypatch):
    # the residual of the trial the line search accepts starts the next step
    seen = []
    residual = branch_module._residual

    def recording_residual(*args):
        u, lam, _ = args[-3:]
        seen.append((u.tobytes(), lam))
        return residual(*args)

    monkeypatch.setattr(branch_module, "_residual", recording_residual)
    pt = solve_at_amplitude(exponential(), RadialGrid(3, 256), 2.5)
    assert pt.newton_iters > 1
    assert len(set(seen)) == len(seen)


def test_residual_overflowing_scale_sum_warns_nothing():
    # the residual's max-norm and its scale are finite (e^709.5 is about
    # 1.4e308) but their sum overflows; with a numpy scalar lambda, as after
    # the first Newton step, that sum must not warn (the suite makes any
    # warning an error)
    grid = RadialGrid(3, 64)
    K = minus_laplacian(grid)
    D = float(np.max(np.abs(K.diag)))
    u = np.full(grid.size, 709.5)
    *_, rn = branch_module._residual(K, D, exponential(), u, np.float64(1.0), 709.5)
    assert rn == np.inf


def test_singular_jacobian_raises(monkeypatch):
    # a zero pivot in the banded factorization surfaces as LinAlgError,
    # which the command line maps to a compute failure
    def singular_gbsv(kl, ku, ab, b, **kwargs):
        return ab, np.zeros(ab.shape[1], dtype=np.int32), b, 1

    monkeypatch.setattr(branch_module, "dgbsv", singular_gbsv)
    with pytest.raises(np.linalg.LinAlgError):
        solve_at_amplitude(exponential(), RadialGrid(3, 64), 0.5)


def test_warm_start_grid_mismatch():
    g1 = RadialGrid(3, 256)
    g2 = RadialGrid(3, 128)
    pt = solve_at_amplitude(exponential(), g1, 0.1)
    with pytest.raises(ValueError):
        solve_at_amplitude(exponential(), g2, 0.1, guess=pt)
    # every solve starts from a tangent step, so a guess needs its tangent
    with pytest.raises(ValueError):
        solve_at_amplitude(exponential(), g1, 0.2, guess=dataclasses.replace(pt, du_dm=None))


def test_newton_diverged_raises(monkeypatch):
    grid = RadialGrid(3, 256)
    monkeypatch.setattr(branch_module, "MAX_NEWTON", 1)
    with pytest.raises(NewtonDivergedError):
        solve_at_amplitude(exponential(), grid, 2.5)


def test_trivial_point_shape():
    N = 3
    grid = RadialGrid(N, 64)
    pt = trivial_point(grid)
    assert pt.m == 0.0 and pt.lam == 0.0
    assert np.all(pt.u == 0.0) and np.all(pt.v == 0.0)
    # the exact tangent: K^2 du/dm = dlambda/dm f(0), f(0) = 1, du/dm(0) = 1
    Phi, _ = solve_navier_biharmonic(grid, np.ones(grid.size))
    assert pt.dlam_dm == 1.0 / Phi[0]
    assert np.array_equal(pt.du_dm, Phi / Phi[0]) and pt.du_dm[0] == 1.0
    K = minus_laplacian(grid)
    assert np.allclose(K.apply(K.apply(pt.du_dm)), pt.dlam_dm, rtol=1e-8, atol=0.0)
    closed = 8.0 * N**2 * (N + 2) / (N + 4)
    assert abs(pt.dlam_dm - closed) / closed < 5e-3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=-1.0)


def test_fold_bracket_refined(exp_branch):
    # the fold sample is solved where the Hermite peak through it and its
    # neighbour across the slope flip adds no more than newton_tol, and it
    # dominates every sample
    _, branch = exp_branch
    _assert_fold_solved(branch, SolverConfig().newton_tol)
    assert branch.lambda_star_estimate == max(pt.lam for pt in branch.points)


@pytest.mark.parametrize("m", [0.3, 1.0, 1.5])
def test_tangent_slope_matches_finite_differences(m):
    # the slope comes from Newton's last bordered solve; the fold sits near 1.66
    fam, grid, h = exponential(), RadialGrid(3, 256), 1e-4
    fd = (solve_at_amplitude(fam, grid, m + h).lam - solve_at_amplitude(fam, grid, m - h).lam) / (2 * h)
    slope = solve_at_amplitude(fam, grid, m).dlam_dm
    assert abs(slope - fd) <= 1e-5 * max(1.0, abs(fd))


def _synthetic(ms, lams, slopes, grid, stable):
    z = np.zeros(grid.size)
    return [BranchPoint(m, lam, z, z, 0.0, 0, grid, s, None, ok)
            for m, lam, s, ok in zip(ms, lams, slopes, stable)]


def test_fold_index_is_the_first_turn():
    grid = RadialGrid(3, 16)
    # semi-stability ends after m = 2, and lambda rises again past its first
    # maximum on the unstable points
    turns = Branch(_synthetic([1, 2, 3, 4, 5], [1.0, 2.0, 1.5, 3.0, 4.0], [1, 1, -1, 1, 1], grid,
                              [True, True, False, False, False]), grid)
    assert turns.fold_index == 1 and turns.fold_detected
    assert [pt.m for pt in turns.pre_fold_points] == [1, 2]
    # u* at m = 2 reads not semi-stable, as its mu1 is about 0, and the
    # sample past it is higher still: the fold is u*, the first point that
    # is not semi-stable, as it lies above the point before it
    flagged = Branch(_synthetic([1, 2, 3], [1.0, 2.0, 2.1], [1, -1, -1], grid,
                                [True, False, False]), grid)
    assert flagged.fold_index == 1 and flagged.fold_detected
    # lambda rises to the last point, the march's sample past the fold, with
    # no fold solved: that sample is never the fold, however high
    last = Branch(_synthetic([1, 2, 3], [1.0, 2.0, 2.5], [1, 1, -1], grid,
                             [True, True, False]), grid)
    assert last.fold_index == 1 and last.fold_detected
    assert last.lambda_star_estimate == 2.0
    # rounding makes lambda fall between two semi-stable samples: no fold
    noise = Branch(_synthetic([1, 2, 3, 4], [1.0, 2.0, 1.9, 3.0], [1, 1, 1, 1], grid,
                              [True] * 4), grid)
    assert noise.fold_index == 3 and not noise.fold_detected
    assert noise.lambda_star_estimate == 3.0


def _assert_fold_solved(branch, newton_tol):
    """The fold sample and its neighbour across the slope flip leave a
    Hermite peak within newton_tol of the better of the two."""
    k = branch.fold_index
    pts = branch.points
    a, b = (pts[k - 1], pts[k]) if pts[k].dlam_dm <= 0.0 else (pts[k], pts[k + 1])
    assert a.dlam_dm > 0.0 >= b.dlam_dm
    _, peak = branch_module._hermite_peak(a, b)
    assert pts[k].lam == max(a.lam, b.lam)
    assert peak - pts[k].lam <= newton_tol * pts[k].lam


def test_fold_solve_on_the_last_flank():
    # a step from m = 1.9 to 2.2 jumps the fold at 2.141 and still lands on
    # a larger lambda; the slope there shows the turn
    fam, grid = power(2.0), RadialGrid(4, 64)
    config = SolverConfig(amplitude_step=0.1)
    points = [solve_at_amplitude(fam, grid, m) for m in (1.9, 2.2)]
    assert points[1].lam > points[0].lam and points[1].dlam_dm < 0.0
    assert points[0].semi_stable and not points[1].semi_stable
    branch_module._solve_fold(minus_laplacian(grid), fam, grid, config, points)
    branch = Branch(points, grid)
    assert branch.fold_detected
    assert 2.13 < branch.points[branch.fold_index].m < 2.15
    _assert_fold_solved(branch, config.newton_tol)
    marched = continue_branch(fam, grid, 2.2, config)
    assert branch.lambda_star_estimate == pytest.approx(marched.lambda_star_estimate, rel=1e-9)


@pytest.mark.parametrize("spec, N, n, m_max, step", [
    ("exp", 3, 64, 12.0, 1.3),
    ("power:p=2", 4, 64, 6.0, 2.0),
    ("mems:p=2", 4, 64, MEMS_M_MAX, 0.5),
    ("mems:p=0.557877", 3, 51, MEMS_M_MAX, 0.76),
])
def test_fold_between_the_first_two_samples(spec, N, n, m_max, step):
    # lambda turns before the second sample, so the fold solve pairs it with
    # the trivial point and finds the lambda* of a fine march
    fam, grid = parse_family(spec), RadialGrid(N, n)
    branch = continue_branch(fam, grid, m_max, SolverConfig(amplitude_step=step))
    fine = continue_branch(fam, grid, m_max, SolverConfig(amplitude_step=0.05))
    assert branch.fold_detected
    assert branch.lambda_star_estimate == pytest.approx(fine.lambda_star_estimate, rel=1e-6)


def test_fold_solved_from_a_first_step_past_it():
    # exp N=3 with a first step of 800: e^u overflows there, and halving
    # lands the first solve at m = 100 on the upper branch, far past the fold
    # at 1.656; the fold solve against the trivial point finds the lambda* of
    # unit steps
    fam, grid = exponential(), RadialGrid(3, 64)
    far = continue_branch(fam, grid, 800.0, SolverConfig(amplitude_step=800.0))
    unit = continue_branch(fam, grid, 800.0, SolverConfig(amplitude_step=1.0))
    assert far.fold_detected and unit.fold_detected
    assert far.lambda_star_estimate == pytest.approx(unit.lambda_star_estimate, rel=1e-9)


@pytest.mark.parametrize("spec, N, m_max, step", [
    # a solve from the trivial point's tangent diverges at the first peak,
    # and its retry halfway to the trivial point converges
    ("power:p=2", 4, 50.0, 15.1807),
    # u* is the first solved point
    ("mems:p=2", 4, MEMS_M_MAX, 0.605329),
    # the first sample lies on a later rising stretch past the first fold,
    # where lambda turned once more: read from the slope, that later turn
    # was the fold (443.37 against 479.56, and 19.18 against 26.91)
    ("exp", 8, 50.0, 9.6),
    ("mems:p=2", 4, MEMS_M_MAX, 0.9899),
])
def test_first_sample_past_the_fold(spec, N, m_max, step):
    fam, grid = parse_family(spec), RadialGrid(N, 64)
    branch = continue_branch(fam, grid, m_max, SolverConfig(amplitude_step=step))
    fine = continue_branch(fam, grid, m_max)
    assert branch.fold_detected
    assert branch.lambda_star_estimate == pytest.approx(fine.lambda_star_estimate, rel=1e-9)


def test_fold_solve_bisects_a_pair_it_does_not_halve():
    # the first step jumps the first fold at m = 3.58 and lands far up a
    # steep branch past a later turn at m = 14; Hermite peaks through that
    # pair crept toward the later turn for all 200 solves, while bisection
    # on semi-stability brackets the first turn in a few
    fam, grid = exponential(), RadialGrid(8, 64)
    branch = continue_branch(fam, grid, 50.0, SolverConfig(amplitude_step=10.828))
    fine = continue_branch(fam, grid, 50.0)
    assert len(branch.points) < 20
    _assert_fold_solved(branch, SolverConfig().newton_tol)
    assert branch.lambda_star_estimate == pytest.approx(fine.lambda_star_estimate, rel=1e-9)


@pytest.mark.parametrize("spec, N, n, m_max, step", [
    ("exp", 3, 2048, 12.0, 0.0534331),
    ("exp", 3, 64, 12.0, 0.5520691),
    ("mems:p=3", 11, 512, MEMS_M_MAX, 0.05),
])
def test_last_sample_within_tol_of_the_peak(spec, N, n, m_max, step):
    # the march's first sample that is not semi-stable can land within
    # newton_tol of the Hermite peak: it is this grid's u*, but the last
    # point is never the fold, and taking the sample before it put lambda*
    # 9.7e-3 (exp n=2048), 36% (exp n=64) and 1.2e-7 (mems) low
    fam, grid = parse_family(spec), RadialGrid(N, n)
    branch = continue_branch(fam, grid, m_max, SolverConfig(amplitude_step=step))
    small = continue_branch(fam, grid, m_max, SolverConfig(amplitude_step=0.01))
    assert branch.fold_detected and not branch.points[-1].semi_stable
    assert branch.lambda_star_estimate == max(pt.lam for pt in branch.points)
    assert branch.lambda_star_estimate == pytest.approx(small.lambda_star_estimate, rel=1e-9)


@pytest.mark.parametrize("spec, N, n, m_max, budget", [
    ("exp", 13, 4096, 60.0, 60),
    ("power:p=5", 16, 1024, 300.0, 100),
])
def test_far_cell_point_budget(spec, N, n, m_max, budget):
    # near a critical dimension lambda is flat and Euler's prediction
    # nearly exact, so the steps grow: a cap of 4 amplitude steps took 156
    # and 1,502 points
    branch = continue_branch(parse_family(spec), RadialGrid(N, n), m_max)
    assert len(branch.points) <= budget


def test_mems_clamp_residual_budget(monkeypatch):
    # the Euler step along the tangent keeps Newton out of u >= 1 near the
    # clamp: the secant predictor spent 1,173 residuals on this branch
    calls = []
    residual = branch_module._residual

    def counting_residual(*args):
        calls.append(None)
        return residual(*args)

    monkeypatch.setattr(branch_module, "_residual", counting_residual)
    continue_branch(mems(2.0), RadialGrid(8, 512), MEMS_M_MAX)
    assert len(calls) <= 400


@pytest.mark.parametrize("spec, N, most", [("exp", 4, 28), ("mems:p=2", 8, 35)])
def test_march_factorization_budget(spec, N, most, monkeypatch):
    # two sweep cells: every march solve but the first starts from the cubic
    # Hermite through the last two points, and starting each from the Euler
    # step took 35 and 42 Newton factorizations
    calls = []
    gbsv = branch_module.dgbsv

    def counting_gbsv(*args, **kwargs):
        calls.append(None)
        return gbsv(*args, **kwargs)

    monkeypatch.setattr(branch_module, "dgbsv", counting_gbsv)
    fam = parse_family(spec)
    continue_branch(fam, RadialGrid(N, 512), MEMS_M_MAX if fam.singular else 6.0)
    assert len(calls) <= most


def test_fold_solves_start_from_the_euler_step(monkeypatch):
    # the fold pair of mems:p=2 N=9 at n = 512 lies next to touchdown, where
    # the cubic Hermite through both ends of the pair started 37 solves that
    # diverged; from the Euler step along the semi-stable end none diverge,
    # and the march's one divergence is its try at the clamp
    diverged = []
    newton = branch_module._newton

    def counting_newton(K, family, grid, m, *args):
        try:
            return newton(K, family, grid, m, *args)
        except NewtonDivergedError:
            diverged.append(m)
            raise

    monkeypatch.setattr(branch_module, "_newton", counting_newton)
    branch = continue_branch(mems(2.0), RadialGrid(9, 512), MEMS_M_MAX)
    assert branch.fold_detected
    assert len(diverged) <= 2, diverged
