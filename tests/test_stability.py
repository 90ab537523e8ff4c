"""Stability spectra: the squared-Laplacian identity, Bessel oracle,
variational bounds, and the eigenvalue crossing at the fold."""

import math

import numpy as np
import pytest

from navierlab.branch import (
    MEMS_M_MAX,
    BranchPoint,
    SolverConfig,
    continue_branch,
    solve_at_amplitude,
    trivial_point,
)
from navierlab.families import exponential, mems, power
from navierlab import stability
from navierlab.radial import RadialGrid, minus_laplacian, volume_weights
from navierlab.stability import (
    EigenIterationError,
    StabilityReport,
    smallest_stability_eigenvalue,
)
from oracles import laplacian_ground_eigenvalue

# the shift sits just left of mu1, far closer than the next mode, so inverse
# iteration settles in a few solves
MAX_SHIFTED_ITERS = 8


def bessel_j0(x):
    """J0 by its power series; converges fast for |x| < 10."""
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= -(x * x) / (4.0 * k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def first_j0_zero():
    """Bisection on the series between 2 and 3."""
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0(lo) * bessel_j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def exp_branch():
    grid = RadialGrid(3, 512)
    return exponential(), continue_branch(exponential(), grid, 3.0)


def test_squared_laplacian_identity():
    # at the zero solution the stability operator is the discrete Laplacian
    # composed with itself, so its ground eigenvalue is exactly the square;
    # nu1 comes from a tridiagonal eigensolver, not the shift certificate
    for N in (2, 3, 5):
        grid = RadialGrid(N, 512)
        mu1 = smallest_stability_eigenvalue(exponential(), trivial_point(grid)).mu1
        nu1 = laplacian_ground_eigenvalue(grid)
        assert abs(mu1 - nu1**2) <= 1e-8 * abs(mu1)


def test_pi_fourth_extrapolation():
    vals = {}
    for n in (512, 1024):
        grid = RadialGrid(3, n)
        vals[n] = smallest_stability_eigenvalue(exponential(), trivial_point(grid)).mu1
    rho = ((1.0 / 513) / (1.0 / 1025)) ** 2
    extrapolated = (rho * vals[1024] - vals[512]) / (rho - 1.0)
    assert abs(extrapolated - math.pi**4) / math.pi**4 < 1e-3


def test_disk_bessel_oracle():
    # N = 2 ground eigenvalue is the fourth power of the first J0 zero
    j0 = first_j0_zero()
    assert abs(j0 - 2.404825557695773) < 1e-12
    errs = []
    for n in (256, 512):
        grid = RadialGrid(2, n)
        mu1 = smallest_stability_eigenvalue(exponential(), trivial_point(grid)).mu1
        errs.append(abs(mu1 - j0**4))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / j0**4 < 1e-5


def test_trivial_point_semistable():
    grid = RadialGrid(3, 256)
    assert smallest_stability_eigenvalue(exponential(), trivial_point(grid)).mu1 >= -1e-8


def test_report_invariants(exp_branch):
    fam, branch = exp_branch
    grid = branch.grid
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    pt = branch.points[3]
    rep = smallest_stability_eigenvalue(fam, pt)
    psi = rep.eigenfunction
    assert abs(float(psi @ (W * psi)) - 1.0) < 1e-10
    Kp = K.apply(psi)
    rayleigh = float(Kp @ (W * Kp)) - pt.lam * float(psi @ (W * fam.fp(pt.u) * psi))
    assert abs(rayleigh - rep.mu1) <= 1e-8 * max(abs(rep.mu1), 1.0)
    assert rep.iterations <= MAX_SHIFTED_ITERS


def test_rayleigh_lower_bound(exp_branch):
    fam, branch = exp_branch
    grid = branch.grid
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    pt = branch.points[2]
    mu1 = smallest_stability_eigenvalue(fam, pt).mu1
    rng = np.random.default_rng(17)
    fpu = fam.fp(pt.u)
    for _ in range(12):
        trial = rng.standard_normal(grid.size)
        trial /= math.sqrt(float(trial @ (W * trial)))
        Kt = K.apply(trial)
        quotient = float(Kt @ (W * Kt)) - pt.lam * float(trial @ (W * fpu * trial))
        assert quotient >= mu1 - 1e-8 * max(abs(mu1), 1.0)


def test_solution_as_test_function(exp_branch):
    # psi = u in the form gives lambda int f'(u) u^2 <= int (Delta u)^2 at
    # semi-stable points
    fam, branch = exp_branch
    K = minus_laplacian(branch.grid)
    W = volume_weights(branch.grid)
    for pt in branch.pre_fold_points:
        Ku = K.apply(pt.u)
        lhs = pt.lam * float(pt.u @ (W * fam.fp(pt.u) * pt.u))
        rhs = float(Ku @ (W * Ku))
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_semistability_up_to_fold_and_crossing(exp_branch):
    fam, branch = exp_branch
    grid = branch.grid
    mu0 = smallest_stability_eigenvalue(fam, trivial_point(grid)).mu1
    mus = [smallest_stability_eigenvalue(fam, pt).mu1 for pt in branch.points]
    k = branch.fold_index
    assert all(mu >= -1e-6 * abs(mu0) for mu in mus[:k])
    post = mus[k + 1 : k + 3]
    assert any(mu < 0.0 for mu in post)
    # the sign change sits within one sample of the lambda maximum
    sign_change = next(i for i in range(1, len(mus)) if mus[i] < 0.0 <= mus[i - 1])
    assert abs(sign_change - k) <= 1


def test_mu_continuity_along_branch(exp_branch):
    fam, branch = exp_branch
    mus = [smallest_stability_eigenvalue(fam, pt).mu1 for pt in branch.points]
    ms = [pt.m for pt in branch.points]
    mu0 = abs(mus[0])
    for i in range(1, len(mus)):
        dm = ms[i] - ms[i - 1]
        assert abs(mus[i] - mus[i - 1]) <= 120.0 * max(dm, 1e-12) + 1e-6 * mu0


def test_first_fold_ends_the_minimal_branch():
    # near its critical dimension the coarse discrete branch turns several
    # times, and a later turn (near m = 266.9) can carry a larger sampled
    # lambda than the first; every point before the first turn is semi-stable
    fam = power(5.0)
    branch = continue_branch(fam, RadialGrid(15, 256), 300, SolverConfig(amplitude_step=1))
    assert branch.fold_detected
    assert branch.points[branch.fold_index].m < 30.0
    assert branch.pre_fold_points
    for pt in branch.pre_fold_points:
        assert smallest_stability_eigenvalue(fam, pt).mu1 > 0.0


def test_mems_pre_fold_semistable():
    fam = mems(2.0)
    grid = RadialGrid(4, 256)
    branch = continue_branch(fam, grid, 0.85)
    mu0 = smallest_stability_eigenvalue(fam, trivial_point(grid)).mu1
    for pt in branch.pre_fold_points:
        assert smallest_stability_eigenvalue(fam, pt).mu1 >= -1e-6 * abs(mu0)


def factored_quotient(fam, pt, psi):
    """W-Rayleigh quotient of psi for K^2 - lambda F', in factored form."""
    K = minus_laplacian(pt.grid)
    W = volume_weights(pt.grid)
    Kp = K.apply(psi)
    return (float(Kp @ (W * Kp)) - pt.lam * float(psi @ (W * fam.fp(pt.u) * psi))) / float(
        psi @ (W * psi))


def dense_leftmost_mode(fam, pt):
    """The leftmost mode of T = W^(1/2) B W^(-1/2), B = K^2 - lambda F', by a
    dense solver: its eigenvalue, accurate only to ~eps * ||T||, the factored
    W-Rayleigh quotient of its eigenvector, accurate to rounding, and ||T||_1."""
    K = minus_laplacian(pt.grid)
    W = volume_weights(pt.grid)
    s = np.sqrt(W)
    fpu = fam.fp(pt.u)
    Kd = np.column_stack([K.apply(e) for e in np.eye(pt.grid.size)])
    T = (s[:, None] * (Kd @ Kd - pt.lam * np.diag(fpu))) / s[None, :]
    T = 0.5 * (T + T.T)
    values, vectors = np.linalg.eigh(T)
    quotient = factored_quotient(fam, pt, vectors[:, 0] / s)
    return float(values[0]), quotient, float(np.max(np.sum(np.abs(T), axis=0)))


@pytest.mark.parametrize("fam, N, m_max", [(exponential(), 3, 6.0), (power(2.0), 4, 3.0),
                                           (mems(2.0), 4, 0.9)])
def test_leftmost_mode_through_the_fold(fam, N, m_max):
    # every point, on both sides of the fold, against the dense spectrum
    branch = continue_branch(fam, RadialGrid(N, 64), m_max)
    assert branch.fold_detected
    for pt in branch.points:
        rep = smallest_stability_eigenvalue(fam, pt)
        value, quotient, t_norm = dense_leftmost_mode(fam, pt)
        assert abs(rep.mu1 - value) <= np.finfo(float).eps * t_norm
        assert abs(rep.mu1 - quotient) <= 1e-8 * max(abs(rep.mu1), 1.0)
        assert rep.iterations <= MAX_SHIFTED_ITERS


CHAINS = [(exponential(), 3, 6.0), (power(2.0), 4, 3.0), (mems(2.0), 4, 0.9)]


@pytest.mark.parametrize("fam, N, m_max", CHAINS)
def test_certified_shift_through_the_fold(fam, N, m_max, monkeypatch):
    # chained and unchained, every point's certified shift lies below the
    # dense leftmost eigenvalue and within one margin of it
    eps = np.finfo(float).eps
    shifts = []
    cholesky = stability._cholesky

    def recording_cholesky(upper, sigma):
        chol = cholesky(upper, sigma)
        if chol is not None:
            shifts.append(sigma)
        return chol

    monkeypatch.setattr(stability, "_cholesky", recording_cholesky)
    branch = continue_branch(fam, RadialGrid(N, 64), m_max)
    assert branch.fold_detected
    for chained in (False, True):
        rep = None
        for pt in branch.points:
            previous = rep if chained else None
            start = previous.eigenfunction if previous else stability._start_vector(pt.grid)
            ceiling = factored_quotient(fam, pt, start)
            shifts.clear()
            rep = smallest_stability_eigenvalue(fam, pt, previous)
            value, quotient, t_norm = dense_leftmost_mode(fam, pt)
            margin = max(2.0 * eps * t_norm, 1e-6 * (1.0 + abs(ceiling)))
            sigma = shifts[-1]
            assert value - margin - eps * t_norm <= sigma < value + eps * t_norm
            assert abs(rep.mu1 - value) <= eps * t_norm
            assert abs(rep.mu1 - quotient) <= 1e-8 * max(abs(rep.mu1), 1.0)
            assert rep.iterations <= MAX_SHIFTED_ITERS


def test_certificate_cost_along_the_mu1_column(monkeypatch):
    # the two sweep cells at n = 512 whose columns cost the most, chained as
    # the CLI computes them: the start vector's residual places the first
    # trial and one inverse step the second, so most values take two
    # factorizations.  Stepping and bisecting down from the start vector's
    # quotient took 96 and 180 trials here, and 25 and 29 at the unchained
    # first points, from a cosine bump; from the plate response K^-2 1
    # itself, 37 and 128, and 19 and 20.
    trials = []
    cholesky = stability._cholesky

    def recording_cholesky(upper, sigma):
        chol = cholesky(upper, sigma)
        trials.append(chol is not None)
        return chol

    monkeypatch.setattr(stability, "_cholesky", recording_cholesky)
    counts = []
    for fam, N, m_max, most in ((exponential(), 4, 6.0, 20), (mems(2.0), 8, MEMS_M_MAX, 110)):
        branch = continue_branch(fam, RadialGrid(N, 512), m_max)
        rep, column = None, []
        for pt in branch.points:
            trials.clear()
            rep = smallest_stability_eigenvalue(fam, pt, rep)
            column.append(len(trials))
        assert sum(column) <= most, (fam.spec, column)
        counts += column
        # unchained, the first point starts from the plate's settled ground
        # mode: its first trial succeeds, and so does the cut one margin
        # below the inverse step's quotient
        trials.clear()
        smallest_stability_eigenvalue(fam, branch.points[0])
        assert trials[0] and len(trials) <= 3, (fam.spec, trials)
    assert np.median(counts) <= 2, counts


def test_touchdown_mode_at_the_mems_limit():
    # at m = MEMS_M_MAX the leftmost mode is localized at the touchdown
    # point and near -8e13; a start vector barely overlapping it leaves
    # inverse iteration on another mode unless the shift sits next to mu1.
    # ||T||_1 is about |mu1| here, so the dense eigenvalue, exact to
    # eps * ||T||_1, is good to about 2e-16 relative.  The branch stops one
    # sample past its fold at 0.955, so solves that halve the gap to
    # touchdown carry it on to the limit.
    fam, grid = mems(2.0), RadialGrid(8, 64)
    points = continue_branch(fam, grid, MEMS_M_MAX).points
    while points[-1].m < MEMS_M_MAX:
        m = min(1.0 - 0.5 * (1.0 - points[-1].m), MEMS_M_MAX)
        points.append(solve_at_amplitude(fam, grid, m, guess=points[-1]))
    last = points[-1]
    assert last.m == MEMS_M_MAX
    value = dense_leftmost_mode(fam, last)[0]
    assert value < 0.0
    rep = None
    for pt in points:
        rep = smallest_stability_eigenvalue(fam, pt, rep)
    for mu1 in (rep.mu1, smallest_stability_eigenvalue(fam, last).mu1):
        assert mu1 < 0.0
        assert abs(mu1 - value) <= 1e-12 * abs(value)


@pytest.mark.filterwarnings("error")
def test_infinite_lambda_raises():
    grid = RadialGrid(3, 64)
    fam = exponential()
    report = smallest_stability_eigenvalue(fam, trivial_point(grid))
    zero = np.zeros(grid.size)
    pt = BranchPoint(0.0, math.inf, zero, zero.copy(), 0.0, 0, grid)
    for previous in (None, report):
        with pytest.raises(EigenIterationError):
            smallest_stability_eigenvalue(fam, pt, previous)


@pytest.mark.parametrize("fam, N, m_max", CHAINS)
def test_adversarial_previous_report(fam, N, m_max):
    # a previous report 1e4 off in either direction, with a random vector,
    # still yields the leftmost mode in a few solves at every point
    branch = continue_branch(fam, RadialGrid(N, 64), m_max)
    rng = np.random.default_rng(11)
    for pt in branch.points:
        value, quotient, t_norm = dense_leftmost_mode(fam, pt)
        for offset in (1e4, -1e4):
            previous = StabilityReport(quotient + offset, rng.standard_normal(pt.grid.size), 0)
            rep = smallest_stability_eigenvalue(fam, pt, previous)
            assert abs(rep.mu1 - value) <= np.finfo(float).eps * t_norm
            assert rep.iterations <= MAX_SHIFTED_ITERS


def test_deep_post_fold_leftmost_eigenvalue():
    # far past the fold the leftmost eigenvalue is large and negative while
    # other modes sit near zero; the solver must not return one of those.
    # Dense symmetric eigensolver on the similarity transform as oracle.
    fam = exponential()
    grid = RadialGrid(3, 96)
    branch = continue_branch(fam, grid, 6.0)
    pt = branch.points[-1]
    rep = smallest_stability_eigenvalue(fam, pt)
    K = minus_laplacian(grid)
    W = volume_weights(grid)
    M = grid.size
    Kd = np.zeros((M, M))
    for j in range(M):
        e = np.zeros(M)
        e[j] = 1.0
        Kd[:, j] = K.apply(e)
    B = Kd @ Kd - pt.lam * np.diag(fam.fp(pt.u))
    s = np.sqrt(W)
    T = (s[:, None] * B) / s[None, :]
    dense = float(np.min(np.linalg.eigvalsh(0.5 * (T + T.T))))
    assert rep.mu1 < 0.0
    assert abs(rep.mu1 - dense) <= 1e-6 * max(abs(dense), 1.0)
    # and the first few modes above it really are distinct
    mus = [smallest_stability_eigenvalue(fam, p).mu1 for p in branch.points]
    post = [mu for p, mu in zip(branch.points, mus) if p.m > branch.points[branch.fold_index].m]
    assert all(b < a for a, b in zip(post, post[1:]))  # strictly deepening
