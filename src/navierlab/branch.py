"""Minimal-branch continuation for Delta^2 u = lambda f(u), hinged boundary.

Solutions are parametrized by the amplitude m = u(0) rather than by lambda,
so the fold (where lambda turns back along the minimal branch) needs no
arclength machinery: lambda joins u as an unknown and the closing equation
is the amplitude constraint.  With K = -Delta_h (Dirichlet data gives u = 0,
and Delta u = -K u = 0, on the boundary) each point solves

    K^2 u = lambda f(u),   u(0) = m,

by damped Newton iteration on B = K^2 - lambda diag f'(u), the operator
whose smallest eigenvalue mu1 decides semi-stability, bordered by the
lambda column and the constraint row.  LAPACK ``dgbsv`` (from
``navierlab._lapack``, without the ``scipy.linalg`` package init) factors
it.  A march solve starts from the cubic Hermite through the last two solved
points, every other solve from the Euler step along a solved point's tangent.
Continuation starts at the trivial solution (lambda, u) = (0, 0), marches m
upward with adaptive steps until a point is not semi-stable (or m reaches
m_max), then solves at the first fold, this grid's extremal solution u*.

The minimal branch is the branch of semi-stable solutions, so one flag on
every point, read from its slope and its mu1 (certified once, as the point
is solved, by ``navierlab.stability``), decides the fold, between the last
semi-stable point and the first that is not; a ``Branch`` derives from its
points the fold, whether one was passed, lambda* and ``pre_fold_points``.
lambda alone would not do: it can fall between semi-stable samples, and
later turns rise higher.
"""

from __future__ import annotations

import numpy as np

from ._lapack import dgbsv
from .errors import ContinuationError
from .families import FamilyDomainError, NonlinearityFamily
from .radial import RadialGrid, BandedOperator, minus_laplacian, solve_navier_biharmonic
from .stability import _REL_MARGIN, StabilityReport, smallest_stability_eigenvalue

__all__ = [
    "SolverConfig",
    "BranchPoint",
    "Branch",
    "NewtonDivergedError",
    "ContinuationError",
    "solve_at_amplitude",
    "continue_branch",
    "trivial_point",
]

MAX_NEWTON = 50  # Newton steps per point
DAMPING = 0.5  # line-search step reduction
DECREASE = 1e-4  # a line-search step t must lower the residual by DECREASE * t, relative
# steps in a row whose residual falls by less than DECREASE before Newton
# gives up: twice the longest such run, 3, of any converging solve on the
# reference cells, the first-step scan and the 36-cell n = 512 sweep
STALL_STEPS = 6
STEP_GROWTH = 2.0  # largest continuation step growth
MIN_STEP_FACTOR = 1.0 / 1024.0  # smallest one before continuation gives up
MAX_POINTS = 10_000  # the most points a march solves before it gives up
# the singular family is continued no further than this amplitude, which the
# grid still resolves; its fold sits far below
MEMS_M_MAX = 1.0 - 1e-4
# loosest Newton tolerance a run may ask for: the discretization error the
# test suite measures between n = 1024 and n = 2048
MAX_NEWTON_TOL = 1e-6


class SolverConfig:
    """The two solver settings a run chooses.

    ``newton_tol`` bounds both the residual max-norm relative to the natural
    row scale of the system (an absolute max-norm of 1e-10 sits below the
    1/h^2 rounding noise on fine grids) and the relative size of the last
    applied Newton update, and may be at most MAX_NEWTON_TOL.
    ``amplitude_step`` is the first continuation step in the amplitude m;
    ``continue_branch`` sizes the later ones from newton_tol.
    """

    __slots__ = ("newton_tol", "amplitude_step")

    def __init__(self, newton_tol: float = 1e-10, amplitude_step: float = 0.05):
        if not 0.0 < newton_tol <= MAX_NEWTON_TOL:
            raise ValueError(f"newton_tol must lie in (0, {MAX_NEWTON_TOL:g}]")
        if not 0.0 < amplitude_step < np.inf:
            raise ValueError("amplitude_step must be positive and finite")
        self.newton_tol, self.amplitude_step = newton_tol, amplitude_step


class BranchPoint:
    """One solution at amplitude m, with v = K u = -Delta_h u, its tangent
    (du_dm, dlam_dm), the certified smallest eigenvalue of B = K^2 - lambda
    f'(u) (``stability``, None at the trivial point) and whether B is
    semi-stable there."""

    __slots__ = ("m", "lam", "u", "v", "residual_norm", "newton_iters", "grid", "dlam_dm",
                 "du_dm", "semi_stable", "stability")

    def __init__(self, m: float, lam: float, u: np.ndarray, v: np.ndarray, residual_norm: float,
                 newton_iters: int, grid: RadialGrid, dlam_dm: float = np.nan,
                 du_dm: np.ndarray | None = None, semi_stable: bool = True,
                 stability: StabilityReport | None = None):
        self.m, self.lam, self.u, self.v, self.residual_norm = m, lam, u, v, residual_norm
        self.newton_iters, self.grid, self.dlam_dm, self.du_dm = newton_iters, grid, dlam_dm, du_dm
        self.semi_stable, self.stability = semi_stable, stability


class Branch:
    """Ordered solution points by increasing amplitude; the fold and the
    extremal-parameter estimate are derived from them."""

    __slots__ = ("points", "grid")

    def __init__(self, points: list[BranchPoint], grid: RadialGrid):
        self.points, self.grid = points, grid

    @property
    def fold_index(self) -> int:
        """Index of the first fold: the better in lambda of the last
        semi-stable point and the first that is not, so the largest lambda
        up to there, as lambda rises wherever B is positive definite.  That
        is u* whichever way its own flag, rounding as mu1 is about 0, reads.
        The last point is the fold only when every point is semi-stable,
        never as the march's sample past the fold.  With no point, or no
        semi-stable one kept, it is 0: a fold solve at u*, or the first
        sample, past the fold, if every fold solve diverged."""
        pts = self.points
        first = next((k for k, pt in enumerate(pts) if not pt.semi_stable), len(pts))
        if 0 < first < len(pts) - 1 and pts[first].lam > pts[first - 1].lam:
            return first
        return max(first - 1, 0)

    @property
    def fold_detected(self) -> bool:
        """Whether the branch passed its first fold: some point is not semi-stable."""
        return not all(pt.semi_stable for pt in self.points)

    @property
    def lambda_star_estimate(self) -> float:
        """Lambda at the fold index: the solved u* of a detected fold, the
        sampled maximum of a rising branch (0.0 with no points)."""
        return float(self.points[self.fold_index].lam) if self.points else 0.0

    @property
    def pre_fold_points(self) -> list[BranchPoint]:
        """The semi-stable segment: every point up to and including the fold."""
        return self.points[: self.fold_index + 1]


class NewtonDivergedError(RuntimeError):
    """Newton failed to reduce the residual."""


def _residual(K: BandedOperator, D, family, u, lam, m):
    """Residual K(K u) - lambda f(u), its amplitude row, f(u), and the
    rowwise-scaled max-norm (inf, with no residual, where u leaves the
    family's domain or the residual or its scale overflows).

    Two tridiagonal products evaluate the residual; the K^2 stencil would
    cancel badly.  Its rows are measured against their binary64 rounding
    scale D (D |u| + |K u|) + |lambda| |f(u)| in max-norms, D = max|K.diag|,
    the amplitude constraint against max(1, m), its natural order-one scale.
    """
    try:
        fu = family.f(u)
    except FamilyDomainError:
        return None, None, None, np.inf  # no f(u), so no residual to measure
    with np.errstate(over="ignore", invalid="ignore"):
        Ku = K.apply(u)
        R = K.apply(Ku) - lam * fu
        scale = max(1.0, D * (D * float(np.abs(u).max()) + float(np.abs(Ku).max()))
                    + abs(lam) * float(np.abs(fu).max()))
        R_max = float(np.abs(R).max())
        if not np.isfinite(R_max + scale):  # the sum may overflow too
            return None, None, fu, np.inf  # overflow: no residual to measure
    R_amp = u[0] - m
    rn = max(R_max / scale, abs(R_amp) / max(1.0, abs(m)))
    return R, R_amp, fu, rn


def _newton(K, family, grid, m, u, lam, config, previous) -> BranchPoint:
    """Damped bordered Newton on (u, lambda) at fixed amplitude.

    A point is accepted when the rowwise-scaled residual is below
    newton_tol *and* the last applied Newton update was below newton_tol
    relative to the iterate — the residual alone floors at rounding level
    long before lambda has stabilized, while the update criterion pins
    (u, lambda) to about newton_tol in relative terms.  The accepted point
    carries v = K u.  Each step factors B (``K.square_bands`` with the
    diagonal shifted) once for both columns of the bordered solve; a solve
    that is not finite, or whose border pivot z[0] vanishes, fails the
    step.  The accepted line-search trial's residual starts the next step;
    STALL_STEPS steps in a row that lower it by less than DECREASE relative
    end the solve.
    The m-derivative of the system, B du/dm = f(u) dlambda/dm with
    du/dm[0] = 1, makes the last solve's B z = -f(u) the branch tangent,
    stored on the point: du/dm = z / z[0], dlambda/dm = -1 / z[0].  So is
    its ``stability`` report, chained from ``previous`` (the report of the
    point the solve started from), and whether B is semi-stable:
    dlambda/dm > 0, as wherever B is positive definite, and mu1 >=
    -_REL_MARGIN, the certificate's margin, as next to u* the two disagree
    by rounding (mems:p=2 N=3 n=512: +1.6e-7 and -5.1e-8; a bound of 0
    tripled that fold's solves).
    """
    D = float(np.abs(K.diag).max())
    res = _residual(K, D, family, u, lam, m)
    if not np.isfinite(res[3]):
        raise NewtonDivergedError(f"no finite residual at the start at m={m:g}")
    update_rel, stalled = None, 0
    # bandwidth (2, 2) in the gbsv layout (row 4 + i - j holds entry (i, j);
    # rows 0-1 take the factorization's fill-in, which dgbsv sets itself),
    # Fortran-ordered so dgbsv factors it, and solves the right-hand sides,
    # in place at every step
    ab = np.zeros((7, grid.size), order="F")
    rhs = np.empty((grid.size, 2), order="F")
    for it in range(MAX_NEWTON + 1):
        R, R_amp, fu, rn = res
        if rn <= config.newton_tol and update_rel is not None and update_rel <= config.newton_tol:
            dlam_dm = -1.0 / float(z[0])
            pt = BranchPoint(m, float(lam), u, K.apply(u), rn, it, grid, dlam_dm, z / z[0])
            pt.stability = smallest_stability_eigenvalue(family, pt, previous)
            pt.semi_stable = dlam_dm > 0.0 and pt.stability.mu1 >= -_REL_MARGIN
            return pt
        if it == MAX_NEWTON:
            break
        if stalled == STALL_STEPS:
            raise NewtonDivergedError(f"residual stalled at {rn:.3e} after {it} iterations "
                                      f"at m={m:g}")
        ab[2:] = K.square_bands
        ab[4] -= lam * family.fp(u)
        np.negative(R, out=rhs[:, 0])
        np.negative(fu, out=rhs[:, 1])  # -f(u) = d(residual)/d(lambda)
        _, _, sol, info = dgbsv(2, 2, ab, rhs, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
        y, z = sol[:, 0], sol[:, 1]
        # bordering: solve the rank-one-extended system via two banded solves
        dlam = (float(y[0]) + R_amp) / float(z[0]) if z[0] != 0.0 else np.inf
        if not (np.isfinite(dlam) and np.isfinite(sol).all()):
            raise NewtonDivergedError(f"no finite Newton step at m={m:g}, residual {rn:.3e}")
        du = y - dlam * z
        t = 1.0
        while True:
            if t < 2.0 ** (-24):
                raise NewtonDivergedError(f"line search stalled at m={m:g}, residual {rn:.3e}")
            un = u + t * du
            ln = lam + t * dlam
            res = _residual(K, D, family, un, ln, m)
            if res[3] < rn * (1.0 - DECREASE * t) or res[3] <= config.newton_tol:
                break
            t *= DAMPING
        update_rel = t * max(
            float(np.abs(du).max()) / max(1.0, float(np.abs(u).max())),
            abs(dlam) / max(1.0, abs(lam)),
        )
        stalled = stalled + 1 if res[3] >= rn * (1.0 - DECREASE) else 0
        u, lam = un, ln
    raise NewtonDivergedError(f"no convergence in {MAX_NEWTON} iterations at m={m:g}")


def _predict(point: BranchPoint, m: float) -> tuple[np.ndarray, float]:
    """The Euler step from a solved point along its tangent to amplitude m:
    the (u, lambda) a solve from one point starts from."""
    dm = m - point.m
    return point.u + dm * point.du_dm, point.lam + dm * point.dlam_dm


def _hermite(a: BranchPoint, b: BranchPoint, m: float) -> tuple[np.ndarray, float]:
    """The cubic Hermite interpolant of (u, lambda) through the solved points
    a and b, from their values and tangents, at amplitude m: the (u, lambda)
    a march solve starts from once two points are solved."""
    h = b.m - a.m
    s = (m - a.m) / h
    # the cubic Hermite basis on [0, 1], the two slope weights scaled by h
    va, vb = (1.0 + 2.0 * s) * (1.0 - s) ** 2, s * s * (3.0 - 2.0 * s)
    sa, sb = h * s * (1.0 - s) ** 2, h * s * s * (s - 1.0)
    return (va * a.u + sa * a.du_dm + vb * b.u + sb * b.du_dm,
            va * a.lam + sa * a.dlam_dm + vb * b.lam + sb * b.dlam_dm)


def solve_at_amplitude(
    family: NonlinearityFamily,
    grid: RadialGrid,
    m: float,
    guess: BranchPoint | None = None,
    config: SolverConfig | None = None,
) -> BranchPoint:
    """Solve the augmented system at amplitude m = u(center).

    Newton starts from the Euler step along the tangent of ``guess``, a
    solved point on the same grid, or of the trivial point when none is given.
    That start, lambda = m / Phi(0), lies far above the branch far past the
    fold and can stall (power(2), N=4, n=256, m=10); start there from a
    solved neighbour on ``continue_branch``'s branch.  The point's
    certificate starts from the eigenfunction of ``guess``'s, if it has one.
    """
    config = config or SolverConfig()
    if not 0.0 < m < np.inf:
        raise ValueError("amplitude must be positive and finite")
    if family.singular and m > MEMS_M_MAX:
        raise ValueError(f"amplitude {m:g} exceeds the mems limit {MEMS_M_MAX:g}")
    if guess is None:
        guess = trivial_point(grid)
    elif guess.grid != grid:
        raise ValueError("warm-start point lives on a different grid")
    elif guess.du_dm is None:
        raise ValueError("warm-start point carries no tangent")
    return _newton(minus_laplacian(grid), family, grid, m, *_predict(guess, m), config,
                   guess.stability)


def continue_branch(
    family: NonlinearityFamily,
    grid: RadialGrid,
    m_max: float,
    config: SolverConfig | None = None,
) -> Branch:
    """March the amplitude from the trivial point along the minimal branch
    until a point is not semi-stable, so that the first fold lies behind it,
    or up to m_max.  The first solve starts from the Euler step along the
    trivial point's tangent, every later one from the cubic Hermite through
    the last two points (``_hermite``), which saves about one Newton step a
    point.

    Every amplitude tried is min(last accepted m + step, m_max), the first
    step amplitude_step.  An accepted point scales the step tried by
    min(STEP_GROWTH, sqrt(newton_tol ** 0.25 / c)), c the Newton correction
    of the Euler prediction from the last point, max|u - u_pred| / max(1,
    max|u|), whichever start the solve took, so that the Hermite start does
    not move the samples: that error grows like the step squared, and two
    quadratic Newton steps take newton_tol ** 0.25 down to newton_tol.  A
    divergence halves the step tried, so no retry repeats a failed solve.
    The singular family is
    continued to at most MEMS_M_MAX.  The first fold, which may lie between
    the trivial point and the first sample, is then solved (``_solve_fold``),
    on a partial branch too: a retry step below MIN_STEP_FACTOR *
    amplitude_step or one ulp of m, or MAX_POINTS points solved with neither
    end reached, raises ContinuationError carrying the Branch of the solved
    points.
    """
    config = config or SolverConfig()
    if not 0.0 < m_max < np.inf:
        raise ValueError("m_max must be positive and finite")
    if family.singular and m_max > MEMS_M_MAX:
        raise ValueError(f"m_max {m_max:g} exceeds the mems limit {MEMS_M_MAX:g}")
    K = minus_laplacian(grid)
    step_floor = MIN_STEP_FACTOR * config.amplitude_step
    target = config.newton_tol ** 0.25  # the Euler error two Newton steps correct
    points = [trivial_point(grid)]
    step = config.amplitude_step
    failure = ""
    while not failure and points[-1].semi_stable and points[-1].m < m_max:
        m_last = points[-1].m  # the last accepted amplitude
        if len(points) > MAX_POINTS:
            failure = f"the march solved its budget of {MAX_POINTS} points up to m={m_last:g}"
            break
        m_target = min(m_last + step, m_max)
        euler = _predict(points[-1], m_target)  # the step rule's yardstick
        start = _hermite(points[-2], points[-1], m_target) if len(points) > 1 else euler
        try:
            pt = _newton(K, family, grid, m_target, *start, config, points[-1].stability)
        except NewtonDivergedError as exc:
            step = 0.5 * (m_target - m_last)
            if step < step_floor:
                failure = f"step fell below {step_floor:g} near m={m_target:g}: {exc}"
            elif not m_last < m_last + step < m_target:  # below one ulp of m
                failure = f"step {step:g} no longer moves m={m_last:.17g}: {exc}"
            continue
        points.append(pt)
        c = float(np.abs(pt.u - euler[0]).max()) / max(1.0, float(np.abs(pt.u).max()))
        # min(STEP_GROWTH, sqrt(target / c)), also at c = 0
        step = (m_target - m_last) * (target / max(c, target / STEP_GROWTH**2)) ** 0.5
    _solve_fold(K, family, grid, config, points)
    branch = Branch(points[1:], grid)
    if failure:
        raise ContinuationError(failure, branch)
    return branch


def _hermite_peak(a: BranchPoint, b: BranchPoint) -> tuple[float, float]:
    """Amplitude and lambda at the peak of the cubic Hermite interpolant of
    lambda(m) through (m, lam, dlam_dm) at a and b, a.dlam_dm > 0 >= b.dlam_dm:
    in t = (m - a.m) / h, the root of its slope A t^2 + B t + sa in (0, 1]."""
    h = b.m - a.m
    sa, sb, d = h * a.dlam_dm, h * b.dlam_dm, b.lam - a.lam
    A, B = 3.0 * (sa + sb) - 6.0 * d, 6.0 * d - 4.0 * sa - 2.0 * sb
    t = 2.0 * sa / (max(B * B - 4.0 * A * sa, 0.0) ** 0.5 - B)
    return a.m + t * h, a.lam + t * (sa + t * (0.5 * B + t * A / 3.0))


def _solve_fold(K, family, grid, config, points) -> None:
    """Solve at the first fold: this grid's extremal solution u*.

    The fold lies between a, the last semi-stable point, and b, the first
    that is not, and each solve replaces the end with its ``semi_stable``.
    While b.dlam_dm > 0 (a's is, as on every semi-stable point) the solve is
    at the midpoint; after, at the ``_hermite_peak``, until that peak exceeds
    the better end, u*, by at most newton_tol relative, unless that end is
    the march's last point, which is never the fold, above a by more than
    newton_tol.  Each solve starts from the Euler step along a's tangent,
    and one that fails is retried halfway to a, until m leaves it.  The
    cubic Hermite through a and b is no start here: next to touchdown
    (mems:p=2, N = 9 to 14, n = 512) solves from it diverged 32 to 44 times
    a branch, against at most two for the whole march and fold from Euler.
    """
    j = next((k for k, pt in enumerate(points) if not pt.semi_stable), None)
    if j is None:
        return  # every point is semi-stable: no fold to solve
    a, b, m_new = points[j - 1], points[j], None
    for _ in range(200):
        if m_new is None:
            m_new, peak = _hermite_peak(a, b) if b.dlam_dm <= 0.0 else (0.5 * (a.m + b.m), np.inf)
            best, tol = max(a.lam, b.lam), config.newton_tol
            last_best = b is points[-1] and b.lam - a.lam > tol * abs(a.lam)
            if peak - best <= tol * abs(best) and not last_best:
                return
        if not a.m < m_new < b.m:
            return
        try:
            pt = _newton(K, family, grid, m_new, *_predict(a, m_new), config, a.stability)
        except NewtonDivergedError:
            m_new = 0.5 * (a.m + m_new)  # retry halfway to a
            continue
        m_new = None
        points.insert(j, pt)
        if pt.semi_stable:
            a, j = pt, j + 1
        else:
            b = pt


def trivial_point(grid: RadialGrid) -> BranchPoint:
    """The zero solution at lambda = 0, where every branch starts, with its
    exact tangent: f(0) = 1 turns the m-derivative of K^2 u = lambda f(u)
    into K^2 du/dm = dlambda/dm, so du/dm = Phi / Phi(0) and dlambda/dm =
    1 / Phi(0), with Phi = K^-2 1 the hinged-plate response to a unit load."""
    Phi, _ = solve_navier_biharmonic(grid, np.ones(grid.size))
    z = np.zeros(grid.size)
    return BranchPoint(0.0, 0.0, z, z.copy(), 0.0, 0, grid, 1.0 / float(Phi[0]), Phi / Phi[0])
