"""Minimal-branch continuation for Delta^2 u = lambda f(u), hinged boundary.

Solutions are parametrized by the amplitude m = u(0) rather than by lambda,
so the fold (the maximum of lambda along the minimal branch) needs no
arclength machinery: lambda joins (u, v) as an unknown and the closing
equation is the amplitude constraint.  Each point solves the first-order
system

    -Delta_h u = v,   -Delta_h v = lambda f(u),   u(0) = m,

by damped Newton iteration on the banded Jacobian, bordered by the lambda
column and the constraint row.  Continuation marches m upward with adaptive
steps and secant warm starts; the extremal parameter is estimated as the
vertex of the parabola through the three samples bracketing the lambda
maximum.

The solved branch keeps every point; ``pre_fold_points`` exposes the
segment strictly before the sampled lambda maximum, which is certainly on
the stable side of the fold (past the fold lambda decreases, so a sample
beyond the true fold can never carry a larger lambda than a later one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .families import FamilyDomainError, NonlinearityFamily
from .radial import RadialGrid, BandedOperator, minus_laplacian

__all__ = [
    "SolverConfig",
    "BranchPoint",
    "Branch",
    "NewtonDivergedError",
    "TouchdownError",
    "ContinuationError",
    "solve_at_amplitude",
    "continue_branch",
    "trivial_point",
]

MAX_NEWTON = 50  # Newton steps per point
DAMPING = 0.5  # line-search step reduction
STEP_GROWTH = 2.0  # continuation step growth after fast convergence
MAX_STEP_FACTOR = 4.0  # largest continuation step, in units of amplitude_step
MIN_STEP_FACTOR = 1.0 / 1024.0  # smallest one before continuation gives up
FOLD_REFINE_FACTOR = 64.0  # fold bracket width target: amplitude_step / this
# touchdown margin: iterates of the singular family keep max(u) < 1 - MEMS_GUARD
MEMS_GUARD = 1e-6
# loosest Newton tolerance a run may ask for: the discretization error the
# test suite measures between n = 1024 and n = 2048
MAX_NEWTON_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """The two solver settings a run chooses.

    ``newton_tol`` bounds both the residual max-norm relative to the natural
    row scale of the system (an absolute max-norm of 1e-10 sits below the
    1/h^2 rounding noise on fine grids) and the relative size of the last
    applied Newton update, and may be at most MAX_NEWTON_TOL.
    ``amplitude_step`` is the initial continuation step in the amplitude m.
    """

    newton_tol: float = 1e-10
    amplitude_step: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.newton_tol <= MAX_NEWTON_TOL:
            raise ValueError(f"newton_tol must lie in (0, {MAX_NEWTON_TOL:g}]")
        if not 0.0 < self.amplitude_step < np.inf:
            raise ValueError("amplitude_step must be positive and finite")


@dataclass
class BranchPoint:
    """One converged solution triple keyed by its amplitude."""

    m: float
    lam: float
    u: np.ndarray
    v: np.ndarray
    residual_norm: float
    newton_iters: int
    grid: RadialGrid = field(repr=False)


@dataclass
class Branch:
    """Ordered solution points by increasing amplitude."""

    points: list[BranchPoint]
    lambda_star_estimate: float
    fold_detected: bool
    grid: RadialGrid = field(repr=False)
    family_spec: str = ""

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([p.m for p in self.points])

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def fold_index(self) -> int:
        """Index of the sampled lambda maximum."""
        return int(np.argmax(self.lambdas))

    @property
    def pre_fold_points(self) -> list[BranchPoint]:
        """Points strictly before the sampled lambda maximum."""
        return self.points[: self.fold_index]


class NewtonDivergedError(RuntimeError):
    """Newton failed to reduce the residual; carries the last iterate."""

    def __init__(self, message: str, last_iterate: BranchPoint | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate


class TouchdownError(RuntimeError):
    """A singular-family iterate reached the touchdown guard."""

    def __init__(self, message: str, last_iterate: BranchPoint | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate


class ContinuationError(RuntimeError):
    """Continuation aborted; carries the partial branch solved so far."""

    def __init__(self, message: str, partial: Branch | None = None):
        super().__init__(message)
        self.partial = partial


def _touchdown_bound(family: NonlinearityFamily) -> float | None:
    return 1.0 - MEMS_GUARD if family.singular else None


def _residual(K: BandedOperator, family, u, v, lam, m):
    """Residual blocks, f(u), and the rowwise-scaled max-norm (inf, with no
    blocks, where u leaves the family's domain or f(u) is not finite).

    Each block is measured against its own row magnitude: the two operator
    rows against the stencil scale (an absolute max-norm of 1e-10 sits
    below 1/h^2 rounding noise on fine grids), the amplitude constraint
    against max(1, m) so it is enforced at its natural order-one scale.
    """
    try:
        fu = family.f(u)
    except FamilyDomainError:
        return None, None, None, None, np.inf  # no f(u), so no residual to measure
    if not np.all(np.isfinite(fu)):
        return None, None, None, fu, np.inf  # f overflowed: no residual to measure
    Ku = K.apply(u)
    Kv = K.apply(v)
    R1 = Ku - v
    R2 = Kv - lam * fu
    R3 = u[0] - m
    D = float(np.max(np.abs(K.diag)))
    scale1 = max(1.0, D * float(np.max(np.abs(u))) + float(np.max(np.abs(v))))
    scale2 = max(1.0, D * float(np.max(np.abs(v))) + abs(lam) * float(np.max(np.abs(fu))))
    rn = max(
        float(np.max(np.abs(R1))) / scale1,
        float(np.max(np.abs(R2))) / scale2,
        abs(R3) / max(1.0, abs(m)),
    )
    return R1, R2, R3, fu, rn


def _newton(K, family, grid, m, u, v, lam, config) -> BranchPoint:
    """Damped bordered Newton on the augmented system at fixed amplitude.

    A point is accepted when the rowwise-scaled residual is below
    newton_tol *and* the last applied Newton update was below newton_tol
    relative to the iterate — the residual alone floors at rounding level
    long before lambda has stabilized, while the update criterion pins
    (u, v, lambda) to about newton_tol in relative terms.
    """
    guard = _touchdown_bound(family)
    M = grid.size
    sub, diag, sup = K.sub, K.diag, K.sup
    update_rel = None
    rn = None
    for it in range(MAX_NEWTON + 1):
        R1, R2, R3, fu, rn = _residual(K, family, u, v, lam, m)
        if not np.isfinite(rn):  # only a starting iterate can get here
            raise NewtonDivergedError(f"no finite residual at the start at m={m:g}")
        if rn <= config.newton_tol and update_rel is not None and update_rel <= config.newton_tol:
            return BranchPoint(m, float(lam), u, v, rn, it, grid)
        if it == MAX_NEWTON:
            break
        # interleaved unknowns (u_0, v_0, u_1, v_1, ...): bandwidth (2, 2)
        ab = np.zeros((5, 2 * M))
        ab[2, 0::2] = diag
        ab[2, 1::2] = diag
        ab[0, 2::2] = sup[:-1]
        ab[0, 3::2] = sup[:-1]
        ab[1, 1::2] = -1.0
        ab[3, 0::2] = -lam * family.fp(u)
        ab[4, 0:-2:2] = sub[1:]
        ab[4, 1:-1:2] = sub[1:]
        rhs = np.zeros((2 * M, 2))
        rhs[0::2, 0] = -R1
        rhs[1::2, 0] = -R2
        rhs[1::2, 1] = -fu  # border column: d(residual)/d(lambda)
        sol = solve_banded((2, 2), ab, rhs, check_finite=False, overwrite_ab=True)
        y, z = sol[:, 0], sol[:, 1]
        # bordering: solve the rank-one-extended system via two banded solves
        dlam = (y[0] + R3) / z[0]
        dz = y - dlam * z
        du, dv = dz[0::2], dz[1::2]
        t = 1.0
        accepted = False
        while t >= 2.0 ** (-24):
            un = u + t * du
            vn = v + t * dv
            ln = lam + t * dlam
            if guard is not None and float(np.max(un)) >= guard:
                t *= DAMPING
                continue
            rn_new = _residual(K, family, un, vn, ln, m)[4]
            if rn_new < rn * (1.0 - 1e-4 * t) or rn_new <= config.newton_tol:
                accepted = True
                break
            t *= DAMPING
        if not accepted:
            last = BranchPoint(m, float(lam), u, v, rn, it, grid)
            if guard is not None and float(np.max(u + du)) >= guard:
                raise TouchdownError(
                    f"iterate at m={m:g} pushed past the touchdown guard", last
                )
            raise NewtonDivergedError(
                f"line search stalled at m={m:g}, residual {rn:.3e}", last
            )
        update_rel = t * max(
            float(np.max(np.abs(du))) / max(1.0, float(np.max(np.abs(u)))),
            float(np.max(np.abs(dv))) / max(1.0, float(np.max(np.abs(v)))),
            abs(dlam) / max(1.0, abs(lam)),
        )
        u, v, lam = un, vn, ln
    last = BranchPoint(m, float(lam), u, v, rn, MAX_NEWTON, grid)
    raise NewtonDivergedError(f"no convergence in {MAX_NEWTON} iterations at m={m:g}", last)


def _initial_guess(K, family, grid, m):
    """Cold start for the smallest amplitude: parabolic profile, fitted lambda."""
    u = m * (1.0 - grid.r**2)
    v = K.apply(u)
    fu = family.f(u)
    if not np.all(np.isfinite(fu)):
        raise NewtonDivergedError(f"f(u) overflows at the initial guess at m={m:g}")
    # the fit against fu scaled by a power of two cannot overflow, and gives
    # the same bits as the unscaled one wherever that one does not overflow
    e = int(np.frexp(np.max(np.abs(fu)))[1])
    g = np.ldexp(fu, -e)
    lam = float(np.ldexp(float(K.apply(v) @ g) / float(g @ g), -e))
    return u, v, max(lam, 1e-8)


def solve_at_amplitude(
    family: NonlinearityFamily,
    grid: RadialGrid,
    m: float,
    guess: BranchPoint | None = None,
    config: SolverConfig | None = None,
) -> BranchPoint:
    """Solve the augmented system at amplitude m = u(center).

    ``guess`` warm-starts Newton from an earlier point on the same grid.
    """
    config = config or SolverConfig()
    if m <= 0.0:
        raise ValueError("amplitude must be positive")
    guard = _touchdown_bound(family)
    if guard is not None and m >= guard:
        raise ValueError(f"amplitude {m:g} violates the touchdown guard {guard:g}")
    K = minus_laplacian(grid)
    if guess is not None:
        if guess.grid.key() != grid.key():
            raise ValueError("warm-start point lives on a different grid")
        u, v, lam = guess.u.copy(), guess.v.copy(), guess.lam
    else:
        u, v, lam = _initial_guess(K, family, grid, m)
    return _newton(K, family, grid, m, u, v, lam, config)


def _refine_lambda_star(ms, lams, k):
    """Vertex of the parabola through the three samples bracketing the max."""
    if not 0 < k < len(ms) - 1:
        return float(lams[k])
    m0, m1, m2 = ms[k - 1], ms[k], ms[k + 1]
    l0, l1, l2 = lams[k - 1], lams[k], lams[k + 1]
    d1 = (l1 - l0) / (m1 - m0)
    d2 = (l2 - l1) / (m2 - m1)
    c = (d2 - d1) / (m2 - m0)
    if c >= 0.0:
        return float(l1)
    mstar = 0.5 * (m0 + m1) - d1 / (2.0 * c)
    return float(l0 + d1 * (mstar - m0) + c * (mstar - m0) * (mstar - m1))


def continue_branch(
    family: NonlinearityFamily,
    grid: RadialGrid,
    m_max: float,
    config: SolverConfig | None = None,
) -> Branch:
    """March the amplitude from one step up to m_max, warm-starting each solve.

    Steps halve whenever Newton diverges (or a singular iterate touches
    down) and grow after fast convergence, capped at
    MAX_STEP_FACTOR * amplitude_step.  A fold is recorded when the sampled
    lambda attains an interior maximum; the extremal-parameter estimate is
    the refined parabola vertex there.
    """
    config = config or SolverConfig()
    if m_max <= 0.0:
        raise ValueError("m_max must be positive")
    guard = _touchdown_bound(family)
    if guard is not None and m_max >= guard:
        raise ValueError(f"m_max {m_max:g} violates the touchdown guard {guard:g}")
    K = minus_laplacian(grid)
    step0 = config.amplitude_step
    step_cap = MAX_STEP_FACTOR * step0
    step_floor = MIN_STEP_FACTOR * step0
    points: list[BranchPoint] = []
    prev: BranchPoint | None = None
    prev2: BranchPoint | None = None
    step = min(step0, m_max)
    m_target = step
    while True:
        try:
            if prev is None:
                u, v, lam = _initial_guess(K, family, grid, m_target)
            elif prev2 is None:
                u, v, lam = prev.u.copy(), prev.v.copy(), prev.lam
            else:
                # secant predictor through the last two points
                w = (m_target - prev.m) / (prev.m - prev2.m)
                u = prev.u + w * (prev.u - prev2.u)
                v = prev.v + w * (prev.v - prev2.v)
                lam = prev.lam + w * (prev.lam - prev2.lam)
                if guard is not None and float(np.max(u)) >= guard:
                    u, v, lam = prev.u.copy(), prev.v.copy(), prev.lam
            pt = _newton(K, family, grid, m_target, u, v, lam, config)
        except (NewtonDivergedError, TouchdownError) as exc:
            step *= 0.5
            if step < step_floor:
                partial = _assemble_branch(points, grid, family)
                raise ContinuationError(
                    f"step fell below {step_floor:g} near m={m_target:g}: {exc}", partial
                ) from exc
            m_target = (prev.m + step) if prev is not None else step
            continue
        prev2, prev = prev, pt
        points.append(pt)
        if m_target >= m_max:
            break
        if pt.newton_iters <= 4:
            step = min(step * STEP_GROWTH, step_cap)
        m_next = min(m_target + step, m_max)
        if guard is not None:
            m_next = min(m_next, guard * (1.0 - 1e-12))
        if m_next <= m_target:
            break
        m_target = m_next
    _refine_fold_bracket(K, family, grid, config, points)
    return _assemble_branch(points, grid, family)


def _refine_fold_bracket(K, family, grid, config, points) -> None:
    """Bisect the amplitude bracket around the sampled lambda maximum.

    Marching alone leaves the fold between coarse samples; repeatedly
    solving at the midpoint of the wider flank of the three-point bracket
    clusters samples at the fold, which sharpens the parabola vertex used
    for the extremal-parameter estimate and lets the tracked integrals
    flatten visibly as the fold is approached.  New points are inserted in
    amplitude order.  Stops once the bracket is narrower than
    amplitude_step / FOLD_REFINE_FACTOR.
    """
    if len(points) < 3:
        return
    width_target = config.amplitude_step / FOLD_REFINE_FACTOR
    for _ in range(200):
        lams = [p.lam for p in points]
        k = int(np.argmax(lams))
        if k == 0 or k == len(points) - 1:
            return
        left, mid, right = points[k - 1], points[k], points[k + 1]
        if right.m - left.m <= width_target:
            return
        if mid.m - left.m >= right.m - mid.m:
            m_new = 0.5 * (left.m + mid.m)
            insert_at = k
        else:
            m_new = 0.5 * (mid.m + right.m)
            insert_at = k + 1
        try:
            pt = _newton(K, family, grid, m_new, mid.u.copy(), mid.v.copy(), mid.lam, config)
        except (NewtonDivergedError, TouchdownError):
            return
        points.insert(insert_at, pt)


def _assemble_branch(points, grid, family) -> Branch:
    if not points:
        return Branch([], 0.0, False, grid, family.spec)
    lams = np.array([p.lam for p in points])
    ms = np.array([p.m for p in points])
    k = int(np.argmax(lams))
    fold = 0 < k < len(points) - 1
    lam_star = _refine_lambda_star(ms, lams, k) if fold else float(lams[k])
    return Branch(points, lam_star, fold, grid, family.spec)


def trivial_point(grid: RadialGrid) -> BranchPoint:
    """The zero solution at lambda = 0 (useful as a reference state)."""
    z = np.zeros(grid.size)
    return BranchPoint(0.0, 0.0, z, z.copy(), 0.0, 0, grid)
