"""Minimal-branch continuation for Delta^2 u = lambda f(u), hinged boundary.

Solutions are parametrized by the amplitude m = u(0) rather than by lambda,
so the fold (the maximum of lambda along the minimal branch) needs no
arclength machinery: lambda joins (u, v) as an unknown and the closing
equation is the amplitude constraint.  Each point solves the first-order
system

    -Delta_h u = v,   -Delta_h v = lambda f(u),   u(0) = m,

by damped Newton iteration on the banded Jacobian, bordered by the lambda
column and the constraint row; LAPACK ``dgbsv`` factors it (taken from
``navierlab._lapack``, which loads scipy's compiled LAPACK module without
the ``scipy.linalg`` package).  Continuation marches m upward with adaptive
steps and secant warm starts, then bisects the bracket around the sampled
lambda maximum.

A ``Branch`` keeps only its points and grid and derives the rest from
them by one rule: the fold is the sampled lambda maximum, detected when it
is interior, and the extremal-parameter estimate is the vertex of the
parabola through the three samples bracketing it.  ``pre_fold_points``
exposes the segment strictly before that maximum, which is certainly on
the stable side of the fold (past the fold lambda decreases, so a sample
beyond the true fold can never carry a larger lambda than a later one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lapack import dgbsv
from .families import FamilyDomainError, NonlinearityFamily
from .radial import RadialGrid, BandedOperator, minus_laplacian

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
STEP_GROWTH = 2.0  # continuation step growth after fast convergence
MAX_STEP_FACTOR = 4.0  # largest continuation step, in units of amplitude_step
MIN_STEP_FACTOR = 1.0 / 1024.0  # smallest one before continuation gives up
FOLD_REFINE_FACTOR = 64.0  # fold bracket width target: amplitude_step / this
# the singular family is continued no further than this amplitude, which the
# grid still resolves; its fold sits far below
MEMS_M_MAX = 1.0 - 1e-4
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
    """Ordered solution points by increasing amplitude; the fold and the
    extremal-parameter estimate are derived from them."""

    points: list[BranchPoint]
    grid: RadialGrid = field(repr=False)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([p.m for p in self.points])

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def fold_index(self) -> int:
        """Index of the sampled lambda maximum (0 with no points)."""
        return int(np.argmax(self.lambdas)) if self.points else 0

    @property
    def fold_detected(self) -> bool:
        """Whether the sampled lambda maximum is interior to the branch."""
        return 0 < self.fold_index < len(self.points) - 1

    @property
    def lambda_star_estimate(self) -> float:
        """Vertex of the parabola through the three samples bracketing a
        detected fold; otherwise the sampled maximum (0.0 with no points)."""
        if not self.fold_detected:
            return float(self.lambdas[self.fold_index]) if self.points else 0.0
        k = self.fold_index
        m0, m1, m2 = self.amplitudes[k - 1 : k + 2]
        l0, l1, l2 = self.lambdas[k - 1 : k + 2]
        d1 = (l1 - l0) / (m1 - m0)
        d2 = (l2 - l1) / (m2 - m1)
        c = (d2 - d1) / (m2 - m0)
        if c >= 0.0:
            return float(l1)
        mstar = 0.5 * (m0 + m1) - d1 / (2.0 * c)
        return float(l0 + d1 * (mstar - m0) + c * (mstar - m0) * (mstar - m1))

    @property
    def pre_fold_points(self) -> list[BranchPoint]:
        """Points strictly before the sampled lambda maximum."""
        return self.points[: self.fold_index]


class NewtonDivergedError(RuntimeError):
    """Newton failed to reduce the residual."""


class ContinuationError(RuntimeError):
    """Continuation aborted; carries the partial branch solved so far."""

    def __init__(self, message: str, partial: Branch | None = None):
        super().__init__(message)
        self.partial = partial


def _residual(K: BandedOperator, D, family, u, v, lam, m):
    """Residual blocks, f(u), and the rowwise-scaled max-norm (inf, with no
    blocks, where u leaves the family's domain or f(u) is not finite).

    Each block is measured against its own row magnitude: the two operator
    rows against the stencil scale, with D = max|K.diag| (an absolute
    max-norm of 1e-10 sits below 1/h^2 rounding noise on fine grids), the
    amplitude constraint against max(1, m) so it is enforced at its natural
    order-one scale.
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

    Each piece of work is done once: the Jacobian's static bands are laid
    out once per call as a template for LAPACK ``gbsv``, each step copies
    it, writes the one row that changes (-lambda f'(u)) and factors it, and
    the residual of the trial the line search accepts starts the next step.
    """
    M = grid.size
    D = float(np.max(np.abs(K.diag)))
    # interleaved unknowns (u_0, v_0, u_1, v_1, ...): bandwidth (2, 2), in
    # the gbsv layout (row 4 + i - j holds entry (i, j); rows 0-1 are the
    # factorization's fill-in), Fortran-ordered so dgbsv factors it in place
    template = np.zeros((7, 2 * M), order="F")
    template[4, 0::2] = K.diag
    template[4, 1::2] = K.diag
    template[2, 2::2] = K.sup[:-1]
    template[2, 3::2] = K.sup[:-1]
    template[3, 1::2] = -1.0
    template[6, 0:-2:2] = K.sub[1:]
    template[6, 1:-1:2] = K.sub[1:]
    res = _residual(K, D, family, u, v, lam, m)
    if not np.isfinite(res[4]):
        raise NewtonDivergedError(f"no finite residual at the start at m={m:g}")
    update_rel = None
    for it in range(MAX_NEWTON + 1):
        R1, R2, R3, fu, rn = res
        if rn <= config.newton_tol and update_rel is not None and update_rel <= config.newton_tol:
            return BranchPoint(m, float(lam), u, v, rn, it, grid)
        if it == MAX_NEWTON:
            break
        ab = template.copy(order="F")
        ab[5, 0::2] = -lam * family.fp(u)
        rhs = np.zeros((2 * M, 2), order="F")
        rhs[0::2, 0] = -R1
        rhs[1::2, 0] = -R2
        rhs[1::2, 1] = -fu  # border column: d(residual)/d(lambda)
        _, _, sol, info = dgbsv(2, 2, ab, rhs, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
        y, z = sol[:, 0], sol[:, 1]
        # bordering: solve the rank-one-extended system via two banded solves
        dlam = (y[0] + R3) / z[0]
        dz = y - dlam * z
        du, dv = dz[0::2], dz[1::2]
        t = 1.0
        while True:
            if t < 2.0 ** (-24):
                raise NewtonDivergedError(f"line search stalled at m={m:g}, residual {rn:.3e}")
            un = u + t * du
            vn = v + t * dv
            ln = lam + t * dlam
            res = _residual(K, D, family, un, vn, ln, m)
            if res[4] < rn * (1.0 - 1e-4 * t) or res[4] <= config.newton_tol:
                break
            t *= DAMPING
        update_rel = t * max(
            float(np.max(np.abs(du))) / max(1.0, float(np.max(np.abs(u)))),
            float(np.max(np.abs(dv))) / max(1.0, float(np.max(np.abs(v)))),
            abs(dlam) / max(1.0, abs(lam)),
        )
        u, v, lam = un, vn, ln
    raise NewtonDivergedError(f"no convergence in {MAX_NEWTON} iterations at m={m:g}")


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
    if family.singular and m > MEMS_M_MAX:
        raise ValueError(f"amplitude {m:g} exceeds the mems limit {MEMS_M_MAX:g}")
    K = minus_laplacian(grid)
    if guess is not None:
        if guess.grid.key() != grid.key():
            raise ValueError("warm-start point lives on a different grid")
        u, v, lam = guess.u.copy(), guess.v.copy(), guess.lam
    else:
        u, v, lam = _initial_guess(K, family, grid, m)
    return _newton(K, family, grid, m, u, v, lam, config)


def continue_branch(
    family: NonlinearityFamily,
    grid: RadialGrid,
    m_max: float,
    config: SolverConfig | None = None,
) -> Branch:
    """March the amplitude from one step up to m_max, warm-starting each solve.

    Every amplitude tried is min(last accepted m + step, m_max), with 0
    before the first point.  Steps halve whenever Newton diverges, and halve
    again while the retry would still be clamped to m_max (it would repeat
    the failed solve from the same start); they grow after fast convergence,
    capped at MAX_STEP_FACTOR * amplitude_step.  A Newton trial outside the
    family's domain is rejected by the line search like any other, and the
    singular family is continued to at most MEMS_M_MAX = 1 - 1e-4.  The
    bracket around the sampled lambda maximum is then refined; the returned
    Branch derives the fold from its points.
    """
    config = config or SolverConfig()
    if m_max <= 0.0:
        raise ValueError("m_max must be positive")
    if family.singular and m_max > MEMS_M_MAX:
        raise ValueError(f"m_max {m_max:g} exceeds the mems limit {MEMS_M_MAX:g}")
    K = minus_laplacian(grid)
    step0 = config.amplitude_step
    step_cap = MAX_STEP_FACTOR * step0
    step_floor = MIN_STEP_FACTOR * step0
    points: list[BranchPoint] = []
    step = min(step0, m_max)
    while True:
        m_last = points[-1].m if points else 0.0  # the last accepted amplitude
        m_target = min(m_last + step, m_max)  # first try, retry and next step
        if m_target <= m_last:
            break
        try:
            if not points:
                u, v, lam = _initial_guess(K, family, grid, m_target)
            elif len(points) == 1:
                prev = points[0]
                u, v, lam = prev.u.copy(), prev.v.copy(), prev.lam
            else:
                # secant predictor through the last two points
                prev2, prev = points[-2:]
                w = (m_target - prev.m) / (prev.m - prev2.m)
                u = prev.u + w * (prev.u - prev2.u)
                v = prev.v + w * (prev.v - prev2.v)
                lam = prev.lam + w * (prev.lam - prev2.lam)
            pt = _newton(K, family, grid, m_target, u, v, lam, config)
        except NewtonDivergedError as exc:
            # halve until the retry moves off a clamped m_max: the solve
            # there would start from the same guess and fail the same way
            while True:
                step *= 0.5
                if step < step_floor:
                    raise ContinuationError(
                        f"step fell below {step_floor:g} near m={m_target:g}: {exc}",
                        Branch(points, grid),
                    ) from exc
                if m_last + step < m_max:
                    break
            continue
        points.append(pt)
        if pt.newton_iters <= 4:
            step = min(step * STEP_GROWTH, step_cap)
    _refine_fold_bracket(K, family, grid, config, points)
    return Branch(points, grid)


def _refine_fold_bracket(K, family, grid, config, points) -> None:
    """Bisect the amplitude bracket around the sampled lambda maximum.

    Marching alone leaves the fold between coarse samples; repeatedly
    solving at the midpoint of the wider flank of the three-point bracket
    clusters samples at the fold, which sharpens the parabola vertex used
    for the extremal-parameter estimate and lets the tracked integrals
    flatten visibly as the fold is approached.  New points are inserted in
    amplitude order.  Stops once the points show no fold or the bracket is
    narrower than amplitude_step / FOLD_REFINE_FACTOR.
    """
    width_target = config.amplitude_step / FOLD_REFINE_FACTOR
    for _ in range(200):
        branch = Branch(points, grid)
        if not branch.fold_detected:
            return
        k = branch.fold_index
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
        except NewtonDivergedError:
            return
        points.insert(insert_at, pt)


def trivial_point(grid: RadialGrid) -> BranchPoint:
    """The zero solution at lambda = 0 (useful as a reference state)."""
    z = np.zeros(grid.size)
    return BranchPoint(0.0, 0.0, z, z.copy(), 0.0, 0, grid)
