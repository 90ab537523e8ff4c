"""Integral and pointwise inequalities certified at branch points.

Semi-stable solutions of the fourth-order problem obey a family of a-priori
bounds; this module evaluates both sides of each of them numerically, and
each report derives its margin rhs - lhs and its verdict from the two.
``run_pointwise_suite`` makes the four per-point checks, in this order:

* pointwise lower bound     v >= sqrt(lambda) g(u)            on the grid
* energy estimate           int f''(u) v |grad u|^2 <= lambda int f(u)
* g-H estimate              int g(u) H(u) <= int f(u)
* basic energy identity     int f'(u) u^2 <= int f(u) u

Along a branch the "uniform constant" claims become observable boundedness:
the suprema of int f^(3/2)/(sqrt(u)+1), int f^2 and int (f')^(2/gamma)
over the semi-stable segment, up to and including the solved extremal
solution u*, must be finite, and they are attained at u*.  Points past
the fold are evaluated on request but never asserted — the inequalities are
statements about the semi-stable segment only.

Satisfaction uses tol = 1e-6 * max(|lhs|, |rhs|, 1), and for the pointwise
bound 1e-6 * max(max |v|, max sqrt(lambda) g(u), 1).  Integrands carry
their boundary values explicitly (u vanishes there, f(0) = 1 does not).
"""

from __future__ import annotations

import math

import numpy as np

from .branch import Branch, BranchPoint
from .families import (
    NonlinearityFamily,
    curvature_ratio,
    g_aux,
    h_aux_grid,
    require_estimate_hypotheses,
)
from .radial import integrate_radial, radial_gradient

__all__ = [
    "EstimateReport",
    "BranchSupremum",
    "run_pointwise_suite",
    "check_crucial_integrals",
    "check_L2",
    "check_fprime_integral",
    "POINTWISE_BOUND",
    "ENERGY",
    "G_H",
    "BASIC_ENERGY",
    "CRUCIAL_RATIO",
    "MASS",
    "L2",
    "FPRIME",
]

# estimate identifiers used in reports and CSV output
POINTWISE_BOUND = "pointwise-lower-bound"
ENERGY = "energy"
G_H = "g-times-H"
BASIC_ENERGY = "basic-energy"
CRUCIAL_RATIO = "f32-over-sqrt-u"
MASS = "mass-of-f"
L2 = "f-squared"
FPRIME = "fprime-power"

TOL_FACTOR = 1e-6


class EstimateReport:
    """Both sides of one inequality lhs <= rhs at one branch point."""

    __slots__ = ("name", "lhs", "rhs", "tol", "m", "lam")

    def __init__(self, name: str, lhs: float, rhs: float, tol: float, m: float, lam: float):
        self.name, self.lhs, self.rhs, self.tol, self.m, self.lam = name, lhs, rhs, tol, m, lam

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.margin >= -self.tol


class BranchSupremum:
    """One integral tracked along the semi-stable segment of a branch."""

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: list[float]):
        self.name, self.values = name, values

    @property
    def sup(self) -> float:
        return max(self.values, default=0.0)

    @property
    def finite(self) -> bool:
        return all(math.isfinite(v) for v in self.values)


def run_pointwise_suite(family: NonlinearityFamily, point: BranchPoint) -> list[EstimateReport]:
    """The four per-point checks at one point, in the order listed above.

    g(u) is evaluated first, so a family outside the estimates' hypothesis
    raises before any other work; f(u) and int f(u) are then evaluated once
    and shared by the reports that use them.  The pointwise report's lhs is
    the largest excess of sqrt(lambda) g(u) over v and its rhs is 0, so its
    margin is the grid minimum of v - sqrt(lambda) g(u).
    """
    grid, u, v, lam = point.grid, point.u, point.v, point.lam
    gu = np.asarray(g_aux(family, u), dtype=float)
    fu = family.f(u)
    mass = integrate_radial(fu, grid, outer=float(family.f(0.0)))

    bound = math.sqrt(max(lam, 0.0)) * gu
    scale = max(float(np.max(np.abs(v))), float(np.max(bound)), 1.0)
    reports = [EstimateReport(POINTWISE_BOUND, float(np.max(bound - v)), 0.0,
                              TOL_FACTOR * scale, point.m, lam)]
    du = radial_gradient(u, grid)
    sides = (
        (ENERGY, integrate_radial(family.fpp(u) * v * du**2, grid, outer=0.0), lam * mass),
        (G_H, integrate_radial(gu * h_aux_grid(family, u), grid, outer=0.0), mass),
        (BASIC_ENERGY, integrate_radial(family.fp(u) * u**2, grid, outer=0.0),
         integrate_radial(fu * u, grid, outer=0.0)),
    )
    for name, lhs, rhs in sides:
        tol = TOL_FACTOR * max(abs(lhs), abs(rhs), 1.0)
        reports.append(EstimateReport(name, lhs, rhs, tol, point.m, lam))
    return reports


# ---------------------------------------------------------------------------
# branch suprema
# ---------------------------------------------------------------------------


def _track(name: str, branch: Branch, integrand_of_point) -> BranchSupremum:
    return BranchSupremum(name, [integrand_of_point(pt) for pt in branch.pre_fold_points])


def check_crucial_integrals(
    family: NonlinearityFamily, branch: Branch
) -> tuple[BranchSupremum, BranchSupremum]:
    """Track int f(u)^(3/2)/(sqrt(u)+1) dx and int f(u) dx over the
    semi-stable segment.  Defined for the regular (superlinear) families
    only."""
    if family.singular:
        raise ValueError("the ratio integral applies to the regular families only")
    grid = branch.grid

    def ratio(pt: BranchPoint) -> float:
        fu = family.f(pt.u)
        integrand = fu**1.5 / (np.sqrt(np.maximum(pt.u, 0.0)) + 1.0)
        return integrate_radial(integrand, grid, outer=float(family.f(0.0) ** 1.5))

    def mass(pt: BranchPoint) -> float:
        return integrate_radial(family.f(pt.u), grid, outer=float(family.f(0.0)))

    return _track(CRUCIAL_RATIO, branch, ratio), _track(MASS, branch, mass)


def check_L2(family: NonlinearityFamily, branch: Branch) -> BranchSupremum:
    """Track int f(u)^2 dx over the semi-stable segment, under the estimates'
    hypothesis (the curvature ratio is positive for every family)."""
    require_estimate_hypotheses(family)
    grid = branch.grid

    def sq(pt: BranchPoint) -> float:
        fu = family.f(pt.u)
        return integrate_radial(fu**2, grid, outer=float(family.f(0.0) ** 2))

    return _track(L2, branch, sq)


def check_fprime_integral(family: NonlinearityFamily, branch: Branch) -> BranchSupremum:
    """Track int (f'(u))^(2/gamma) dx with gamma the curvature ratio, in
    (0, 2) under the estimates' hypothesis; for exp gamma = 1 and the tracked
    integral coincides with the squared mass."""
    require_estimate_hypotheses(family)
    grid = branch.grid
    expo = 2.0 / curvature_ratio(family)
    boundary = float(family.fp(0.0) ** expo)

    def fp_pow(pt: BranchPoint) -> float:
        return integrate_radial(family.fp(pt.u) ** expo, grid, outer=boundary)

    return _track(FPRIME, branch, fp_pow)
