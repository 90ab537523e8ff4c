"""Nonlinearity families and their derived auxiliary functions.

Three closed-form families drive every computation in this package:

* ``exp``                :  f(t) = e^t                (regular, superlinear)
* ``power``  1 < p < inf :  f(t) = (1+t)^p            (regular, superlinear)
* ``mems``   0 < p < inf :  f(t) = (1-t)^(-p) on [0,1) (singular at t = 1)

The regular families are smooth, increasing and convex on their domain with
f(0) = 1; the singular family blows up as t -> 1 (touchdown).  The
curvature ratio f*f''/(f')^2 is a constant per family (curvature_ratio), and
the a-priori estimates on semi-stable solutions hold for a regular family or
mems with p > 1 (require_estimate_hypotheses).  They use two auxiliary
functions:

    g(t) = sqrt(2) * (int_0^t (f(s) - 1) ds)^(1/2)        (regular families)
    g(t) = sqrt(2/(p-1)) * ((1-t)^(-(p-1)/2) - 1)          (mems, p > 1)
    H(t) = int_0^t f''(s) g(s) ds

Closed forms are used wherever they exist.  The one remaining integral, H
for the regular families, uses a composite 8-point Gauss-Legendre rule on
panels no wider than _PANEL_WIDTH.  The integrand is smooth on [0, inf)
because g(s) ~ s near 0, so the fixed rule agrees with adaptive quadrature,
kept in the tests as the oracle, to 1e-12 relative.
All functions here are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FamilyDomainError",
    "NonlinearityFamily",
    "exponential",
    "power",
    "mems",
    "parse_family",
    "g_aux",
    "h_aux_grid",
    "curvature_ratio",
    "require_estimate_hypotheses",
]


class FamilyDomainError(ValueError):
    """Argument outside the admissible range of a family or its auxiliaries."""


_KINDS = ("exp", "power", "mems")


@dataclass(frozen=True)
class NonlinearityFamily:
    """One nonlinearity with closed-form f, f', f'' and auxiliaries.

    ``kind`` is one of ``exp``, ``power``, ``mems``; ``p`` is the exponent
    for the latter two (1 < p < inf for power, 0 < p < inf for mems).  For
    mems the admissible argument range is t < 1; evaluation never clamps,
    callers must respect the touchdown bound themselves.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise FamilyDomainError(f"unknown family kind {self.kind!r}")
        if self.kind == "exp":
            if self.p is not None:
                raise FamilyDomainError("exp family takes no exponent")
        elif self.kind == "power":
            if self.p is None or not 1.0 < self.p < math.inf:
                raise FamilyDomainError("power family requires 1 < p < inf")
        else:
            if self.p is None or not 0.0 < self.p < math.inf:
                raise FamilyDomainError("mems family requires 0 < p < inf")

    # -- identification ----------------------------------------------------

    @property
    def singular(self) -> bool:
        """True for the touchdown-type family (finite-time blowup at t=1)."""
        return self.kind == "mems"

    @property
    def spec(self) -> str:
        """Canonical spec string, the inverse of parse_family."""
        if self.kind == "exp":
            return "exp"
        short = format(self.p, "g")
        return f"{self.kind}:p={short if float(short) == self.p else repr(self.p)}"

    # -- pointwise evaluation ----------------------------------------------

    def _check_domain(self, t: np.ndarray) -> None:
        if self.kind == "power":
            if (t <= -1.0).any():
                raise FamilyDomainError("power family needs t > -1")
        elif self.kind == "mems":
            if (t >= 1.0).any():
                raise FamilyDomainError("mems family needs t < 1 (touchdown)")

    def _derivative(self, k: int, t):
        """f^(k)(t) for k = 0, 1, 2 in closed form, +inf where that exceeds
        the double range (with no overflow warning)."""
        t = np.asarray(t, dtype=float)
        self._check_domain(t)
        p = self.p
        with np.errstate(over="ignore"):
            if self.kind == "exp":
                return np.exp(t)
            if self.kind == "power":
                return math.prod(p - i for i in range(k)) * (1.0 + t) ** (p - k)
            return math.prod(p + i for i in range(k)) * (1.0 - t) ** -(p + k)

    def f(self, t):
        return self._derivative(0, t)

    def fp(self, t):
        return self._derivative(1, t)

    def fpp(self, t):
        return self._derivative(2, t)


def exponential() -> NonlinearityFamily:
    return NonlinearityFamily("exp")


def power(p: float) -> NonlinearityFamily:
    return NonlinearityFamily("power", float(p))


def mems(p: float) -> NonlinearityFamily:
    return NonlinearityFamily("mems", float(p))


def parse_family(spec: str) -> NonlinearityFamily:
    """Parse ``exp``, ``power:p=<real>`` or ``mems:p=<real>``."""
    spec = spec.strip()
    if spec == "exp":
        return exponential()
    if ":" in spec:
        kind, _, rest = spec.partition(":")
        kind = kind.strip()
        rest = rest.strip()
        if kind in ("power", "mems") and rest.startswith("p="):
            try:
                p = float(rest[2:])
            except ValueError:
                raise FamilyDomainError(f"bad exponent in family spec {spec!r}") from None
            return NonlinearityFamily(kind, p)
    raise FamilyDomainError(
        f"bad family spec {spec!r}; expected exp, power:p=<real> or mems:p=<real>"
    )


# ---------------------------------------------------------------------------
# curvature ratio, the estimates' hypothesis, auxiliary functions g and H
# ---------------------------------------------------------------------------


def curvature_ratio(family: NonlinearityFamily) -> float:
    """f*f''/(f')^2, a constant per family and so its own liminf and limsup:
    1 for exp, 1 - 1/p for power, (p+1)/p for mems."""
    if family.kind == "exp":
        return 1.0
    if family.kind == "power":
        return 1.0 - 1.0 / family.p
    return (family.p + 1.0) / family.p


def require_estimate_hypotheses(family: NonlinearityFamily) -> None:
    """Raise FamilyDomainError unless the a-priori estimates apply: a regular
    family, or mems with p > 1 (the test 0 < curvature_ratio < 2)."""
    if family.kind == "mems" and not family.p > 1.0:
        raise FamilyDomainError("mems auxiliary functions require p > 1")


def _check_aux_domain(family: NonlinearityFamily, t: np.ndarray) -> None:
    if np.any(t < 0.0):
        raise FamilyDomainError("auxiliary functions are defined for t >= 0")
    require_estimate_hypotheses(family)
    family._check_domain(t)


def g_aux(family: NonlinearityFamily, t):
    """Pointwise lower-bound generator g.

    For the regular families g(t) = sqrt(2) (int_0^t (f-1))^(1/2), evaluated
    through the antiderivative of f; for mems (p>1) the simpler comparison
    function sqrt(2/(p-1)) ((1-t)^(-(p-1)/2) - 1) is used.  All variants
    satisfy g(0)=0, g,g',g'' >= 0 and f >= g g' on the admissible range.
    """
    t = np.asarray(t, dtype=float)
    _check_aux_domain(family, t)
    # expm1/log1p forms keep full precision near t = 0, where the naive
    # antiderivative cancels catastrophically
    if family.kind == "exp":
        inner = np.expm1(t) - t
    elif family.kind == "power":
        q = family.p + 1.0
        inner = (np.expm1(q * np.log1p(t)) - q * t) / q
    else:
        p = family.p
        val = math.sqrt(2.0 / (p - 1.0)) * np.expm1(-0.5 * (p - 1.0) * np.log1p(-t))
        return val if np.ndim(t) else float(val)
    val = math.sqrt(2.0) * np.sqrt(np.maximum(inner, 0.0))
    return val if np.ndim(t) else float(val)


def _mems_H_constants(p: float) -> tuple[float, float]:
    """Coefficients of the closed-form H for the mems family.

    With f'' = p(p+1)(1-s)^(-(p+2)) and g = sqrt(2/(p-1)) ((1-s)^(-(p-1)/2) - 1),
    the product integrates term by term:

        int_0^u (1-s)^(-(3p+3)/2) ds = 2/(3p+1) * ((1-u)^(-(3p+1)/2) - 1)
        int_0^u (1-s)^(-(p+2))    ds = 1/(p+1)  * ((1-u)^(-(p+1))    - 1)

    giving H(u) = C ((1-u)^(-(3p+1)/2) - 1) + Ct (1 - (1-u)^(-(p+1))) with

        C  = 2 p (p+1) / (3p+1) * sqrt(2/(p-1))
        Ct = p * sqrt(2/(p-1))

    both positive for p > 1.
    """
    root = math.sqrt(2.0 / (p - 1.0))
    c_lead = 2.0 * p * (p + 1.0) / (3.0 * p + 1.0) * root
    c_tail = p * root
    return c_lead, c_tail


def _mems_H(p: float, values: np.ndarray) -> np.ndarray:
    c_lead, c_tail = _mems_H_constants(p)
    log1m = np.log1p(-values)
    return c_lead * np.expm1(-0.5 * (3.0 * p + 1.0) * log1m) - c_tail * np.expm1(
        -(p + 1.0) * log1m
    )


# composite rule for H: 8-point Gauss-Legendre nodes and weights on [-1, 1],
# applied on equal panels no wider than _PANEL_WIDTH.  They are the values of
# numpy.polynomial.legendre.leggauss(8), bit for bit, written out so that no
# process loads numpy.polynomial to build them.
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
_PANEL_WIDTH = 0.25


def h_aux_grid(family: NonlinearityFamily, values: np.ndarray) -> np.ndarray:
    """Cumulative weight H(t) = int_0^t f''(s) g(s) ds at each entry of ``values``.

    For mems the closed form (see _mems_H_constants) is vectorized directly.
    For the regular families the values are sorted, each gap between
    consecutive values (starting from 0) is split into equal panels no wider
    than _PANEL_WIDTH, and every panel is integrated with the 8-point
    Gauss-Legendre rule in one array pass; H is the cumulative sum of the gap
    integrals.
    """
    values = np.asarray(values, dtype=float)
    _check_aux_domain(family, values)
    if family.kind == "mems":
        return _mems_H(family.p, values)
    if not np.all(np.isfinite(values)):
        raise FamilyDomainError("H is defined for finite t only")
    order = np.argsort(values, kind="stable")
    ends = np.concatenate([[0.0], values[order]])
    gaps = np.diff(ends)
    panels = np.ceil(gaps / _PANEL_WIDTH).astype(np.intp)  # 0 for an empty gap
    gap_of = np.repeat(np.arange(gaps.size), panels)
    first = np.cumsum(panels) - panels  # index of each gap's first panel
    width = gaps[gap_of] / panels[gap_of]
    start = ends[gap_of] + (np.arange(gap_of.size) - first[gap_of]) * width
    s = start[:, None] + (0.5 * width)[:, None] * (_GL_NODES + 1.0)
    panel_sums = 0.5 * width * ((family.fpp(s) * g_aux(family, s)) @ _GL_WEIGHTS)
    out = np.empty_like(values)
    out[order] = np.cumsum(np.bincount(gap_of, weights=panel_sums, minlength=gaps.size))
    return out
