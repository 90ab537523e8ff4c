"""Exponent-bootstrap recursions and the regularity-dimension predictor.

An L^q bound on f(u) together with a weighted bound on f^alpha(u)/(u^beta+1)
upgrades itself: from integrability exponent q0 one obtains every exponent
below

    q1 = alpha*N*q0 / (N*q0 + beta*(N - 4*q0)),        0 < beta < alpha.

Iterating this map produces a sequence that either converges monotonically
to the fixed point (alpha-beta)*N/(N-4*beta) when alpha <= N/4, or passes
N/4 after finitely many steps when alpha > N/4 -- and any exponent above
N/4 yields a uniform L-infinity bound, i.e. a regular extremal solution.

``predict_regularity`` reads the paper's result for each family off a
table: e^t is regular for N <= 8, (1+t)^p for N < 8p/(p-1), and (1-t)^-p
(p > 1, p != 3) for N <= 8p/(p+1).  The exp and power rows say regular
wherever the paper's general theorem for an arbitrary f does (N < 8/gamma
for a finite curvature-ratio limsup gamma, N <= 7 for a positive liminf,
N <= 5 always), so no command consults the theorem; the test suite keeps it
in exact arithmetic and checks that claim.  The recursion is plain binary64;
its iterates are smooth rational functions of the inputs and never need
exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import NonlinearityFamily

__all__ = [
    "RecursionDomainError",
    "ExponentParams",
    "BootstrapTrace",
    "iterate_q",
    "fixed_point",
    "run_bootstrap",
    "RegularityVerdict",
    "predict_regularity",
    "INCREASING",
    "DECREASING",
    "ESCAPED",
    "INCONCLUSIVE",
    "REGULAR",
    "UNKNOWN",
    "CONVERGENCE_TOL",
]

# classification labels for traces
INCREASING = "increasing-to-fixed-point"
DECREASING = "decreasing-to-fixed-point"
ESCAPED = "escapes-above-quarter-dimension"
INCONCLUSIVE = "inconclusive"

# verdicts
REGULAR = "regular"
UNKNOWN = "unknown"

# rule tags: each names the predicate that fired
RULE_EXP = "exp-threshold:N<=8"
RULE_POWER = "power-threshold:N<=8-or-p<N/(N-8)"
RULE_MEMS = "mems-threshold:N<=8p/(p+1)"
RULE_MEMS_P3 = "mems-exponent-three-excluded"
RULE_NONE = "no-sufficient-condition"

CONVERGENCE_TOL = 1e-12


class RecursionDomainError(ValueError):
    """Recursion evaluated outside its admissible parameter range."""


@dataclass(frozen=True)
class ExponentParams:
    """Inputs of the primal recursion: dimension N, start q0, pair beta < alpha,
    each exponent finite."""

    N: int
    q0: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.N < 2:
            raise RecursionDomainError("dimension N must be >= 2")
        if not 1.0 <= self.q0 < float("inf"):
            raise RecursionDomainError("starting exponent q0 must be finite and >= 1")
        if not 0.0 < self.beta < self.alpha < float("inf"):
            raise RecursionDomainError("need 0 < beta < alpha < inf")


@dataclass
class BootstrapTrace:
    """Iterates of the primal recursion plus their classification."""

    sequence: list[float]
    classification: str
    fixed_point: float | None = None
    escape_steps: int | None = None


def iterate_q(q0: float, alpha: float, beta: float, N: int) -> float:
    """One step of the primal recursion alpha*N*q0 / (N*q0 + beta*(N-4*q0))."""
    den = N * q0 + beta * (N - 4.0 * q0)
    if den <= 0.0:
        raise RecursionDomainError(
            f"nonpositive recursion denominator {den:g} at q0={q0:g}"
        )
    return alpha * N * q0 / den


def fixed_point(alpha: float, beta: float, N: int) -> float:
    """Fixed point (alpha-beta)*N/(N-4*beta) of the primal recursion."""
    den = N - 4.0 * beta
    if den == 0.0:
        raise RecursionDomainError("fixed point singular: N = 4*beta")
    return (alpha - beta) * N / den


def run_bootstrap(params: ExponentParams, max_steps: int = 100_000) -> BootstrapTrace:
    """Iterate the primal recursion until escape, convergence or step limit.

    The trichotomy realized: increasing to the fixed point when
    alpha <= N/4 and q0 is below it, decreasing to it from above, and
    finite-step escape past N/4 when alpha > N/4.  Convergence is detected
    when consecutive iterates differ by less than 1e-12 in absolute value.
    """
    if max_steps < 1:
        raise RecursionDomainError("max_steps must be >= 1")
    N, alpha, beta = params.N, params.alpha, params.beta
    quarter = N / 4.0
    seq = [params.q0]
    if params.q0 > quarter:
        return BootstrapTrace(seq, ESCAPED, escape_steps=0)
    try:
        fp = fixed_point(alpha, beta, N)
    except RecursionDomainError:
        fp = None
    for step in range(1, max_steps + 1):
        q_next = iterate_q(seq[-1], alpha, beta, N)
        seq.append(q_next)
        if q_next > quarter:
            return BootstrapTrace(seq, ESCAPED, fixed_point=fp, escape_steps=step)
        if abs(q_next - seq[-2]) < CONVERGENCE_TOL:
            label = INCREASING if seq[1] >= seq[0] else DECREASING
            return BootstrapTrace(seq, label, fixed_point=fp)
    return BootstrapTrace(seq, INCONCLUSIVE, fixed_point=fp)


# ---------------------------------------------------------------------------
# regularity predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityVerdict:
    family: str  # canonical family spec string
    N: int
    verdict: str  # REGULAR or UNKNOWN
    rule: str  # tag of the predicate that decided (RULE_NONE when none fired)


def predict_regularity(family: NonlinearityFamily, N: int) -> RegularityVerdict:
    """Sufficient-condition verdict for the extremal solution of (family, N).

    One row per family result: exp for N <= 8, power for N < 8p/(p-1) (that
    is, N <= 8 or p < N/(N-8)), mems for N <= 8p/(p+1) (that is, p > 1,
    N < 8 and p >= N/(8-N)).  The mems exponent p = 3 is excluded (the
    embedding step behind the threshold degenerates there).  Each test
    compares p with a ratio of small integers, so binary64 rounding can
    only turn a verdict to ``unknown``; it never forms 8p, which overflows,
    or 1 - 1/p, which rounds.
    """
    if N < 2:
        raise RecursionDomainError("dimension N must be >= 2")
    p = family.p
    if family.kind == "exp":
        regular, rule = N <= 8, RULE_EXP
    elif family.kind == "power":
        regular, rule = N <= 8 or p < N / (N - 8.0), RULE_POWER
    elif p == 3.0:
        return RegularityVerdict(family.spec, N, UNKNOWN, RULE_MEMS_P3)
    else:
        regular, rule = p > 1.0 and N < 8 and p >= N / (8.0 - N), RULE_MEMS
    if regular:
        return RegularityVerdict(family.spec, N, REGULAR, rule)
    return RegularityVerdict(family.spec, N, UNKNOWN, RULE_NONE)
