"""Exponent recursions: hand-computed steps, trichotomy, predictor table."""

import math
from fractions import Fraction

import numpy as np
import pytest

from navierlab import bootstrap as bs
from navierlab.families import FamilyDomainError, curvature_ratio, exponential, power, mems
from oracles import RULE_GAMMA, RULE_LIMINF, RULE_LOWDIM, regularity_from_growth


# ---------------------------------------------------------------------------
# single recursion steps
# ---------------------------------------------------------------------------


def test_iterate_fixed_point_maps_to_itself():
    assert abs(bs.iterate_q(1.5, 1.5, 0.5, 6) - 1.5) < 1e-15


def test_iterate_hand_value():
    # alpha*N*q0/(N*q0 + beta*(N-4*q0)) at (1, 3/2, 1/2, 6) is 9/7
    assert abs(bs.iterate_q(1.0, 1.5, 0.5, 6) - 9.0 / 7.0) < 1e-15


def test_iterate_at_quarter_dimension_gives_alpha():
    assert abs(bs.iterate_q(1.5, 2.0, 0.5, 6) - 2.0) < 1e-15


def test_iterate_monotone_in_q0():
    rng = np.random.default_rng(11)
    for _ in range(50):
        N = int(rng.integers(5, 15))
        alpha = rng.uniform(0.5, N / 4.0)
        beta = alpha * rng.uniform(0.1, 0.9)
        a, b = np.sort(rng.uniform(1.0, N / 4.0, 2))
        if b - a < 1e-12:
            continue
        assert bs.iterate_q(a, alpha, beta, N) <= bs.iterate_q(b, alpha, beta, N) + 1e-14


def test_iterate_denominator_error():
    # q0 beyond N/4 with large beta drives the denominator negative
    with pytest.raises(bs.RecursionDomainError):
        bs.iterate_q(2.0, 4.0, 3.0, 4)


def test_fixed_point_values():
    assert abs(bs.fixed_point(1.5, 0.5, 5) - 5.0 / 3.0) < 1e-15
    assert abs(bs.fixed_point(1.5, 0.5, 6) - 1.5) < 1e-15
    for beta in (0.5, 1.0, 2.0):
        N = int(4 * beta + 1)
        assert abs(bs.fixed_point(beta + 1.0, beta, N) - N) < 1e-12
    with pytest.raises(bs.RecursionDomainError):
        bs.fixed_point(2.0, 1.0, 4)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_increasing_to_fixed_point():
    trace = bs.run_bootstrap(bs.ExponentParams(6, 1.0, 1.5, 0.5))
    assert trace.classification == bs.INCREASING
    seq = np.array(trace.sequence)
    assert np.all(np.diff(seq) > -1e-15)
    assert np.all(seq <= 6 / 4 + 1e-12)  # never exceeds N/4
    assert abs(seq[-1] - trace.fixed_point) < 1e-10


def test_run_escapes_when_alpha_large():
    trace = bs.run_bootstrap(bs.ExponentParams(5, 1.0, 1.5, 0.5))
    assert trace.classification == bs.ESCAPED
    assert trace.escape_steps is not None and trace.escape_steps < 50
    assert trace.sequence[-1] > 5 / 4


def test_run_constant_at_fixed_point():
    fp = bs.fixed_point(1.5, 0.5, 6)
    trace = bs.run_bootstrap(bs.ExponentParams(6, fp, 1.5, 0.5))
    assert max(abs(q - fp) for q in trace.sequence) < 1e-12


def test_run_decreasing_from_above():
    # fixed point 1.35 < q0 = 1.45 <= N/4
    trace = bs.run_bootstrap(bs.ExponentParams(6, 1.45, 1.4, 0.5))
    assert trace.classification == bs.DECREASING
    seq = np.array(trace.sequence)
    assert np.all(np.diff(seq) < 1e-15)
    assert abs(seq[-1] - bs.fixed_point(1.4, 0.5, 6)) < 1e-10


def test_run_inconclusive_when_step_limited():
    trace = bs.run_bootstrap(bs.ExponentParams(6, 1.0, 1.4, 1.39999), max_steps=1)
    assert trace.classification == bs.INCONCLUSIVE


def test_run_immediate_escape_above_quarter():
    trace = bs.run_bootstrap(bs.ExponentParams(6, 1.9, 1.8, 0.5))
    assert trace.classification == bs.ESCAPED
    assert trace.escape_steps == 0


def test_trichotomy_random_sample():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        N = int(rng.integers(5, 21))
        alpha = rng.uniform(0.4, 0.6 * N)
        beta = alpha * rng.uniform(0.05, 0.95)
        beta = min(beta, N / 8.0)  # keep the fixed point well-conditioned
        if beta >= alpha:
            continue
        q0 = rng.uniform(1.0, N / 4.0)
        trace = bs.run_bootstrap(bs.ExponentParams(N, q0, alpha, beta))
        fp = bs.fixed_point(alpha, beta, N)
        if alpha > N / 4.0:
            assert trace.classification == bs.ESCAPED
        elif q0 <= fp:
            assert trace.classification == bs.INCREASING
            assert abs(bs.iterate_q(fp, alpha, beta, N) - fp) <= 1e-12
        else:
            assert trace.classification == bs.DECREASING
            assert abs(bs.iterate_q(fp, alpha, beta, N) - fp) <= 1e-12


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------


def test_predictor_exponential_table():
    for N in range(2, 21):
        verdict = bs.predict_regularity(exponential(), N)
        assert (verdict.verdict == bs.REGULAR) == (N <= 8)
        if N <= 8:
            assert verdict.rule == bs.RULE_EXP


def test_predictor_power_table():
    for p in (1.1, 1.5, 2.0, 3.0, 4.0, 10.0):
        for N in range(2, 21):
            expected = N <= 8 or p < N / (N - 8)
            verdict = bs.predict_regularity(power(p), N)
            assert (verdict.verdict == bs.REGULAR) == expected, (p, N)
            if expected:
                assert verdict.rule == bs.RULE_POWER


def test_predictor_mems_table():
    for p in (1.1, 1.5, 2.0, 4.0, 10.0):
        for N in range(2, 21):
            expected = N <= 8 * p / (p + 1)
            verdict = bs.predict_regularity(mems(p), N)
            assert (verdict.verdict == bs.REGULAR) == expected, (p, N)
            if expected:
                assert verdict.rule == bs.RULE_MEMS


def test_predictor_mems_excluded_exponent():
    # p = 3 carries no threshold: the embedding step behind it degenerates
    for N in range(2, 21):
        verdict = bs.predict_regularity(mems(3.0), N)
        assert verdict.verdict == bs.UNKNOWN
        assert verdict.rule == bs.RULE_MEMS_P3


def test_predictor_mems_subcritical_exponent():
    verdict = bs.predict_regularity(mems(0.5), 3)
    assert verdict.verdict == bs.UNKNOWN
    assert verdict.rule == bs.RULE_NONE


def test_predictor_rounded_thresholds_are_unknown():
    # each read `regular` when the threshold was formed in binary64: the
    # strict power bound 8p/(p-1) through gamma = 1 - 1/p (1.25 and 1.2 are
    # exactly on it), the mems bound 8p/(p+1) rounding to 8 or overflowing
    for family, N in [(power(1.25), 40), (power(1.2), 48), (mems(1e16), 8), (mems(1e308), 9)]:
        verdict = bs.predict_regularity(family, N)
        assert (verdict.verdict, verdict.rule) == (bs.UNKNOWN, bs.RULE_NONE), (family.spec, N)
    # no family result holds for an infinite exponent, so no family takes one
    with pytest.raises(FamilyDomainError):
        mems(math.inf)
    # 1 - 1/p rounds to 1.0 here, so a gamma-based power row would lose N = 8
    verdict = bs.predict_regularity(power(1e17), 8)
    assert (verdict.verdict, verdict.rule) == (bs.REGULAR, bs.RULE_POWER)


def _exact_regular(kind, q, N):
    """The family results in exact arithmetic on the typed exponent q."""
    if kind == "exp":
        return N <= 8
    if kind == "power":
        return N * (q - 1) < 8 * q
    return q > 1 and q != 3 and N * (q + 1) <= 8 * q


def _typed(family):
    """The decimal the user typed for the family's exponent, as a fraction."""
    return None if family.p is None else Fraction(repr(family.p))


def test_predictor_sound_against_exact_reference():
    # every threshold exponent N/(N-8) and N/(8-N) with its neighbouring
    # doubles, hand-typed boundary decimals and the extremes of the range
    exponents = {1 + 1e-9, 5 / 3, 7.0, 1.25, 1.2, 4 / 3, 1.3333333333333333}
    exponents |= {1e15, 1e16, 1e17, 1e300, 1e308}
    exponents |= set(np.geomspace(1.001, 1e6, 24).tolist())
    for r in [N / (N - 8) for N in range(9, 200, 4)] + [N / (8 - N) for N in range(2, 8)]:
        exponents |= {r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)}
    families = [exponential()]
    families += [power(p) for p in sorted(exponents) if p > 1.0]
    families += [mems(p) for p in sorted(exponents)]
    for family in families:
        q = _typed(family)
        for N in range(2, 200):
            if bs.predict_regularity(family, N).verdict == bs.REGULAR:
                assert _exact_regular(family.kind, q, N), (family.spec, N)
    # the converse may fail by one ulp: 4/3 rounds down, so the typed
    # 1.3333333333333333 is below the bound yet not below float(32/24)
    family = power(1.3333333333333333)
    assert _exact_regular(family.kind, _typed(family), 32)
    assert bs.predict_regularity(family, 32).verdict == bs.UNKNOWN


def test_generic_rules():
    # unconditional low dimension
    for N in range(2, 6):
        verdict, rule = regularity_from_growth(N)
        assert verdict == bs.REGULAR and rule == RULE_LOWDIM
    assert regularity_from_growth(6) == (bs.UNKNOWN, bs.RULE_NONE)
    # positive curvature liminf extends to 7
    for N in (6, 7):
        assert regularity_from_growth(N, delta_liminf=0.3) == (bs.REGULAR, RULE_LIMINF)
    assert regularity_from_growth(8, delta_liminf=0.3) == (bs.UNKNOWN, bs.RULE_NONE)
    # finite curvature limsup gives the strict 8/gamma threshold
    assert regularity_from_growth(7, gamma_limsup=1.0) == (bs.REGULAR, RULE_GAMMA)
    assert regularity_from_growth(8, gamma_limsup=1.0) == (bs.UNKNOWN, bs.RULE_NONE)
    assert regularity_from_growth(15, gamma_limsup=0.5) == (bs.REGULAR, RULE_GAMMA)
    assert regularity_from_growth(16, gamma_limsup=0.5) == (bs.UNKNOWN, bs.RULE_NONE)
    # exactly on the bound: power:p=1.25 has gamma = 1/5 (the binary64
    # 1 - 1/1.25 rounds below it and would admit N = 40)
    gamma = 1 - 1 / Fraction(1.25)
    assert regularity_from_growth(39, gamma_limsup=gamma) == (bs.REGULAR, RULE_GAMMA)
    assert regularity_from_growth(40, gamma_limsup=gamma) == (bs.UNKNOWN, bs.RULE_NONE)


@pytest.mark.parametrize("family", [exponential()] + [
    power(p) for p in (1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 10.0, 1e6)], ids=lambda f: f.spec)
def test_family_rows_cover_the_general_theorem(family):
    # the family row says regular wherever the general theorem does, with
    # gamma the family's constant curvature ratio, so its own liminf and
    # limsup.  mems is left out: (1-t)^-p is singular at t = 1, not the
    # regular f the theorem assumes.  The exponents lie off every threshold by far
    # more than an ulp; test_predictor_sound_against_exact_reference pins
    # the boundary cases.
    gamma = Fraction(1) if family.kind == "exp" else 1 - 1 / Fraction(family.p)
    assert float(gamma) == pytest.approx(curvature_ratio(family), rel=1e-15)
    for N in range(2, 61):
        theorem, _ = regularity_from_growth(N, delta_liminf=gamma, gamma_limsup=gamma)
        if theorem == bs.REGULAR:
            assert bs.predict_regularity(family, N).verdict == bs.REGULAR, N


def test_invalid_params():
    with pytest.raises(bs.RecursionDomainError):
        bs.ExponentParams(1, 1.0, 1.5, 0.5)
    with pytest.raises(bs.RecursionDomainError):
        bs.ExponentParams(6, 0.5, 1.5, 0.5)
    with pytest.raises(bs.RecursionDomainError):
        bs.ExponentParams(6, 1.0, 0.5, 0.5)
    # nan fails every comparison, and no exponent is infinite
    for q0, alpha, beta in ((math.nan, 1.5, 0.5), (math.inf, 1.5, 0.5), (1.0, math.inf, 0.5),
                            (1.0, math.nan, 0.5), (1.0, 1.5, math.nan)):
        with pytest.raises(bs.RecursionDomainError):
            bs.ExponentParams(6, q0, alpha, beta)
    with pytest.raises(bs.RecursionDomainError):
        bs.predict_regularity(exponential(), 1)
