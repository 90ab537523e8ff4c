"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Heavy artifacts (the four reference branches) are built
once and shared across criteria.
"""

import time

import numpy as np
import pytest

from navierlab import bootstrap as bs
from navierlab.branch import continue_branch, trivial_point
from navierlab.estimates import (
    check_L2,
    check_crucial_integrals,
    check_fprime_integral,
    run_pointwise_suite,
)
from navierlab.families import NonlinearityFamily, exponential, mems, power
from navierlab.radial import RadialGrid, integrate_radial, minus_laplacian, solve_navier_biharmonic
from navierlab.stability import smallest_stability_eigenvalue
from oracles import (
    laplacian_ground_eigenvalue,
    log_bilaplacian_coefficient,
    radial_power_bilaplacian,
    regularity_from_growth,
)

_BRANCHES = {}


def get_branch(kind, p, N, n, m_max):
    key = (kind, p, N, n)
    if key not in _BRANCHES:
        family = NonlinearityFamily(kind, p)
        grid = RadialGrid(N, n)
        _BRANCHES[key] = (family, continue_branch(family, grid, m_max))
    return _BRANCHES[key]


def report(index, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {index}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {index} failed: {detail}"
    assert elapsed < budget, f"criterion {index} exceeded its runtime budget"


def test_criterion_1_bootstrap_trichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    checked = 0
    ok = True
    worst = 0.0
    while checked < 200:
        N = int(rng.integers(5, 21))
        alpha = float(rng.uniform(0.4, 0.6 * N))
        beta = float(min(alpha * rng.uniform(0.05, 0.95), N / 8.0))
        if not 0.0 < beta < alpha:
            continue
        q0 = float(rng.uniform(1.0, N / 4.0))
        trace = bs.run_bootstrap(bs.ExponentParams(N, q0, alpha, beta))
        fp = bs.fixed_point(alpha, beta, N)
        if alpha > N / 4.0:
            expected = bs.ESCAPED
        elif q0 <= fp:
            expected = bs.INCREASING
        else:
            expected = bs.DECREASING
        ok = ok and trace.classification == expected
        residual = abs(bs.iterate_q(fp, alpha, beta, N) - fp)
        worst = max(worst, residual)
        ok = ok and residual <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    report(1, ok, elapsed, 1.0, f"200 tuples, worst fixed-point residual {worst:.2e}")


def test_criterion_2_predictor_table():
    t0 = time.perf_counter()
    ok = True
    for N in range(2, 21):
        ok = ok and (bs.predict_regularity(exponential(), N).verdict == bs.REGULAR) == (N <= 8)
        for p in (1.1, 1.5, 2.0, 3.0, 4.0, 10.0):
            expect_power = N <= 8 or p < N / (N - 8)
            ok = ok and (
                bs.predict_regularity(power(p), N).verdict == bs.REGULAR
            ) == expect_power
            if p == 3.0:
                expect_mems = False  # excluded exponent
            else:
                expect_mems = N <= 8 * p / (p + 1)
            ok = ok and (
                bs.predict_regularity(mems(p), N).verdict == bs.REGULAR
            ) == expect_mems
        # generic rows: bare type, positive curvature liminf, finite limsup
        ok = ok and (regularity_from_growth(N)[0] == bs.REGULAR) == (N <= 5)
        ok = ok and (
            regularity_from_growth(N, delta_liminf=0.25)[0] == bs.REGULAR
        ) == (N <= 7)
        for gamma in (0.5, 0.8, 1.0, 1.6):
            expect = N < 8.0 / gamma or N <= 5
            ok = ok and (
                regularity_from_growth(N, gamma_limsup=gamma)[0] == bs.REGULAR
            ) == expect
    elapsed = time.perf_counter() - t0
    report(2, ok, elapsed, 1.0, "N in 2..20, p in {1.1, 1.5, 2, 3, 4, 10}")


def test_criterion_3_manufactured_solution():
    t0 = time.perf_counter()
    ok = True
    ratios_seen = []
    for N in (3, 7):
        errs = []
        for n in (512, 1024, 2048):
            grid = RadialGrid(N, n)
            u, _ = solve_navier_biharmonic(grid, np.full(grid.size, 8.0 * N * (N + 2)))
            exact = (1 - grid.r**2) ** 2 + (4.0 / N) * (1 - grid.r**2)
            errs.append(float(np.max(np.abs(u - exact))))
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            ratios_seen.append(round(ratio, 3))
            ok = ok and 3.6 <= ratio <= 4.4
    elapsed = time.perf_counter() - t0
    report(3, ok, elapsed, 5.0, f"error ratios {ratios_seen}")


def test_criterion_4_spectral_oracle():
    t0 = time.perf_counter()
    ok = True
    rels = []
    for N in (2, 3, 5):
        grid = RadialGrid(N, 1024)
        mu1 = smallest_stability_eigenvalue(exponential(), trivial_point(grid)).mu1
        nu1 = laplacian_ground_eigenvalue(grid)
        rel = abs(mu1 - nu1**2) / abs(mu1)
        rels.append(f"{rel:.1e}")
        ok = ok and rel <= 1e-8
    vals = {}
    for n in (512, 1024):
        grid = RadialGrid(3, n)
        vals[n] = smallest_stability_eigenvalue(exponential(), trivial_point(grid)).mu1
    rho = ((1.0 / 513) / (1.0 / 1025)) ** 2
    extrapolated = (rho * vals[1024] - vals[512]) / (rho - 1.0)
    pi4_rel = abs(extrapolated - np.pi**4) / np.pi**4
    ok = ok and pi4_rel < 1e-3
    elapsed = time.perf_counter() - t0
    report(4, ok, elapsed, 10.0, f"identity rel {rels}, extrapolated pi^4 rel {pi4_rel:.1e}")


def test_criterion_5_fold_and_lambda_star():
    t0 = time.perf_counter()
    ok = True
    details = []
    for kind, p, N, m_max in (("exp", None, 3, 4.0), ("mems", 2.0, 4, 0.9)):
        stars = {}
        for n in (1024, 2048):
            family, branch = get_branch(kind, p, N, n, m_max)
            ok = ok and branch.fold_detected
            stars[n] = branch.lambda_star_estimate
        rel = abs(stars[1024] - stars[2048]) / stars[2048]
        details.append(f"{kind} N={N}: lam*={stars[2048]:.6f} grid agreement {rel:.1e}")
        ok = ok and rel <= 5e-3
    elapsed = time.perf_counter() - t0
    report(5, ok, elapsed, 120.0, "; ".join(details))


def test_criterion_6_estimate_certification():
    # the estimates hold on the semi-stable segment, u* included, and the
    # suprema there, attained at u*, agree between n = 1024 and n = 2048
    t0 = time.perf_counter()
    ok = True
    details = []
    cells = [("exp", None, 3, 4.0), ("mems", 2.0, 4, 0.9), ("power", 2.0, 6, 5.0),
             ("exp", None, 8, 6.0)]
    for kind, p, N, m_max in cells:
        family, branch = get_branch(kind, p, N, 2048, m_max)
        point_ok = True
        for pt in branch.pre_fold_points:
            for rep in run_pointwise_suite(family, pt):
                point_ok = point_ok and rep.satisfied
        sups = {}
        for n in (1024, 2048):
            _, grid_branch = get_branch(kind, p, N, n, m_max)
            found = [check_L2(family, grid_branch), check_fprime_integral(family, grid_branch)]
            if not family.singular:
                found.extend(check_crucial_integrals(family, grid_branch))
            sups[n] = found
        drift = max(abs(a.sup - b.sup) / abs(b.sup) for a, b in zip(sups[1024], sups[2048]))
        sup_ok = all(s.finite for s in sups[2048]) and drift <= 1e-4
        ok = ok and point_ok and sup_ok
        details.append(
            f"{family.spec} N={N}: points {'ok' if point_ok else 'FAIL'}, "
            f"max sup drift 1024/2048 {drift:.1e}"
        )
    elapsed = time.perf_counter() - t0
    report(6, ok, elapsed, 300.0, "; ".join(details))


def test_criterion_7_semistability_bracket():
    t0 = time.perf_counter()
    ok = True
    details = []
    for kind, p, N, m_max in (("exp", None, 3, 4.0), ("mems", 2.0, 4, 0.9)):
        family, branch = get_branch(kind, p, N, 2048, m_max)
        mu0 = smallest_stability_eigenvalue(family, trivial_point(branch.grid)).mu1
        mus = [smallest_stability_eigenvalue(family, pt).mu1 for pt in branch.points]
        k = branch.fold_index
        pre_ok = all(mu >= -1e-6 * abs(mu0) for mu in mus[:k])
        post_ok = any(mu < 0.0 for mu in mus[k + 1 : k + 3])
        ok = ok and pre_ok and post_ok
        details.append(f"{kind} N={N}: pre-fold min mu1 {min(mus[:k]):.2e}, "
                       f"first post-fold mu1 {mus[k + 1]:.2e}")
    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, 120.0, "; ".join(details))


def test_criterion_8_exponential_identity():
    t0 = time.perf_counter()
    family, branch = get_branch("exp", None, 8, 2048, 6.0)
    grid = branch.grid
    worst = 0.0
    for pt in branch.points:
        sq = integrate_radial(family.f(pt.u) ** 2, grid, outer=1.0)
        fp2 = integrate_radial(family.fp(pt.u) ** 2, grid, outer=1.0)
        worst = max(worst, abs(sq - fp2) / abs(sq))
    ok = worst <= 1e-8
    elapsed = time.perf_counter() - t0
    report(8, ok, elapsed, 300.0, f"worst relative gap {worst:.1e} over {len(branch.points)} points")


def test_criterion_9_symbolic_oracle():
    t0 = time.perf_counter()
    ok = True
    for s in (2.0, 3.0, 4.0, 6.0):
        for N in (2, 3, 5, 10):
            errs = []
            scale = 1.0
            for n in (64, 128):
                grid = RadialGrid(N, n)
                K = minus_laplacian(grid)
                window = (grid.r >= 0.25) & (grid.r <= 0.75)
                lap2 = K.apply(K.apply(grid.r**s))[window]
                exact = radial_power_bilaplacian(s, N) * grid.r[window] ** (s - 4.0)
                errs.append(float(np.max(np.abs(lap2 - exact))))
                scale = max(1.0, float(np.max(np.abs(exact))))
            # contraction by ~4 per refinement, unless already at the
            # rounding floor of the composed stencils
            ok = ok and errs[1] <= max(errs[0] / 2.8, 1e-6 * scale)
    log_ok = log_bilaplacian_coefficient(-4.0, 10) == 384.0
    ok = ok and log_ok
    elapsed = time.perf_counter() - t0
    report(9, ok, elapsed, 5.0, f"s in {{2,3,4,6}} x N in {{2,3,5,10}}; log coefficient 384: {log_ok}")
