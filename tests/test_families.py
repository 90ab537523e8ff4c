"""Family evaluation, auxiliary functions and their quadrature oracles; the
package's import footprint and its LAPACK binding."""

import importlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import navierlab
from navierlab._lapack import load_flapack
from navierlab.families import (
    FamilyDomainError,
    NonlinearityFamily,
    exponential,
    power,
    mems,
    parse_family,
    g_aux,
    h_aux_grid,
    curvature_ratio,
    require_estimate_hypotheses,
)

ALL_FAMILIES = [exponential(), power(1.5), power(2.0), power(4.0), mems(1.5), mems(2.0), mems(3.0)]
REGULAR_FAMILIES = [exponential(), power(1.5), power(2.0), power(4.0)]


def sample_points(family, count=60):
    """Log-spaced admissible arguments, dense near the interesting end."""
    if family.kind == "mems":
        return 1.0 - np.logspace(0, -6, count)[::-1]  # up toward touchdown
    return np.concatenate([[0.0], np.logspace(-3, 1.5, count)])


def g_quadrature(family, t):
    """Defining integral sqrt(2) (int_0^t (f-1))^(1/2), the oracle for g."""
    if t == 0.0:
        return 0.0
    val, _ = quad(lambda s: family.f(s) - 1.0, 0.0, t, epsabs=1e-15, epsrel=1e-13)
    return math.sqrt(2.0) * math.sqrt(max(val, 0.0))


def h_at(family, t):
    """H at one value through h_aux_grid."""
    return float(h_aux_grid(family, np.array([t]))[0])


def h_simpson(family, t, panels):
    """Fixed composite-Simpson value of int_0^t f'' g, independent of h_aux_grid."""
    if t == 0.0:
        return 0.0
    x = np.linspace(0.0, t, 2 * panels + 1)
    y = family.fpp(x) * np.array([g_aux(family, s) for s in x])
    h = x[1] - x[0]
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def test_eval_exponential_at_zero():
    fam = exponential()
    assert (fam.f(0.0), fam.fp(0.0), fam.fpp(0.0)) == (1.0, 1.0, 1.0)


def test_eval_power_two_at_one():
    fam = power(2.0)
    assert (fam.f(1.0), fam.fp(1.0), fam.fpp(1.0)) == (4.0, 4.0, 2.0)


def test_eval_mems_two_at_half():
    # hand differentiation of (1-t)^-2 at t = 1/2
    fam = mems(2.0)
    f, fp, fpp = fam.f(0.5), fam.fp(0.5), fam.fpp(0.5)
    assert abs(f - 4.0) < 1e-12
    assert abs(fp - 16.0) < 1e-12
    assert abs(fpp - 96.0) < 1e-12


def test_domain_errors():
    with pytest.raises(FamilyDomainError):
        mems(2.0).f(1.0)
    with pytest.raises(FamilyDomainError):
        mems(2.0).f(np.array([0.2, 1.3]))
    with pytest.raises(FamilyDomainError):
        power(2.0).f(-1.0)
    with pytest.raises(FamilyDomainError):
        power(0.9)
    with pytest.raises(FamilyDomainError):
        mems(0.0)
    with pytest.raises(FamilyDomainError):
        NonlinearityFamily("exp", 2.0)
    with pytest.raises(FamilyDomainError):
        NonlinearityFamily("cubic")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(power, st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
    st.builds(mems, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
))
def test_spec_round_trips(fam):
    assert parse_family(fam.spec) == fam


def test_parse_family_round_trip():
    for spec in ("exp", "power:p=2", "mems:p=1.5"):
        assert parse_family(spec).spec == parse_family(parse_family(spec).spec).spec
    assert parse_family("exp").kind == "exp"
    assert parse_family("power:p=2.5").p == 2.5
    for bad in ("", "exp:p=1", "power", "power:q=2", "mems:p=abc", "weird", "power:p=inf",
                "mems:p=inf"):
        with pytest.raises(FamilyDomainError):
            parse_family(bad)


def test_type_conditions_sampled():
    # regular families: smooth increasing convex, f(0)=1, superlinear;
    # singular family: increasing convex on [0,1), blows up at 1
    for fam in ALL_FAMILIES:
        ts = sample_points(fam)
        fp, fpp = fam.fp(ts), fam.fpp(ts)
        assert abs(fam.f(0.0) - 1.0) < 1e-15
        assert np.all(fp >= 0.0)
        assert np.all(fpp >= 0.0)
    for fam in REGULAR_FAMILIES:
        big = np.array([10.0, 50.0, 200.0])
        assert np.all(np.diff(fam.f(big) / big) > 0)  # superlinear growth
    assert mems(2.0).f(1.0 - 1e-8) > 1e15


# ---------------------------------------------------------------------------
# auxiliary g
# ---------------------------------------------------------------------------


def test_g_zero_everywhere():
    for fam in ALL_FAMILIES:
        if fam.kind == "mems" and fam.p <= 1.0:
            continue
        assert g_aux(fam, 0.0) == 0.0


def test_g_exponential_at_one():
    val = g_aux(exponential(), 1.0)
    oracle = g_quadrature(exponential(), 1.0)  # sqrt(2)*sqrt(e-2)
    assert abs(val - oracle) <= 1e-10 * oracle
    assert abs(val - math.sqrt(2.0) * math.sqrt(math.e - 2.0)) < 1e-14


def test_g_mems_three_at_half():
    # sqrt(2/(p-1)) ((1-t)^(-(p-1)/2) - 1) with p=3, t=1/2 gives exactly 1
    assert abs(g_aux(mems(3.0), 0.5) - 1.0) < 1e-14


def test_g_closed_form_matches_quadrature():
    rng = np.random.default_rng(7)
    for fam in [exponential(), power(2.0), power(4.0)]:
        ts = np.concatenate([rng.uniform(0.0, 8.0, 80), np.logspace(-4, 0, 20)])
        for t in ts:
            oracle = g_quadrature(fam, float(t))
            assert abs(g_aux(fam, float(t)) - oracle) <= 1e-10 * max(oracle, 1e-30)
    for fam in [mems(1.5), mems(2.0), mems(3.0)]:
        ts = rng.uniform(0.0, 0.999, 100)
        for t in ts:
            oracle = g_quadrature(fam, float(t))
            # the singular-family g is a comparison function, not the defining
            # integral; it still must dominate zero and match its own closed form
            val = g_aux(fam, float(t))
            assert val >= 0.0
            p = fam.p
            direct = math.sqrt(2.0 / (p - 1.0)) * ((1.0 - t) ** (-(p - 1.0) / 2.0) - 1.0)
            assert abs(val - direct) <= 1e-12 * max(direct, 1.0)


def test_g_requires_admissible_range():
    with pytest.raises(FamilyDomainError):
        g_aux(exponential(), -0.5)
    with pytest.raises(FamilyDomainError):
        g_aux(mems(0.5), 0.2)  # needs p > 1
    with pytest.raises(FamilyDomainError):
        g_aux(mems(2.0), 1.0)


# ---------------------------------------------------------------------------
# auxiliary H
# ---------------------------------------------------------------------------


def test_H_zero():
    for fam in [exponential(), power(2.0), mems(2.0)]:
        assert h_at(fam, 0.0) == 0.0


def test_H_exponential_quadrature_oracle():
    # two Simpson refinement levels agree, then pin H against them
    coarse = h_simpson(exponential(), 1.0, 400)
    fine = h_simpson(exponential(), 1.0, 800)
    assert abs(fine - coarse) <= 1e-10 * abs(fine)
    assert abs(h_at(exponential(), 1.0) - fine) <= 1e-9 * abs(fine)


def test_H_mems_closed_form_matches_quadrature():
    # 102 sampled points across three exponents
    for p in (1.5, 2.0, 3.0):
        fam = mems(p)
        for t in np.linspace(0.005, 0.9, 34):
            oracle, _ = quad(
                lambda s: fam.fpp(s) * g_aux(fam, s), 0.0, t, epsabs=1e-14, epsrel=1e-12
            )
            assert abs(h_at(fam, float(t)) - oracle) <= 1e-10 * max(abs(oracle), 1.0)


def test_H_power_matches_simpson():
    fam = power(2.0)
    fine = h_simpson(fam, 2.0, 800)
    assert abs(h_at(fam, 2.0) - fine) <= 1e-9 * abs(fine)


def test_h_grid_consistent_with_scalar():
    rng = np.random.default_rng(3)
    for fam in [exponential(), power(2.0), mems(2.0)]:
        hi = 0.9 if fam.kind == "mems" else 3.0
        vals = rng.uniform(0.0, hi, 40)
        vals[5] = vals[11]  # duplicates must not break the incremental path
        grid_vals = h_aux_grid(fam, vals)
        for t, hv in zip(vals, grid_vals):
            assert abs(hv - h_at(fam, float(t))) <= 1e-9 * max(abs(hv), 1.0)


def test_g_and_H_nondecreasing():
    for fam in [exponential(), power(2.0), mems(2.0)]:
        hi = 0.99 if fam.kind == "mems" else 6.0
        ts = np.linspace(0.0, hi, 50)
        gs = np.array([g_aux(fam, t) for t in ts])
        hs = h_aux_grid(fam, ts)
        assert np.all(np.diff(gs) >= -1e-14)
        assert np.all(np.diff(hs) >= -1e-14)


@pytest.mark.parametrize("fam", [exponential(), power(1.1), power(2.0), power(4.0)],
                         ids=lambda fam: fam.spec)
def test_h_grid_matches_adaptive_quadrature(fam):
    # zeros, duplicates, one value alone past a wide gap, and values up to 20
    # so that wide gaps are split into panels; below t = 1e-3 quad's epsabs
    # would dominate its relative error
    rng = np.random.default_rng(7)
    vals = np.concatenate([[0.0, 0.0, 1e-3, 2.5, 2.5, 11.0, 20.0, 20.0],
                           rng.uniform(1e-3, 6.0, 60)])
    rng.shuffle(vals)
    for sample in (vals, np.array([20.0]), np.array([1e-3])):
        for t, hv in zip(sample, h_aux_grid(fam, sample)):
            if t == 0.0:
                assert hv == 0.0
                continue
            oracle, _ = quad(lambda s: fam.fpp(s) * g_aux(fam, s), 0.0, t,
                             epsabs=1e-14, epsrel=1e-12, limit=200)
            assert abs(hv - oracle) <= 1e-12 * abs(oracle)


def test_H_rejects_non_finite():
    for t in (math.inf, math.nan):
        with pytest.raises(FamilyDomainError):
            h_aux_grid(exponential(), np.array([t]))


# ---------------------------------------------------------------------------
# import footprint and the LAPACK binding
# ---------------------------------------------------------------------------


def test_import_leaves_scipy_integrate_unloaded():
    # nor any scipy package, not even scipy itself: only its compiled LAPACK
    # module is loaded; and no process pool
    code = ("import sys, navierlab, navierlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', "
            "'concurrent.futures.process', 'multiprocessing'))))")
    result = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "['scipy.linalg._flapack']"


def test_forked_sweep_loads_no_process_pool(tmp_path):
    # two cores, whatever this host has, so that the sweep forks a worker
    code = ("import os, sys; os.cpu_count = lambda: 2; from navierlab.cli import main; "
            "code = main(['sweep', '--families', 'exp', '--dims', '3,4', '--n', '64', "
            "'--m-max', '0.3', '--amplitude-step', '0.1', '--jobs', '2', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules "
            "if m.startswith(('concurrent.futures.process', 'multiprocessing'))))")
    result = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "3 []"


def test_package_exports_every_public_name():
    for name in ("families", "bootstrap", "radial", "branch", "stability", "estimates"):
        module = importlib.import_module(f"navierlab.{name}")
        for public in module.__all__:
            assert getattr(navierlab, public, None) is getattr(module, public), (name, public)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_threads():
    # importing the CLI loads numpy's and scipy's OpenBLAS; neither may start
    # its thread pool.  The variable is removed explicitly because this
    # process's own import of navierlab has set it.
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = "import os, navierlab.cli; print(len(os.listdir('/proc/self/task')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "1"


def test_import_keeps_preset_blas_threads():
    env = {**src_env(), "OPENBLAS_NUM_THREADS": "2"}
    code = "import os, navierlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "2"


def src_env():
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("order", ["navierlab._lapack, scipy.linalg.lapack",
                                   "scipy.linalg.lapack, navierlab._lapack"])
def test_lapack_binds_scipy_exports(order):
    # the routines are scipy.linalg.lapack's own objects, whichever module is
    # imported first; this fails loudly if scipy moves its compiled module
    code = (f"import {order}; from navierlab import _lapack; "
            "from scipy.linalg import lapack; "
            "print([getattr(_lapack, n) is getattr(lapack, n) for n in _lapack.__all__])")
    result = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[True, True, True, True]"


def test_lapack_missing_module_names_directory(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))) as excinfo:
        load_flapack(str(tmp_path))
    assert scipy.__version__ in str(excinfo.value)


# ---------------------------------------------------------------------------
# hypotheses of the pointwise-bound comparison function
# ---------------------------------------------------------------------------


def fd_derivative(func, t):
    # step balances truncation against rounding for a second-order difference
    h = np.cbrt(np.finfo(float).eps) * max(1.0, abs(t))
    return (func(t + h) - func(t - h)) / (2.0 * h)


def test_comparison_function_hypotheses():
    # f >= g g', g >= 0, g' >= 0, g'' >= 0 on a log-spaced sample
    for fam in ALL_FAMILIES:
        if fam.kind == "mems" and fam.p <= 1.0:
            continue
        ts = sample_points(fam, 40)
        lo = 1e-3 if fam.kind != "mems" else 1e-3
        ts = ts[(ts > lo) & (ts < (0.999 if fam.kind == "mems" else np.inf))]
        gf = lambda t: g_aux(fam, float(t))
        for t in ts:
            g = gf(t)
            gp = fd_derivative(gf, t)
            gpp = fd_derivative(lambda s: fd_derivative(gf, s), t)
            slack = 1e-5 * max(1.0, abs(fam.f(t)))
            assert g >= -1e-12
            assert gp >= -1e-6 * max(1.0, g)
            assert gpp >= -1e-3 * max(1.0, abs(gp))
            assert fam.f(t) - g * gp >= -slack


def test_fundamental_ratio_bound():
    # f'(u) (int_0^u f)^(1/2) >= (f^(3/2)(u) - 1) / (sqrt(6) (sqrt(u) + 1))
    for fam in REGULAR_FAMILIES:
        for u in np.concatenate([np.linspace(0.01, 5.0, 30), [10.0, 20.0]]):
            F, _ = quad(fam.f, 0.0, u, epsabs=1e-13, epsrel=1e-12)
            lhs = fam.fp(u) * math.sqrt(F)
            rhs = (fam.f(u) ** 1.5 - 1.0) / (math.sqrt(6.0) * (math.sqrt(u) + 1.0))
            assert lhs >= rhs * (1.0 - 1e-12)


def test_derivative_growth_bound():
    # f'(u) <= C0 f^gamma(u) with C0 = max(1, f'(M)/f^gamma(M)) at M = 0
    for fam in REGULAR_FAMILIES:
        gamma = curvature_ratio(fam)
        c0 = max(1.0, float(fam.fp(0.0)))
        for u in np.linspace(0.0, 20.0, 50):
            assert fam.fp(u) <= c0 * fam.f(u) ** gamma * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# curvature ratio and the estimates' hypothesis
# ---------------------------------------------------------------------------


def test_curvature_ratio_values():
    assert curvature_ratio(exponential()) == 1.0
    for p in (1.5, 2.0, 4.0):
        assert abs(curvature_ratio(power(p)) - (1.0 - 1.0 / p)) < 1e-15
    for p in (1.5, 2.0, 3.0):
        assert abs(curvature_ratio(mems(p)) - (p + 1.0) / p) < 1e-15


def test_curvature_ratio_matches_sampled_ratio():
    # the ratio f f''/(f')^2 is constant for every family here; the exp
    # sample stays below the overflow threshold of the squared derivative
    for fam, t in [(exponential(), 300.0), (power(2.0), 1e6), (power(4.0), 1e6), (mems(2.0), 1.0 - 1e-9)]:
        ratio = fam.f(t) * fam.fpp(t) / fam.fp(t) ** 2
        assert abs(ratio - curvature_ratio(fam)) < 1e-8


@pytest.mark.parametrize("fam", [
    exponential(), power(1.0 + 2.0**-52), power(2.0),
    mems(1.0 + 2.0**-52), mems(1.0), mems(1.0 - 2.0**-53), mems(0.5), mems(1e-320),
], ids=lambda fam: fam.spec)
def test_estimate_hypotheses_are_the_curvature_ratio_in_zero_two(fam):
    # a regular family or mems with p > 1, which is 0 < ratio < 2 in binary64
    # too, the p closest to 1 on either side included
    applies = 0.0 < curvature_ratio(fam) < 2.0
    assert applies == (not fam.singular or fam.p > 1.0)
    if applies:
        require_estimate_hypotheses(fam)
    else:
        with pytest.raises(FamilyDomainError, match="require p > 1"):
            require_estimate_hypotheses(fam)
