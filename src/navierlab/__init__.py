"""Numerical laboratory for the fourth-order eigenvalue problem
Delta^2 u = lambda f(u) with hinged (u = Delta u = 0) boundary conditions
on the unit ball: minimal-branch continuation, fold and extremal-parameter
estimation, semi-stability spectra, a-priori estimate certification, and
the exponent-bootstrap regularity predictor."""

import os

# One BLAS thread per process.  Every BLAS/LAPACK call the lab makes is banded
# O(n) work or a length-n dot product and never uses the OpenBLAS thread pool,
# while the idle pool threads that numpy's and scipy's OpenBLAS builds start
# on load compete with the main thread and with the sweep's workers for the
# cores.  Each OpenBLAS reads the variable once, when it loads, so this must
# run before the first import below loads numpy; sweep workers inherit it.  A
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .families import (
    NonlinearityFamily,
    exponential,
    power,
    mems,
    parse_family,
    g_aux,
    curvature_ratio,
)
from .bootstrap import (
    ExponentParams,
    BootstrapTrace,
    RegularityVerdict,
    iterate_q,
    fixed_point,
    run_bootstrap,
    predict_regularity,
)
from .radial import (
    RadialGrid,
    BandedOperator,
    laplacian_matrix,
    minus_laplacian,
    integrate_radial,
    radial_gradient,
    radial_power_bilaplacian,
    solve_navier_biharmonic,
)
from .branch import (
    SolverConfig,
    BranchPoint,
    Branch,
    solve_at_amplitude,
    continue_branch,
    trivial_point,
)
from .stability import (
    StabilityReport,
    smallest_stability_eigenvalue,
    dirichlet_laplacian_ground_eigenvalue,
)
from .estimates import (
    EstimateReport,
    BranchSupremum,
    check_pointwise_bound,
    check_energy_estimate,
    check_gH_estimate,
    check_basic_energy,
    check_crucial_integrals,
    check_L2,
    check_fprime_integral,
)

__version__ = "0.1.0"
