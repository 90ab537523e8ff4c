"""Numerical laboratory for the fourth-order eigenvalue problem
Delta^2 u = lambda f(u) with hinged (u = Delta u = 0) boundary conditions
on the unit ball: minimal-branch continuation, fold and extremal-parameter
estimation, semi-stability spectra, a-priori estimate certification, and
the exponent-bootstrap regularity predictor."""

from .families import (
    NonlinearityFamily,
    exponential,
    power,
    mems,
    parse_family,
    g_aux,
    gamma_limits,
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
