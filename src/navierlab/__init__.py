"""Numerical laboratory for the fourth-order eigenvalue problem
Delta^2 u = lambda f(u) with hinged (u = Delta u = 0) boundary conditions
on the unit ball: minimal-branch continuation, fold and extremal-parameter
estimation, semi-stability spectra, a-priori estimate certification, and
the exponent-bootstrap regularity predictor.

Each module's ``__all__`` is its public surface, and the package exports
every name in those of ``families``, ``bootstrap``, ``radial``, ``branch``,
``stability`` and ``estimates``, error types included."""

import os

# One BLAS thread per process.  Every BLAS/LAPACK call the lab makes is banded
# O(n) work or a length-n dot product and never uses the OpenBLAS thread pool,
# while the idle pool threads that numpy's and scipy's OpenBLAS builds start
# on load compete with the main thread and with the sweep's workers for the
# cores.  Each OpenBLAS reads the variable once, when it loads, so this must
# run before the first import below loads numpy; sweep workers inherit it.  A
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .families import *
from .bootstrap import *
from .radial import *
from .branch import *
from .stability import *
from .estimates import *

__version__ = "0.1.0"
