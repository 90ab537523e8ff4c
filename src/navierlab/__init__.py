"""Numerical laboratory for the fourth-order eigenvalue problem
Delta^2 u = lambda f(u) with hinged (u = Delta u = 0) boundary conditions
on the unit ball: minimal-branch continuation, fold and extremal-parameter
estimation, semi-stability spectra, a-priori estimate certification, and
the exponent-bootstrap regularity predictor.

Each module's ``__all__`` is its public surface, and the package exports
every name in those of ``families``, ``bootstrap``, ``radial``, ``branch``,
``stability`` and ``estimates``, error types included.  Importing the
package loads none of them, nor numpy: a process loads only the modules it
runs.  The first access to an exported name (``navierlab.X``,
``dir(navierlab)`` or ``from navierlab import *``) imports all six, and
the name of a module of the package (``navierlab.cli``) imports that
module alone."""

import importlib.util
import os

# One BLAS thread per process.  Every BLAS/LAPACK call the lab makes is banded
# O(n) work or a length-n dot product and never uses the OpenBLAS thread pool,
# while the idle pool threads that numpy's and scipy's OpenBLAS builds start
# on load compete with the main thread and with the sweep's workers for the
# cores.  Each OpenBLAS reads the variable once, when it loads, so this must
# run before any module of the package loads numpy; sweep workers inherit it.
# A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_MODULES = ("families", "bootstrap", "radial", "branch", "stability", "estimates")


def _export_all() -> None:
    """Bind every name in the six modules' ``__all__`` here, and ``__all__``."""
    names = []
    for module_name in _MODULES:
        module = importlib.import_module(f"{__name__}.{module_name}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names.extend(module.__all__)
    globals()["__all__"] = names


def __getattr__(name: str):
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:  # a module of the package
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        _export_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _export_all()
    return sorted(globals())
