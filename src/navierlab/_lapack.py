"""The four LAPACK routines navierlab calls, without scipy.linalg's package init.

Newton factors its bordered Jacobian with ``dgbsv``, the Navier solve
applies -Delta_h with ``dgtsv``, and the stability certificate factors and
solves with ``dpbtrf``/``dpbtrs``.  All four are f2py wrappers in scipy's
compiled module ``scipy.linalg._flapack``.  Importing them through
``scipy.linalg`` also runs that package's init, which pulls in scipy's
array-API layer, ``numpy.f2py`` and ``numpy.testing``: most of the cold
start of every ``branch``, ``verify`` and ``sweep`` process, and none of it
needed here.  So the extension is loaded straight from its file in scipy's
install tree and registered in ``sys.modules`` under its own name, where a
later ``import scipy.linalg`` finds it; an earlier one's entry is reused.
Either way ``scipy.linalg.lapack`` exports the very same objects.  The
install tree is found with ``importlib.util.find_spec``, which runs no
package init either, so importing this module loads no ``scipy`` package at
all, not even the top-level one.

This is the only module that names the private extension.  ``radial``,
``branch`` and ``stability`` import it, so loading any of the compute
modules loads it; ``import navierlab`` alone does not.  There is no second
path through ``scipy.linalg.lapack``: if scipy moves the file, the import
fails here with an ``ImportError`` naming the directory searched and the
installed scipy version, and if scipy is not installed, with one saying so.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["dgbsv", "dgtsv", "dpbtrf", "dpbtrs"]

_MODULE = "scipy.linalg._flapack"


def load_flapack(directory: str):
    """The module ``scipy.linalg._flapack``, from its extension file in
    ``directory`` (or the entry ``sys.modules`` already holds for it)."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        from importlib.metadata import version  # only here: it costs milliseconds to import

        raise ImportError(f"no _flapack extension module in {directory} "
                          f"(scipy {version('scipy')})")
    if _MODULE in sys.modules:
        return sys.modules[_MODULE]
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_MODULE] = module
    spec.loader.exec_module(module)
    return module


_scipy = importlib.util.find_spec("scipy")
if _scipy is None or not _scipy.submodule_search_locations:
    raise ImportError("navierlab needs scipy for its LAPACK routines, and no scipy "
                      "package is installed")
_flapack = load_flapack(os.path.join(_scipy.submodule_search_locations[0], "linalg"))
dgbsv = _flapack.dgbsv
dgtsv = _flapack.dgtsv
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs
