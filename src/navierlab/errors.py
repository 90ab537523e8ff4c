"""The two compute errors, in a module that imports nothing.

The command line's failure table names them, so defining them here lets it
do so without loading a compute module: ``predict`` and ``bootstrap`` load
no LAPACK.  ``branch`` and ``stability``, which raise them, export them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .branch import Branch


class ContinuationError(RuntimeError):
    """Continuation aborted; carries the partial branch solved so far."""

    def __init__(self, message: str, partial: Branch | None = None):
        super().__init__(message)
        self.partial = partial


class EigenIterationError(RuntimeError):
    """Inverse iteration failed to stabilize within the step limit."""
