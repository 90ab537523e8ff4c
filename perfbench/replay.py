"""Traced replay of one benchmark workload through navierlab's public functions.

    PYTHONPATH=src python3 perfbench/replay.py '<config json>' <trace file>

The config is the one ``run.py`` builds for the CLI.  The replay mirrors
what the CLI computes for it, cell by cell: ``predict_regularity`` (sweep),
``continue_branch`` with the CLI's solver settings and its ``mems`` amplitude
clamp, ``smallest_stability_eigenvalue`` at every point (branch, sweep),
``run_pointwise_suite`` at every pre-fold point (verify, sweep) and the
CLI's set of branch suprema (verify).  Artifact writing is left out.

The replay runs twice.  The first run carries no tracing and gives the
untraced compute time.  The second records a span around every call into a
layer, and around the calls one layer makes into another (``minus_laplacian``
and ``volume_weights`` from ``radial``, ``h_aux_grid`` from ``families``),
by swapping in timed wrappers for the module attributes the callers look up.
Spans stay in memory and are written once, at the end, with the per-cell
results that ``run.py`` compares with the CLI's artifacts.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext

import navierlab as nl
from navierlab import branch as nl_branch
from navierlab import estimates as nl_estimates
from navierlab import stability as nl_stability

# The CLI's RunConfig defaults, and the amplitude its _solve_branch clamps
# the singular family to.
CLI_TOL = 1e-10
CLI_AMPLITUDE_STEP = 0.05
MEMS_M_MAX = 1.0 - 1e-4
COLD_SOLVES = 5

# (module, attribute the caller looks up, span name)
CROSS_LAYER_CALLS = [
    (nl_branch, "minus_laplacian", "radial.minus_laplacian"),
    (nl_stability, "minus_laplacian", "radial.minus_laplacian"),
    (nl_stability, "volume_weights", "radial.volume_weights"),
    (nl_estimates, "h_aux_grid", "families.h_aux_grid"),
]


class Tracer:
    """Spans (name, start, end, parent, workload, cell) with counts, in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cell = ""
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "workload": self.workload, "cell": self.cell,
                  "parent": self._open[-1] if self._open else None, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    cell = ""

    def span(self, name: str):
        return nullcontext({})


@contextmanager
def cross_layer_spans(tracer: Tracer):
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in CROSS_LAYER_CALLS]

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    try:
        for (module, attr, name), (_, _, fn) in zip(CROSS_LAYER_CALLS, originals):
            setattr(module, attr, timed(fn, name))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _solver() -> nl.SolverConfig:
    return nl.SolverConfig(newton_tol=CLI_TOL, amplitude_step=CLI_AMPLITUDE_STEP)


def _suprema(family, branch) -> list:
    """The suprema set the CLI's verify summary reports."""
    entries = []
    if not family.singular:
        entries.extend(nl.check_crucial_integrals(family, branch))
    for check in (nl.check_L2, nl.check_fprime_integral):
        try:
            entries.append(check(family, branch))
        except ValueError:
            pass
    return entries


def replay_cell(tracer, cfg: dict, spec: str, N: int) -> dict:
    """Mirror the CLI's work on one (family, N) cell; return the cell's lambda*."""
    command = cfg["command"]
    family = nl.parse_family(spec)
    tracer.cell = f"{spec}/N{N}"
    with tracer.span("cell"):
        if command == "sweep":
            with tracer.span("bootstrap.predict"):
                nl.predict_regularity(family, N)
        grid = nl.RadialGrid(N, cfg["n"])
        m_max = min(cfg["m_max"], MEMS_M_MAX) if family.singular else cfg["m_max"]
        with tracer.span("branch.continue") as counts:
            branch = nl.continue_branch(family, grid, m_max, _solver())
            counts["points"] = len(branch.points)
            counts["newton_iters"] = sum(pt.newton_iters for pt in branch.points)
        if command in ("branch", "sweep"):
            for pt in branch.points:
                with tracer.span("stability.eig") as counts:
                    report = nl.smallest_stability_eigenvalue(family, pt)
                    counts["inverse_iters"] = report.iterations
        if command in ("verify", "sweep"):
            for pt in branch.pre_fold_points:
                with tracer.span("estimates.suite") as counts:
                    reports = nl_estimates.run_pointwise_suite(family, pt)
                    counts["reports"] = len(reports)
                    counts["satisfied"] = sum(1 for rep in reports if rep.satisfied)
        if command == "verify":
            with tracer.span("estimates.suprema"):
                _suprema(family, branch)
    return {"cell": tracer.cell, "lambda_star": branch.lambda_star_estimate}


def replay(tracer, cfg: dict) -> list[dict]:
    return [replay_cell(tracer, cfg, spec, N) for spec in cfg["families"] for N in cfg["dims"]]


def cold_solve(cfg: dict) -> None:
    """One solve_at_amplitude from no guess, at the first continuation amplitude,
    for the first cell in sorted order (so the seed's shuffle does not pick it)."""
    family = nl.parse_family(min(cfg["families"]))
    grid = nl.RadialGrid(min(cfg["dims"]), cfg["n"])
    nl.solve_at_amplitude(family, grid, CLI_AMPLITUDE_STEP, config=_solver())


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    trace_path = argv[1]
    cold_solve(cfg)  # warm-up: first calls into numpy and LAPACK
    start = time.perf_counter()
    replay(NullTracer(), cfg)
    untraced_s = time.perf_counter() - start
    tracer = Tracer(cfg["workload"])
    with cross_layer_spans(tracer):
        start = time.perf_counter()
        results = replay(tracer, cfg)
        traced_s = time.perf_counter() - start
        tracer.cell = "cold"
        for _ in range(COLD_SOLVES):
            with tracer.span("branch.cold_solve"):
                cold_solve(cfg)
    with open(trace_path, "w") as handle:
        json.dump({"untraced_s": untraced_s, "traced_s": traced_s, "cells": results,
                   "spans": tracer.spans}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
