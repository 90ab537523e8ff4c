"""Command-line front end: predict, bootstrap, branch, verify, sweep.

Outputs are plain CSV and JSON written atomically (temp file + rename) so a
crashed run never leaves a half-written artifact, and deterministically:
floats are printed with 17 significant digits, JSON keys are sorted, and no
timestamps or environment data enter the files.  Each run command's parser
is its one option schema: it accepts only the options the command reads, one
spelling each, and reads a flat ``key = value`` config file (``#`` comments)
as the same flags, which the command line overrides.  ``RunConfig`` records a
run's settings in every summary.

branch, verify and every sweep cell run one pipeline: validate, compute,
write.  Every cell's config becomes its typed inputs (family, grid, solver
settings, effective m_max) before any cell runs; a cell then computes all its
command reports, settles its final status and only then writes artifacts that
carry it.  One failure table (``_status`` and ``_EXIT``) gives every outcome
its status and exit code: 0 success, 2 usage/config error or estimates not
applicable, 3 inconclusive (a bootstrap classification, or a branch whose
first fold has no sample on one side, so no fold was seen), 4 compute
failure (a partial branch is kept and flagged).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import bootstrap as bs
from .branch import MEMS_M_MAX, Branch, ContinuationError, SolverConfig, continue_branch
from .estimates import (
    check_L2,
    check_crucial_integrals,
    check_fprime_integral,
    run_pointwise_suite,
)
from .families import FamilyDomainError, NonlinearityFamily, parse_family
from .radial import RadialGrid, field_rows
from .stability import EigenIterationError, smallest_stability_eigenvalue

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_COMPUTE = 4

# the most initial-size continuation steps a run may ask for
MAX_CONTINUATION_STEPS = 10_000
# the most interior grid nodes a run may ask for.  branch and sweep lose mu1
# from about 2**15-2**16 of them (verify never computes it): the stability
# certificate's margin 2 eps ||T||_1 grows like n^4 and outgrows the gap
# mu2 - mu1 (about 1,461 for exp N=3 near the trivial solution; the margin
# is 0.38 at n = 2,048 and 24,790 at 32,768), so inverse iteration takes 3,
# 24 and 229 solves at n = 2,048, 16,384 and 32,768 and exp N=3 with m_max
# 0.1 ends in a compute failure at 2**16
MAX_GRID_NODES = 2**20


# ---------------------------------------------------------------------------
# the failure table
# ---------------------------------------------------------------------------

_COMPUTE_ERRORS = (ContinuationError, EigenIterationError, np.linalg.LinAlgError)
_FAILURE_TYPES = (*_COMPUTE_ERRORS, ValueError, OSError)

_EXIT = {
    "ok": EXIT_OK,
    "not-applicable": EXIT_USAGE,
    "error": EXIT_USAGE,
    "no-fold": EXIT_INCONCLUSIVE,
    "partial": EXIT_COMPUTE,
    "compute-failure": EXIT_COMPUTE,
}


def _status(exc: BaseException) -> str:
    """The status of a run or sweep cell that raised one of _FAILURE_TYPES."""
    if isinstance(exc, ContinuationError) and exc.partial is not None and exc.partial.points:
        return "partial"  # the solved points are kept
    if isinstance(exc, _COMPUTE_ERRORS):
        return "compute-failure"
    return "error"  # bad input or an unusable output path


def _fail(status: str, message: str) -> int:
    """Report one failure on stderr and return its exit code."""
    code = _EXIT[status]
    prefix = {EXIT_INCONCLUSIVE: "inconclusive", EXIT_COMPUTE: "compute failure"}
    print(f"{prefix.get(code, 'error')}: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# formatting and atomic file output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """Round-trippable decimal rendering of a binary64."""
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: str, rows) -> str:
    """Floats with 17 significant digits, booleans in lower case."""
    def text(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return str(bool(x)).lower()
        if isinstance(x, (str, int, np.integer)):
            return str(x)
        return _fmt(x)

    lines = [header] + [",".join(map(text, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One run's settings, as every summary's ``config`` dict records them.
    A field the command takes no option for keeps its default."""

    family: str = "exp"
    N: int = 3
    n: int = 2048
    m_max: float = 6.0
    tol: float = 1e-10
    amplitude_step: float = 0.05
    out: str = "out"
    jobs: int = 1
    dump_fields: bool = False


# each run option's argparse keywords, by config-file key: the flag with _ for -
_OPTIONS = {
    "family": {"help": "exp | power:p=<real> | mems:p=<real>"},
    "N": {"type": int, "help": "space dimension"},
    "families": {"help": "comma-separated family specs"},
    "dims": {"help": "e.g. 3..8 or 3,5,8"},
    "n": {"type": int, "help": "interior grid nodes"},
    "m_max": {"type": float, "help": "upper limit on the amplitude to continue to"},
    "tol": {"type": float, "help": "Newton residual tolerance"},
    "amplitude_step": {"type": float},
    "out": {"help": "output directory"},
    "dump_fields": {"action": "store_true", "help": "write one CSV per solved profile"},
    "jobs": {"type": int, "help": "worker processes"},
}
# the options each run command reads, besides --config
_RUN_OPTIONS = {
    "branch": ("family", "N", "n", "m_max", "tol", "amplitude_step", "out", "dump_fields"),
    "verify": ("family", "N", "n", "m_max", "tol", "amplitude_step", "out"),
    "sweep": ("families", "dims", "n", "m_max", "tol", "amplitude_step", "out", "jobs"),
}


def _config_values(parser: argparse.ArgumentParser, path: str, command: str) -> dict:
    """The options a config file sets, read by the command's own parser as
    flags: ``key = value`` is ``--key=value``, and a switch's ``true`` or
    ``1`` is the bare flag and its ``false`` or ``0`` nothing."""
    tokens = [command]
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            if key not in _RUN_OPTIONS[command]:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            flag = "--" + key.replace("_", "-")
            if _OPTIONS[key].get("action") != "store_true":
                tokens.append(f"{flag}={val}")
            elif val.lower() in ("true", "1"):
                tokens.append(flag)
            elif val.lower() not in ("false", "0"):
                raise ValueError(f"{path}:{lineno}: bad boolean {val!r}")
    try:
        return vars(parser.parse_args(tokens))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_dims(spec: str, n: int) -> list[int]:
    """The dimensions of a comma list of entries N or N..M.  Both ends of a
    range pass the grid check on n before it is expanded."""
    dims: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dots, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
            if lo > hi:
                raise ValueError
        except ValueError:
            raise ValueError(f"dims entry {part!r} in {spec!r} is not N or N..M "
                             "with N <= M") from None
        if dots:
            _grid(lo, n)
            _grid(hi, n)
        dims.extend(range(lo, hi + 1))
    if not dims:
        raise ValueError(f"empty dimension list {spec!r}")
    return sorted(set(dims))


@dataclass(frozen=True)
class _Cell:
    """One validated (family, N) job: its canonical config and typed inputs."""

    cfg: RunConfig
    family: NonlinearityFamily
    grid: RadialGrid
    solver: SolverConfig
    m_max: float  # the continuation's upper limit: m_max, clamped for mems


def _grid(N: int, n: int) -> RadialGrid:
    if n > MAX_GRID_NODES:  # checked before the grid's arrays are allocated
        raise ValueError(f"n = {n} exceeds the limit of {MAX_GRID_NODES} grid nodes")
    return RadialGrid(N, n)


def _validate(cfg: RunConfig) -> _Cell:
    """Fail fast on bad values before any compute starts."""
    family = parse_family(cfg.family)
    grid = _grid(cfg.N, cfg.n)
    solver = SolverConfig(newton_tol=cfg.tol, amplitude_step=cfg.amplitude_step)
    if not 0.0 < cfg.m_max < math.inf:
        raise ValueError("m_max must be positive and finite")
    m_max = min(cfg.m_max, MEMS_M_MAX) if family.singular else cfg.m_max
    steps = m_max / cfg.amplitude_step
    if steps > MAX_CONTINUATION_STEPS:
        raise ValueError(f"m_max / amplitude_step = {steps:g} exceeds the limit of "
                         f"{MAX_CONTINUATION_STEPS} continuation steps")
    if cfg.jobs < 1:
        raise ValueError("jobs must be >= 1")
    return _Cell(replace(cfg, family=family.spec), family, grid, solver, m_max)


def _family_tag(spec: str) -> str:
    return spec.replace(":", "-").replace("=", "").replace(".", "_")


# ---------------------------------------------------------------------------
# the cell pipeline shared by branch, verify and sweep
# ---------------------------------------------------------------------------

_BRANCH_HEADER = "m,lambda,u_center,max_u,mu1,residual_norm,newton_iters"
_ESTIMATE_HEADER = "estimate,m,lambda,lhs,rhs,margin,satisfied"
_SWEEP_COLUMNS = ("family", "N", "status", "lambda_star", "fold_detected", "verdict", "rule",
                  "estimates_ok")


def _mu1_column(family, branch: Branch) -> list[float]:
    column = []
    report = None  # each report's eigenfunction starts the next point
    for pt in branch.points:
        report = smallest_stability_eigenvalue(family, pt, report)
        column.append(report.mu1)
    return column


def _suprema_summary(family, branch: Branch) -> dict:
    summary = {}
    for check in (check_crucial_integrals, check_L2, check_fprime_integral):
        try:
            found = check(family, branch)
        except ValueError:  # the bound is not proved for this family
            continue
        for sup in found if isinstance(found, tuple) else (found,):
            summary[sup.name] = {"sup": sup.sup, "finite": sup.finite}
    return summary


def _run_cell(cell: _Cell, command: str) -> dict:
    """One (family, N) cell of branch, verify or sweep.

    Solves the branch, keeping a partial one, and computes everything the
    command reports; then settles the status and only then writes the
    artifacts.  Returns the cell's record.  A failure ends the cell with the
    status the failure table gives it.
    """
    cfg, family = cell.cfg, cell.family
    record = {"family": cfg.family, "N": cfg.N, "status": "ok", "error": "",
              "lambda_star": math.nan, "fold_detected": False, "estimates_ok": False}
    if command == "sweep":
        verdict = bs.predict_regularity(family, cfg.N)
        record.update(verdict=verdict.verdict, rule=verdict.rule)
    try:
        try:
            branch = continue_branch(family, cell.grid, cell.m_max, cell.solver)
        except ContinuationError as exc:
            if _status(exc) != "partial":
                raise
            branch = exc.partial
            record.update(status="partial", error=str(exc))
        record.update(lambda_star=branch.lambda_star_estimate, fold_detected=branch.fold_detected)

        mu1 = _mu1_column(family, branch) if command != "verify" else []
        reports, not_applicable = [], ""
        if command != "branch":
            try:
                reports = [rep for pt in branch.pre_fold_points
                           for rep in run_pointwise_suite(family, pt)]
            except FamilyDomainError as exc:
                # the estimates' hypotheses fail: mems p <= 1, or u outside the
                # auxiliary functions' domain (u >= 0, u < 1 for mems)
                not_applicable = str(exc)
        # with no estimate evaluated nothing passed
        record["estimates_ok"] = bool(reports) and all(rep.satisfied for rep in reports)
        suprema = _suprema_summary(family, branch) if command == "verify" else {}

        if record["status"] == "ok" and not_applicable:
            record.update(status="not-applicable", error=not_applicable)
        if record["status"] == "ok" and not branch.fold_detected:
            record.update(status="no-fold", error="lambda does not turn between two samples "
                          "of the branch, so lambda_star is only a sampled value")

        tag = f"{_family_tag(cfg.family)}_N{cfg.N}"
        summary = record["summary"] = {
            "family": cfg.family, "N": cfg.N, "n": cfg.n, "m_max_effective": cell.m_max,
            "lambda_star_estimate": branch.lambda_star_estimate,
            "fold_detected": branch.fold_detected, "config": asdict(cfg)}
        if command == "verify":
            rows = ((rep.name, rep.m, rep.lam, rep.lhs, rep.rhs, rep.margin, rep.satisfied)
                    for rep in reports)
            _write_atomic(os.path.join(cfg.out, f"estimates_{tag}.csv"),
                          _csv_text(_ESTIMATE_HEADER, rows))
            summary.update(pre_fold_points=len(branch.pre_fold_points),
                           pointwise_all_satisfied=record["estimates_ok"], suprema=suprema)
            if record["status"] != "ok":
                summary["status"] = record["status"]  # absent means ok
            _write_atomic(os.path.join(cfg.out, f"verify_{tag}.json"), _json_text(summary))
        else:
            rows = ((pt.m, pt.lam, pt.u[0], np.max(pt.u), mu, pt.residual_norm, pt.newton_iters)
                    for pt, mu in zip(branch.points, mu1))
            _write_atomic(os.path.join(cfg.out, f"branch_{tag}.csv"),
                          _csv_text(_BRANCH_HEADER, rows))
            summary.update(points=len(branch.points), status=record["status"])
            _write_atomic(os.path.join(cfg.out, f"branch_{tag}.json"), _json_text(summary))
            if cfg.dump_fields:
                for i, pt in enumerate(branch.points):
                    _write_atomic(os.path.join(cfg.out, f"field_{tag}_{i:04d}.csv"),
                                  _csv_text("r,value", field_rows(pt.u, pt.grid)))
                _write_atomic(os.path.join(cfg.out, f"grid_{tag}.json"),
                              _json_text(branch.grid.json_header()))
    except _FAILURE_TYPES as exc:
        record.update(status=_status(exc), error=str(exc))
    return record


def _fork_map(run, items: list, workers: int) -> list:
    """``[run(item) for item in items]``, computed by this process and
    ``workers - 1`` children forked from it.

    Each process claims the next item from one pipe that holds a single
    8-byte value, the index of the next unclaimed item: it reads the value
    and writes back the next one, so a slow item holds up only the process
    running it.  A child pickles its ``(index, result)`` pairs, or the
    exception it raised, to its own pipe and leaves with ``os._exit``, so it
    never flushes the stdout it inherited nor runs atexit handlers.  Every
    child is reaped, also when this process's own share raised; then the
    first exception seen is raised.  A child that ends without a result
    raises ``ChildProcessError`` naming its exit status.  Forking is safe
    because the process has one thread: ``navierlab`` keeps OpenBLAS from
    starting its pool.
    """
    claim_r, claim_w = os.pipe()
    os.write(claim_w, (0).to_bytes(8, "little"))

    def share() -> list:
        done = []
        while (index := int.from_bytes(os.read(claim_r, 8), "little")) < len(items):
            os.write(claim_w, (index + 1).to_bytes(8, "little"))
            done.append((index, run(items[index])))
        os.write(claim_w, index.to_bytes(8, "little"))  # the next reader stops too
        return done

    children, shares, errors = [], [], []
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(result_r)
                    try:
                        payload = share()
                    except BaseException as exc:  # handed to the parent to raise
                        payload = exc
                    with open(result_w, "wb") as pipe:
                        pickle.dump(payload, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(result_w)
            children.append((pid, result_r))
        shares.append(share())
    except BaseException as exc:  # raised below, once every child is reaped
        errors.append(exc)
    for pid, result_r in children:
        with open(result_r, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status or not data:
            errors.append(ChildProcessError(f"sweep worker {pid} ended with exit status "
                                            f"{status} and no result"))
        else:
            payload = pickle.loads(data)  # written by the child above
            (errors if isinstance(payload, BaseException) else shares).append(payload)
    os.close(claim_r)
    os.close(claim_w)
    if errors:
        raise errors[0]
    found = dict(pair for done in shares for pair in done)
    return [found[index] for index in range(len(items))]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _print_record(record: dict, out: str | None) -> None:
    """predict's and bootstrap's one output: the record's JSON on stdout and,
    given --out, the same text in that file."""
    text = _json_text(record)
    sys.stdout.write(text)
    if out:
        _write_atomic(out, text)


def cmd_predict(args) -> int:
    verdict = bs.predict_regularity(parse_family(args.family), args.N)
    _print_record(asdict(verdict), args.out)
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    params = bs.ExponentParams(args.N, args.q, args.alpha, args.beta)
    trace = bs.run_bootstrap(params, max_steps=args.steps)
    record = {
        "N": args.N,
        "q0": args.q,
        "alpha": args.alpha,
        "beta": args.beta,
        # fixed_point and escape_steps are omitted when unset
        "trace": {k: v for k, v in asdict(trace).items() if v is not None},
    }
    _print_record(record, args.out)
    return EXIT_INCONCLUSIVE if trace.classification == bs.INCONCLUSIVE else EXIT_OK


def cmd_run(args) -> int:
    """branch, verify and sweep: validate every cell, then run them."""
    options = vars(args)  # the options given, as flags or in the config file
    cfg = RunConfig(**{f.name: options[f.name] for f in fields(RunConfig) if f.name in options})
    configs = [cfg]
    if args.command == "sweep":
        fams = [f.strip() for f in options.get("families", "").split(",") if f.strip()]
        if not fams or "dims" not in options:
            raise ValueError("sweep needs --families and --dims")
        dims = _parse_dims(options["dims"], cfg.n)
        configs = [replace(cfg, family=f, N=N) for f in fams for N in dims]
    cells = [_validate(c) for c in configs]
    os.makedirs(cfg.out, exist_ok=True)  # an unusable --out fails before any compute
    if args.command != "sweep":
        record = _run_cell(cells[0], args.command)
        if record["status"] != "ok":
            return _fail(record["status"], record["error"])
        sys.stdout.write(_json_text(record["summary"]))
        return EXIT_OK
    # a family spelled twice runs once; each cell runs alone in its worker
    unique = {(c.cfg.family, c.cfg.N): c for c in cells}
    cells = [replace(c, cfg=replace(c.cfg, jobs=1)) for c in unique.values()]
    run = partial(_run_cell, command="sweep")
    # this process and workers - 1 forked children share the cells; more of
    # them than cores would only take turns on them
    workers = min(cfg.jobs, len(cells), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers > 1:
        records = _fork_map(run, cells, workers)
    else:
        records = [run(cell) for cell in cells]
    records.sort(key=lambda c: (c["family"], c["N"]))
    text = _csv_text(",".join(_SWEEP_COLUMNS), ([c[k] for k in _SWEEP_COLUMNS] for c in records))
    _write_atomic(os.path.join(cfg.out, "sweep.csv"), text)
    sys.stdout.write(text)
    codes = [_fail(c["status"], f"{c['family']} N={c['N']} {c['status']}: {c['error']}")
             for c in records if c["status"] != "ok"]
    return max(codes, default=EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # to the failure table, not to argparse's exit
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="navierlab",
        description="Minimal branches, stability and estimate certification "
        "for the fourth-order eigenvalue problem with hinged boundary conditions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("predict", help="regularity verdict for (family, N)")
    p.add_argument("--family", required=True)
    p.add_argument("--N", dest="N", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("bootstrap", help="run the exponent recursion")
    p.add_argument("--N", dest="N", type=int, required=True)
    p.add_argument("--q", type=float, required=True, help="starting exponent q0 >= 1")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bootstrap)

    for command, text in (("branch", "continue the minimal branch, write CSV + JSON"),
                          ("verify", "certify the estimates along a branch"),
                          ("sweep", "branch + verify over families x dimensions")):
        # not given stays unset (a file's value or RunConfig's default holds); no abbreviations
        p = subs.add_parser(command, help=text, argument_default=argparse.SUPPRESS,
                            allow_abbrev=False)
        for key in _RUN_OPTIONS[command]:
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):  # the flags override the file
            args = argparse.Namespace(**(_config_values(parser, args.config, args.command)
                                         | vars(args)))
        return args.func(args)
    except SystemExit:  # the parser exits only after printing --help
        return EXIT_OK
    except _FAILURE_TYPES as exc:
        return _fail(_status(exc), str(exc))


if __name__ == "__main__":
    sys.exit(main())
