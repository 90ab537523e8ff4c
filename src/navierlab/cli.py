"""Command-line front end: predict, bootstrap, branch, verify, sweep.

Outputs are plain CSV and JSON written atomically (temp file + rename) so a
crashed run never leaves a half-written artifact, and deterministically:
floats are printed with 17 significant digits, JSON keys are sorted, and no
timestamps or environment data enter the files.  A flat ``key = value``
config file (with ``#`` comments) can hold any option; command-line flags
override it, and unknown keys are errors.  The fields of ``RunConfig`` are
the config schema.

branch, verify and every sweep cell run through one cell runner, and one
failure table (``_status`` and ``_EXIT``) gives every outcome its status and
exit code: 0 success, 2 usage/config error or estimates not applicable,
3 inconclusive (a bootstrap classification, or a branch whose sampled
lambda maximum sits at one of its ends, so no fold was seen), 4 compute
failure (a partial branch is kept and flagged).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import get_type_hints

import numpy as np

from . import bootstrap as bs
from .branch import MEMS_M_MAX, Branch, ContinuationError, SolverConfig, continue_branch
from .estimates import (
    check_L2,
    check_crucial_integrals,
    check_fprime_integral,
    run_pointwise_suite,
)
from .families import FamilyDomainError, parse_family
from .radial import RadialGrid, field_rows
from .stability import EigenIterationError, smallest_stability_eigenvalue

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_COMPUTE = 4

# the most initial-size continuation steps a run may ask for
MAX_CONTINUATION_STEPS = 10_000


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
    if isinstance(exc, FamilyDomainError):
        # past validation it comes from the estimates' hypotheses: mems p <= 1,
        # or u outside the auxiliary functions' domain (u >= 0, u < 1 for mems)
        return "not-applicable"
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
    """One run's settings.  Each field is a config key and a key of the
    summaries' ``config`` dict, under its ``key`` metadata if it has one."""

    family: str = "exp"
    dim_N: int = field(default=3, metadata={"key": "N"})
    n: int = 2048
    m_max: float = 6.0
    tol: float = 1e-10
    amplitude_step: float = 0.05
    out: str = "out"
    jobs: int = 1
    dump_fields: bool = False

    def as_dict(self) -> dict:
        return {_key(f): getattr(self, f.name) for f in fields(self)}


def _key(f) -> str:
    return f.metadata.get("key", f.name)


# sweep-only keys, comma-separated lists kept as text until the grid is built
_SWEEP_KEYS = ("families", "dims")


def _parse_config_file(path: str) -> dict:
    hints = get_type_hints(RunConfig)
    types = {_key(f): hints[f.name] for f in fields(RunConfig)} | dict.fromkeys(_SWEEP_KEYS, str)
    values: dict = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            typ = types[key]
            if typ is bool:
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(f"{path}:{lineno}: bad boolean {val!r}")
                values[key] = val.lower() in ("true", "1")
            else:
                values[key] = typ(val)
    return values


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """File values first, explicit flags second.

    Returns the run config and the sweep-only keys that are set.
    """
    values = _parse_config_file(args.config) if args.config else {}
    attrs = {_key(f): f.name for f in fields(RunConfig)}
    for key in (*attrs, *_SWEEP_KEYS):
        flag = getattr(args, attrs.get(key, key), None)
        if flag is not None:
            values[key] = flag
    lists = {key: values.pop(key) for key in _SWEEP_KEYS if key in values}
    return RunConfig(**{attrs[key]: val for key, val in values.items()}), lists


def _parse_dims(spec: str) -> list[int]:
    dims: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            dims.extend(range(int(lo), int(hi) + 1))
        elif part:
            dims.append(int(part))
    if not dims:
        raise ValueError(f"empty dimension list {spec!r}")
    return sorted(set(dims))


def _effective_m_max(family, m_max: float) -> float:
    """The amplitude the continuation runs to: m_max, clamped for mems."""
    return min(m_max, MEMS_M_MAX) if family.singular else m_max


def _validate_run_config(cfg: RunConfig) -> None:
    """Fail fast on bad values before any compute starts."""
    family = parse_family(cfg.family)
    RadialGrid(cfg.dim_N, cfg.n)
    SolverConfig(newton_tol=cfg.tol, amplitude_step=cfg.amplitude_step)
    if not 0.0 < cfg.m_max < math.inf:
        raise ValueError("m_max must be positive and finite")
    steps = _effective_m_max(family, cfg.m_max) / cfg.amplitude_step
    if steps > MAX_CONTINUATION_STEPS:
        raise ValueError(f"m_max / amplitude_step = {steps:g} exceeds the limit of "
                         f"{MAX_CONTINUATION_STEPS} continuation steps")
    if cfg.jobs < 1:
        raise ValueError("jobs must be >= 1")


def _family_tag(spec: str) -> str:
    return spec.replace(":", "-").replace("=", "").replace(".", "_")


# ---------------------------------------------------------------------------
# the cell runner shared by branch, verify and sweep
# ---------------------------------------------------------------------------

_BRANCH_HEADER = "m,lambda,u_center,max_u,mu1,residual_norm,newton_iters"
_ESTIMATE_HEADER = "estimate,m,lambda,lhs,rhs,margin,satisfied"
_SWEEP_COLUMNS = ("family", "N", "status", "lambda_star", "fold_detected", "verdict", "rule",
                  "estimates_ok")


def _write_branch_artifacts(cfg: RunConfig, family, branch: Branch, status: str,
                            m_max: float) -> dict:
    tag = f"{_family_tag(cfg.family)}_N{cfg.dim_N}"
    rows = []
    report = None  # each report's eigenfunction starts the next point
    for pt in branch.points:
        report = smallest_stability_eigenvalue(family, pt, report)
        rows.append((pt.m, pt.lam, pt.u[0], max(pt.u), report.mu1, pt.residual_norm,
                     pt.newton_iters))
    _write_atomic(os.path.join(cfg.out, f"branch_{tag}.csv"), _csv_text(_BRANCH_HEADER, rows))
    summary = {
        "family": family.spec,
        "N": cfg.dim_N,
        "n": cfg.n,
        "lambda_star_estimate": branch.lambda_star_estimate,
        "fold_detected": branch.fold_detected,
        "points": len(branch.points),
        "status": status,
        "m_max_effective": m_max,
        "config": cfg.as_dict(),
    }
    _write_atomic(os.path.join(cfg.out, f"branch_{tag}.json"), _json_text(summary))
    if cfg.dump_fields:
        for i, pt in enumerate(branch.points):
            _write_atomic(
                os.path.join(cfg.out, f"field_{tag}_{i:04d}.csv"),
                _csv_text("r,value", field_rows(pt.u, pt.grid)),
            )
        _write_atomic(
            os.path.join(cfg.out, f"grid_{tag}.json"),
            _json_text(branch.grid.json_header()),
        )
    return summary


def _estimate_csv(family, branch: Branch) -> tuple[str, bool]:
    """The estimates CSV and whether every estimate held; with no pre-fold
    point none was evaluated, which is not a pass."""
    reports = [rep for pt in branch.pre_fold_points for rep in run_pointwise_suite(family, pt)]
    rows = ((rep.name, rep.m, rep.lam, rep.lhs, rep.rhs, rep.margin, rep.satisfied)
            for rep in reports)
    return _csv_text(_ESTIMATE_HEADER, rows), bool(reports) and all(
        rep.satisfied for rep in reports)


def _suprema_summary(family, branch: Branch) -> dict:
    out: dict = {}
    entries = []
    if not family.singular:
        ratio, mass = check_crucial_integrals(family, branch)
        entries.extend([ratio, mass])
    try:
        entries.append(check_L2(family, branch))
    except ValueError:
        pass
    try:
        entries.append(check_fprime_integral(family, branch))
    except ValueError:
        pass
    for sup in entries:
        out[sup.name] = {"sup": sup.sup, "trend": sup.trend, "finite": sup.finite}
    return out


def _write_verify_artifacts(cfg: RunConfig, family, branch: Branch, status: str,
                            m_max: float) -> dict:
    tag = f"{_family_tag(cfg.family)}_N{cfg.dim_N}"
    csv_text, all_ok = _estimate_csv(family, branch)
    _write_atomic(os.path.join(cfg.out, f"estimates_{tag}.csv"), csv_text)
    verdict = {
        "family": cfg.family,
        "N": cfg.dim_N,
        "n": cfg.n,
        "lambda_star_estimate": branch.lambda_star_estimate,
        "fold_detected": branch.fold_detected,
        "pre_fold_points": len(branch.pre_fold_points),
        "pointwise_all_satisfied": all_ok,
        "suprema": _suprema_summary(family, branch),
        "m_max_effective": m_max,
        "config": cfg.as_dict(),
    }
    if status != "ok":
        verdict["status"] = status  # partial, not-applicable or no-fold; absent means ok
    _write_atomic(os.path.join(cfg.out, f"verify_{tag}.json"), _json_text(verdict))
    return verdict


def _run_cell(cfg: RunConfig, command: str) -> dict:
    """One (family, N) cell of branch, verify or sweep.

    Solves the branch, keeping a partial one, writes the command's
    artifacts and returns the cell's record.  A failure ends the cell with
    the status the failure table gives it.
    """
    family = parse_family(cfg.family)
    cell = {"family": cfg.family, "N": cfg.dim_N, "status": "ok", "error": "",
            "lambda_star": math.nan, "fold_detected": False, "estimates_ok": False}
    if command == "sweep":
        verdict = bs.predict_regularity(family, cfg.dim_N)
        cell.update(verdict=verdict.verdict, rule=verdict.rule)
    solver = SolverConfig(newton_tol=cfg.tol, amplitude_step=cfg.amplitude_step)
    m_max = _effective_m_max(family, cfg.m_max)
    try:
        try:
            branch = continue_branch(family, RadialGrid(cfg.dim_N, cfg.n), m_max, solver)
        except ContinuationError as exc:
            if _status(exc) != "partial":
                raise
            branch = exc.partial
            cell.update(status="partial", error=str(exc))
        cell.update(lambda_star=branch.lambda_star_estimate, fold_detected=branch.fold_detected)
        if command == "verify" and cell["status"] == "ok" and not branch.pre_fold_points:
            cell.update(status="not-applicable",
                        error="no pre-fold point, so no estimate was evaluated")
        if cell["status"] == "ok" and not branch.fold_detected:
            cell.update(status="no-fold", error="the sampled lambda maximum is at an end of "
                        "the branch, so lambda_star is only a sampled value")
        if command == "verify":
            cell["summary"] = _write_verify_artifacts(cfg, family, branch, cell["status"], m_max)
        else:
            cell["summary"] = _write_branch_artifacts(cfg, family, branch, cell["status"], m_max)
        if command == "sweep":
            cell["estimates_ok"] = _estimate_csv(family, branch)[1]
    except _FAILURE_TYPES as exc:
        cell.update(status=_status(exc), error=str(exc))
    return cell


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    family = parse_family(args.family)
    verdict = bs.predict_regularity(family, args.dim_N)
    text = _json_text(verdict.as_dict())
    sys.stdout.write(text)
    if args.out:
        _write_atomic(args.out, text)
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    params = bs.ExponentParams(args.dim_N, args.q, args.alpha, args.beta)
    trace = bs.run_bootstrap(params, max_steps=args.steps)
    record = {
        "N": args.dim_N,
        "q0": args.q,
        "alpha": args.alpha,
        "beta": args.beta,
        "trace": trace.as_dict(),
    }
    text = _json_text(record)
    sys.stdout.write(text)
    if args.out:
        _write_atomic(args.out, text)
    return EXIT_INCONCLUSIVE if trace.classification == bs.INCONCLUSIVE else EXIT_OK


def cmd_run(args) -> int:
    """branch, verify and sweep: validate every cell, then run them."""
    cfg, lists = _resolve_config(args)
    cells = [cfg]
    if args.command == "sweep":
        fams = [f.strip() for f in lists.get("families", "").split(",") if f.strip()]
        if not fams or "dims" not in lists:
            raise ValueError("sweep needs --families and --dims")
        dims = _parse_dims(lists["dims"])
        cells = [replace(cfg, family=f, dim_N=N) for f in fams for N in dims]
    for cell in cells:
        _validate_run_config(cell)
    os.makedirs(cfg.out, exist_ok=True)  # an unusable --out fails before any compute
    if args.command != "sweep":
        record = _run_cell(cfg, args.command)
        if record["status"] != "ok":
            return _fail(record["status"], record["error"])
        sys.stdout.write(_json_text(record["summary"]))
        return EXIT_OK
    # each cell runs alone in its worker and dumps no fields
    cells = [replace(cell, jobs=1, dump_fields=False) for cell in cells]
    run = partial(_run_cell, command="sweep")
    if cfg.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(cells))) as pool:
            records = list(pool.map(run, cells))
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


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", dest="family", default=None,
                     help="exp | power:p=<real> | mems:p=<real>")
    sub.add_argument("--N", dest="dim_N", type=int, default=None, help="space dimension")
    sub.add_argument("--n", dest="n", type=int, default=None, help="interior grid nodes")
    sub.add_argument("--m-max", dest="m_max", type=float, default=None,
                     help="largest amplitude to continue to")
    sub.add_argument("--tol", dest="tol", type=float, default=None,
                     help="Newton residual tolerance")
    sub.add_argument("--amplitude-step", dest="amplitude_step", type=float, default=None)
    sub.add_argument("--out", dest="out", default=None, help="output directory")
    sub.add_argument("--jobs", dest="jobs", type=int, default=None, help="worker processes")
    sub.add_argument("--config", default=None, help="flat key = value config file")
    sub.set_defaults(func=cmd_run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navierlab",
        description="Minimal branches, stability and estimate certification "
        "for the fourth-order eigenvalue problem with hinged boundary conditions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("predict", help="regularity verdict for (family, N)")
    p.add_argument("--family", required=True)
    p.add_argument("--N", dest="dim_N", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("bootstrap", help="run the exponent recursion")
    p.add_argument("--N", dest="dim_N", type=int, required=True)
    p.add_argument("--q", type=float, required=True, help="starting exponent q0 >= 1")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bootstrap)

    p = subs.add_parser("branch", help="continue the minimal branch, write CSV + JSON")
    _add_run_flags(p)
    p.add_argument("--dump-fields", dest="dump_fields", action="store_const", const=True,
                   default=None, help="write one CSV per solved profile")

    p = subs.add_parser("verify", help="certify the estimates along a branch")
    _add_run_flags(p)

    p = subs.add_parser("sweep", help="branch + verify over families x dimensions")
    _add_run_flags(p)
    p.add_argument("--families", default=None, help="comma-separated family specs")
    p.add_argument("--dims", default=None, help="e.g. 3..8 or 3,5,8")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _FAILURE_TYPES as exc:
        return _fail(_status(exc), str(exc))


if __name__ == "__main__":
    sys.exit(main())
