#!/usr/bin/env python3
"""End-to-end benchmark of the navierlab command line, with a traced replay.

Run from the root of a source checkout (nothing needs installing: the
package is put on PYTHONPATH from ``src/``):

    python3 perfbench/run.py --workload branch-exp-N3 --seed 1 --seconds 45 --trace 0

``--trace 0`` drives the CLI in a closed loop (one invocation at a time, the
next starts when the previous one exits, each into an empty ``--out``
directory) for ``--seconds`` seconds, times every invocation from outside,
checks its artifacts and reports the end-to-end metrics.  ``--trace 1``
does the same and then replays the workload through the package's public
functions in a separate process (``replay.py``), from whose spans it derives
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  See README.md in this directory for
why each workload exists and which layer it loads.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# What the `navierlab` console script runs (project.scripts: navierlab.cli:main).
CLI = [sys.executable, "-c", "import sys; from navierlab.cli import main; sys.exit(main())"]
IMPORT = [sys.executable, "-c", "import navierlab"]
# A fixed task that does not touch navierlab: interpreter start-up, banded
# LAPACK solves and a pure-Python loop, about 0.6 s on the 2-core test
# machine.  The host shares its cores with other tenants, and its speed
# drifts by 10-30% over tens of seconds; timing this task just before each
# invocation and dividing by it removes most of that drift (see README.md).
REFERENCE = [sys.executable, "-c", """
import numpy as np
from scipy.linalg import solve_banded
ab = np.zeros((5, 2048))
ab[1, 1:] = ab[3, :-1] = -1.0
ab[2] = 4.0
rhs = np.ones(2048)
for _ in range(400):
    solve_banded((2, 2), ab, rhs)
total = 0.0
for i in range(400000):
    total += i * 0.5
"""]

# Each workload is one fixed CLI configuration; see README.md for the reasons.
WORKLOADS = {
    "branch-exp-N3": {"command": "branch", "families": ["exp"], "dims": [3],
                      "n": 2048, "m_max": 12.0, "jobs": 1},
    "verify-exp-N8": {"command": "verify", "families": ["exp"], "dims": [8],
                      "n": 2048, "m_max": 6.0, "jobs": 1},
    "sweep-mixed": {"command": "sweep", "families": ["exp", "power:p=2", "mems:p=2"],
                    "dims": [4, 8], "n": 512, "m_max": 6.0, "jobs": 2},
}
# m_max 6.0 for the sweep is the CLI default; the sweep command passes no --m-max.

SETUP_REPEATS = 5        # cold imports timed per run (after one warm-up)
IMPORTTIME_REPEATS = 3   # `python -X importtime` runs in a traced run
RUN_LIMIT_S = 170.0      # every child is killed by then, so a run ends in time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken import)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_config(workload: str, seed: int, n: int | None = None) -> dict:
    """The workload's configuration; the seed only orders the sweep's families."""
    cfg = json.loads(json.dumps(WORKLOADS[workload]))
    cfg["workload"] = workload
    if cfg["command"] == "sweep":
        random.Random(seed).shuffle(cfg["families"])
    if n is not None:
        cfg["n"] = n
    return cfg


def cells(cfg: dict) -> list[tuple[str, int]]:
    return [(fam, N) for fam in cfg["families"] for N in cfg["dims"]]


def cli_args(cfg: dict, out: str) -> list[str]:
    if cfg["command"] == "sweep":
        return ["sweep", "--families", ",".join(cfg["families"]),
                "--dims", ",".join(str(N) for N in cfg["dims"]),
                "--n", str(cfg["n"]), "--jobs", str(cfg["jobs"]), "--out", out]
    (fam, N), = cells(cfg)
    return [cfg["command"], "--family", fam, "--N", str(N), "--n", str(cfg["n"]),
            "--m-max", f"{cfg['m_max']:g}", "--out", out]


def reference_key(fam: str, N: int, n: int, m_max: float) -> str:
    return f"{fam}/N{N}/n{n}/m{m_max:g}"


def family_tag(spec: str) -> str:
    """File-name tag the CLI derives from a family spec."""
    return spec.replace(":", "-").replace("=", "").replace(".", "_")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_timed(argv: list[str], env: dict, timeout: float, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL) -> tuple[float, int, float]:
    """Run argv to completion; return (wall seconds, exit code, peak RSS in MB).

    The child leads its own process group, so a timeout kills it together
    with any workers it started.  The RSS is the largest of the child and
    every descendant it waited for, from the rusage of wait4.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr,
                            start_new_session=True)
    timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Cold `import navierlab` in fresh processes: one warm-up, then timed."""
    probe = [sys.executable, "-c", "import navierlab, sys; sys.stdout.write(navierlab.__file__)"]
    out = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=max(deadline - time.perf_counter(), 1.0))
    expected = os.path.join(SRC, "navierlab", "__init__.py")
    if out.returncode != 0 or os.path.realpath(out.stdout) != os.path.realpath(expected):
        raise BenchError(f"navierlab does not import from {SRC}: {out.stderr.strip()[-300:]}")
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_timed(IMPORT, env, deadline - time.perf_counter())
        if code != 0:
            raise BenchError("import navierlab failed")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _check_lambda(problems: list, where: str, value, expected: float, tol: float) -> None:
    try:
        value = float(value)
    except (TypeError, ValueError):
        problems.append(f"{where}: lambda* {value!r} is not a number")
        return
    if not abs(value - expected) <= tol * abs(expected):
        problems.append(f"{where}: lambda* {value!r} differs from reference {expected!r}")


def _check_branch_csv(problems: list, path: str) -> None:
    """mu1 >= 0 before the sampled lambda maximum and negative somewhere after it."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    lams = [float(r["lambda"]) for r in rows]
    mu1 = [float(r["mu1"]) for r in rows]
    k = lams.index(max(lams))
    if any(not mu >= 0.0 for mu in mu1[:k]):
        problems.append(f"{os.path.basename(path)}: mu1 < 0 before the fold")
    if not any(mu < 0.0 for mu in mu1[k + 1:]):
        problems.append(f"{os.path.basename(path)}: mu1 does not change sign after the fold")


def check_outputs(cfg: dict, out: str, code: int, ref: dict) -> list[str]:
    """Every problem found with one invocation's exit code and artifacts."""
    if code != 0:
        return [f"exit code {code}"]
    problems: list[str] = []
    tol = ref["rel_tol"]
    try:
        if cfg["command"] == "sweep":
            with open(os.path.join(out, "sweep.csv"), newline="") as handle:
                rows = {(r["family"], int(r["N"])): r for r in csv.DictReader(handle)}
            if sorted(rows) != sorted(cells(cfg)):
                problems.append(f"sweep.csv cells {sorted(rows)} != {sorted(cells(cfg))}")
            for (fam, N), row in sorted(rows.items()):
                where = f"{fam}/N{N}"
                if row["status"] != "ok" or row["fold_detected"] != "true":
                    problems.append(f"{where}: status {row['status']}, fold {row['fold_detected']}")
                if row["estimates_ok"] != "true":
                    problems.append(f"{where}: estimates not satisfied")
                if row["verdict"] != ref["verdicts"][f"{fam}/N{N}"]:
                    problems.append(f"{where}: verdict {row['verdict']} differs from predict")
                key = reference_key(fam, N, cfg["n"], cfg["m_max"])
                _check_lambda(problems, where, row["lambda_star"], ref["lambda_star"][key], tol)
                _check_branch_csv(problems, os.path.join(out, f"branch_{family_tag(fam)}_N{N}.csv"))
            return problems
        (fam, N), = cells(cfg)
        tag = f"{family_tag(fam)}_N{N}"
        name = "branch" if cfg["command"] == "branch" else "verify"
        summary = _load_json(os.path.join(out, f"{name}_{tag}.json"))
        if summary.get("fold_detected") is not True:
            problems.append("no fold detected")
        key = reference_key(fam, N, cfg["n"], cfg["m_max"])
        _check_lambda(problems, tag, summary.get("lambda_star_estimate"),
                      ref["lambda_star"][key], tol)
        if cfg["command"] == "branch":
            if summary.get("status") != "ok":
                problems.append(f"status {summary.get('status')}")
            _check_branch_csv(problems, os.path.join(out, f"branch_{tag}.csv"))
        else:
            if summary.get("pointwise_all_satisfied") is not True:
                problems.append("pointwise estimates not all satisfied")
            suprema = summary.get("suprema") or {}
            if not suprema:
                problems.append("no suprema reported")
            for sname, sup in suprema.items():
                if sup.get("finite") is not True or not math.isfinite(float(sup.get("sup"))):
                    problems.append(f"supremum {sname} not finite")
            if not os.path.isfile(os.path.join(out, f"estimates_{tag}.csv")):
                problems.append("estimates CSV missing")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return problems


def artifact_stats(out: str) -> tuple[int, int]:
    files = sizes = 0
    for dirpath, _, names in os.walk(out):
        for name in names:
            files += 1
            sizes += os.path.getsize(os.path.join(dirpath, name))
    return files, sizes


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """Highest sample with at least ten samples beyond it, and its label.

    That is the value of rank n-11 (0-based), about the 100*(n-10)/n-th
    percentile.  With twenty samples or fewer that percentile is not above
    the median, so the maximum is returned and labelled as such.
    """
    if not values:
        return 0.0, "none"
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], f"max of n={n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of n={n}"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# traced replay and per-layer metrics
# ---------------------------------------------------------------------------


def import_times(env: dict, deadline: float) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime`."""
    wanted = {"navierlab": "import.navierlab_s", "scipy.integrate": "import.scipy_integrate_s",
              "scipy.linalg": "import.scipy_linalg_s"}
    samples: dict[str, list[float]] = defaultdict(list)
    argv = [sys.executable, "-X", "importtime", "-c", "import navierlab"]
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(deadline - time.perf_counter(), 1.0))
        if out.returncode != 0:
            raise BenchError("python -X importtime -c 'import navierlab' failed")
        for line in out.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            module = fields[2].strip()
            if module in wanted and fields[1].strip().isdigit():
                samples[wanted[module]].append(int(fields[1]) * 1e-6)
    return {metric: median(samples[metric]) for metric in wanted.values()}


def run_replay(cfg: dict, env: dict, seed: int, deadline: float) -> dict:
    """Replay the workload through the public functions in a fresh process."""
    trace_path = os.path.join(WORK, f"trace-{cfg['workload']}-seed{seed}.json")
    argv = [sys.executable, os.path.join(HERE, "replay.py"), json.dumps(cfg), trace_path]
    log_path = os.path.join(WORK, "replay.log")
    with open(log_path, "w") as log:
        _, code, _ = run_timed(argv, env, deadline - time.perf_counter(), stderr=log)
    if code != 0:
        with open(log_path) as log:
            raise BenchError(f"traced replay failed (exit {code}): {log.read()[-2000:]}")
    return _load_json(trace_path)


def layer_metrics(cfg: dict, trace: dict, wall: float, setup: float) -> tuple[dict, dict]:
    """Per-layer metrics from the replay's spans (times in s, counts exact),
    and notes giving each tail's rank and each ratio's base."""
    spans = trace["spans"]
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    dur = defaultdict(list)
    self_time = defaultdict(list)
    counts = defaultdict(int)
    for i, s in enumerate(spans):
        d = s["end"] - s["start"]
        dur[s["name"]].append(d)
        self_time[s["name"]].append(d - child_time[i])
        for key, value in s["counts"].items():
            counts[f"{s['name']}.{key}"] += value
    cell_ids = {i for i, s in enumerate(spans) if s["name"] == "cell"}
    # layer time of the CLI's work: spans directly under a cell, which cover
    # every nested layer span once
    layer_total = sum(s["end"] - s["start"] for s in spans if s["parent"] in cell_ids)
    newton_iters = counts["branch.continue.newton_iters"]
    reports = counts["estimates.suite.reports"]
    satisfied = counts["estimates.suite.satisfied"]
    cell_s = dur["cell"]
    jobs = cfg["jobs"]
    busy = jobs * (wall - setup)
    eig_tail, eig_rank = tail(dur["stability.eig"])
    suite_tail, suite_rank = tail(dur["estimates.suite"])
    metrics = {
        "branch.continue_s": median(dur["branch.continue"]),
        "branch.points": counts["branch.continue.points"],
        "branch.newton_iters": newton_iters,
        "branch.newton_iter_s": sum(dur["branch.continue"]) / newton_iters if newton_iters else 0.0,
        "branch.cold_solve_s": median(dur["branch.cold_solve"]),
        "stability.eig_s": median(dur["stability.eig"]),
        "stability.eig_s_tail": eig_tail,
        "stability.eig_total_s": float(sum(dur["stability.eig"])),
        "stability.inverse_iters": counts["stability.eig.inverse_iters"],
        "radial.minus_laplacian_s": median(dur["radial.minus_laplacian"]),
        "radial.volume_weights_s": median(dur["radial.volume_weights"]),
        "estimates.suite_s": median(dur["estimates.suite"]),
        "estimates.suite_s_tail": suite_tail,
        "families.h_aux_grid_s": median(dur["families.h_aux_grid"]),
        "estimates.suite_self_s": median(self_time["estimates.suite"]),
        "estimates.suprema_s": median(dur["estimates.suprema"]),
        "estimates.reports": reports,
        "estimates.satisfied_frac": satisfied / reports if reports else 0.0,
        "bootstrap.predict_s": median(dur["bootstrap.predict"]),
        # a sweep spreads its cells over `jobs` workers
        "cli.self_s": wall - setup - layer_total / jobs,
        "sweep.cells": len(cell_s),
        "sweep.cell_s": median(cell_s),
        "sweep.cell_s_max": max(cell_s, default=0.0),
        "sweep.parallel_efficiency": sum(cell_s) / busy if busy > 0.0 else 0.0,
        "trace.overhead_s": trace["traced_s"] - trace["untraced_s"],
    }
    notes = {
        "branch.newton_iter_s": f"base {newton_iters} Newton steps",
        "stability.eig_s_tail": eig_rank,
        "estimates.suite_s_tail": suite_rank,
        "estimates.satisfied_frac": f"base {reports} reports",
        "cli.self_s": f"layer time {layer_total:.4g} s over {jobs} job(s)",
        "sweep.parallel_efficiency": f"base {jobs} job(s) x {wall - setup:.4g} s",
        "trace.overhead_s": f"traced {trace['traced_s']:.4g} s, "
                            f"untraced {trace['untraced_s']:.4g} s",
    }
    return metrics, notes


def check_replay(cfg: dict, trace: dict, cli_lambdas: dict[str, float]) -> list[str]:
    """The replay must reproduce the CLI's lambda* exactly, cell by cell."""
    problems = []
    replayed = {c["cell"]: c["lambda_star"] for c in trace["cells"]}
    for fam, N in cells(cfg):
        cell = f"{fam}/N{N}"
        if cell not in cli_lambdas:
            problems.append(f"replay {cell}: no CLI lambda* to compare")
        elif replayed.get(cell) != cli_lambdas[cell]:
            problems.append(f"replay {cell}: lambda* {replayed.get(cell)!r} != CLI "
                            f"{cli_lambdas[cell]!r}")
    return problems


def cli_lambdas(cfg: dict, out: str) -> dict[str, float]:
    """lambda* per cell as the CLI wrote it."""
    if cfg["command"] == "sweep":
        with open(os.path.join(out, "sweep.csv"), newline="") as handle:
            return {f"{r['family']}/N{r['N']}": float(r["lambda_star"])
                    for r in csv.DictReader(handle)}
    (fam, N), = cells(cfg)
    summary = _load_json(os.path.join(out, f"{cfg['command']}_{family_tag(fam)}_N{N}.json"))
    return {f"{fam}/N{N}": float(summary["lambda_star_estimate"])}


# ---------------------------------------------------------------------------
# run and report
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
        except OSError:
            out = None
        if out is not None and out.returncode == 0:
            commit = out.stdout.strip()
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "git_commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def run(workload: str, seed: int, seconds: int, trace: bool, n: int | None) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "navierlab", "__init__.py")):
        raise BenchError(f"no navierlab source tree under {SRC}")
    with open(os.path.join(HERE, "reference.json")) as handle:
        ref = json.load(handle)
    cfg = make_config(workload, seed, n)
    keys = [reference_key(fam, N, cfg["n"], cfg["m_max"]) for fam, N in cells(cfg)]
    missing = [key for key in keys if key not in ref["lambda_star"]]
    if missing:
        raise BenchError(f"no reference lambda* for {missing}; see record_reference.py")
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    setup_samples = measure_setup(env, deadline)

    walls, refs, rss, problems = [], [], [], []
    files = sizes = 0
    lambdas: dict[str, float] = {}
    out = os.path.join(WORK, "out")
    log_path = os.path.join(WORK, "cli.log")
    stop = time.perf_counter() + seconds
    while not walls or time.perf_counter() < stop:
        shutil.rmtree(out, ignore_errors=True)
        ref_s, code, _ = run_timed(REFERENCE, os.environ, deadline - time.perf_counter())
        if code != 0:
            raise BenchError("the reference task failed")
        with open(log_path, "w") as log:
            wall, code, peak = run_timed(CLI + cli_args(cfg, out), env,
                                         deadline - time.perf_counter(), stderr=log)
        found = check_outputs(cfg, out, code, ref)
        if code != 0:
            with open(log_path) as log:
                found.append(log.read()[-500:])
        walls.append(wall)
        refs.append(ref_s)
        rss.append(peak)
        problems.append(found)
        if not found:
            files, sizes = artifact_stats(out)
            lambdas = cli_lambdas(cfg, out)
    shutil.rmtree(out, ignore_errors=True)

    attempted = len(walls)
    failed = sum(1 for p in problems if p)
    wall_med = median(walls)
    setup = median(setup_samples)
    end_to_end = {"wall_rel": median([w / r for w, r in zip(walls, refs)]),
                  "setup_s": setup, "peak_rss_mb": median(rss)}
    report = {
        "workload": workload,
        "config": cfg,
        "environment": environment(seed),
        "loop": f"closed, 1 client, {attempted} invocations in "
                f"{time.perf_counter() - started:.1f} s",
        "wall_s": wall_med,
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "ref_s_samples": refs,
        "setup_s_samples": setup_samples,
        "peak_rss_mb_samples": rss,
        "problems": [p for p in problems if p],
        "end_to_end": end_to_end,
    }
    if trace:
        attempted += 1
        imports = import_times(env, deadline)
        replayed = run_replay(cfg, env, seed, deadline)
        replay_problems = check_replay(cfg, replayed, lambdas)
        if replay_problems:
            failed += 1
            report["problems"].append(replay_problems)
        layers, notes = layer_metrics(cfg, replayed, wall_med, setup)
        report["per_layer"] = {**imports, **layers, "cli.artifact_files": files,
                               "cli.artifact_bytes": sizes}
        report["per_layer_notes"] = notes
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_frac"] = failed / attempted
    return report


def _print_report(report: dict, trace: bool, spec: dict) -> dict:
    """Readable lines, then the metrics the result line carries."""
    print(f"workload {report['workload']}: {report['loop']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    e2e = report["end_to_end"]
    tail_value, tail_label = report["wall_s_tail"]
    print(f"  wall_rel     {e2e['wall_rel']:.4f} ratio median of wall_s / ref_s per invocation")
    print(f"  wall_s       {report['wall_s']:.4f} s median, {tail_value:.4f} s {tail_label}")
    print(f"  ref_s        {median(report['ref_s_samples']):.4f} s median (reference task)")
    print(f"  setup_s      {e2e['setup_s']:.4f} s median of {len(report['setup_s_samples'])}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB median")
    print(f"  failed_frac  {report['failed_frac']:.4f} ratio "
          f"({report['failed']} of {report['attempted']} attempted)")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if not trace:
        return {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in report["per_layer"].items():
        note = report["per_layer_notes"].get(name, "")
        print(f"  {name:28s} {value:.6g} {units[name]}  {note}".rstrip())
    return {name: {"value": report["per_layer"][name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="override the grid size (the self-test uses a tiny grid)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = _print_report(report, bool(args.trace), spec)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
