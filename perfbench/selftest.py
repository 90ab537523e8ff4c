"""Fast self-test of the benchmark harness on a tiny grid.

    python3 perfbench/selftest.py

Runs every workload with ``--n 128 --seconds 1``, traced, and one untraced,
and checks that each run exits 0, that its last line is the result object
with exactly the expected keys, that it is correct with nothing failed, and
that its metrics are exactly those BENCHMARK.json names for that mode.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

GRID = 128


def check(workload: str, trace: int, spec: dict) -> list[str]:
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--n", str(GRID)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct:\n{proc.stdout}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} != {wanted}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} value {m.get('value')!r}")
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    runs = [(w, 1) for w in sorted(run.WORKLOADS)] + [("branch-exp-N3", 0)]
    problems = [p for workload, trace in runs for p in check(workload, trace, spec)]
    for problem in problems:
        print(problem)
    print("selftest:", "FAILED" if problems else f"ok ({len(runs)} runs)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
