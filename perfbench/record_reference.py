"""Record the reference values the benchmark checks CLI outputs against.

    python3 perfbench/record_reference.py

Runs every workload once through the CLI, at its own grid and at the
self-test's grid, and writes each cell's lambda* together with the
`navierlab predict` verdict of every sweep cell to reference.json.  The
committed file was recorded from the code the benchmark was introduced
with; re-record only when a change is meant to move lambda* or a verdict,
and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import selftest

REL_TOL = 1e-8


def main() -> int:
    env = run.child_env()
    out = os.path.join(run.WORK, "reference-out")
    lambdas: dict[str, float] = {}
    verdicts: dict[str, str] = {}
    for workload in sorted(run.WORKLOADS):
        for n in (None, selftest.GRID):
            cfg = run.make_config(workload, seed=0, n=n)
            subprocess.run(run.CLI + run.cli_args(cfg, out), env=env, cwd=run.ROOT,
                           check=True, stdout=subprocess.DEVNULL)
            for cell, lam in run.cli_lambdas(cfg, out).items():
                fam, _, N = cell.rpartition("/N")
                lambdas[run.reference_key(fam, int(N), cfg["n"], cfg["m_max"])] = lam
        for fam, N in run.cells(cfg):
            predicted = subprocess.run(run.CLI + ["predict", "--family", fam, "--N", str(N)],
                                       env=env, cwd=run.ROOT, check=True,
                                       capture_output=True, text=True)
            verdicts[f"{fam}/N{N}"] = json.loads(predicted.stdout)["verdict"]
    with open(os.path.join(run.HERE, "reference.json"), "w") as handle:
        json.dump({"rel_tol": REL_TOL, "lambda_star": lambdas, "verdicts": verdicts},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
