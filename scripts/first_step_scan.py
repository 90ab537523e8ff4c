"""First-step scan: does a coarse first march step still find the first fold?

    PYTHONPATH=src python scripts/first_step_scan.py

For exp N=3, power:p=2 N=4, mems:p=2 N=4, exp N=8 and power:p=3.5 N=5 on
n = 64, continues the branch with 120 evenly spaced first steps from 0.02
to 0.99 m_max, m_max 50 or the mems clamp, and compares each lambda* with
a 0.05-step march of the same cell.  A run whose lambda* is off by more
than 1e-6 relative found a later turn.  Prints each such run and each run
with no fold, then the counts and the worst relative difference among the
other runs, and exits 1 if any run found no fold or a later turn.  About
10 s on one core.
"""

import sys

import numpy as np

from navierlab.branch import MEMS_M_MAX, ContinuationError, SolverConfig, continue_branch
from navierlab.families import parse_family
from navierlab.radial import RadialGrid

CELLS = [("exp", 3), ("power:p=2", 4), ("mems:p=2", 4), ("exp", 8), ("power:p=3.5", 5)]
LATER_TURN = 1e-6


def main() -> int:
    runs = detected = later = 0
    worst = 0.0
    for spec, N in CELLS:
        family, grid = parse_family(spec), RadialGrid(N, 64)
        m_max = MEMS_M_MAX if family.singular else 50.0
        fine = continue_branch(family, grid, m_max).lambda_star_estimate
        for step in np.linspace(0.02, 0.99, 120) * m_max:
            try:
                branch = continue_branch(family, grid, m_max, SolverConfig(amplitude_step=step))
            except ContinuationError as exc:
                branch = exc.partial
            runs += 1
            detected += branch.fold_detected
            rel = abs(branch.lambda_star_estimate - fine) / fine
            if not branch.fold_detected:
                print(f"no fold: {spec} N={N} step {step!r}")
            if rel > LATER_TURN:
                later += 1
                print(f"later turn: {spec} N={N} step {step!r}: lambda* "
                      f"{branch.lambda_star_estimate!r} against {fine!r}")
            else:
                worst = max(worst, rel)
    print(f"{runs} runs, {detected} detect a fold, {later} report a later turn, "
          f"the others match the 0.05-step march to {worst:.2g}")
    return int(later > 0 or detected < runs)


if __name__ == "__main__":
    sys.exit(main())
