"""Golden artifacts: three small folding runs reproduce their recorded files.

``tests/data/golden/<run>/`` holds what ``navierlab <argv> --out <run>``
wrote for each run in RUNS.  A rerun must give the same file set, CSV
headers, JSON keys, strings, integers and booleans exactly, and every float
to 1e-12 relative to the largest magnitude in its CSV column, or to its own
magnitude for a JSON key.  ``config.out`` names the output directory and is
not compared.  To re-record after a deliberate change, run each entry of
RUNS from ``tests/data/golden`` with ``--out <run>``.
"""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from navierlab.cli import main
from test_families import src_env

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
RUNS = {
    "branch": ["branch", "--family", "exp", "--N", "3", "--n", "64", "--m-max", "2.2",
               "--amplitude-step", "0.1"],
    "verify": ["verify", "--family", "power:p=2", "--N", "4", "--n", "64", "--m-max", "3",
               "--amplitude-step", "0.1"],
    "sweep": ["sweep", "--families", "exp,power:p=2,mems:p=2", "--dims", "4", "--n", "64",
              "--m-max", "6"],
}
REL = 1e-12


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


def _close(new: float, old: float, scale: float) -> bool:
    if math.isnan(old):
        return math.isnan(new)
    return abs(new - old) <= REL * scale


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(new_path, old_path):
    with open(new_path) as handle:
        new_rows = list(csv.reader(handle))
    with open(old_path) as handle:
        old_rows = list(csv.reader(handle))
    assert new_rows[0] == old_rows[0]
    assert len(new_rows) == len(old_rows)
    for col, name in enumerate(old_rows[0]):
        old_col = [row[col] for row in old_rows[1:]]
        new_col = [row[col] for row in new_rows[1:]]
        numbers = [_number(text) for text in old_col]
        if None in numbers:
            assert new_col == old_col, name
            continue
        scale = max((abs(x) for x in numbers if math.isfinite(x)), default=0.0)
        for new, old in zip(new_col, numbers):
            assert _close(float(new), old, scale), (name, new, old)


def _flatten(obj, prefix=""):
    if not isinstance(obj, dict):
        return {prefix: obj}
    flat = {}
    for key, value in obj.items():
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return flat


def _compare_json(new_path, old_path):
    with open(new_path) as handle:
        new = _flatten(json.load(handle))
    with open(old_path) as handle:
        old = _flatten(json.load(handle))
    new.pop("config.out")
    old.pop("config.out")
    assert sorted(new) == sorted(old)
    for key, value in old.items():
        assert type(new[key]) is type(value), key
        if isinstance(value, float):
            assert _close(new[key], value, abs(value)), (key, new[key], value)
        else:
            assert new[key] == value, key


@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_artifacts(run, tmp_path):
    out = str(tmp_path / run)
    assert main([*RUNS[run], "--out", out]) == 0
    golden = os.path.join(GOLDEN, run)
    assert _files(out) == _files(golden)
    for name in _files(golden):
        compare = _compare_json if name.endswith(".json") else _compare_csv
        compare(os.path.join(out, name), os.path.join(golden, name))


@pytest.mark.parametrize("run, jobs", [("branch", []), ("sweep", ["--jobs", "2"])])
def test_program_path_writes_the_in_process_bytes(run, jobs, tmp_path, monkeypatch, capsys):
    # the console script's path (which freezes the collector's heap) and a
    # library call, each from its own directory into a relative --out
    argv = [*RUNS[run], *jobs, "--out", run]
    for side in ("program", "library"):
        (tmp_path / side).mkdir()
    program = subprocess.run(
        [sys.executable, "-c", "import sys; from navierlab.cli import main; sys.exit(main())",
         *argv], cwd=tmp_path / "program", env=src_env(), capture_output=True, text=True,
        timeout=120)
    monkeypatch.chdir(tmp_path / "library")
    code = main(argv)
    captured = capsys.readouterr()
    assert (program.returncode, program.stdout, program.stderr) == (code, captured.out,
                                                                    captured.err)
    assert code == 0
    found = {}
    for side in ("program", "library"):
        root = tmp_path / side / run
        found[side] = {name: (root / name).read_bytes() for name in _files(root)}
    assert found["program"] == found["library"]
    assert sorted(found["program"]) == _files(os.path.join(GOLDEN, run))
