"""Command-line interface: subcommands, exit codes, file formats,
configuration precedence, determinism."""

import contextlib
import csv
import json
import math
import os
import signal
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navierlab import branch as branch_module
from navierlab import cli, radial
from navierlab.branch import NewtonDivergedError
from navierlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read(path, mode="r"):
    with open(path, mode) as handle:
        return handle.read()


def inline_pool(monkeypatch, cores):
    """Stand in for the sweep's forked workers and the core count.  The list
    returned receives each fork_map's worker count; its items run in this
    process."""
    sizes = []

    def inline_fork_map(run, items, workers):
        sizes.append(workers)
        return [run(item) for item in items]

    monkeypatch.setattr(cli, "_fork_map", inline_fork_map)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    return sizes


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_exponential_eight(capsys):
    code, out = run(capsys, "predict", "--family", "exp", "--N", "8")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"family", "N", "verdict", "rule"}
    assert record["verdict"] == "regular"
    assert record["family"] == "exp" and record["N"] == 8


def test_predict_mems_unknown(capsys):
    code, out = run(capsys, "predict", "--family", "mems:p=2", "--N", "6")
    assert code == 0
    assert json.loads(out)["verdict"] == "unknown"  # 6 > 16/3


def test_predict_low_dimension_power(capsys):
    code, out = run(capsys, "predict", "--family", "power:p=1.5", "--N", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "regular"


def test_predict_bad_family(capsys):
    code, _ = run(capsys, "predict", "--family", "quintic", "--N", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["predict", "--family", "power:p=inf", "--N", "8"],
    ["branch", "--family", "mems:p=inf", "--N", "3", "--n", "64", "--m-max", "0.5"],
])
def test_infinite_exponent_is_usage_error(argv, tmp_path, capsys):
    # no family result holds for p = inf, and its f overflows at any u > 0
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "p < inf" in err


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["predict"]) == 2


# command lines the parser rejects, each ending like any other usage error
PARSE_ERRORS = {
    "misspelled-flag": ["branch", "--famly", "exp"],
    "abbreviated-flag": ["branch", "--fam", "exp"],
    "abbreviated-sweep-flag": ["sweep", "--families", "exp", "--dim", "3"],
    "missing-value": ["branch", "--family", "exp", "--n"],
    "bad-value": ["branch", "--family", "exp", "--n", "x"],
    "missing-command": [],
    "unknown-command": ["bogus"],
    "unknown-config-key": ["branch", "--config", "{cfg}"],
    "empty-config-path": ["branch", "--config", ""],
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_go_through_the_failure_table(case, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("famly = exp\n")
    argv = [a.format(cfg=cfg) for a in PARSE_ERRORS[case]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


@pytest.mark.parametrize("argv", [["--help"], ["branch", "--help"], ["sweep", "-h"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: navierlab")


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_increasing(capsys):
    code, out = run(capsys, "bootstrap", "--N", "6", "--q", "1", "--alpha", "1.5", "--beta", "0.5")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert set(trace) == {"sequence", "classification", "fixed_point"}
    assert trace["classification"] == "increasing-to-fixed-point"
    assert trace["fixed_point"] == pytest.approx(1.5)


def test_bootstrap_escape(capsys):
    code, out = run(capsys, "bootstrap", "--N", "5", "--q", "1", "--alpha", "1.5", "--beta", "0.5")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert set(trace) == {"sequence", "classification", "fixed_point", "escape_steps"}
    assert trace["classification"] == "escapes-above-quarter-dimension"


def test_bootstrap_start_above_quarter_dimension(capsys):
    # q0 > N/4 escapes at once, before the fixed point is computed
    code, out = run(capsys, "bootstrap", "--N", "6", "--q", "2", "--alpha", "1.5", "--beta", "0.5")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace == {"sequence": [2.0], "classification": "escapes-above-quarter-dimension",
                     "escape_steps": 0}


def test_bootstrap_trace_omits_unset_fields(capsys):
    # N = 4 beta has no fixed point, and one step neither escapes nor converges
    code, out = run(capsys, "bootstrap", "--N", "6", "--q", "1", "--alpha", "2",
                    "--beta", "1.5", "--steps", "1")
    assert code == 3
    trace = json.loads(out)["trace"]
    assert set(trace) == {"sequence", "classification"}
    assert trace["classification"] == "inconclusive"


def test_bootstrap_constant_at_fixed_point(capsys):
    code, out = run(capsys, "bootstrap", "--N", "6", "--q", "1.5", "--alpha", "1.5", "--beta", "0.5")
    assert code == 0
    seq = json.loads(out)["trace"]["sequence"]
    assert max(abs(q - 1.5) for q in seq) < 1e-12


def test_bootstrap_inconclusive_exit(capsys):
    code, out = run(
        capsys, "bootstrap", "--N", "6", "--q", "1", "--alpha", "1.4",
        "--beta", "1.39999", "--steps", "1",
    )
    assert code == 3


def test_bootstrap_bad_params(capsys):
    code, _ = run(capsys, "bootstrap", "--N", "6", "--q", "1", "--alpha", "0.5", "--beta", "0.7")
    assert code == 2


# ---------------------------------------------------------------------------
# branch / verify
# ---------------------------------------------------------------------------

SMALL = ["--n", "64", "--m-max", "0.4", "--amplitude-step", "0.1"]
# the golden branch run: small, and through the fold
FOLDED = ["--n", "64", "--m-max", "2.2", "--amplitude-step", "0.1"]


def test_branch_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, stdout = run(capsys, "branch", "--family", "exp", "--N", "3", *FOLDED, "--out", out)
    assert code == 0
    csv_path = os.path.join(out, "branch_exp_N3.csv")
    json_path = os.path.join(out, "branch_exp_N3.json")
    assert os.path.exists(csv_path) and os.path.exists(json_path)
    header = read(csv_path).splitlines()[0]
    assert header == "m,lambda,u_center,max_u,mu1,residual_norm,newton_iters"
    summary = json.loads(read(json_path))
    assert summary["status"] == "ok"
    assert summary["config"]["n"] == 64  # resolved config embedded
    assert json.loads(stdout)["family"] == "exp"


def test_branch_deterministic(tmp_path, capsys):
    # identical resolved config (including the output directory) twice
    out = str(tmp_path / "det")
    args = ["branch", "--family", "exp", "--N", "3", *SMALL, "--out", out]
    run(capsys, *args)
    first = {
        name: read(os.path.join(out, name), "rb")
        for name in ("branch_exp_N3.csv", "branch_exp_N3.json")
    }
    run(capsys, *args)
    for name, payload in first.items():
        assert read(os.path.join(out, name), "rb") == payload, name


def test_branch_builds_the_laplacian_once(tmp_path, capsys):
    # Newton and every point's stability certificate share one -Delta_h
    radial.minus_laplacian.cache_clear()
    code, _ = run(capsys, "branch", "--family", "exp", "--N", "3", "--n", "64",
                  "--m-max", "2.2", "--amplitude-step", "0.1", "--out", str(tmp_path / "b"))
    assert code == 0
    assert 1 <= radial.minus_laplacian.cache_info().misses <= 2


def test_branch_dump_fields(tmp_path, capsys):
    out = str(tmp_path / "fields")
    code, _ = run(
        capsys, "branch", "--family", "exp", "--N", "3", *FOLDED, "--out", out, "--dump-fields"
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "field_exp_N3_0000.csv"))
    grid_header = json.loads(read(os.path.join(out, "grid_exp_N3.json")))
    assert grid_header == {"N": 3, "n": 64, "r_inner": 0.0, "r_outer": 1.0}


def test_verify_writes_reports(tmp_path, capsys):
    out = str(tmp_path / "verify")
    code, stdout = run(
        capsys, "verify", "--family", "exp", "--N", "3", "--n", "64",
        "--m-max", "2.2", "--amplitude-step", "0.1", "--out", out,
    )
    assert code == 0
    est = read(os.path.join(out, "estimates_exp_N3.csv")).splitlines()
    assert est[0] == "estimate,m,lambda,lhs,rhs,margin,satisfied"
    assert all(line.endswith("true") for line in est[1:])
    verdict = json.loads(read(os.path.join(out, "verify_exp_N3.json")))
    assert verdict["pointwise_all_satisfied"] is True
    assert verdict["fold_detected"] is True
    assert "f-squared" in verdict["suprema"]


def test_branch_compute_failure_exit(tmp_path, capsys):
    # an unattainable Newton tolerance forces continuation to give up
    out = str(tmp_path / "fail")
    code, _ = run(
        capsys, "branch", "--family", "exp", "--N", "3", *SMALL,
        "--out", out, "--tol", "1e-30",
    )
    assert code == 4


def test_branch_mems_touchdown_clamp(tmp_path, capsys):
    # m_max beyond the touchdown guard is clamped, not an error
    out = str(tmp_path / "mems")
    code, stdout = run(
        capsys, "branch", "--family", "mems:p=2", "--N", "4", "--n", "64",
        "--m-max", "0.99999999", "--amplitude-step", "0.1", "--out", out,
    )
    assert code == 0
    assert json.loads(stdout)["fold_detected"] is True


@pytest.mark.parametrize("command, artifact", [("branch", "branch_mems-p2_N3.json"),
                                               ("verify", "verify_mems-p2_N3.json")])
def test_summary_records_effective_m_max(command, artifact, tmp_path, capsys):
    # the mems amplitude is clamped below touchdown; the summary says so
    out = str(tmp_path / "clamp")
    code, _ = run(capsys, command, "--family", "mems:p=2", "--N", "3", "--n", "64",
                  "--m-max", "5", "--out", out)
    assert code == 0
    summary = json.loads(read(os.path.join(out, artifact)))
    assert summary["config"]["m_max"] == 5.0
    assert summary["m_max_effective"] == 1.0 - 1e-4


# mems:p=0.557877 at N=3, one step to m-max: the branch is a single point where
# lambda still rises, so no point lies before that sampled maximum
NO_PRE_FOLD = ["--n", "51", "--m-max", "0.76", "--amplitude-step", "0.76"]


def test_verify_without_pre_fold_point_is_not_applicable(tmp_path, capsys):
    out = str(tmp_path / "nofold")
    code = main(["verify", "--family", "mems:p=0.557877", "--N", "3", *NO_PRE_FOLD,
                 "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    verdict = json.loads(read(os.path.join(out, "verify_mems-p0_557877_N3.json")))
    assert verdict["pre_fold_points"] == 1  # the sampled maximum itself
    assert verdict["pointwise_all_satisfied"] is False
    assert verdict["status"] == "not-applicable"
    estimates = read(os.path.join(out, "estimates_mems-p0_557877_N3.csv"))
    assert estimates.splitlines() == ["estimate,m,lambda,lhs,rhs,margin,satisfied"]


def test_verify_mems_p1_is_not_applicable(tmp_path, capsys):
    # the estimates do not apply to mems with p <= 1 even with pre-fold points;
    # the run still writes all its artifacts with that status
    out = str(tmp_path / "p1")
    code = main(["verify", "--family", "mems:p=1", "--N", "3", "--n", "64", "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    verdict = json.loads(read(os.path.join(out, "verify_mems-p1_N3.json")))
    assert verdict["pre_fold_points"] > 0
    assert verdict["pointwise_all_satisfied"] is False
    assert verdict["status"] == "not-applicable"
    estimates = read(os.path.join(out, "estimates_mems-p1_N3.csv"))
    assert estimates.splitlines() == ["estimate,m,lambda,lhs,rhs,margin,satisfied"]


ALL_SUPREMA = ["f-squared", "f32-over-sqrt-u", "fprime-power", "mass-of-f"]
SINGULAR_SUPREMA = ["f-squared", "fprime-power"]


@pytest.mark.parametrize("family, suprema, status", [
    ("exp", ALL_SUPREMA, "ok"),
    ("power:p=2", ALL_SUPREMA, "ok"),
    ("mems:p=2", SINGULAR_SUPREMA, "ok"),
    ("mems:p=1.0000000000000002", SINGULAR_SUPREMA, "ok"),
    ("mems:p=1", [], "not-applicable"),
    ("mems:p=0.5", [], "not-applicable"),
])
def test_verify_suprema_per_family(family, suprema, status, tmp_path, capsys):
    # the ratio and mass integrals apply to the regular families only; the
    # squared mass and the f' power need the estimates' hypothesis, mems p > 1
    out = str(tmp_path / "run")
    code = main(["verify", "--family", family, "--N", "3", "--n", "64", "--out", out])
    capsys.readouterr()
    assert code == (0 if status == "ok" else 2)
    (name,) = [f for f in os.listdir(out) if f.startswith("verify_")]
    summary = json.loads(read(os.path.join(out, name)))
    assert sorted(summary["suprema"]) == suprema
    assert summary.get("status", "ok") == status


def test_sweep_cell_without_pre_fold_point_fails_estimates(tmp_path, capsys):
    # the single point is the sampled lambda maximum, where the estimates'
    # hypotheses fail for mems p <= 1, as they do on every other branch
    code, stdout = run(capsys, "sweep", "--families", "mems:p=0.557877", "--dims", "3",
                       *NO_PRE_FOLD, "--out", str(tmp_path / "nofold"))
    assert code == 2
    row = dict(zip(*[line.split(",") for line in stdout.splitlines()]))
    assert row["status"] == "not-applicable"
    assert row["estimates_ok"] == "false"


@pytest.mark.parametrize("command, artifact", [("branch", "branch_exp_N3.json"),
                                               ("verify", "verify_exp_N3.json")])
def test_run_without_fold_is_inconclusive(command, artifact, tmp_path, capsys):
    # lambda still rises at m_max, so the sampled maximum is the last point
    out = str(tmp_path / "rising")
    code = main([command, "--family", "exp", "--N", "3", *SMALL, "--out", out])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("inconclusive:")
    summary = json.loads(read(os.path.join(out, artifact)))
    assert summary["status"] == "no-fold"
    assert summary["fold_detected"] is False


@pytest.mark.parametrize("command, artifact", [("branch", "branch_exp_N3.json"),
                                               ("verify", "verify_exp_N3.json")])
def test_partial_branch_is_kept_and_flagged(command, artifact, tmp_path, capsys, monkeypatch):
    # no input is known to fail before the fold, so Newton is made to
    # diverge above m = 1.1, the fourth march sample of the full run below;
    # continuation halves its step below the floor, and the points solved
    # up to there are kept
    argv = [command, "--family", "exp", "--N", "3", "--n", "64", "--m-max", "12",
            "--amplitude-step", "0.1"]
    full = str(tmp_path / "full")
    assert main([*argv, "--out", full]) == 0
    newton = branch_module._newton

    def diverging_newton(K, family, grid, m, *args):
        if m > 1.1:
            raise NewtonDivergedError(f"diverged at m={m:g}")
        return newton(K, family, grid, m, *args)

    monkeypatch.setattr(branch_module, "_newton", diverging_newton)
    out = str(tmp_path / "partial")
    code, _ = run(capsys, *argv, "--out", out)
    assert code == 4
    summary = json.loads(read(os.path.join(out, artifact)))
    assert summary["status"] == "partial"
    rows = {"branch": "branch_exp_N3.csv", "verify": "estimates_exp_N3.csv"}[command]
    kept = read(os.path.join(out, rows))
    assert kept.count("\n") > 2  # the header and more than one row
    assert read(os.path.join(full, rows)).startswith(kept)


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# small folding run\nfamily = exp\nN = 3\nn = 64\nm_max = 2.2\n"
                   "amplitude_step = 0.1\n")
    out = str(tmp_path / "cfgout")
    code, stdout = run(capsys, "branch", "--config", str(cfg), "--out", out)
    assert code == 0
    assert json.loads(stdout)["config"]["m_max"] == 2.2
    # flags take precedence over the file
    code, stdout = run(capsys, "branch", "--config", str(cfg), "--out", out, "--m-max", "2.1")
    assert json.loads(stdout)["config"]["m_max"] == 2.1


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("famly = exp\n")
    code, _ = run(capsys, "branch", "--config", str(cfg))
    assert code == 2


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad2.cfg"
    cfg.write_text("family exp\n")
    code, _ = run(capsys, "branch", "--config", str(cfg))
    assert code == 2


def test_config_bad_value_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad3.cfg"
    cfg.write_text("n = x\n")
    assert main(["branch", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: argument --n: invalid int value: 'x'\n"


def _flags(options):
    argv = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if key == "dump_fields" else [flag, value]
    return argv


# every option each run command reads, none at its default
READ = {
    "branch": {"family": "power:p=2", "N": "4", "n": "64", "m_max": "3", "tol": "1e-9",
               "amplitude_step": "0.1", "dump_fields": "true"},
    "verify": {"family": "power:p=2", "N": "4", "n": "64", "m_max": "3", "tol": "1e-9",
               "amplitude_step": "0.1"},
    "sweep": {"families": "exp,power:p=2", "dims": "3..4", "n": "64", "m_max": "2.2",
              "tol": "1e-9", "amplitude_step": "0.1", "jobs": "2"},
}


@pytest.mark.parametrize("command", sorted(READ))
def test_config_key_matches_flag(command, tmp_path, capsys, monkeypatch):
    # a key = value line and its flag reach the summaries' config alike
    sizes = inline_pool(monkeypatch, cores=2)
    out = tmp_path / "run"
    options = {**READ[command], "out": str(out)}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    results = []
    for argv in (_flags(options), ["--config", str(cfg)]):
        if out.exists():
            for name in os.listdir(out):
                os.unlink(out / name)
        code, stdout = run(capsys, command, *argv)
        configs = {name: json.loads(read(out / name))["config"]
                   for name in sorted(os.listdir(out)) if name.startswith(("branch", "verify"))
                   and name.endswith(".json")}
        results.append((code, stdout, sorted(os.listdir(out)), configs))
    assert results[0] == results[1]
    assert results[0][0] == 0
    expected = {"n": 64, "tol": 1e-9, "amplitude_step": 0.1, "out": str(out), "jobs": 1,
                "dump_fields": command == "branch"}
    if command == "sweep":
        expected["m_max"] = 2.2
        assert sizes == [2, 2]  # the pool had the two workers --jobs asks for
        assert len(results[0][3]) == 4
    else:
        expected.update(family="power:p=2", N=4, m_max=3.0)
        assert len(results[0][3]) == 1
    for config in results[0][3].values():
        assert {key: config[key] for key in expected} == expected


# the options a run command does not read, each with a value it would take
UNREAD = [("branch", "families", "exp"), ("branch", "dims", "3"), ("branch", "jobs", "2"),
          ("verify", "families", "exp"), ("verify", "dims", "3"), ("verify", "jobs", "2"),
          ("verify", "dump_fields", "true"), ("sweep", "family", "exp"), ("sweep", "N", "3"),
          ("sweep", "dump_fields", "true")]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", UNREAD)
def test_unread_option_is_a_usage_error(command, key, value, form, tmp_path, capsys):
    if form == "flag":
        given = _flags({key: value})
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        given = ["--config", str(cfg)]
    lists = ["--families", "exp", "--dims", "3"] if command == "sweep" else ["--family", "exp"]
    out = tmp_path / "run"
    code = main([command, *lists, *given, "--n", "64", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not out.exists()


def test_invalid_grid_is_usage_error(capsys):
    code, _ = run(capsys, "branch", "--family", "exp", "--N", "3", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "branch", "--family", "exp", "--N", "1", "--n", "64")
    assert code == 2
    code, _ = run(capsys, "branch", "--family", "exp", "--N", "3", "--n", "64",
                  "--m-max", "-1")
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_aggregate(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    code, stdout = run(
        capsys, "sweep", "--families", "exp,power:p=2", "--dims", "3..4", *FOLDED, "--out", out,
    )
    assert code == 0
    lines = read(os.path.join(out, "sweep.csv")).splitlines()
    assert lines[0] == "family,N,status,lambda_star,fold_detected,verdict,rule,estimates_ok"
    assert len(lines) == 5  # 2 families x 2 dims
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == ["exp", "exp", "power:p=2", "power:p=2"]
    assert all(c[2] == "ok" for c in cells)
    # per-cell artifacts exist
    assert os.path.exists(os.path.join(out, "branch_exp_N3.csv"))
    assert os.path.exists(os.path.join(out, "branch_power-p2_N4.csv"))


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    # mems p = 1 fails its cells (estimates not applicable), forked or not
    args = ["sweep", "--families", "exp,mems:p=1", "--dims", "3,4", "--n", "64",
            "--m-max", "0.3", "--amplitude-step", "0.1"]
    results = []
    for jobs in ("1", "2"):
        out = str(tmp_path / jobs)
        code = main([*args, "--jobs", jobs, "--out", out])
        captured = capsys.readouterr()
        results.append((code, read(os.path.join(out, "sweep.csv"), "rb"), captured.out,
                        captured.err.splitlines()))
    assert results[0] == results[1]
    assert results[0][0] == 3 and len(results[0][3]) == 4


@pytest.mark.parametrize("cores, jobs, pool", [(2, 1000, [2]), (None, 1000, []), (8, 3, [3])])
def test_sweep_pool_is_capped_at_the_cores(cores, jobs, pool, tmp_path, capsys, monkeypatch):
    # more workers than cores would only take turns on them (one worker
    # when the count is unknown)
    sizes = inline_pool(monkeypatch, cores)
    code, _ = run(capsys, "sweep", "--families", "exp,power:p=2", "--dims", "3..4", *FOLDED,
                  "--jobs", str(jobs), "--out", str(tmp_path / "s"))
    assert code == 0
    assert sizes == pool


def test_sweep_without_fork_runs_serially(tmp_path, capsys, monkeypatch):
    sizes = inline_pool(monkeypatch, cores=2)
    monkeypatch.delattr(os, "fork")
    code, _ = run(capsys, "sweep", "--families", "exp,power:p=2", "--dims", "3..4", *FOLDED,
                  "--jobs", "2", "--out", str(tmp_path / "s"))
    assert code == 0
    assert sizes == []


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@contextlib.contextmanager
def deadline(seconds):
    """Fail a test that is still running after ``seconds`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_children(action):
    """A fork_map task that runs ``action`` in a forked child and, slowly,
    returns its item in this process, so the children claim items too."""
    parent = os.getpid()

    def task(item):
        if os.getpid() != parent:
            action()
        time.sleep(0.02)
        return item

    return task


@needs_fork
def test_fork_map_raises_a_child_exception():
    def fail():
        raise LookupError("raised in a child")

    with deadline(60), pytest.raises(LookupError, match="raised in a child"):
        cli._fork_map(in_children(fail), list(range(50)), 2)


@needs_fork
def test_fork_map_reports_a_child_that_exits_with_a_claimed_item():
    with deadline(60), pytest.raises(ChildProcessError, match="exit status 3"):
        cli._fork_map(in_children(lambda: os._exit(3)), list(range(50)), 2)


@needs_fork
def test_fork_map_reaps_its_children_when_its_own_share_raises(monkeypatch):
    parent = os.getpid()
    forked = []

    def fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    def task(item):
        if os.getpid() == parent:
            raise LookupError("raised in the parent")
        time.sleep(0.02)  # so that this process claims an item too
        return item

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    with deadline(60), pytest.raises(LookupError, match="raised in the parent"):
        cli._fork_map(task, list(range(50)), 3)
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):  # already waited for
            os.waitpid(pid, os.WNOHANG)


@needs_fork
def test_fork_map_returns_every_item_once_and_in_order(tmp_path):
    # more items than one pipe holds as indices, and more workers than cores
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def task(item):
        os.write(log, b"%d\n" % item)
        return -item

    count = 40_000
    try:
        with deadline(120):
            results = cli._fork_map(task, list(range(count)), 4)
    finally:
        os.close(log)
    assert results == [-item for item in range(count)]
    ran = sorted(int(line) for line in read(tmp_path / "log").split())
    assert ran == list(range(count))


def test_sweep_spells_each_family_once(tmp_path, capsys):
    # exp twice, and power:p=2 under a second spelling, run one cell each
    out = str(tmp_path / "dup")
    code, stdout = run(capsys, "sweep", "--families", "exp,exp,power:p=2.0", "--dims", "3,3",
                       *FOLDED, "--out", out)
    assert code == 0
    rows = [line.split(",")[:3] for line in stdout.splitlines()[1:]]
    assert rows == [["exp", "3", "ok"], ["power:p=2", "3", "ok"]]
    assert sorted(os.listdir(out)) == ["branch_exp_N3.csv", "branch_exp_N3.json",
                                       "branch_power-p2_N3.csv", "branch_power-p2_N3.json",
                                       "sweep.csv"]
    summary = json.loads(read(os.path.join(out, "branch_power-p2_N3.json")))
    assert summary["family"] == summary["config"]["family"] == "power:p=2"


def test_sweep_requires_lists(capsys):
    assert main(["sweep", "--families", "exp"]) == 2
    assert main(["sweep", "--dims", "3..4"]) == 2
    assert main(["sweep", "--families", "bogus", "--dims", "3"]) == 2


@pytest.mark.parametrize("dims", ["x", "3..", "3..x", "5..3"])
def test_malformed_dims_name_the_entry(dims, tmp_path, capsys):
    # the entry fails before, after or without a valid one, and the flag and
    # the config-file key reach the same parser
    cfg = tmp_path / "sweep.cfg"
    for spec in (f"4,{dims}", f"{dims},4", dims):
        cfg.write_text(f"families = exp\ndims = {spec}\n")
        for argv in (["--families", "exp", "--dims", spec], ["--config", str(cfg)]):
            code = main(["sweep", *argv, "--n", "64", "--out", str(tmp_path / "run")])
            err = capsys.readouterr().err
            assert code == 2
            assert err == f"error: dims entry {dims!r} in {spec!r} is not N or N..M with N <= M\n"
    assert not (tmp_path / "run").exists()


def test_sweep_lists_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = exp, power:p=2\ndims = 3..4\nn = 64\nm_max = 2.2\n"
                   "amplitude_step = 0.1\n")
    out = str(tmp_path / "cfgsweep")
    code, stdout = run(capsys, "sweep", "--config", str(cfg), "--out", out)
    assert code == 0
    cells = [line.split(",")[:3] for line in stdout.splitlines()[1:]]
    assert cells == [["exp", "3", "ok"], ["exp", "4", "ok"],
                     ["power:p=2", "3", "ok"], ["power:p=2", "4", "ok"]]
    assert json.loads(read(os.path.join(out, "branch_exp_N4.json")))["config"]["n"] == 64


# ---------------------------------------------------------------------------
# failure contract: every accepted input ends with a documented exit code
# ---------------------------------------------------------------------------

FAILING = {
    "verify-mems-p1": ["verify", "--family", "mems:p=1"],
    "sweep-mems-p1": ["sweep", "--families", "exp,mems:p=1", "--dims", "3"],
    "sweep-n2": ["sweep", "--families", "exp", "--dims", "3", "--n", "2"],
    "sweep-negative-tol": ["sweep", "--families", "exp", "--dims", "3", "--tol", "-1"],
    "sweep-dim1": ["sweep", "--families", "exp", "--dims", "1"],
    "sweep-negative-m-max": ["sweep", "--families", "exp", "--dims", "3", "--m-max", "-1"],
    "sweep-jobs0": ["sweep", "--families", "exp", "--dims", "3", "--jobs", "0"],
    "branch-out-under-file": ["branch", "--family", "exp", "--out", "{file}/run"],
    "verify-out-under-file": ["verify", "--family", "exp", "--out", "{file}/run"],
    "sweep-out-under-file": ["sweep", "--families", "exp", "--dims", "3", "--out", "{file}/run"],
    "predict-out-under-file": ["predict", "--family", "exp", "--N", "3", "--out", "{file}/p.json"],
    "bootstrap-out-under-file": ["bootstrap", "--N", "6", "--q", "1", "--alpha", "1.5",
                                 "--beta", "0.5", "--out", "{file}/b.json"],
    # nan compares false against every bound, and inf is no exponent
    "bootstrap-q-nan": ["bootstrap", "--N", "6", "--q", "nan", "--alpha", "1.5",
                        "--beta", "0.5"],
    "bootstrap-q-inf": ["bootstrap", "--N", "6", "--q", "inf", "--alpha", "1.5",
                        "--beta", "0.5"],
    "bootstrap-alpha-inf": ["bootstrap", "--N", "6", "--q", "1", "--alpha", "inf",
                            "--beta", "0.5"],
    "branch-runaway-steps": ["branch", "--family", "exp", "--m-max", "1000",
                             "--amplitude-step", "1e-4"],
    "branch-tol-inf": ["branch", "--family", "exp", "--tol", "inf"],
    "branch-tol-loose": ["branch", "--family", "exp", "--tol", "1e-3"],
    "branch-step-inf": ["branch", "--family", "exp", "--amplitude-step", "inf"],
    "branch-huge-grid": ["branch", "--family", "exp", "--n", "10000000000000"],
    # each end of a range is checked against the grid before it is expanded
    "sweep-huge-dims-range": ["sweep", "--families", "exp", "--dims", "3..999999999999"],
    # the center cell's volume weight underflows to 0 (N = 127 is the first
    # such dimension at n = 64), and at N = 400 Gamma(N/2) overflows
    "branch-underflowing-weights": ["branch", "--family", "exp", "--N", "127", "--m-max", "1"],
    "branch-sphere-area-overflow": ["branch", "--family", "exp", "--N", "400", "--n", "4",
                                    "--m-max", "1"],
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failure_exit_codes(case, tmp_path, capsys):
    regular_file = tmp_path / "file"
    regular_file.write_text("")
    argv = [a.format(file=regular_file) for a in FAILING[case]]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "run")]
    if argv[0] in ("branch", "verify", "sweep") and "--n" not in argv:
        argv += ["--n", "64"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (2, 4)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("error:", "compute failure:")), err
    assert "Traceback" not in err
    if case == "sweep-mems-p1":
        rows = list(csv.DictReader(read(tmp_path / "run" / "sweep.csv").splitlines()))
        assert [(r["family"], r["status"]) for r in rows] == [
            ("exp", "ok"), ("mems:p=1", "not-applicable")]
        assert math.isfinite(float(rows[1]["lambda_star"]))
        # each cell's branch JSON carries the status its sweep.csv row gives
        for tag, row in zip(("exp_N3", "mems-p1_N3"), rows):
            summary = json.loads(read(tmp_path / "run" / f"branch_{tag}.json"))
            assert summary["status"] == row["status"]


# (family, N, m-max, first amplitude) of runs that once leaked a numpy warning
# or a domain error, with the exit code and stderr prefix they end with (no
# stderr line for exit 0):
# - exp at 700: the Euler step from the trivial point gives lambda f(u) beyond
#   the double range, which the residual must read as infinite without a
#   warning (it once overflowed f(u) @ f(u) in an initial-guess fit); at 800
#   e^u overflows, and halving from there the first solve lands past the
#   fold at m = 50, so the fold is bracketed only against the trivial
#   point, and both runs solve it there;
# - power at 1e200 overflowed (1 + u)^p;
# - power:p=3.5 in N = 5 took a Newton trial with u <= -1; its first solves
#   land far up the upper branch, and the fold solve walks down from there;
# - exp in unit steps stops one sample past its fold, far below e^u's
#   overflow near m = 709.8 (the branch tests solve up to it).
LARGE_FIRST_AMPLITUDES = {
    "700-0-silent": (("exp", "3", "700", "700"), 0, None),
    "800-0-silent": (("exp", "3", "800", "800"), 0, None),
    "800-step1-0-silent": (("exp", "3", "800", "1"), 0, None),
    "power-1e200-4-compute failure:": (("power:p=2", "3", "1e200", "1e200"), 4,
                                       "compute failure:"),
    "power-1e5-0-silent": (("power:p=3.5", "5", "1e6", "1e5"), 0, None),
}


@pytest.mark.parametrize("case", sorted(LARGE_FIRST_AMPLITUDES))
def test_large_first_amplitude_warns_nothing(case, tmp_path, capsys):
    # the suite turns any numpy warning into an error
    (family, dim, m_max, step), code, prefix = LARGE_FIRST_AMPLITUDES[case]
    argv = ["branch", "--family", family, "--N", dim, "--n", "64", "--m-max", m_max,
            "--amplitude-step", step, "--out", str(tmp_path / "run")]
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    if prefix is None:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(prefix), lines


# family specs, valid and not, with exponents on both sides of p = 1
FAMILY_SPECS = st.one_of(
    st.sampled_from(["exp", "quintic", "power:p=x"]),
    st.builds("{}:p={:g}".format, st.sampled_from(["power", "mems"]), st.floats(-0.5, 4.0)),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


# one value at a time pushed outside its valid range
SPOILS = [None] * 6 + [("n", "3"), ("dim", "1"), ("m_max", "0"), ("m_max", "nan"),
          ("step", "-0.1"), ("tol", "0"), ("tol", "inf")]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["branch", "verify", "sweep"]),
    families=st.lists(FAMILY_SPECS, min_size=1, max_size=2),
    dims=st.lists(st.integers(2, 9), min_size=1, max_size=2),
    n=st.integers(4, 64),
    m_max=st.floats(0.1, 3.0),
    step=st.floats(0.05, 1.0),
    tol=st.sampled_from([1e-10, 1e-6, 1e-30]),
    spoil=st.sampled_from(SPOILS),
)
def test_any_input_ends_with_documented_exit(command, families, dims, n, m_max, step, tol,
                                             spoil):
    values = {"n": str(n), "dim": str(dims[0]), "m_max": repr(m_max), "step": repr(step),
              "tol": repr(tol)}
    if spoil is not None:
        values[spoil[0]] = spoil[1]
        dims = [values["dim"]]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [command, "--n", values["n"], "--m-max", values["m_max"],
                "--amplitude-step", values["step"], "--tol", values["tol"], "--out", out]
        if command == "sweep":
            argv += ["--families", ",".join(families), "--dims", ",".join(map(str, dims))]
        else:
            argv += ["--family", families[0], "--N", values["dim"]]
        assert main(argv) in (0, 2, 3, 4)
        for root, _, names in os.walk(out):
            for name in names:
                with open(os.path.join(root, name)) as handle:
                    if name.endswith(".json"):
                        json.load(handle, parse_constant=_reject_constant)
                    else:
                        assert name.endswith(".csv"), name
                        rows = list(csv.reader(handle))
                        assert len(rows) >= 1 and len({len(r) for r in rows}) == 1, name
