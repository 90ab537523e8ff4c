"""Command-line interface: subcommands, exit codes, file formats,
configuration precedence, determinism."""

import csv
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navierlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read(path, mode="r"):
    with open(path, mode) as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_exponential_eight(capsys):
    code, out = run(capsys, "predict", "--family", "exp", "--N", "8")
    assert code == 0
    record = json.loads(out)
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


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["predict"]) == 2


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_increasing(capsys):
    code, out = run(capsys, "bootstrap", "--N", "6", "--q", "1", "--alpha", "1.5", "--beta", "0.5")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["classification"] == "increasing-to-fixed-point"
    assert trace["fixed_point"] == pytest.approx(1.5)


def test_bootstrap_escape(capsys):
    code, out = run(capsys, "bootstrap", "--N", "5", "--q", "1", "--alpha", "1.5", "--beta", "0.5")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["classification"] == "escapes-above-quarter-dimension"


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


# mems:p=0.557877 at N=3: the first solved point already has the largest lambda,
# so no point lies before the fold
NO_PRE_FOLD = ["--n", "51", "--m-max", "1.58", "--amplitude-step", "0.76"]


def test_verify_without_pre_fold_point_is_not_applicable(tmp_path, capsys):
    out = str(tmp_path / "nofold")
    code = main(["verify", "--family", "mems:p=0.557877", "--N", "3", *NO_PRE_FOLD,
                 "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    verdict = json.loads(read(os.path.join(out, "verify_mems-p0_557877_N3.json")))
    assert verdict["pre_fold_points"] == 0
    assert verdict["pointwise_all_satisfied"] is False
    assert verdict["status"] == "not-applicable"
    estimates = read(os.path.join(out, "estimates_mems-p0_557877_N3.csv"))
    assert estimates.splitlines() == ["estimate,m,lambda,lhs,rhs,margin,satisfied"]


def test_sweep_cell_without_pre_fold_point_fails_estimates(tmp_path, capsys):
    # the lambda maximum is the first point, so no fold was seen either
    code, stdout = run(capsys, "sweep", "--families", "mems:p=0.557877", "--dims", "3",
                       *NO_PRE_FOLD, "--out", str(tmp_path / "nofold"))
    assert code == 3
    row = dict(zip(*[line.split(",") for line in stdout.splitlines()]))
    assert row["status"] == "no-fold"
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
def test_partial_branch_is_kept_and_flagged(command, artifact, tmp_path, capsys):
    # far past the fold Newton stalls near m = 157; the points before are kept
    out = str(tmp_path / "partial")
    code, _ = run(capsys, command, "--family", "exp", "--N", "3", "--n", "64",
                  "--m-max", "200", "--amplitude-step", "1", "--out", out)
    assert code == 4
    summary = json.loads(read(os.path.join(out, artifact)))
    assert summary["status"] == "partial"
    assert summary["fold_detected"] is True


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
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    args = ["sweep", "--families", "exp", "--dims", "3,4", "--n", "64",
            "--m-max", "0.3", "--amplitude-step", "0.1"]
    run(capsys, *args, "--out", serial)
    run(capsys, *args, "--out", parallel, "--jobs", "2")
    a = read(os.path.join(serial, "sweep.csv"), "rb")
    b = read(os.path.join(parallel, "sweep.csv"), "rb")
    assert a == b


def test_sweep_requires_lists(capsys):
    assert main(["sweep", "--families", "exp"]) == 2
    assert main(["sweep", "--dims", "3..4"]) == 2
    assert main(["sweep", "--families", "bogus", "--dims", "3"]) == 2


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
    "branch-runaway-steps": ["branch", "--family", "exp", "--m-max", "1000",
                             "--amplitude-step", "1e-4"],
    "branch-tol-inf": ["branch", "--family", "exp", "--tol", "inf"],
    "branch-tol-loose": ["branch", "--family", "exp", "--tol", "1e-3"],
    "branch-step-inf": ["branch", "--family", "exp", "--amplitude-step", "inf"],
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


# (family, N, m-max, first amplitude) of runs that once leaked a numpy warning
# or a domain error, with the exit code and stderr prefix they end with:
# - exp at 700 overflowed f(u) @ f(u) in the initial-guess fit, at 800 e^u;
# - power at 1e200 overflowed (1 + u)^p;
# - power:p=3.5 in N = 5 took a Newton trial with u <= -1.
LARGE_FIRST_AMPLITUDES = {
    "700-3-inconclusive:": (("exp", "3", "700", "700"), 3, "inconclusive:"),
    "800-4-compute failure:": (("exp", "3", "800", "800"), 4, "compute failure:"),
    "power-1e200-4-compute failure:": (("power:p=2", "3", "1e200", "1e200"), 4,
                                       "compute failure:"),
    "power-1e5-3-inconclusive:": (("power:p=3.5", "5", "1e6", "1e5"), 3, "inconclusive:"),
}


@pytest.mark.parametrize("case", sorted(LARGE_FIRST_AMPLITUDES))
def test_large_first_amplitude_warns_nothing(case, tmp_path, capsys):
    # the suite turns any numpy warning into an error
    (family, dim, m_max, step), code, prefix = LARGE_FIRST_AMPLITUDES[case]
    argv = ["branch", "--family", family, "--N", dim, "--n", "64", "--m-max", m_max,
            "--amplitude-step", step, "--out", str(tmp_path / "run")]
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
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
