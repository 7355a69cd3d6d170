import numpy as np
import pytest

from relu_lyapunov.claims import CLAIMS
from relu_lyapunov.cli import PRESETS, UsageError, _parse_xi, _resolve, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets():
    """A preset names widths only; the rest of its run is the sgd defaults."""
    assert PRESETS == {"shallow": (1, 7, 1), "deep": (1, 3, 7, 1)}
    deep = _resolve(build_parser().parse_args(["sgd", "--preset", "deep"]))
    assert deep.arch.widths == (1, 3, 7, 1) and deep.tag == "deep"
    assert abs(deep.init_scale - 3.0**-0.5) < 1e-15


def test_parse_xi():
    np.testing.assert_array_equal(_parse_xi("1.5", 1), [1.5])
    np.testing.assert_array_equal(_parse_xi("1,2", 2), [1.0, 2.0])
    np.testing.assert_array_equal(_parse_xi("0.5", 3), [0.5, 0.5, 0.5])
    with pytest.raises(UsageError):
        _parse_xi("1,2", 3)
    with pytest.raises(UsageError):
        _parse_xi("abc", 1)


def test_no_command_prints_help(capsys):
    code, out, err = run(capsys, *[])
    assert code == 2
    assert "usage" in out.lower()


def test_missing_arch_is_usage_error(capsys):
    code, out, err = run(capsys, "gd", "--steps", "5")
    assert code == 2
    assert "error" in err


def test_bad_box_is_usage_error(capsys):
    code, out, err = run(capsys, "gd", "--arch", "1,2,1", "--a", "1", "--b", "0")
    assert code == 2


@pytest.mark.parametrize("bound", [("--a", "nan"), ("--b", "nan"), ("--b", "inf"), ("--a=-inf",)])
def test_non_finite_box_is_usage_error(tmp_path, capsys, bound):
    out_path = tmp_path / "s.csv"
    small = ["--trials", "2", "--steps", "3", "--eval-samples", "10"]
    code, out, err = run(capsys, "sgd", "--arch", "1,7,1", *small, *bound, "--out", str(out_path))
    assert code == 2
    assert "finite a < b" in err
    assert not out_path.exists()


def test_gd_writes_trajectory_csv(tmp_path, capsys):
    out_path = tmp_path / "gd.csv"
    code, out, err = run(
        capsys, "gd", "--arch", "1,7,1", "--steps", "200", "--out", str(out_path)
    )
    assert code == 0
    assert "descent certificate" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "step,v,risk,grad_norm,param_norm,gamma"
    assert len(lines) == 202


def test_gd_divergent_rate_exit_code(tmp_path, capsys):
    out_path = tmp_path / "gd.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(
            capsys, "gd", "--arch", "1,7,1", "--gamma", "50", "--steps", "5000",
            "--out", str(out_path),
        )
    assert code == 3
    assert "diverged" in err


def test_gf_reports_identity_drift(tmp_path, capsys):
    out_path = tmp_path / "gf.csv"
    code, out, err = run(
        capsys, "gf", "--arch", "1,7,1", "--steps", "200", "--out", str(out_path)
    )
    assert code == 0
    assert "euler dt" in out
    drift_line = [l for l in out.splitlines() if "max |V(t)" in l]
    assert len(drift_line) == 1
    assert out_path.exists()


def test_sgd_csv_reproducible(tmp_path, capsys):
    args = [
        "sgd", "--preset", "shallow", "--trials", "3", "--steps", "300",
        "--batch", "20", "--eval-samples", "500", "--seed", "11",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run(capsys, *args, "--out", str(p1))
    code2, out2, _ = run(capsys, *args, "--out", str(p2))
    assert code1 == 0 and code2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "step,mean_mse,std_error"
    assert lines[1].startswith("1,")


@pytest.mark.parametrize(
    "bad", [("--steps", "0"), ("--trials", "0"), ("--eval-samples", "0"), ("--eval-samples", "-1")]
)
def test_sgd_rejects_empty_runs(tmp_path, capsys, bad):
    out_path = tmp_path / "s.csv"
    small = ["--trials", "2", "--steps", "10", "--eval-samples", "10"]
    code, out, err = run(capsys, "sgd", "--preset", "shallow", *small, *bad, "--out", str(out_path))
    assert code == 2
    assert bad[0] in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["gd", "gf"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_deterministic_runs_reject_empty_runs(tmp_path, capsys, command, steps):
    out_path = tmp_path / "d.csv"
    code, out, err = run(capsys, command, "--arch", "1,7,1", "--steps", steps, "--out", str(out_path))
    assert code == 2
    assert "--steps" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command, flag", [("gd", "--gamma"), ("gf", "--dt")])
def test_zero_default_step_is_usage_error(tmp_path, capsys, command, flag):
    # 200 hidden layers: the descent threshold is 0.0, so the defaulted step
    # would run nothing and certify nothing
    out_path = tmp_path / "d.csv"
    arch = ",".join(["1"] + ["4"] * 200 + ["1"])
    code, out, err = run(capsys, command, "--arch", arch, "--steps", "2", "--points", "11", "--out", str(out_path))
    assert code == 2
    assert flag in err
    assert not out_path.exists()


def test_sgd_prints_threshold_comparison(tmp_path, capsys):
    code, out, err = run(
        capsys, "sgd", "--arch", "1,2,1", "--trials", "2", "--steps", "50",
        "--batch", "10", "--eval-samples", "100", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 0
    assert "configured gamma" in out
    assert "sgd descent threshold" in out


def test_sgd_deep_net_threshold_is_zero(tmp_path, capsys):
    # the threshold's power overflows a float on this net; exit 1 means a
    # failed self-check, so the run must still succeed
    arch = ",".join(["1"] + ["16"] * 30 + ["1"])
    out_path = tmp_path / "s.csv"
    code, out, err = run(
        capsys, "sgd", "--arch", arch, "--steps", "1", "--trials", "1", "--eval-samples", "100", "--out", str(out_path)
    )
    assert code == 0
    assert "min 0, max 0" in out
    assert out_path.exists()


def test_nonconvexity_output(capsys):
    code, out, err = run(capsys, "nonconvexity", "--arch", "1,7,1")
    assert code == 0
    assert "risk(midpoint)" in out
    line = next(l for l in out.splitlines() if l.startswith("midpoint gap"))
    gap = float(line.split("=")[1].split()[0])
    reference = float(line.rsplit("=", 1)[1].rstrip(")"))
    assert gap == reference  # exactly mass/16
    assert abs(gap - 0.0625) < 1e-12


def test_nonconvexity_depth_one_refuses(capsys):
    code, out, err = run(capsys, "nonconvexity", "--arch", "1,1")
    assert code == 2
    assert "convex" in err


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "activation")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_verify_failing_claim_exits_one(capsys, monkeypatch):
    # every claim runs in test_acceptance; here one failing entry turns the exit code to 1
    monkeypatch.setitem(CLAIMS, "thresholds.always_fails", lambda seed: (False, f"seed {seed}"))
    code, out, err = run(capsys, "verify", "--suite", "thresholds", "--seed", "3")
    assert code == 1
    assert "FAIL  thresholds.always_fails: seed 3" in out.splitlines()
    assert sum(l.startswith("PASS  thresholds.") for l in out.splitlines()) == 4


def test_verify_suites_are_the_registry_suites(capsys):
    suites = sorted({name.split(".")[0] for name in CLAIMS})
    assert suites == ["activation", "convexity", "gradient", "lyapunov", "thresholds"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--help"])
    assert "--suite {" + ",".join(["all"] + suites) + "}" in capsys.readouterr().out


def test_parser_help_smoke():
    parser = build_parser()
    for cmd in ("sgd", "gd", "gf", "verify", "nonconvexity"):
        assert cmd in parser.format_help()
