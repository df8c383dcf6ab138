"""End-to-end tests of the command-line interface."""

import json
import math
import warnings

import pytest

from poissonplan import __version__, cli
from poissonplan.cli import main

E_INV = 0.36787944117144233
CHERN_UP_1_2 = 0.67957045711476127
TAIL_GEQ_2_AT_1 = 0.26424111765711533
CHERN_LO_2_1 = 0.73575888234288467


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


class TestSize:
    def test_formula_default(self, capsys):
        report = run_json(
            capsys, "size", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"
        )
        assert report["tool_version"] == __version__
        assert report["command"] == "size"
        assert report["results"]["n"] == 762
        assert report["results"]["method"] == "formula"
        assert report["inputs"]["eps_a"] == 0.1
        assert report["warnings"] == []

    def test_invalid_relative_tolerance_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--eps-a", "0.1", "--eps-r", "1.5", "--delta", "0.05"
        )
        assert code == 2
        assert "--eps-r" in err
        assert "(0, 1)" in err

    def test_infinite_eps_a_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "size", "--eps-a", "inf", "--eps-r", "0.1", "--delta", "0.05"
        )
        assert code == 2
        assert "--eps-a" in err

    def test_normal_method(self, capsys):
        report = run_json(
            capsys, "size", "--method", "normal", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert report["results"]["n"] == 385
        assert report["results"]["method"] == "normal_approx"
        assert report["results"]["critical_exponent"] is None

    def test_normal_requires_lambda(self, capsys):
        code, _, err = run_cli(
            capsys, "size", "--method", "normal",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "--lambda" in err

    def test_exact_method(self, capsys):
        report = run_json(
            capsys, "size", "--method", "exact",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert report["results"]["method"] == "exact_search"
        assert report["results"]["n"] == 381

    def test_text_format(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--format", "text",
        )
        assert code == 0
        assert "n = 762" in out

    def test_underflowing_relative_tolerance_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--eps-a", "1e-300", "--eps-r", "1e-300", "--delta", "0.05"
        )
        assert code == 2
        assert "epsilon_r" in err
        assert out == ""


class TestVerify:
    def test_planned_size_passes(self, capsys):
        report = run_json(
            capsys, "verify", "--n", "762", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        res = report["results"]
        assert res["pass"] is True
        assert res["coverage"] >= 0.95
        assert res["margin"] > 0.0
        assert res["case"] == "III"

    def test_single_count_window_coverage(self, capsys):
        report = run_json(
            capsys, "verify", "--n", "1", "--lambda", "1",
            "--eps-a", "1", "--eps-r", "0.5", "--delta", "0.05",
        )
        assert report["results"]["coverage"] == pytest.approx(E_INV, rel=1e-12)
        assert report["results"]["pass"] is False

    def test_zero_samples_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--n", "0", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "--n" in err

    def test_astronomical_mean_exits_2(self, capsys):
        # theta = n*lam above 2^53 is outside the exact kernel's domain and
        # is refused at once, before any allocation.
        for n, lam, eps_a, eps_r in [
            ("1", "1e300", "1e300", "0.5"),
            ("762", "1e30", "0.1", "0.1"),
            ("762", "1e300", "0.1", "0.1"),
        ]:
            code, out, err = run_cli(
                capsys, "verify", "--n", n, "--lambda", lam,
                "--eps-a", eps_a, "--eps-r", eps_r, "--delta", "0.05",
            )
            assert code == 2
            assert "domain" in err
            assert out == ""

    def test_window_over_term_cap_exits_2(self, capsys):
        # theta = 1.5e13 is inside the domain, but its certified window has
        # more terms than the kernel sums.
        code, _, err = run_cli(
            capsys, "verify", "--n", "762", "--lambda", "2e10",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "cap" in err

    def test_monte_carlo_over_table_cap_exits_2(self, capsys):
        # theta = 7.62e9: exact coverage is computable, but the sampler's cdf
        # table would exceed its cap.
        code, out, err = run_cli(
            capsys, "verify", "--n", "762", "--lambda", "1e7",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05", "--mc-trials", "10",
        )
        assert code == 2
        assert "TABLE_CAP" in err
        assert out == ""

    def test_monte_carlo_block(self, capsys):
        report = run_json(
            capsys, "verify", "--n", "762", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--mc-trials", "100000", "--seed", "7",
        )
        mc = report["results"]["mc"]
        assert mc["trials"] == 100000
        assert mc["estimate"] >= 0.95 - mc["ci_half_width"]
        assert mc["generator"].startswith("philox")
        assert abs(mc["estimate"] - report["results"]["coverage"]) <= (
            mc["ci_half_width"] + 1.0 / mc["trials"]
        )


class TestScan:
    def test_default_scan_all_margins_positive(self, capsys, tmp_path):
        out_csv = tmp_path / "scan.csv"
        report = run_json(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--out", str(out_csv),
        )
        res = report["results"]
        assert res["n"] == 762
        assert res["all_pass"] is True
        assert res["min_margin"] > 0.0
        assert res["worst_lambda"] > 0.0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "lambda,case,k_min,k_max,coverage,margin"
        assert len(lines) - 1 == res["rows"] == 206  # 200 grid + 6 boundary points

    def test_single_point_grid(self, capsys):
        report = run_json(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--grid-points", "1", "--lambda-min", "2", "--lambda-max", "2",
        )
        res = report["results"]
        assert res["rows"] == 1
        assert res["points"][0]["case"] == "IV"
        assert res["points"][0]["lambda"] == 2.0

    def test_explicit_n_is_used(self, capsys):
        report = run_json(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--n", "100", "--grid-points", "5", "--lambda-min", "0.5", "--lambda-max", "2",
        )
        assert report["results"]["n"] == 100

    def test_infinite_lambda_max_exits_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would exit 3
            code, out, err = run_cli(
                capsys, "scan", "--lambda-max", "inf",
                "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            )
        assert code == 2
        assert "error: --lambda-max:" in err
        assert "RuntimeWarning" not in err
        assert out == ""

    def test_unwritable_output_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--grid-points", "1", "--lambda-min", "1", "--lambda-max", "1",
            "--out", "/nonexistent-dir/deep/scan.csv",
        )
        assert code == 4
        assert "i/o error" in err


class TestBound:
    @pytest.mark.parametrize(
        "theta, r, flag",
        [("inf", "1", "--theta"), ("nan", "1", "--theta"), ("1", "inf", "--r")],
    )
    def test_non_finite_input_exits_2(self, capsys, theta, r, flag):
        code, out, err = run_cli(
            capsys, "bound", "--theta", theta, "--r", r, "--side", "lower", "--force"
        )
        assert code == 2
        assert f"error: {flag}:" in err
        assert out == ""

    def test_non_finite_report_exits_3(self, capsys, monkeypatch):
        # A bound that evaluates to nan cannot be serialized: a numeric
        # failure, not a traceback.  No finite input is known to produce
        # one, so the exponent is replaced.
        monkeypatch.setattr(cli, "chernoff_log_bound", lambda theta, r: math.nan)
        code, out, err = run_cli(
            capsys, "bound", "--theta", "1", "--r", "2", "--side", "upper"
        )
        assert code == 3
        assert "numeric failure" in err
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "theta, r, side", [("1e-300", "1e300", "upper"), ("1e300", "1", "lower")]
    )
    def test_extreme_ratio_bound_is_zero(self, capsys, theta, r, side):
        # r/theta beyond the double range either way: the exponent is far
        # below -745, so the bound underflows to 0 instead of nan.
        report = run_json(capsys, "bound", "--theta", theta, "--r", r, "--side", side)
        assert report["results"]["bound"] == 0.0

    def test_exact_tail_at_huge_mean(self, capsys):
        # About 7.6 million terms at theta = 1e12, summed by the recurrence
        # kernel; the reference is scipy.special.gammainc(1000001000000, 1e12).
        report = run_json(
            capsys, "bound", "--theta", "1e12", "--r", "1.000001e12", "--side", "upper", "--exact"
        )
        assert report["results"]["exact"] == pytest.approx(0.15865537491679918, rel=1e-12)

    def test_upper_with_exact(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "1", "--r", "2", "--side", "upper", "--exact"
        )
        res = report["results"]
        assert res["bound"] == pytest.approx(CHERN_UP_1_2, rel=1e-12)
        assert res["exact"] == pytest.approx(TAIL_GEQ_2_AT_1, rel=1e-12)
        assert res["exact"] <= res["bound"]
        assert report["warnings"] == []

    def test_lower(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "2", "--r", "1", "--side", "lower"
        )
        assert report["results"]["bound"] == pytest.approx(CHERN_LO_2_1, rel=1e-12)
        assert report["results"]["exact"] is None

    def test_zero_threshold_lower_is_point_mass(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "3", "--r", "0", "--side", "lower"
        )
        assert report["results"]["bound"] == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_precondition_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--theta", "1", "--r", "0.5", "--side", "upper"
        )
        assert code == 2
        assert "r > theta" in err

    def test_force_evaluates_with_warning(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "1", "--r", "0.5", "--side", "upper", "--force"
        )
        assert report["warnings"]
        assert report["results"]["bound"] > 0.0


class TestReportContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["size", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"],
            ["verify", "--n", "50", "--lambda", "0.9", "--eps-a", "0.2",
             "--eps-r", "0.3", "--delta", "0.1", "--mc-trials", "10000", "--seed", "5"],
            ["scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
             "--grid-points", "10", "--lambda-min", "0.05", "--lambda-max", "2"],
            ["bound", "--theta", "1", "--r", "2", "--side", "upper", "--exact"],
        ],
        ids=["size", "verify", "scan", "bound"],
    )
    def test_rerun_is_bit_identical(self, capsys, argv):
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # every report re-parses

    def test_echoed_inputs_reproduce_results(self, capsys):
        report = run_json(
            capsys, "verify", "--n", "762", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--mc-trials", "20000", "--seed", "3",
        )
        inp = report["inputs"]
        rerun = run_json(
            capsys, "verify",
            "--n", repr(inp["n"]),
            "--lambda", repr(inp["lambda"]),
            "--eps-a", repr(inp["eps_a"]),
            "--eps-r", repr(inp["eps_r"]),
            "--delta", repr(inp["delta"]),
            "--mc-trials", repr(inp["mc_trials"]),
            "--seed", repr(inp["seed"]),
        )
        assert rerun["results"] == report["results"]

    def test_floats_round_trip_losslessly(self, capsys):
        from poissonplan import ErrorBudget, formula_sample_size

        report = run_json(
            capsys, "size", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"
        )
        expected = formula_sample_size(ErrorBudget(0.1, 0.1, 0.05))
        assert report["results"]["rhs"] == expected.rhs  # bit-exact after parsing
        assert report["results"]["critical_exponent"] == expected.critical_exponent

    def test_seventeen_digit_serialization(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "1", "--lambda", "1",
            "--eps-a", "1", "--eps-r", "0.5", "--delta", "0.05",
        )
        assert code == 0
        assert "0.36787944117144233" in out


class TestInstalledEntryPoint:
    def test_console_script(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "poissonplan.cli",
             "size", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["n"] == 762

