"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import warnings

import pytest

from poissonplan import __version__, cli, plan
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

    def test_normal_method_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--method", "normal", "--lambda", "1e308",
            "--eps-a", "1e-10", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "overflows" in err
        assert out == ""

    def test_normal_method_tiny_delta(self, capsys):
        # 1 - delta/2 rounds to 1 here, but z and n are representable;
        # z is scipy.stats.norm.isf(5e-18).
        report = run_json(
            capsys, "size", "--method", "normal", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "1e-17",
        )
        assert report["results"]["n"] == 7352
        assert report["results"]["rhs"] == pytest.approx(100.0 * 8.573944076720883**2, rel=1e-12, abs=0.0)

    def test_normal_method_delta_halving_to_zero_exits_2(self, capsys):
        # delta/2 rounds to 0 for the smallest subnormal; the message names delta.
        code, out, err = run_cli(
            capsys, "size", "--method", "normal", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "5e-324",
        )
        assert code == 2
        assert "delta=5e-324" in err
        assert out == ""

    def test_normal_method_underflowing_eps_a_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--method", "normal", "--lambda", "1",
            "--eps-a", "1e-300", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "overflows" in err
        assert out == ""

    def test_exact_search_past_cap_exits_2(self, capsys):
        # The closed-form n is about 7.6e301; every window up to SEARCH_CAP is empty.
        code, out, err = run_cli(
            capsys, "size", "--method", "exact",
            "--eps-a", "1e-300", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert out == ""
        assert "SEARCH_CAP = 1048576" in err

    def test_exact_search_below_delta_floor_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "size", "--method", "exact",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "1e-17",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("poissonplan size: error: --delta: delta=1e-17")

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
        assert report["results"]["coverage"] == pytest.approx(E_INV, rel=1e-12, abs=0.0)
        assert report["results"]["pass"] is False

    def test_case_at_rounded_boundary_follows_the_window(self, capsys):
        # 0.3 * 0.33333333333333337 > 0.1 exactly: the relative half-width binds.
        report = run_json(
            capsys, "verify", "--n", "100", "--lambda", "0.33333333333333337",
            "--eps-a", "0.1", "--eps-r", "0.3", "--delta", "0.05",
        )
        assert report["results"]["case"] == "IV"

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

    @pytest.mark.parametrize("mc", [[], ["--mc-trials", "10"]])
    def test_overflowing_mean_exits_2(self, capsys, mc):
        code, out, err = run_cli(
            capsys, "verify", "--n", str(10**400), "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05", *mc,
        )
        assert code == 2
        assert "domain" in err
        assert out == ""

    def test_window_covering_span_past_term_cap_answers_one(self, capsys):
        # theta = 1.52e13: the window covers the certified span of 7.8e7
        # terms, more than the term cap, but its complement in the span is
        # empty, so nothing is summed.
        report = run_json(
            capsys, "verify", "--n", "762", "--lambda", "2e10",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert report["results"]["coverage"] == 1.0
        assert report["results"]["pass"] is True

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

    def test_monte_carlo_over_trials_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n", "762", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05", "--mc-trials", "2000000000",
        )
        assert code == 2
        assert "error: --mc-trials: trials=2000000000 exceeds the cap" in err
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

    def test_overflowing_mean_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--n", str(10**400), "--grid-points", "3",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "domain" in err
        assert out == ""

    def test_grid_over_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(plan, "GRID_CAP", 8)
        code, out, err = run_cli(
            capsys, "scan", "--n", "10", "--grid-points", "9",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
        )
        assert code == 2
        assert "error: --grid-points: points=9 exceeds GRID_CAP = 8" in err
        assert out == ""

    def test_csv_cells_equal_embedded_rows(self, capsys, tmp_path):
        argv = ["scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
                "--grid-points", "30", "--lambda-min", "1e-3", "--lambda-max", "1e3"]
        rows = run_json(capsys, *argv)["results"]["points"]
        out_csv = tmp_path / "scan.csv"
        run_json(capsys, *argv, "--out", str(out_csv))
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "lambda,case,k_min,k_max,coverage,margin"
        assert len(lines) - 1 == len(rows)
        for line, row in zip(lines[1:], rows):
            lam, case, k_min, k_max, coverage, margin = line.split(",")
            assert (float(lam), case, int(k_min), int(k_max), float(coverage), float(margin)) == (
                row["lambda"], row["case"], row["k_min"], row["k_max"],
                row["coverage"], row["margin"],
            )

    def test_non_finite_csv_cell_exits_3(self, capsys, monkeypatch, tmp_path):
        # --out rows never pass through the JSON encoder, so the CSV writer
        # refuses a non-finite cell itself.  Only the last coverage is nan,
        # so the worst margin, which the report does carry, stays finite.
        real_scan = cli.scan_coverage

        def scan_with_nan(n, budget, grid):
            points = real_scan(n, budget, grid)
            return points[:-1] + [dataclasses.replace(points[-1], coverage=math.nan)]

        monkeypatch.setattr(cli, "scan_coverage", scan_with_nan)
        code, out, err = run_cli(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--grid-points", "3", "--out", str(tmp_path / "scan.csv"),
        )
        assert code == 3
        assert "numeric failure" in err
        assert "non-finite" in err
        assert out == ""

    def test_unwritable_output_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--grid-points", "1", "--lambda-min", "1", "--lambda-max", "1",
            "--out", "/nonexistent-dir/deep/scan.csv",
        )
        assert code == 4
        assert "i/o error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["size", "--method", "exact", "--eps-a", "1e300", "--eps-r", "1e-300", "--delta", "0.05"],
        ["scan", "--n", "1", "--eps-a", "5e-324", "--eps-r", "0.5", "--delta", "0.05"],
        ["scan", "--n", "1", "--eps-a", "1e300", "--eps-r", "1e-300", "--delta", "0.05"],
    ],
)
def test_default_grid_end_outside_the_double_range_names_eps_a(capsys, argv):
    # The default grid's ends eps_a/100 and 100*eps_a/eps_r come from the
    # budget, so an end that underflows to 0 or overflows names --eps-a, not
    # a grid flag the command lacks or was not given.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"poissonplan {argv[0]}: error: --eps-a: " in err
    assert "--lambda" not in err
    assert out == ""


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

    def test_non_finite_text_report_exits_3(self, capsys, monkeypatch):
        # The JSON encoder checks every value before either format prints.
        monkeypatch.setattr(cli, "chernoff_log_bound", lambda theta, r: math.nan)
        code, out, err = run_cli(
            capsys, "bound", "--theta", "1", "--r", "2", "--side", "upper", "--format", "text"
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
        assert report["results"]["exact"] == pytest.approx(0.15865537491679918, rel=1e-12, abs=0.0)

    def test_summed_tail_over_term_cap_exits_2(self, capsys):
        # The upper tail from theta + 1 at theta = 5e13 has about 7.07e7
        # terms to sum, more than the term cap of 2^26.
        code, out, err = run_cli(
            capsys, "bound", "--theta", "5e13", "--r", "50000000000001",
            "--side", "upper", "--exact",
        )
        assert code == 2
        assert "cap" in err
        assert out == ""

    def test_upper_with_exact(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "1", "--r", "2", "--side", "upper", "--exact"
        )
        res = report["results"]
        assert res["bound"] == pytest.approx(CHERN_UP_1_2, rel=1e-12, abs=0.0)
        assert res["exact"] == pytest.approx(TAIL_GEQ_2_AT_1, rel=1e-12, abs=0.0)
        assert res["exact"] <= res["bound"]
        assert report["warnings"] == []

    def test_lower(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "2", "--r", "1", "--side", "lower"
        )
        assert report["results"]["bound"] == pytest.approx(CHERN_LO_2_1, rel=1e-12, abs=0.0)
        assert report["results"]["exact"] is None

    def test_zero_threshold_lower_is_point_mass(self, capsys):
        report = run_json(
            capsys, "bound", "--theta", "3", "--r", "0", "--side", "lower"
        )
        assert report["results"]["bound"] == pytest.approx(math.exp(-3.0), rel=1e-12, abs=0.0)

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

    def test_shortest_round_trip_serialization(self, capsys):
        # exp(-1) needs all 17 significant digits to round-trip.
        code, out, _ = run_cli(
            capsys, "verify", "--n", "1", "--lambda", "1",
            "--eps-a", "1", "--eps-r", "0.5", "--delta", "0.05",
        )
        assert code == 0
        assert "0.36787944117144233" in out

    @pytest.mark.parametrize(
        "fmt, text", [("json", '"threshold": 0.95,'), ("text", "threshold = 0.95\n")]
    )
    def test_threshold_prints_shortest_repr(self, capsys, fmt, text):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "762", "--lambda", "1",
            "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05", "--format", fmt,
        )
        assert code == 0
        assert text in out
        if fmt == "json":
            assert json.loads(out)["results"]["threshold"] == 1.0 - 0.05


SCAN_TEXT = """\
command = scan
inputs:
  eps_a = 0.1
  eps_r = 0.1
  delta = 0.05
  n = 50
  lambda_min = 0.5
  lambda_max = 2.0
  grid_points = 2
  out = None
results:
  n = 50
  rows = 5
  worst_lambda = 1.000001
  min_margin = -0.4323958902822309
  all_pass = False
  points:
    - lambda = 0.5
      case = III
      k_min = 20
      k_max = 30
      coverage = 0.7297340350670133
      margin = -0.22026596493298667
    - lambda = 0.999999
      case = III
      k_min = 45
      k_max = 54
      coverage = 0.5212660727310686
      margin = -0.42873392726893134
    - lambda = 1.0
      case = III
      k_min = 45
      k_max = 55
      coverage = 0.563430168068505
      margin = -0.38656983193149497
    - lambda = 1.000001
      case = IV
      k_min = 46
      k_max = 55
      coverage = 0.517604109717769
      margin = -0.4323958902822309
    - lambda = 2.0
      case = IV
      k_min = 90
      k_max = 110
      coverage = 0.7065164768589973
      margin = -0.24348352314100263
warnings = []
"""

BOUND_FORCE_TEXT = """\
command = bound
inputs:
  theta = 1.0
  r = 0.5
  side = upper
  exact = False
  force = True
results:
  bound = 0.8577638849607068
  side = upper
  exact = None
warnings:
  - precondition violated for side=upper: the value is the raw formula, not a guaranteed bound on the tail
"""


class TestTextRenderer:
    """Whole text reports, pinned: nested rows and a list of warnings."""

    def test_scan_with_embedded_points(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--n", "50", "--grid-points", "2", "--lambda-min", "0.5", "--lambda-max", "2",
            "--format", "text",
        )
        assert (code, out, err) == (0, f"tool_version = {__version__}\n{SCAN_TEXT}", "")

    def test_forced_bound_lists_its_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--theta", "1", "--r", "0.5", "--side", "upper", "--force",
            "--format", "text",
        )
        assert (code, out, err) == (0, f"tool_version = {__version__}\n{BOUND_FORCE_TEXT}", "")


class TestReportSchema:
    """Key order of every report's inputs, and of the results built from dataclasses."""

    BUDGET = ("--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05")

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["size"], ["eps_a", "eps_r", "delta", "method", "lambda"]),
            (["verify", "--n", "50", "--lambda", "1"],
             ["eps_a", "eps_r", "delta", "n", "lambda", "mc_trials", "seed"]),
            (["scan", "--grid-points", "2"],
             ["eps_a", "eps_r", "delta", "n", "lambda_min", "lambda_max", "grid_points", "out"]),
        ],
        ids=["size", "verify", "scan"],
    )
    def test_budget_command_inputs(self, capsys, argv, keys):
        report = run_json(capsys, *argv, *self.BUDGET)
        assert list(report) == ["tool_version", "command", "inputs", "results", "warnings"]
        assert list(report["inputs"]) == keys

    def test_bound_inputs(self, capsys):
        report = run_json(capsys, "bound", "--theta", "1", "--r", "2", "--side", "upper")
        assert list(report["inputs"]) == ["theta", "r", "side", "exact", "force"]

    @pytest.mark.parametrize("method", ["formula", "exact", "normal"])
    def test_size_results(self, capsys, method):
        report = run_json(capsys, "size", "--method", method, "--lambda", "1", *self.BUDGET)
        assert list(report["results"]) == ["n", "rhs", "critical_exponent", "method"]

    def test_mc_block(self, capsys):
        report = run_json(
            capsys, "verify", "--n", "50", "--lambda", "1", "--mc-trials", "100", *self.BUDGET
        )
        assert list(report["results"]["mc"]) == [
            "trials", "hits", "estimate", "ci_half_width", "generator"
        ]


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    VERIFY = ["verify", "--n", "50", "--lambda", "0.9", "--eps-a", "0.2",
              "--eps-r", "0.3", "--delta", "0.1"]
    SCAN = ["scan", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05",
            "--grid-points", "5", "--lambda-min", "0.5", "--lambda-max", "2"]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_mc_block_does_not_carry_over(self, capsys):
        first = run_json(capsys, *self.VERIFY, "--mc-trials", "1000", "--seed", "2")
        second = run_json(capsys, *self.VERIFY)
        assert first["results"]["mc"]["trials"] == 1000
        assert "mc" not in second["results"]
        assert second["inputs"]["mc_trials"] is None
        assert second["inputs"]["seed"] == 0

    def test_out_does_not_carry_over(self, capsys, tmp_path):
        path = str(tmp_path / "scan.csv")
        first = run_json(capsys, *self.SCAN, "--out", path)
        second = run_json(capsys, *self.SCAN)
        assert first["results"]["csv"] == path and "points" not in first["results"]
        assert second["inputs"]["out"] is None and "csv" not in second["results"]
        assert len(second["results"]["points"]) == second["results"]["rows"]

    def test_parse_error_after_success_exits_2(self, capsys):
        run_json(capsys, *self.VERIFY)
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--n", "50", "--lambda", "0.9"])
        assert excinfo.value.code == 2
        assert "--eps-a" in capsys.readouterr().err
        assert run_json(capsys, *self.VERIFY)["command"] == "verify"

    def test_version_after_success(self, capsys):
        run_json(capsys, *self.VERIFY)
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["--version"])
            assert excinfo.value.code == 0
            assert capsys.readouterr().out.strip() == f"poissonplan {__version__}"


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


    def test_import_leaves_numpy_random_unloaded(self):
        # size, scan and bound never sample; simulate_coverage imports numpy.random.
        import subprocess
        import sys

        code = "import sys, poissonplan.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n")
