"""The input contract: every public entry point answers or names the bad argument.

Each public function rejects a non-finite real, and a non-positive value of
a positive argument, with a ParameterError whose ``param`` names that
argument.  The command line turns any input into exit 0 or a diagnostic
with exit 2 that names the offending flag.
"""

import contextlib
import io
import json
import math
import re

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonplan import (
    ErrorBudget,
    ParameterError,
    ResourceLimitError,
    SimConfig,
    case_of,
    chernoff_log_bound,
    chernoff_lower_tail,
    chernoff_upper_tail,
    coverage_window,
    exact_coverage,
    exact_tail,
    formula_sample_size,
    g_exponent,
    is_sufficient,
    lambda_grid,
    min_sample_size_exact,
    normal_approx_sample_size,
    normal_quantile,
    poisson_cdf,
    poisson_pmf,
    scan_coverage,
    tail_bound_abs,
    tail_bound_rel,
)
from poissonplan import cli

B = ErrorBudget(0.1, 0.1, 0.05)
NON_FINITE = [math.inf, -math.inf, math.nan]

# (label, call with the argument under test set to x, expected param)
POSITIVE_ARGS = [
    ("g_exponent.lam", lambda x: g_exponent(0.1, x), "lam"),
    ("chernoff_log_bound.theta", lambda x: chernoff_log_bound(x, 1.0), "theta"),
    ("chernoff_upper_tail.theta", lambda x: chernoff_upper_tail(x, 2.0), "theta"),
    ("chernoff_lower_tail.theta", lambda x: chernoff_lower_tail(x, 0.5), "theta"),
    ("tail_bound_abs.lam", lambda x: tail_bound_abs(10, x, 0.1, "upper"), "lam"),
    ("tail_bound_abs.lam.lower", lambda x: tail_bound_abs(10, x, 0.1, "lower"), "lam"),
    ("tail_bound_abs.epsilon", lambda x: tail_bound_abs(10, 1.0, x, "upper"), "epsilon"),
    ("tail_bound_abs.epsilon.lower", lambda x: tail_bound_abs(10, 1.0, x, "lower"), "epsilon"),
    ("tail_bound_rel.lam", lambda x: tail_bound_rel(10, x, 0.1, "upper"), "lam"),
    ("tail_bound_rel.epsilon", lambda x: tail_bound_rel(10, 1.0, x, "upper"), "epsilon"),
    ("tail_bound_rel.epsilon.lower", lambda x: tail_bound_rel(10, 1.0, x, "lower"), "epsilon"),
    ("ErrorBudget.epsilon_a", lambda x: ErrorBudget(x, 0.1, 0.05), "epsilon_a"),
    ("ErrorBudget.epsilon_r", lambda x: ErrorBudget(0.1, x, 0.05), "epsilon_r"),
    ("ErrorBudget.delta", lambda x: ErrorBudget(0.1, 0.1, x), "delta"),
    ("case_of.lam", lambda x: case_of(x, B), "lam"),
    ("poisson_pmf.theta", lambda x: poisson_pmf(x, 3), "theta"),
    ("poisson_cdf.theta", lambda x: poisson_cdf(x, 3), "theta"),
    ("exact_tail.theta", lambda x: exact_tail(x, 2.0, "geq"), "theta"),
    ("coverage_window.lam", lambda x: coverage_window(10, x, B), "lam"),
    ("exact_coverage.lam", lambda x: exact_coverage(10, x, B), "lam"),
    ("lambda_grid.lam_min", lambda x: lambda_grid(B, x, 2.0, 5), "lam_min"),
    ("lambda_grid.lam_max", lambda x: lambda_grid(B, 0.5, x, 5), "lam_max"),
    ("min_sample_size_exact.grid", lambda x: min_sample_size_exact(B, grid=[1.0, x]), "grid"),
    ("scan_coverage.grid", lambda x: scan_coverage(10, B, [1.0, x]), "lam"),
    ("normal_quantile.p", normal_quantile, "p"),
    ("normal_approx_sample_size.lambda_assumed",
     lambda x: normal_approx_sample_size(x, 0.1, 0.05), "lambda_assumed"),
    ("normal_approx_sample_size.epsilon_a",
     lambda x: normal_approx_sample_size(1.0, x, 0.05), "epsilon_a"),
    ("normal_approx_sample_size.delta",
     lambda x: normal_approx_sample_size(1.0, 0.1, x), "delta"),
    ("SimConfig.lam", lambda x: SimConfig(trials=10, seed=0, n=5, lam=x, budget=B), "lam"),
]

# Arguments whose finite values of either sign are valid (r = 0 included):
# only the non-finite values are rejected.
FINITE_ARGS = [
    ("g_exponent.epsilon", lambda x: g_exponent(x, 1.0), "epsilon"),
    ("chernoff_log_bound.r", lambda x: chernoff_log_bound(1.0, x), "r"),
    ("chernoff_upper_tail.r", lambda x: chernoff_upper_tail(1.0, x), "r"),
    ("chernoff_lower_tail.r", lambda x: chernoff_lower_tail(1.0, x), "r"),
    ("exact_tail.r.geq", lambda x: exact_tail(1.0, x, "geq"), "r"),
    ("exact_tail.r.leq", lambda x: exact_tail(1.0, x, "leq"), "r"),
    ("poisson_pmf.k", lambda x: poisson_pmf(1.0, x), "k"),
    ("poisson_cdf.k", lambda x: poisson_cdf(1.0, x), "k"),
]


def _cases(table, values):
    return [
        pytest.param(call, param, x, id=f"{label}={x!r}")
        for label, call, param in table
        for x in values
    ]


@pytest.mark.parametrize(
    "call, param, x", _cases(POSITIVE_ARGS, NON_FINITE + [0.0, -1.0])
)
def test_positive_argument_rejected_by_name(call, param, x):
    with pytest.raises(ParameterError) as excinfo:
        call(x)
    assert excinfo.value.param == param


@pytest.mark.parametrize("call, param, x", _cases(FINITE_ARGS, NON_FINITE))
def test_non_finite_argument_rejected_by_name(call, param, x):
    with pytest.raises(ParameterError) as excinfo:
        call(x)
    assert excinfo.value.param == param


def test_signed_arguments_keep_their_finite_domain():
    assert chernoff_log_bound(2.0, 0.0) == -2.0
    assert chernoff_lower_tail(2.0, 0.0) == math.exp(-2.0)
    assert g_exponent(-0.5, 1.0) < 0.0
    assert exact_tail(1.0, -1.0, "leq") == 0.0
    assert exact_tail(1.0, -1.0, "geq") == pytest.approx(1.0, abs=1e-15)
    assert poisson_cdf(1.0, -3.0) == 0.0


# Integer arguments past the double range answer with the limit of n*x.
BIG = 10**400
BIG_INTEGER_ROWS = [
    ("is_sufficient", lambda: is_sufficient(BIG, B), True),
    ("tail_bound_abs.upper", lambda: tail_bound_abs(BIG, 1.0, 0.1, "upper"), 0.0),
    ("tail_bound_abs.lower", lambda: tail_bound_abs(BIG, 1.0, 0.1, "lower"), 0.0),
    ("tail_bound_rel.upper", lambda: tail_bound_rel(BIG, 1.0, 0.1, "upper"), 0.0),
    ("tail_bound_rel.lower", lambda: tail_bound_rel(BIG, 1.0, 0.1, "lower"), 0.0),
    # h(1e-300) underflows to -0, so the exponent is -0 and the bound 1.0.
    ("tail_bound_rel.h_underflow", lambda: tail_bound_rel(BIG, 1.0, 1e-300, "upper"), 1.0),
    ("poisson_pmf.k", lambda: poisson_pmf(1.0, 2**1024), 0.0),
    ("poisson_pmf.k.theta_max", lambda: poisson_pmf(1.7976931348623157e308, 2**1024), 0.0),
]


@pytest.mark.parametrize(
    "call, expected", [pytest.param(c, e, id=label) for label, c, e in BIG_INTEGER_ROWS]
)
def test_integer_past_double_range_answers(call, expected):
    assert call() == expected


# delta = 5e-324 is valid, but delta/2 rounds to 0.
HALF_DELTA_ZERO = [
    ("is_sufficient", lambda: is_sufficient(10**6, ErrorBudget(0.1, 0.1, 5e-324))),
    ("formula_sample_size", lambda: formula_sample_size(ErrorBudget(0.1, 0.1, 5e-324))),
    ("normal_approx_sample_size", lambda: normal_approx_sample_size(1.0, 0.1, 5e-324)),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=label) for label, c in HALF_DELTA_ZERO])
def test_delta_halving_to_zero_is_a_resource_limit_naming_delta(call):
    with pytest.raises(ResourceLimitError, match="delta=5e-324"):
        call()


# epsilon_a/epsilon_r past the double range, or h(epsilon_r) not a normal
# double (the last row, where h underflows to 0 but the ratio is 1e300): the
# critical exponent epsilon_a * (h(epsilon_r)/epsilon_r) forms neither, so it
# stays finite and < 0, and so does the rhs ln(2/delta)/-g_c.  The last n is
# mpmath's floor(ln(40)/-g_c) + 1, about 7.38e100.
RATIO_OVERFLOW_BUDGETS = [("1.7e308", "0.5", "0.5", 1), ("1e300", "1e-10", "0.05", 1),
                          ("1e300", "1e-300", "0.05", 8),
                          ("1e100", "1e-200", "0.05", 7.377758908227872e100)]


@pytest.mark.parametrize("eps_a, eps_r, delta, n", RATIO_OVERFLOW_BUDGETS)
def test_size_where_the_tolerance_ratio_overflows(eps_a, eps_r, delta, n):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["size", "--eps-a", eps_a, "--eps-r", eps_r, "--delta", delta])
    assert code == 0, err.getvalue()
    results = json.loads(out.getvalue())["results"]
    with mpmath.workdps(700):  # (1+r)ln(1+r) - r cancels to r^2/2 at r = 1e-300
        a, r = mpmath.mpf(eps_a), mpmath.mpf(eps_r)
        g_c = -(a / r) * ((1 + r) * mpmath.log1p(r) - r)
    assert results["critical_exponent"] == pytest.approx(float(g_c), rel=1e-14, abs=0.0)
    assert results["n"] == pytest.approx(n, rel=1e-14, abs=0.0)


EXTREMES = [5e-324, 1e-300, 1e-10, 0.5, 1.0, 1e10, 1e300, 1.7e308]


@pytest.mark.parametrize("a", EXTREMES)
@pytest.mark.parametrize("b", EXTREMES)
def test_bounds_never_nan_at_extreme_finite_inputs(a, b):
    # A ratio b/a beyond the double range either way takes the direct form
    # of the exponent instead of h(), whose product would overflow or be nan.
    values = [chernoff_log_bound(a, b), g_exponent(b, a), tail_bound_abs(3, a, b, "upper")]
    values += [tail_bound_rel(10**9, a, b, "upper")]
    if b > a:
        values += [chernoff_upper_tail(a, b), g_exponent(-a * 0.5, a)]
    if b < 1.0:
        values += [tail_bound_rel(10**9, a, b, "lower")]
    assert not any(math.isnan(v) for v in values)
    assert g_exponent(b, a) <= 0.0


@pytest.mark.parametrize("lam, eps", [(1e-300, 1e300), (1e-10, 1e296)])
def test_exponent_finite_where_h_product_overflows(lam, eps):
    # eps/lam past 1e300: g = eps + (lam+eps) ln(lam/(lam+eps)) ~ eps (1 - ln(eps/lam)).
    expected = eps * (1.0 - (math.log(eps) - math.log(lam)))
    assert g_exponent(eps, lam) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert chernoff_log_bound(lam, eps) == pytest.approx(expected, rel=1e-14, abs=0.0)


# Command-line fuzz: every float flag takes each of these values.
FLOATS = ["inf", "-inf", "nan", "0", "-0", "1e-300", "1e300", "-1", "0.05", "0.5", "1", "3"]
_FLAGGED = re.compile(r"^poissonplan \w+: error: (--[\w-]+): ")


@st.composite
def _argv(draw):
    def flt(flag):
        return f"{flag}={draw(st.sampled_from(FLOATS))}"

    budget = [flt("--eps-a"), flt("--eps-r"), flt("--delta")]
    small_n = f"--n={draw(st.integers(1, 50))}"
    command = draw(st.sampled_from(["size", "normal", "verify", "scan", "bound"]))
    if command == "size":
        return ["size"] + budget
    if command == "normal":
        return ["size", "--method", "normal", flt("--lambda")] + budget
    if command == "verify":
        argv = ["verify", small_n, flt("--lambda")] + budget
        return argv + (["--mc-trials=100"] if draw(st.booleans()) else [])
    if command == "scan":
        argv = ["scan", small_n, f"--grid-points={draw(st.integers(1, 3))}"] + budget
        return argv + [flt(f) for f in ("--lambda-min", "--lambda-max") if draw(st.booleans())]
    argv = ["bound", flt("--theta"), flt("--r"), "--side", draw(st.sampled_from(["upper", "lower"]))]
    return argv + [f for f in ("--exact", "--force") if draw(st.booleans())]


@given(argv=_argv())
# Default grid ends outside the double range, which random draws seldom reach.
@example(argv=["size", "--method", "exact", "--eps-a=1e300", "--eps-r=1e-300", "--delta=0.05"])
@example(argv=["scan", "--n=1", "--eps-a=5e-324", "--eps-r=0.5", "--delta=0.05"])
@example(argv=["scan", "--n=1", "--eps-a=1e300", "--eps-r=1e-300", "--delta=0.05"])
@settings(max_examples=300, deadline=None)
def test_cli_exits_0_or_2_naming_the_flag(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    message = err.getvalue()
    assert code in (0, 2), (argv, message)
    assert "Traceback" not in message
    flagged = _FLAGGED.match(message)
    if code == 2 and flagged:
        # The named flag is one the caller passed.
        flag = flagged.group(1)
        assert any(arg == flag or arg.startswith(flag + "=") for arg in argv), (argv, message)
    if code == 2 and not flagged:
        # Not a flagged ParameterError, so it must be a resource limit.
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(ResourceLimitError):
            args.handler(args, {})
