"""Command-line front end: size, verify, scan, and bound subcommands.

Reports are JSON by default (text with --format text).  By construction,
``inputs`` echo every parsed flag except --format, in declaration order
(--lambda as ``lambda``; scan overwrites the n and grid ends it resolves),
so a report is sufficient to reproduce itself; ``size`` results and the
``mc`` block are the fields of PlanResult and SimResult.  One rule writes
every float, in JSON, text and the scan CSV alike: its shortest round-trip
repr (``json.dumps`` for the report), so parsing a report recovers every
value bit-exactly.  A non-finite value is refused in every format.

Exit codes: 0 success, 2 usage/parameter error or resource limit, 3 internal
numeric failure (including a non-finite report value), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import __version__
from .bounds import chernoff_log_bound
from .budget import ErrorBudget
from .errors import ParameterError, ResourceLimitError
from .exact import exact_coverage, exact_tail
from .plan import (
    _default_range,
    formula_sample_size,
    lambda_grid,
    min_sample_size_exact,
    normal_approx_sample_size,
    scan_coverage,
)
from .simulate import SimConfig, simulate_coverage

_FLAG_OF = {
    "epsilon_a": "--eps-a",
    "epsilon_r": "--eps-r",
    "delta": "--delta",
    "lam": "--lambda",
    "lambda_assumed": "--lambda",
    "lam_min": "--lambda-min",
    "lam_max": "--lambda-max",
    "points": "--grid-points",
    "n": "--n",
    "trials": "--mc-trials",
    "seed": "--seed",
    "theta": "--theta",
    "r": "--r",
    "side": "--side",
}


def _render_text(obj, indent: str = "") -> str:
    """Human-oriented rendering; not schema-stable."""
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list, tuple)) and value:
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key} = {value}")
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            if isinstance(value, (dict, list, tuple)) and value:
                item = _render_text(value, indent + "  ")  # its first line marks the item
                lines.append(f"{indent}- {item[len(indent) + 2:]}")
            else:
                lines.append(f"{indent}- {value}")
    return "\n".join(line for line in lines if line)


def _cmd_size(args, inputs: dict) -> tuple:
    budget = ErrorBudget(args.eps_a, args.eps_r, args.delta)
    if args.method == "normal":
        if args.lam is None:
            raise ParameterError("lam", "--lambda is required for --method normal")
        res = normal_approx_sample_size(args.lam, args.eps_a, args.delta)
    elif args.method == "exact":
        res = min_sample_size_exact(budget)
    else:
        res = formula_sample_size(budget)
    return dataclasses.asdict(res), []


def _cmd_verify(args, inputs: dict) -> tuple:
    budget = ErrorBudget(args.eps_a, args.eps_r, args.delta)
    point = exact_coverage(args.n, args.lam, budget)
    threshold = 1.0 - budget.delta
    results = {
        "coverage": point.coverage,
        "k_min": point.k_min,
        "k_max": point.k_max,
        "case": point.case.value,
        "threshold": threshold,
        "margin": point.coverage - threshold,
        "pass": point.coverage >= threshold,
    }
    if args.mc_trials is not None:
        sim = simulate_coverage(
            SimConfig(trials=args.mc_trials, seed=args.seed, n=args.n, lam=args.lam, budget=budget)
        )
        results["mc"] = dataclasses.asdict(sim)
    return results, []


def _cmd_scan(args, inputs: dict) -> tuple:
    budget = ErrorBudget(args.eps_a, args.eps_r, args.delta)
    n = args.n if args.n is not None else formula_sample_size(budget).n
    lam_min, lam_max = _default_range(budget, args.lambda_min, args.lambda_max)
    inputs.update(n=n, lambda_min=lam_min, lambda_max=lam_max)
    grid = lambda_grid(budget, lam_min, lam_max, args.grid_points)
    coverage_points = scan_coverage(n, budget, grid)
    threshold = 1.0 - budget.delta
    rows = [
        {
            "lambda": p.lam,
            "case": p.case.value,
            "k_min": p.k_min,
            "k_max": p.k_max,
            "coverage": p.coverage,
            "margin": p.coverage - threshold,
        }
        for p in coverage_points
    ]
    worst = min(rows, key=lambda row: row["margin"])
    results = {
        "n": n,
        "rows": len(rows),
        "worst_lambda": worst["lambda"],
        "min_margin": worst["margin"],
        "all_pass": worst["margin"] >= 0.0,
    }
    if args.out is not None:
        _write_scan_csv(args.out, rows)
        results["csv"] = args.out
    else:
        results["points"] = rows
    return results, []


def _write_scan_csv(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("lambda,case,k_min,k_max,coverage,margin\n")
        for row in rows:
            lam, coverage, margin = row["lambda"], row["coverage"], row["margin"]
            if not all(map(math.isfinite, (lam, coverage, margin))):
                raise ArithmeticError(f"non-finite value in report row: {row!r}")
            handle.write(
                f"{lam!r},{row['case']},{row['k_min']},{row['k_max']},{coverage!r},{margin!r}\n"
            )


def _cmd_bound(args, inputs: dict) -> tuple:
    theta, r, side = args.theta, args.r, args.side
    log_bound = chernoff_log_bound(theta, r)  # checks theta, then r, before the side
    upper = side == "upper"
    warnings = []
    if not (r > theta if upper else r < theta):
        if not args.force:
            raise ParameterError(
                "r",
                f"the {side}-tail bound requires r {'>' if upper else '<'} theta "
                f"(got r={r!r}, theta={theta!r}); pass --force to evaluate the raw formula anyway",
            )
        warnings.append(
            f"precondition violated for side={side}: the value is the raw formula, "
            "not a guaranteed bound on the tail"
        )
    exact = exact_tail(theta, r, "geq" if upper else "leq") if args.exact else None
    return {"bound": math.exp(log_bound), "side": side, "exact": exact}, warnings


@functools.lru_cache(maxsize=None)  # parse_args leaves it unchanged, so every main call shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonplan",
        description="Rigorous sample sizes for estimating a Poisson mean under a "
        "mixed absolute/relative error criterion, with exact and Monte Carlo "
        "verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--eps-a", dest="eps_a", type=float, required=True,
                       help="absolute tolerance (> 0)")
        p.add_argument("--eps-r", dest="eps_r", type=float, required=True,
                       help="relative tolerance in (0, 1)")
        p.add_argument("--delta", type=float, required=True,
                       help="allowed failure probability in (0, 1)")

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format (JSON is schema-stable)")

    p_size = sub.add_parser("size", help="compute a sample size")
    add_budget(p_size)
    p_size.add_argument("--method", choices=("formula", "exact", "normal"),
                        default="formula",
                        help="closed form (default), exact grid search, or normal baseline")
    p_size.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="assumed mean (required for --method normal)")
    add_format(p_size)
    p_size.set_defaults(handler=_cmd_size)

    p_verify = sub.add_parser("verify", help="exact (and optionally Monte Carlo) coverage at one mean")
    add_budget(p_verify)
    p_verify.add_argument("--n", type=int, required=True, help="sample size to verify")
    p_verify.add_argument("--lambda", dest="lam", type=float, required=True,
                          help="true mean to verify at")
    p_verify.add_argument("--mc-trials", dest="mc_trials", type=int, default=None,
                          help="also run a Monte Carlo check with this many trials")
    p_verify.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_scan = sub.add_parser("scan", help="exact coverage over a grid of means")
    add_budget(p_scan)
    p_scan.add_argument("--n", type=int, default=None,
                        help="sample size (default: the closed-form n)")
    p_scan.add_argument("--lambda-min", dest="lambda_min", type=float, default=None,
                        help="grid lower end (default eps_a/100)")
    p_scan.add_argument("--lambda-max", dest="lambda_max", type=float, default=None,
                        help="grid upper end (default 100*eps_a/eps_r)")
    p_scan.add_argument("--grid-points", dest="grid_points", type=int, default=200,
                        help="log-spaced grid size (boundary points are added)")
    p_scan.add_argument("--out", default=None, help="write per-mean rows to this CSV file")
    add_format(p_scan)
    p_scan.set_defaults(handler=_cmd_scan)

    p_bound = sub.add_parser("bound", help="Chernoff tail bound for one Poisson tail")
    p_bound.add_argument("--theta", type=float, required=True, help="Poisson mean (> 0)")
    p_bound.add_argument("--r", type=float, required=True, help="tail threshold (>= 0)")
    p_bound.add_argument("--side", choices=("upper", "lower"), required=True)
    p_bound.add_argument("--exact", action="store_true",
                         help="also compute the exact tail probability")
    p_bound.add_argument("--force", action="store_true",
                         help="evaluate the raw formula even when the side precondition fails")
    add_format(p_bound)
    p_bound.set_defaults(handler=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    inputs = {("lambda" if key == "lam" else key): value for key, value in vars(args).items()
              if key not in ("command", "handler", "format")}
    try:
        results, warnings = args.handler(args, inputs)
        envelope = {"tool_version": __version__, "command": args.command, "inputs": inputs,
                    "results": results, "warnings": warnings}
        try:  # also the finiteness check for every format
            report = json.dumps(envelope, allow_nan=False)
        except ValueError as exc:
            raise ArithmeticError(f"non-finite value in report ({exc})") from None
        print(_render_text(envelope) if args.format == "text" else report)
    except (ParameterError, ResourceLimitError) as exc:
        flag = f"{_FLAG_OF.get(exc.param, exc.param)}: " if exc.param else ""
        print(f"poissonplan {args.command}: error: {flag}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"poissonplan {args.command}: i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # numeric or internal failure
        print(f"poissonplan {args.command}: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
