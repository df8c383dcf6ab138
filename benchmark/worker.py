"""Closed-loop client: one process calls ``poissonplan.cli.main(argv)`` per op.

Reads a request (JSON on stdin) from run.py, runs its ops one after another
with stdout captured, and writes one JSON result to stdout.  The program
sees only each op's argv and its PLAN_THREADS.  Reports are parsed after
each op, outside its timing, into the few fields checks.py needs.

Untraced mode runs ops until ``seconds`` of op time have passed (at least
MIN_OPS ops), starting the list over if it runs out.  Traced mode runs all
its ops untraced, then again with spans (tracer.py) around the package's
public functions, and reports per-layer totals for the traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import numpy
from poissonplan import cli, exact, plan, simulate

from tracer import Tracer, delta
from workloads import MIN_OPS

SCAN_SAMPLE = 4  # rows per scan report compared with the reference
LOW_THETA = 30.0  # the simulator's switch between its two samplers

# (label, modules that look the name up, name, options).  A label names the
# module that defines the function; each module listed imports it by name.
TARGETS = (
    ("plan.min_sample_size_exact", ("cli",), "min_sample_size_exact", {}),
    ("plan.scan_coverage", ("cli",), "scan_coverage", {}),
    ("simulate.simulate_coverage", ("cli",), "simulate_coverage", {"cpu": True}),
    ("exact.exact_coverage", ("cli", "plan"), "exact_coverage", {"first_arg": True}),
    ("exact.exact_tail", ("cli",), "exact_tail", {}),
    ("exact.coverage_window", ("exact", "simulate"), "coverage_window", {}),
    ("exact.poisson_pmf", ("exact",), "poisson_pmf", {}),
    ("bounds.chernoff_log_bound", ("exact",), "chernoff_log_bound", {}),
)
LAYERS = ("cli", "plan", "exact", "bounds", "simulate")


def run_op(main, op: dict) -> dict:
    """One closed-loop call; a nonzero exit or an escaping exception fails it."""
    os.environ["PLAN_THREADS"] = str(op["threads"])
    out, err = io.StringIO(), io.StringIO()
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # escaped main: record it as this op's failure
        rc, error = None, f"{type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    return {
        "rc": rc,
        "wall": t1 - t0,
        "cpu": c1 - c0,
        "stdout": out.getvalue(),
        "error": error or err.getvalue().strip()[-300:],
    }


def _scan_rows(results: dict) -> list:
    """(lambda, k_min, k_max, coverage) per grid mean, from the CSV or the report."""
    if "csv" not in results:
        return [(p["lambda"], p["k_min"], p["k_max"], p["coverage"]) for p in results["points"]]
    with open(results["csv"], encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    os.remove(results["csv"])
    if lines[0] != "lambda,case,k_min,k_max,coverage,margin":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        lam, _, k_min, k_max, cov, _ = line.split(",")
        rows.append((float(lam), int(k_min), int(k_max), float(cov)))
    return rows


def extract(op: dict, stdout: str) -> dict:
    """The fields of a report that checks.py compares with the reference."""
    results = json.loads(stdout)["results"]
    kind = op["kind"]
    if kind == "size":
        return {"n": results["n"]}
    if kind == "bound":
        return {"bound": results["bound"], "exact": results["exact"]}
    if kind in ("verify", "verify_mc"):
        keep = ("coverage", "k_min", "k_max", "pass", "mc")
        return {key: results.get(key) for key in keep}
    rows = _scan_rows(results)
    picks = random.Random(op["sample_seed"]).sample(range(len(rows)), min(SCAN_SAMPLE, len(rows)))
    return {
        "n": results["n"],
        "rows": results["rows"],
        "listed": len(rows),
        "all_pass": results["all_pass"],
        "min_margin": results["min_margin"],
        "sample": [rows[i] for i in sorted(picks)],
    }


def record(op: dict, run: dict) -> dict:
    rec = {"rc": run["rc"], "wall": run["wall"], "cpu": run["cpu"],
           "digest": hashlib.sha256(run["stdout"].encode()).hexdigest()}
    if run["rc"] != 0:
        rec["error"] = run["error"] or f"exit code {run['rc']}"
        return rec
    try:
        rec["out"] = extract(op, run["stdout"])
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        rec["error"] = f"unreadable report: {type(exc).__name__}: {exc}"
    return rec


def closed_loop(main, ops: list, seconds) -> list:
    """Run ops in order, starting over at the end, until ``seconds`` of op time.

    With ``seconds`` None, run each op once.
    """
    if seconds is None:
        return [record(op, run_op(main, op)) for op in ops]
    records, busy = [], 0.0
    while busy < seconds or len(records) < MIN_OPS:
        op = ops[len(records) % len(ops)]
        rec = record(op, run_op(main, op))
        records.append(rec)
        busy += rec["wall"]
    return records


def traced_pass(ops: list):
    """Run ops with spans installed; return the records and per-layer metrics."""
    modules = {"cli": cli, "plan": plan, "exact": exact, "simulate": simulate}
    tracer = Tracer()
    undo = []
    for label, names, attr, options in TARGETS:
        undo += tracer.install(label, [modules[m] for m in names], attr, **options)
    main = tracer.wrap("cli.main", cli.main)
    records, per_op = [], []
    try:
        for op in ops:
            tracer.first_args.clear()
            before = tracer.snapshot()
            rec = record(op, run_op(main, op))
            after = tracer.snapshot()
            records.append(rec)
            per_op.append({
                "n_tried": len(tracer.first_args),
                "evals": delta(after, before, "exact.exact_coverage", "calls"),
                "scan_busy": delta(after, before, "plan.scan_coverage", "busy"),
                "sim_busy": delta(after, before, "simulate.simulate_coverage", "busy"),
                "sim_cpu": delta(after, before, "simulate.simulate_coverage", "cpu"),
            })
    finally:
        for module, attr, original in undo:
            setattr(module, attr, original)
    return records, layer_metrics(tracer, ops, records, per_op), tracer.missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: list, records: list, per_op: list) -> dict:
    """Per-layer totals over the traced pass; 0 where a workload has no such call."""
    st = tracer.stats
    sums: dict = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0.0) + value

    for op, rec, d in zip(ops, records, per_op):
        tn = "t1" if op["threads"] == 1 else "tN"
        if op["kind"] == "size":
            add("searches", 1)
            add("evals", d["evals"])
            add("n_tried", d["n_tried"])
        elif op["kind"] == "scan" and "out" in rec:
            add(f"scan_{tn}_busy", d["scan_busy"])
            add(f"scan_{tn}_points", rec["out"]["rows"])
        elif op["kind"] == "verify_mc":
            theta = "low_theta" if op["theta"] <= LOW_THETA else "high_theta"
            for group in (theta, tn):
                add(f"{group}_trials", op["trials"])
                add(f"{group}_busy", d["sim_busy"])
            add(f"{tn}_cpu", d["sim_cpu"])

    metrics = {
        "cli.main.self_ms_per_call": 1e3 * _ratio(st["cli.main"].self, st["cli.main"].calls),
        "plan.min_sample_size_exact.self_s": st["plan.min_sample_size_exact"].self,
        "plan.evals_per_search": _ratio(sums.get("evals", 0), sums.get("searches", 0)),
        "plan.n_tried_per_search": _ratio(sums.get("n_tried", 0), sums.get("searches", 0)),
        "plan.scan_coverage.t1_ms_per_point":
            1e3 * _ratio(sums.get("scan_t1_busy", 0), sums.get("scan_t1_points", 0)),
        "plan.scan_coverage.tN_ms_per_point":
            1e3 * _ratio(sums.get("scan_tN_busy", 0), sums.get("scan_tN_points", 0)),
        "exact.coverage_window.calls": st["exact.coverage_window"].calls,
        "exact.coverage_window.busy_s": st["exact.coverage_window"].busy,
        "exact.exact_coverage.calls": st["exact.exact_coverage"].calls,
        "exact.exact_coverage.self_s": st["exact.exact_coverage"].self,
        "exact.poisson_pmf.calls": st["exact.poisson_pmf"].calls,
        "exact.exact_tail.calls": st["exact.exact_tail"].calls,
        "exact.exact_tail.busy_s": st["exact.exact_tail"].busy,
        "bounds.chernoff_log_bound.calls": st["bounds.chernoff_log_bound"].calls,
        "simulate.simulate_coverage.self_s": st["simulate.simulate_coverage"].self,
    }
    for group in ("low_theta", "high_theta", "t1", "tN"):
        metrics[f"simulate.{group}.trials_per_s"] = _ratio(
            sums.get(f"{group}_trials", 0), sums.get(f"{group}_busy", 0))
    metrics["simulate.tN.cpu_per_wall"] = _ratio(sums.get("tN_cpu", 0), sums.get("tN_busy", 0))
    # Self times partition the busy time of every thread, pool threads included.
    busy = sum(s.self for s in st.values())
    for layer in LAYERS:
        spent = sum(s.self for label, s in st.items() if label.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = _ratio(spent, busy)
    return metrics


def main() -> None:
    request = json.load(sys.stdin)
    ops = request["ops"]
    # Untimed warm-up: the first call pays one-off costs no later op pays.
    run_op(cli.main, {"argv": ["size", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"],
                      "threads": 1})
    records = closed_loop(cli.main, ops, None if request["trace"] else request["seconds"])
    result = {
        "package": os.path.dirname(cli.__file__),
        "numpy": numpy.__version__,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if request["trace"]:
        traced, metrics, missing = traced_pass(ops)
        for rec, again in zip(records, traced):
            if again["digest"] != rec["digest"] and "error" not in rec:
                rec["error"] = "report differs between the untraced and the traced pass"
        metrics["trace.overhead_ratio"] = _ratio(
            sum(r["wall"] for r in traced), sum(r["wall"] for r in records))
        result.update(layers=metrics, missing=missing)
    result["edge"] = [run_op(cli.main, {"argv": argv, "threads": 1}) for argv in request["edge"]]
    for probe in result["edge"]:
        del probe["stdout"]
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
