"""End-to-end benchmark of the poissonplan CLI.

Run from the root of a checkout:

    python3 benchmark/run.py --workload plan-exact --seed 1 --seconds 20 --trace 0

One client in one fresh worker process calls ``poissonplan.cli.main(argv)``
in a closed loop, one op after another, with argv lists generated from
``--seed`` (workloads.py).  Every reply is checked against independent
references (checks.py).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it replays a fixed op list with spans around the
package's public functions and reports the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics; the line
before it records the machine, the versions and every op's PLAN_THREADS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Fresh interpreters timed per run, half before and half after the ops, so
# that one fast or slow spell of a shared machine does not set them all;
# setup_s takes their median.
IMPORT_SAMPLES = 12
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops above it

# Distinct ops generated per second of --seconds for an untraced run.  On a
# 2-CPU machine, plan-exact and verify-mc run about half their list, so each
# op runs once.  scan-wide ops are cheap: its list starts over about six
# times, and an op's latency is the median of its repeats, so that a short
# slow spell of a shared machine does not set op_tail_ms.
GENERATED_OPS_PER_S = {"plan-exact": 8, "verify-mc": 10, "scan-wide": 5}
# Ops per second of --seconds in a traced run: a fixed list, so counts repeat
# exactly; sized so that both passes together take about --seconds.
TRACE_OPS_PER_S = {"plan-exact": 1.3, "verify-mc": 2.3, "scan-wide": 14.0}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.main.self_ms_per_call": "ms",
    "plan.min_sample_size_exact.self_s": "s",
    "plan.evals_per_search": "count",
    "plan.n_tried_per_search": "count",
    "plan.scan_coverage.t1_ms_per_point": "ms",
    "plan.scan_coverage.tN_ms_per_point": "ms",
    "exact.coverage_window.calls": "count",
    "exact.coverage_window.busy_s": "s",
    "exact.exact_coverage.calls": "count",
    "exact.exact_coverage.self_s": "s",
    "exact.poisson_pmf.calls": "count",
    "exact.exact_tail.calls": "count",
    "exact.exact_tail.busy_s": "s",
    "bounds.chernoff_log_bound.calls": "count",
    "simulate.simulate_coverage.self_s": "s",
    "simulate.low_theta.trials_per_s": "1/s",
    "simulate.high_theta.trials_per_s": "1/s",
    "simulate.t1.trials_per_s": "1/s",
    "simulate.tN.trials_per_s": "1/s",
    "simulate.tN.cpu_per_wall": "ratio",
    "cli.self_share": "ratio",
    "plan.self_share": "ratio",
    "exact.self_share": "ratio",
    "bounds.self_share": "ratio",
    "simulate.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "edge.failed_probes": "count",
}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """Machine-wide CPU time counters (user .. steal) from /proc/stat; None where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two cpu_ticks()."""
    if before is None or after is None:
        return None
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / sum(spent) if sum(spent) else 0.0


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PLAN_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(env: dict) -> float:
    """Time to import poissonplan.cli in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import poissonplan.cli; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"cannot import poissonplan.cli: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def run_worker(request: dict, env: dict) -> dict:
    tmp = ROOT / workloads.TMP_DIR
    tmp.mkdir(exist_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(request),
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def op_latencies(records: list, distinct: int) -> list:
    """Each distinct op's median wall time over its repeats in the run."""
    walls = [[] for _ in range(min(distinct, len(records)))]
    for i, rec in enumerate(records):
        walls[i % distinct].append(rec["wall"])
    return [statistics.median(w) for w in walls]


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND  # ops at or below the value
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "poissonplan" / "cli.py").is_file():
        fail(f"no poissonplan sources under {SRC}; run from the root of a checkout")

    env = program_env()
    cpus = nproc()
    imports = []
    if not args.trace:
        import_seconds(env)  # untimed: writes bytecode caches and warms the file cache
        imports += [import_seconds(env) for _ in range(IMPORT_SAMPLES // 2)]
    t0 = time.perf_counter()
    if args.trace:
        count = max(workloads.MIN_OPS, round(args.seconds * TRACE_OPS_PER_S[args.workload]))
    else:
        count = max(workloads.MIN_OPS, math.ceil(args.seconds * GENERATED_OPS_PER_S[args.workload]))
    ops = workloads.generate(args.workload, args.seed, count, cpus)
    generate_s = time.perf_counter() - t0

    ticks = cpu_ticks()
    result = run_worker({"ops": ops, "seconds": args.seconds, "trace": args.trace,
                         "edge": list(workloads.EDGE_PROBES)}, env)
    steal = steal_share(ticks, cpu_ticks())
    if not args.trace:
        imports += [import_seconds(env) for _ in range(IMPORT_SAMPLES - len(imports))]
    if Path(result["package"]).resolve() != (SRC / "poissonplan").resolve():
        fail(f"imported poissonplan from {result['package']}, not from {SRC}")

    records = result["records"]
    failures = []
    for i, rec in enumerate(records):
        op = ops[i % len(ops)]
        reason = rec.get("error") or checks.check(op, rec["out"])
        if reason:
            failures.append({"op": i, "argv": op["argv"], "rc": rec["rc"], "reason": reason})
    attempted, failed = len(records), len(failures)
    edge = [{"argv": argv, "rc": probe["rc"], "error": probe["error"]}
            for argv, probe in zip(workloads.EDGE_PROBES, result["edge"])]

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": cpus, "python": sys.version.split()[0],
        "numpy": result["numpy"], "git_sha": git_sha(), "steal_share": steal, "ops": attempted,
        "fail_frac": failed / attempted, "failures": failures[:20], "edge_probes": edge,
        "plan_threads": [ops[i % len(ops)]["threads"] for i in range(attempted)],
    }
    if args.trace:
        values = dict(result["layers"])
        values["edge.failed_probes"] = sum(1 for probe in edge if probe["rc"] != 0)
        info["missing_targets"] = result["missing"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        walls = [rec["wall"] for rec in records]
        latencies = op_latencies(records, len(ops))
        tail_s, tail_pct = tail(latencies)
        setup_s = statistics.median(imports) + generate_s
        values = {
            "ops_per_s": attempted / sum(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "cpu_per_op_ms": 1e3 * sum(rec["cpu"] for rec in records) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s,
        }
        info.update(op_tail_percentile=tail_pct, import_s=imports, generate_s=generate_s,
                    measured_s=sum(walls), distinct_ops=len(latencies),
                    repeats_per_op=[attempted // len(latencies), -(-attempted // len(latencies))])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for name, metric in metrics.items():
        print(f"{name:38s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_frac':38s} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({"record": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
