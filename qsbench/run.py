"""The qschubert benchmark.

    python3 qsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of table-cold, gw-warm, basis-cold, cli-cache, or `all` for the
four in turn.  Run from the repository root; the package is imported from
src/.  Each repetition runs in a fresh interpreter (rep.py), one at a time:
one client, no worker pools.

--trace 0 measures the end-to-end metrics.  Every repetition of a workload
runs the same fixed list of operations, from the same state, in a fresh
interpreter.  Repetitions follow one another until S seconds have passed, at
least MIN_REPS of them (MIN_REPS_OF for gw-warm); cold workloads add
set-up-only repetitions.  Every
time is scaled to the reference speed of calib.py, by a calibration kernel
run next to it, so that the host's drifting speed drops out.  The
throughput is the operation count over the median, across repetitions, of
the sum of their times; the percentiles are taken over each operation's
median time across repetitions.  The unscaled figures are printed beside the
scaled ones.
--trace 1 runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one's timed phase, with the tracing overhead.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics.  Any wrong or raised result makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".qsbench_work"
sys.path.insert(0, str(HERE))

from workloads import COLD, WORKLOADS  # noqa: E402

MIN_REPS = 3
# gw-warm runs two long repetitions rather than three short ones: its p90_ms
# moves with the seed's query set far more than with the host
MIN_REPS_OF = {"gw-warm": 2}
SETUP_ONLY_REPS = 3
CHILD_TIMEOUT_S = 120
# past MIN_REPS, no repetition is started that would end after BUDGET_S
BUDGET_S = 120

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

# the end-to-end metrics by the names each workload gives them
NAMED = {
    "table-cold": [("table_s", "work_s", "s")],
    "basis-cold": [("basis_s", "work_s", "s")],
    "gw-warm": [("gw_per_s", "ops_per_s", "1/s"), ("gw_p50_ms", "p50_ms", "ms"),
                ("gw_p90_ms", "p90_ms", "ms")],
    "cli-cache": [("cli_req_per_s", "ops_per_s", "1/s"),
                  ("cli_p50_ms", "p50_ms", "ms"), ("cli_p90_ms", "p90_ms", "ms")],
}


class BenchError(Exception):
    """A repetition crashed or printed no result."""


def child(**spec):
    spec.setdefault("trace", False)
    spec["workdir"] = str(WORK)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {spec} timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"repetition {spec} exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile of sorted values."""
    return values[max(0, math.ceil(p / 100 * len(values)) - 1)]


def timings(reps, key, setups):
    """The work time of a repetition is the sum of its operations' times; the
    throughput is the operation count over the median work time.  The
    percentiles are taken over the median, across repetitions, of each
    operation's time: the i-th operation is the same work in every
    repetition."""
    counts = {len(r[key]) for r in reps}
    if len(counts) != 1:
        raise BenchError(f"repetitions ran different numbers of operations: {counts}")
    work_s = statistics.median(sum(r[key]) for r in reps)
    lat = sorted(statistics.median(col) for col in zip(*(r[key] for r in reps)))
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / work_s,
        "p50_ms": percentile(lat, 50) * 1000,
        "p90_ms": percentile(lat, 90) * 1000,
        "work_s": work_s,
    }


def summarize(reps, setups):
    """setups: (scaled, unscaled) set-up times."""
    return {
        **timings(reps, "scaled", [s for s, _ in setups]),
        "unscaled": timings(reps, "latencies", [u for _, u in setups]),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "samples": len(reps[0]["latencies"]),
        "reps": len(reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "messages": [m for r in reps for m in r["messages"]],
    }


def measure(workload, seed, seconds):
    """Repetitions until seconds have passed, at least MIN_REPS (or the
    workload's MIN_REPS_OF); none is started that would, at the pace so
    far, end after seconds."""
    reps = []
    least = MIN_REPS_OF.get(workload, MIN_REPS)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= least and (
            elapsed + elapsed / len(reps) > min(seconds, BUDGET_S)
        ):
            break
        reps.append(child(workload=workload, seed=seed))
    if workload in COLD:
        setups = reps + [child(workload=workload, seed=seed, setup_only=True)
                         for _ in range(SETUP_ONLY_REPS)]
    else:
        setups = reps
    return summarize(reps, [(r["setup_scaled"], r["setup_s"]) for r in setups])


def measure_traced(workload, seed):
    plain = child(workload=workload, seed=seed)
    traced = child(workload=workload, seed=seed, trace=True)
    return (summarize([plain], [(plain["setup_scaled"], plain["setup_s"])]),
            summarize([traced], [(traced["setup_scaled"], traced["setup_s"])]),
            traced["layers"])


def layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat == "self_s":
        return "s"
    if stat == "bytes":
        return "B"
    if stat.endswith("ratio"):
        return "ratio"
    return "count"


def report(workload, summary):
    print(f"{workload}: {summary['reps']} repetitions of {summary['samples']} "
          f"timed operations; scaled to the reference speed (unscaled)")
    for name, key, unit in NAMED[workload] + [("setup_s", "setup_s", "s")]:
        extra = ""
        if key in ("p50_ms", "p90_ms"):
            extra = f"  (n = {summary['samples']})"
        print(f"  {name:<16} {summary[key]:.6g} {unit}  "
              f"({summary['unscaled'][key]:.6g} {unit}){extra}")
    print(f"  {'peak_rss_mb':<16} {summary['peak_rss_mb']:.6g} MB")
    report_errors(summary)


def report_errors(summary, name="error_ratio"):
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 0
    print(f"  {name:<16} {ratio:.6g} ratio  "
          f"({summary['failed']} of {summary['attempted']})")
    for line in summary["messages"]:
        print(f"  failure: {line}")


def result_line(summaries, metrics):
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qschubert" / "__init__.py").is_file():
        print(f"error: no qschubert package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries, metrics = [], {}
    try:
        for workload in names:
            prefix = f"{workload}/" if args.workload == "all" else ""
            if args.trace:
                plain, traced, layers = measure_traced(workload, args.seed)
                print(f"{workload}: untraced, traced, overhead (traced − untraced)")
                for key, unit in UNITS.items():
                    print(f"  {key:<16} {plain[key]:.6g}  {traced[key]:.6g}  "
                          f"{traced[key] - plain[key]:+.6g} {unit}")
                report_errors(plain, "error_ratio, untraced")
                report_errors(traced, "error_ratio, traced")
                layers["trace.overhead_ratio"] = (
                    plain["ops_per_s"] / traced["ops_per_s"] - 1
                )
                summaries += [plain, traced]
                for name, value in layers.items():
                    metrics[prefix + name] = {"value": value, "unit": layer_unit(name)}
            else:
                summary = measure(workload, args.seed, args.seconds)
                report(workload, summary)
                summaries.append(summary)
                for key, unit in UNITS.items():
                    metrics[prefix + key] = {"value": summary[key], "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = result_line(summaries, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
