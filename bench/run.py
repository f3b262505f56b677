"""Benchmark entry point.

    python3 bench/run.py --workload {verify-field,verify-witt,spans}
                         [--seed N] [--seconds S] [--trace {0,1}]

Runs one workload as a closed loop with one client and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json untraced (``--trace 0``), the per-layer metrics traced
(``--trace 1``).  Human-readable lines above it give the error rate, the
median and tail op latency with the percentile used and the sample count
and, when traced, the spans with the most self time.

Inputs, a details file and the trace are written under
``.bench_work/<workload>/`` in the current directory.  Every op clears the
ring cache first, so each one pays ring construction the way a fresh CLI
call does, and is checked by the oracle in ``workloads.py`` outside its
timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify-field", "verify-witt", "spans")
MIN_SAMPLES = 24      # enough samples for the tail percentile to sit above p50
OP_CAP_S = 40.0       # an op running longer than this fails
RUN_CAP_S = 120.0     # ops not started by then fail without running
TAIL_BEYOND = 10      # the tail percentile keeps this many samples above it


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def passes_for(workload: str, seconds: int, n_ops: int) -> int:
    """Passes sized from --seconds by the workload's nominal pass cost, and
    at least enough for MIN_SAMPLES op latencies."""
    return max(math.ceil(MIN_SAMPLES / n_ops),
               round(seconds / workloads.NOMINAL_PASS_S[workload]))


def run_ops(make_ops, seed, passes_of, workdir, expected, tracer=None):
    """The closed loop: ``passes_of(number of ops)`` passes over the ops,
    each in a seeded order.  Before every pass and after the last one the
    engine is imported afresh and ``make_ops(engine)`` writes the inputs
    again; these set-up times are spread over the run, so their median does
    not hang on the machine's speed at one moment.  Returns (one record per
    op run, set-up times)."""
    rng = random.Random(seed)
    records, setup_times = [], []

    def fresh_setup():
        t0 = time.perf_counter()
        E = workloads.load_engine()
        ops = make_ops(E)
        setup_times.append(time.perf_counter() - t0)
        return E, ops

    t_start = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    E, ops = fresh_setup()
    for _ in range(passes_of(len(ops))):
        ring_make = E["rings"].ring_make    # the cached original, never traced
        main, pipeline = E["cli"].main, workloads.run_spans
        if tracer is not None:
            tracer.install()
            main = tracer.wrap("cli.main", main)
            pipeline = tracer.wrap("api.pipeline", pipeline)
        try:
            for i in rng.sample(range(len(ops)), len(ops)):
                records.append(run_op(E, ring_make, main, pipeline, ops[i], seed,
                                      time.perf_counter() - t_start > RUN_CAP_S,
                                      workdir, expected, tracer, len(records)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        E, ops = fresh_setup()
    return records, setup_times


def run_op(E, ring_make, main, pipeline, op, seed, too_late, workdir, expected,
           tracer, index):
    """Time one op and check its output; returns its record."""
    rec = {"label": op.label, "seconds": None, "problems": [], "digest": None}
    if too_late:
        rec["problems"].append("not started: run cap reached")
        return rec
    ring_make.cache_clear()
    gc.collect()
    if tracer is not None:
        tracer.op = index
        tracer.active = True
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = time.perf_counter()
    try:
        if op.argv is not None:
            result = workloads.run_cli(main, op.argv, workdir)
        else:
            result = pipeline(E, op.text)
    except OpTimeout:
        error = "ran past the %.0f s cap" % OP_CAP_S
    except Exception as e:  # an op that raises is a failed op
        error = "%s: %s" % (type(e).__name__, e)
    finally:
        rec["seconds"] = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        tracer.active = False
        rec["ring_builds"] = ring_make.cache_info().misses
    if error is not None:
        rec["problems"].append(error)
    elif op.argv is not None:
        problems, rec["digest"] = workloads.check_cli(op, *result, expected)
        rec["problems"].extend(problems)
    else:
        problems, rec["digest"] = workloads.check_spans(E, op, result, expected, seed)
        rec["problems"].extend(problems)
    return rec


def tail_percentile(latencies):
    """(percentile, value): the highest whole percentile whose nearest-rank
    value still has TAIL_BEYOND samples above it; the maximum when there
    are too few samples for that."""
    n = len(latencies)
    xs = sorted(latencies)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1]
    return 100, xs[-1]


def throughput(records) -> float:
    """Correct ops per second of timed op wall time."""
    busy = sum(r["seconds"] for r in records if r["seconds"] is not None)
    return sum(1 for r in records if not r["problems"]) / busy


def measure(make_ops, seed, passes_of, workdir, expected, trace=False, out=print):
    """Run ``passes_of(number of ops)`` passes over the ops that
    ``make_ops(engine)`` returns; returns (result object, details).  Lines
    for a human reader go to ``out``."""
    tracer = tracing.Tracer() if trace else None
    records, setup_times = run_ops(make_ops, seed, passes_of, workdir, expected, tracer)
    passes = len(records) // len(set(r["label"] for r in records))
    setup_s = statistics.median(setup_times)

    failed = sum(1 for r in records if r["problems"])
    for r in records:
        if r["problems"]:
            out("FAIL %s: %s" % (r["label"], "; ".join(r["problems"])))
    timed = [r["seconds"] for r in records if r["seconds"] is not None]
    ops_per_s = throughput(records)
    out("%d passes, %d ops, %d failed, error_rate %.4f, %.2f s timed"
        % (passes, len(records), failed, failed / len(records), sum(timed)))
    details = {"seed": seed, "passes": passes, "trace": int(trace),
               "setup_times": setup_times, "records": records}
    if tracer is None:
        # The latency percentiles are printed and kept in the details file,
        # but are not BENCHMARK.json metrics: each is the latency of one or
        # two ops, and on the 2-core VM they were measured on, their spread
        # between runs reached the largest bound the benchmark may set.
        pct, tail = tail_percentile(timed)
        details.update(op_p50_s=statistics.median_low(timed), op_tail_s=tail,
                       op_tail_pct=pct)
        out("op_p50_s %.4f s: median of %d op latencies" % (details["op_p50_s"], len(timed)))
        out("op_tail_s %.4f s: p%d of %d op latencies (%d above it)"
            % (tail, pct, len(timed), sum(1 for x in timed if x > tail)))
        metrics = {
            "ops_per_s": (ops_per_s, "ops/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        builds = sum(r["ring_builds"] for r in records if "ring_builds" in r)
        metrics = tracing.per_layer_metrics(tracer.spans, len(records), builds,
                                            ops_per_s)
        stats = tracing.layer_stats(tracer.spans)
        out("self time by span, of %.2f s traced:" % sum(timed))
        for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
            out("  %-32s %8.3f s  %5.1f%%  (%d calls)"
                % (name, st["self_s"], 100 * st["self_s"] / sum(timed), st["calls"]))
        details["self_s"] = {k: v["self_s"] for k, v in stats.items()}
        tracer.write(os.path.join(workdir, "trace.jsonl"))
    details["metrics"] = {k: v for k, (v, _) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tannaka-forge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "tannaka_forge")):
        print("error: no engine source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(os.getcwd(), ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    expected = load_expected()

    print("workload %s, seed %d" % (args.workload, args.seed))
    result, details = measure(
        lambda E: workloads.make_ops(E, args.workload, args.seed, workdir),
        args.seed, lambda n: passes_for(args.workload, args.seconds, n), workdir, expected,
        trace=bool(args.trace))
    by_label: dict[str, list[float]] = {}
    for r in details["records"]:
        if r["seconds"] is not None:
            by_label.setdefault(r["label"], []).append(r["seconds"])
    for label, xs in sorted(by_label.items()):
        print("  %-40s median %.4f s of %d" % (label, statistics.median(xs), len(xs)))
    with open(os.path.join(workdir, "details-trace%d.json" % args.trace), "w") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
