"""Run every workload over several seeds and write a results file.

    python3 bench/collect.py --out bench/results/BENCH_1.json [--seeds 1-10]

Runs use BENCHMARK.json's run_seconds.  For each workload: one untraced
run per seed (medians, quartiles and the
quartile spread as a share of the median, per end-to-end metric and for
the printed op_p50_s and op_tail_s, plus the median latency of every op
over all runs), then one traced run on the
first seed (per-layer metrics and the spans with the most self time).
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".bench_work", workload, "details-trace%d.json" % trace)) as fh:
        details = json.load(fh)
    return result, details


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        metrics, latencies, attempted, failed = {}, {}, 0, 0
        for seed in seeds:
            result, details = one_run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name in ("op_p50_s", "op_tail_s"):
                metrics.setdefault(name, []).append(details[name])
            for r in details["records"]:
                if r["seconds"] is not None:
                    latencies.setdefault(r["label"], []).append(r["seconds"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in metrics.items()},
                  flush=True)
        traced, tdetails = one_run(workload, seeds[0], seconds, 1)
        top = sorted(tdetails["self_s"].items(), key=lambda kv: -kv[1])[:8]
        total = sum(r["seconds"] for r in tdetails["records"])
        out["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": {k: summary(v) for k, v in metrics.items()},
            "op_median_s": {k: statistics.median(v) for k, v in sorted(latencies.items())},
            "traced_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "self_time_share": {k: v / total for k, v in top},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, w in out["workloads"].items():
        for name, s in w["end_to_end"].items():
            print("%-13s %-12s median %10.4f  spread %.3f"
                  % (workload, name, s["median"], s["spread"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
