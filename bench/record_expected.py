"""Record the oracle's reference values into expected.json.

    python3 bench/record_expected.py

Runs every ladder op once and the default-seed spans pool once, and stores
each op's exit code and report digest (ladders) or canonical coend digest
(spans).  Run it only on a commit whose outputs are known good: the
benchmark then fails any op whose output differs from these values.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = os.path.join(os.getcwd(), ".bench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    E = workloads.load_engine()
    expected = {}
    for workload in ("verify-field", "verify-witt"):
        for op in workloads.make_ops(E, workload, workloads.DEFAULT_SEED, workdir):
            E["rings"].ring_make.cache_clear()
            code, buf = workloads.run_cli(E["cli"].main, op.argv, workdir)
            digest = json.loads(buf.getvalue())["report_digest"]
            expected[op.label] = {"exit": code, "digest": digest}
            problems, _ = workloads.check_cli(op, code, buf, expected)
            print(op.label, code, digest, problems or "ok")
            if problems:
                return 1
    key = "spans-seed-%d" % workloads.DEFAULT_SEED
    expected[key] = {}
    for op in workloads.spans_ops(E, workloads.DEFAULT_SEED):
        E["rings"].ring_make.cache_clear()
        result = workloads.run_spans(E, op.text)
        expected[key][op.label] = workloads.coend_digest(result[2])
        problems, _ = workloads.check_spans(E, op, result, expected,
                                            workloads.DEFAULT_SEED)
        print(op.label, expected[key][op.label], problems or "ok")
        if problems:
            return 1
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
