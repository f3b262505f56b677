"""Quick self-check of the benchmark (a few seconds):

    python3 -m pytest -q bench/test_bench.py

One pass over two spans draws, untraced and traced: every metric named in
BENCHMARK.json is reported with its unit, the traced ops give the same
digests as the untraced ones, and the oracle flags a corrupted digest.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def engine():
    # fresh per test: measure() re-imports the engine, and one op must never
    # mix classes from two imports
    return workloads.load_engine()


def _two_draws(engine, tmp_path, trace):
    lines = []
    result, details = run.measure(
        lambda E: workloads.spans_ops(E, workloads.DEFAULT_SEED, count=2),
        workloads.DEFAULT_SEED, lambda n: 1, str(tmp_path), run.load_expected(),
        trace=trace, out=lines.append)
    return result, details, lines


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_reported_with_unit(engine, bench, tmp_path, trace, key):
    result, _, _ = _two_draws(engine, tmp_path, trace)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in bench[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_digests_match_untraced(engine, tmp_path):
    _, plain, _ = _two_draws(engine, tmp_path, False)
    _, traced, _ = _two_draws(engine, tmp_path, True)
    digests = [{r["label"]: r["digest"] for r in d["records"]} for d in (plain, traced)]
    assert digests[0] == digests[1]
    assert all(digests[0].values())


def test_oracle_flags_corrupted_spans_digest(engine):
    op = workloads.spans_ops(engine, workloads.DEFAULT_SEED, count=1)[0]
    expected = copy.deepcopy(run.load_expected())
    result = workloads.run_spans(engine, op.text)
    ok, _ = workloads.check_spans(engine, op, result, expected, workloads.DEFAULT_SEED)
    assert ok == []
    expected["spans-seed-%d" % workloads.DEFAULT_SEED][op.label] = "sha256:" + "0" * 64
    bad, _ = workloads.check_spans(engine, op, result, expected, workloads.DEFAULT_SEED)
    assert bad and "recorded" in bad[0]


def test_oracle_flags_corrupted_cli_digest(engine, tmp_path):
    ops = workloads.verify_field_ops(engine, str(tmp_path))
    op = next(o for o in ops if o.label == "mf-demo/p2-n1-f1-sum")
    expected = copy.deepcopy(run.load_expected())
    code, buf = workloads.run_cli(engine["cli"].main, op.argv, str(tmp_path))
    assert workloads.check_cli(op, code, buf, expected)[0] == []
    expected[op.label]["digest"] = "sha256:" + "0" * 64
    problems, _ = workloads.check_cli(op, code, buf, expected)
    assert any("recorded" in p for p in problems)
