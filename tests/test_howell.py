"""The sparse Howell kernel and the skipping hom closure against their
references, and the work the closure no longer does."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from tannaka_forge import algebra, linalg, modules, tannaka, textio
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix, Span, howell
from tannaka_forge.rings import ring_make
from tannaka_forge.suite import random_diagram
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, _flatten_bmat,
                                   _relation_columns, coend, hom_closure)

import howell_reference as ref

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans_draws():
    """The raw diagrams of the benchmark's 30 ``spans`` draws at seed 3."""
    spec = importlib.util.spec_from_file_location("_spans_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    engine = {"algebra": algebra, "linalg": linalg, "textio": textio}
    return [textio.parse_diagram(op.text) for op in workloads.spans_ops(engine, 3)]


def _random_rows(rng, R, w, mode):
    count = rng.randint(0, 8)
    if mode == "zero":
        return [[0] * w for _ in range(count)]
    rows = []
    for _ in range(count):
        if mode == "sparse":
            r = [rng.randrange(R.size) if rng.random() < 0.3 else 0 for _ in range(w)]
        elif mode == "p-multiples":
            r = [R.mul(R.p_elem(1), rng.randrange(R.size)) for _ in range(w)]
        else:
            r = [rng.randrange(R.size) for _ in range(w)]
        rows.append(r)
    if rows and mode == "duplicates":
        rows += [list(rows[0]), list(rows[-1])]
    return rows


def test_howell_matches_dense_reference():
    # Z/2, Z/4, Z/8, Z/9, F4, GR(4,2), GR(8,2)
    rng = random.Random(2024)
    modes = ("dense", "sparse", "zero", "duplicates", "p-multiples")
    for t in ((2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2),
              (2, 3, 2)):
        R = ring_make(*t)
        assert howell(R, [], 3) == ref.dense_howell(R, [], 3) == []
        assert howell(R, [[], []], 0) == ref.dense_howell(R, [[], []], 0) == []
        for _ in range(300):
            w = rng.randint(0, 7)
            rows = _random_rows(rng, R, w, rng.choice(modes))
            assert howell(R, rows, w) == ref.dense_howell(R, rows, w), (t, rows)


def test_howell_draws_no_row_past_its_unit_pivot_bound(Z4):
    """width 6 and corank 2: after the fourth row the span has its 4 unit
    pivots, so howell stops there and draws no fifth row."""
    rows = [{0: 1, 4: 2}, {1: 3}, {2: 1, 5: 1}, {3: 1}, {4: 1}, {5: 1}]
    drawn = []

    def stream():
        for row in rows:
            drawn.append(row)
            yield row
    got = howell(Z4, stream(), 6, 2)
    assert len(drawn) == 4
    assert got == ref.dense_howell(Z4, [[r.get(j, 0) for j in range(6)] for r in rows[:4]], 6)


def test_howell_matches_dense_reference_on_spans_relations(spans_draws):
    for D_raw in spans_draws:
        N, _, _, stream = _relation_columns(hom_closure(D_raw))
        cols = list(stream)[::-1]       # the column list, read twice below
        dense = [[col.get(j, 0) for j in range(N)] for col in cols]
        assert howell(D_raw.alg.R, cols, N) == ref.dense_howell(D_raw.alg.R, dense, N)
        assert howell(D_raw.alg.R, dense, N) == howell(D_raw.alg.R, cols, N)


def test_span_is_full(Z4):
    assert Span(Z4, [[1, 3], [0, 1]], 2).is_full()
    assert Span(Z4, [[2, 1], [1, 1]], 2).is_full()
    assert not Span(Z4, [[1, 3], [0, 2]], 2).is_full()
    assert not Span(Z4, [[1, 3]], 2).is_full()
    assert Span(Z4, [], 0).is_full()


def _raw_draw(rng, alg, **kw):
    """The generators of a seeded `random_diagram` draw, before closure."""
    D, gens = random_diagram(rng, alg, **kw)
    homs = {}
    for k, l, F in gens:
        homs.setdefault((k, l), []).append(F)
    return DiagramCategory(alg, D.objects, homs)


def _assert_closure_matches(D):
    got, want = hom_closure(D), ref.hom_closure(D)
    alg = D.alg
    assert sorted(got._spans) == sorted(want.homs)
    for (k, l) in want.homs:
        assert [F.data for F in got.homs[(k, l)]] == \
            [F.data for F in want.homs[(k, l)]]
        fresh = Span(alg.R, [_flatten_bmat(alg, F) for F in got.homs[(k, l)]],
                     D.objects[l].rank * D.objects[k].rank * alg.fb)
        assert got._spans[(k, l)].rows == fresh.rows
    return got


def test_hom_closure_matches_reference():
    # F2, Z/8, F3, GR(4,2)
    rng = random.Random(10)
    for t in ((2, 1, 1), (2, 3, 1), (3, 1, 1), (2, 2, 2)):
        alg = AlgebraSpec.make(*t)
        for _ in range(8):
            _assert_closure_matches(_raw_draw(rng, alg, max_obj=4, max_rank=3))


def _disjoint_union(parts):
    """The diagrams parts side by side over one algebra, with no homs
    between them: every pair across two parts has an empty hom list."""
    objects, homs, base = [], {}, 0
    for i, D in enumerate(parts):
        objects += [DiagObject("P%d%s" % (i, obj.name), obj.rank)
                    for obj in D.objects]
        homs.update({(k + base, l + base): mats for (k, l), mats in D.homs.items()})
        base += D.nobj()
    return DiagramCategory(parts[0].alg, objects, homs)


def test_hom_closure_with_empty_factors_matches_reference():
    # grouplike F2: hom(k, l) is empty for k != l, so all but g of the g^3
    # triples have an empty factor and are skipped
    F2 = AlgebraSpec.make(2, 1, 1)
    for g in (8, 33):
        objs = [DiagObject("G%d" % i, 1) for i in range(g)]
        _assert_closure_matches(DiagramCategory(
            F2, objs, {(i, i): [Matrix.identity(F2.B, 1)] for i in range(g)}))
    rng = random.Random(17)
    for t in ((2, 1, 1), (2, 3, 1), (3, 1, 1), (2, 2, 2)):
        alg = AlgebraSpec.make(*t)
        for _ in range(4):
            _assert_closure_matches(_disjoint_union(
                [_raw_draw(rng, alg, max_obj=3, max_rank=2) for _ in range(3)]))


def test_hom_closure_with_rank_zero_object(alg_gr42):
    B = alg_gr42.B
    objs = [DiagObject("A", 2), DiagObject("Z", 0)]
    homs = {(0, 0): [Matrix(B, [[0, 1], [alg_gr42.B.x, 0]])],
            (0, 1): [Matrix.zeros(B, 0, 2)], (1, 0): [Matrix.zeros(B, 2, 0)]}
    got = _assert_closure_matches(DiagramCategory(alg_gr42, objs, homs))
    assert got._spans[(1, 1)].width == 0 and got._spans[(1, 1)].is_full()


def test_hom_closure_with_no_full_span():
    # every generator is a multiple of 2 and every rank is at least 2, so
    # each span stays inside Z/8 id + 2 Hom: none is full, and only the skip
    # for unchanged factors can apply
    alg = AlgebraSpec.make(2, 3, 1)
    rng = random.Random(8)
    objs = [DiagObject("A%d" % i, r) for i, r in enumerate((2, 3, 2))]
    homs = {(k, l): [Matrix(alg.B, [[2 * rng.randrange(4) for _ in range(objs[k].rank)]
                                    for _ in range(objs[l].rank)])
                     for _ in range(rng.randint(1, 2))]
            for k in range(3) for l in range(3)}
    got = _assert_closure_matches(DiagramCategory(alg, objs, homs))
    assert not any(sp.is_full() for sp in got._spans.values())
    assert any(len(got.homs[pair]) > len(homs[pair]) for pair in homs)


def test_closure_violation_on_closure_builds_no_span(monkeypatch, alg_f2):
    D = _raw_draw(random.Random(4), alg_f2, max_obj=3, max_rank=2)
    closed = hom_closure(D)

    def no_span(*args):
        raise AssertionError("closure_violation built a Span")

    monkeypatch.setattr(tannaka, "Span", no_span)
    assert closed.closure_violation() is None


def _howell_calls(monkeypatch, closure, draws):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    orig = linalg.howell
    for mod in (linalg, tannaka, modules):
        monkeypatch.setattr(mod, "howell", counted)
    for D in draws:
        coend(closure(D), check=False)
    monkeypatch.undo()
    return calls[0]


def test_closure_and_coend_halve_howell_calls(monkeypatch, spans_draws):
    new = _howell_calls(monkeypatch, hom_closure, spans_draws)
    old = _howell_calls(monkeypatch, ref.hom_closure, spans_draws)
    assert 0 < 2 * new <= old, (new, old)


def test_coend_reads_one_block_draws_off_the_counit_kernel(howell_widths, stream_reads,
                                                          spans_draws):
    # most spans draws are one full block, whose relations are the kernel
    # of the counit: `howell` reads its rows and no relation stream column;
    # the full stream of the 30 draws is 23,688 columns
    closed = [hom_closure(D) for D in spans_draws]
    for D in closed:
        coend(D, check=False)
    assert sum(howell_widths.read) <= 1500, sum(howell_widths.read)
    one_block = [i for i, D in enumerate(closed)
                 if D.full_blocks() == [[k for k, obj in enumerate(D.objects) if obj.rank]]]
    assert len(one_block) == 22
    assert [stream_reads[i] for i in one_block] == [0] * 22
