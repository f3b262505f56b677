"""The incremental Howell form and the spinning hom closure: the form
against batch Howell forms and span membership, the closure against an
oracle that enumerates elements, and the compositions the spin saves."""

import random

from tannaka_forge import tannaka
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix, Span, howell
from tannaka_forge.rings import ring_make
from tannaka_forge.suite import (comatrix_diagram, grouplike_diagram,
                                 mf_family_diagram, random_diagram)
from tannaka_forge.tannaka import (DiagramCategory, _flatten_bmat,
                                   _unflatten_bmat, hom_closure)

import howell_reference as ref
from test_howell import _random_rows, spans_draws  # noqa: F401  (a fixture)

# the rings of test_howell_matches_dense_reference:
# Z/2, Z/4, Z/8, Z/9, F4, GR(4,2), GR(8,2)
SEVEN_RINGS = ((2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2),
               (2, 3, 2))


def _sparse(rng, rows):
    """Some rows as {column: nonzero entry} dicts, as `extend` also takes."""
    return [{k: e for k, e in enumerate(r) if e} if rng.random() < 0.5 else r
            for r in rows]


def test_howell_form_grows_exactly_when_a_row_is_new():
    rng = random.Random(2025)
    modes = ("dense", "sparse", "zero", "duplicates", "p-multiples")
    for t in SEVEN_RINGS:
        R = ring_make(*t)
        assert Span(R, [], 3).extend([]) is False
        for _ in range(60):
            w = rng.randint(0, 6)
            rows = [r for _ in range(rng.randint(1, 3))
                    for r in _random_rows(rng, R, w, rng.choice(modes))]
            rng.shuffle(rows)
            form, seen = Span(R, [], w), []
            while rows:
                cut = rng.randint(1, len(rows))
                batch, rows = rows[:cut], rows[cut:]
                before = Span(R, seen, w)
                grew = form.extend(_sparse(rng, batch))
                assert grew == any(not before.contains(r) for r in batch), (t, seen, batch)
                seen += batch
                want = howell(R, seen, w)
                assert form.rows == want == ref.dense_howell(R, seen, w), (t, seen)
                sp, fresh = form, Span(R, seen, w)
                assert (sp.rows, sp.pivots) == (fresh.rows, fresh.pivots)
                assert form.is_full() == fresh.is_full()


def _span_answers(sp, probes):
    return ([sp.reduce(v) for v in probes], [sp.contains(v) for v in probes],
            sp.size(), sp.is_full())


def test_span_grown_row_by_row_equals_one_batch():
    # the seven rings and Z/3^64; each span is asked before and after its
    # dense rows are written, so reduce must not depend on the entries
    # above the pivots being reduced
    rng = random.Random(2030)
    modes = ("dense", "sparse", "zero", "duplicates", "p-multiples")
    for t in SEVEN_RINGS + ((3, 64, 1),):
        R = ring_make(*t)
        for _ in range(300):
            w = rng.randint(0, 6)
            rows = [r for _ in range(rng.randint(1, 3))
                    for r in _random_rows(rng, R, w, rng.choice(modes))]
            batch, grown = Span(R, rows, w), Span(R, [], w)
            for r in rng.sample(rows, len(rows)):
                grown.extend(_sparse(rng, [r]))
            probes = rows + _random_rows(rng, R, w, rng.choice(modes))
            probes += [[R.add(a, b) for a, b in zip(u, v)] for u, v in zip(probes, probes[1:])]
            want = _span_answers(batch, probes)
            assert _span_answers(grown, probes) == want, (t, rows)
            assert grown.rows == ref.dense_howell(R, rows, w), (t, rows)
            assert _span_answers(grown, probes) == want, (t, rows)
            assert batch.rows == grown.rows
            assert _span_answers(batch, probes) == want, (t, rows)


def test_span_membership_writes_no_dense_rows(monkeypatch):
    reads = []
    dense = Span.rows
    monkeypatch.setattr(Span, "rows", property(lambda sp: reads.append(sp) or dense.__get__(sp)))
    rng = random.Random(30)
    for t in SEVEN_RINGS:
        R = ring_make(*t)
        for _ in range(20):
            w = rng.randint(0, 6)
            rows = _random_rows(rng, R, w, rng.choice(("dense", "sparse", "p-multiples")))
            sp = Span(R, rows, w)
            assert all(sp.contains(r) for r in rows)
            sp.contains([rng.randrange(R.size) for _ in range(w)])
            assert sp.size() >= 1 and sp.is_full() in (True, False)
    assert reads == []
    assert Span(ring_make(2, 2, 1), [[2, 1]], 2).rows == [[2, 1], [0, 2]]
    assert len(reads) == 1


# -- the closure against enumeration ---------------------------------------

def _r_span(R, vecs, width):
    """Every element of the R-span of vecs, R = Z/p^n, as the additive
    group they generate."""
    out = {(0,) * width}
    for v in vecs:
        if v not in out:
            multiples = [tuple(R.mul(c, e) for e in v) for c in range(R.size)]
            out = {tuple(R.add(a, b) for a, b in zip(s, m)) for s in out for m in multiples}
    return out


def _closure_by_enumeration(D):
    """The element sets of the closure: from id_k in (k, k), add every
    R-combination and every product g F with an input generator g."""
    alg, n = D.alg, D.nobj()
    ranks = [obj.rank for obj in D.objects]
    width = {(k, l): ranks[l] * ranks[k] * alg.fb for k in range(n) for l in range(n)}
    elems = {pair: {(0,) * w} for pair, w in width.items()}
    todo = [(k, k, _flatten_bmat(alg, Matrix.identity(alg.B, ranks[k]))) for k in range(n)]
    while todo:
        k, l, v = todo.pop()
        if v in elems[(k, l)]:
            continue
        grown = _r_span(alg.R, [v], width[(k, l)])
        grown = {tuple(alg.R.add(a, b) for a, b in zip(s, u))
                 for s in elems[(k, l)] for u in grown}
        for u in grown - elems[(k, l)]:
            F = _unflatten_bmat(alg, u, ranks[l], ranks[k])
            todo += [(k, m, _flatten_bmat(alg, g @ F))
                     for (src, m), gens in D.homs.items() if src == l for g in gens]
        elems[(k, l)] = grown
    return elems


def _raw(alg, gens, objects):
    homs = {}
    for k, l, F in gens:
        homs.setdefault((k, l), []).append(F)
    return DiagramCategory(alg, objects, homs)


def _desk_draws(rng, alg, count):
    """Raw seeded draws, ranks <= 2, whose closed spans have at most 4,096
    elements and whose composites of two elements number at most 2^17."""
    out = []
    while len(out) < count:
        closed, gens = random_diagram(rng, alg, max_obj=3, max_rank=2)
        n = closed.nobj()
        size = {(k, l): closed.span(k, l).size() for k in range(n) for l in range(n)}
        pairs = sum(size[(k, l)] * size[(l, m)]
                    for k in range(n) for l in range(n) for m in range(n))
        if max(size.values()) <= 4096 and pairs <= 2 ** 17:
            out.append(_raw(alg, gens, closed.objects))
    return out


def test_hom_closure_matches_enumeration():
    # F2, Z/4, Z/9, F4, GR(4,2)
    rng = random.Random(25)
    partial = 0
    for t in ((2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2)):
        alg = AlgebraSpec.make(*t)
        for D in _desk_draws(rng, alg, 6):
            got = hom_closure(D)
            n, ranks = D.nobj(), [obj.rank for obj in D.objects]
            elems = {(k, l): _r_span(alg.R, [_flatten_bmat(alg, F) for F in got.homs[(k, l)]],
                                     ranks[l] * ranks[k] * alg.fb)
                     for k in range(n) for l in range(n)}
            assert elems == _closure_by_enumeration(D), t
            mats = {pair: [_unflatten_bmat(alg, v, ranks[pair[1]], ranks[pair[0]])
                           for v in vs] for pair, vs in elems.items()}
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        assert all(_flatten_bmat(alg, G @ F) in elems[(k, m)]
                                   for F in mats[(k, l)] for G in mats[(l, m)]), (t, k, l, m)
            partial += sum(not got.span(k, l).is_full() and len(vs) > 1
                           for (k, l), vs in elems.items())
    assert partial > 0      # not only zero and full spans


def _hom_data(D):
    return {pair: [F.data for F in mats] for pair, mats in D.homs.items()}


def test_hom_closure_keeps_closed_diagrams():
    f2, gr42 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 2, 2)
    closed = [comatrix_diagram(f2, 3), comatrix_diagram(gr42, 2),
              grouplike_diagram(f2, 5), grouplike_diagram(gr42, 3),
              mf_family_diagram(2, 2, 1, with_sum=True)[0],
              mf_family_diagram(2, 1, 2, twists=(0, 1, 2))[0]]
    for D in closed:
        assert _hom_data(hom_closure(D)) == _hom_data(D)
    rng = random.Random(9)
    for t in ((2, 1, 1), (3, 1, 1), (2, 3, 1), (2, 2, 2)):
        alg = AlgebraSpec.make(*t)
        for _ in range(4):
            drawn, gens = random_diagram(rng, alg, max_obj=4, max_rank=3)
            once = hom_closure(_raw(alg, gens, drawn.objects))
            assert _hom_data(once) == _hom_data(drawn)
            assert _hom_data(hom_closure(once)) == _hom_data(once)


# -- the work saved ----------------------------------------------------------

def _compositions(monkeypatch, closure, draws, owner, name):
    """The compositions closure forms on draws, as the calls of owner.name,
    and its diagrams."""
    count = [0]
    orig = getattr(owner, name)

    def counted(*args):
        count[0] += 1
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    out = [closure(D) for D in draws]
    monkeypatch.undo()
    return count[0], out


def test_spin_forms_a_quarter_of_the_reference_compositions(monkeypatch, spans_draws):
    # the spin composes flat vectors, one sparse_image each; the reference
    # composes B-matrices, one Matrix.__matmul__ each
    new, got = _compositions(monkeypatch, hom_closure, spans_draws, tannaka, "sparse_image")
    old, want = _compositions(monkeypatch, ref.hom_closure, spans_draws, Matrix, "__matmul__")
    assert [_hom_data(D) for D in got] == [_hom_data(D) for D in want]
    assert 0 < 4 * new <= old, (new, old)
    assert new <= 3000, new
