"""The coend's relations as a stream: `Span.extend` reads an iterable that
is not a list or tuple lazily, in the order it yields, and
`_relation_columns` yields its columns in the order in which a Span
inserts the same columns given as a list, so `coend` never holds that list
and still builds its Howell form in the same order."""

import random
import tracemalloc

from tannaka_forge import textio
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Span
from tannaka_forge.rings import ring_make
from tannaka_forge.tannaka import _relation_columns, _unflatten_bmat, coend, hom_closure

import coend_reference as ref
from test_closure_spin import SEVEN_RINGS, _sparse
from test_howell import _random_rows, spans_draws  # noqa: F401  (a fixture)
from test_relation_family import CYCLE, full_endo, spans_draw, spans_shapes

MODES = ("dense", "sparse", "zero", "duplicates", "p-multiples")


def _state(sp):
    return sp.pivots, sp.units, sp.rows, sp.size(), sp.is_full()


def test_span_fed_a_stream_equals_span_fed_the_list_reversed():
    # the seven rings and Z/3^64: a generator goes in first row first, a
    # list last row first, so the reversed list builds the same pivot rows,
    # entry for entry, also batch by batch through extend
    rng = random.Random(3535)
    for t in SEVEN_RINGS + ((3, 64, 1),):
        R = ring_make(*t)
        for _ in range(120):
            w = rng.randint(0, 6)
            rows = _sparse(rng, [r for _ in range(rng.randint(1, 3))
                                 for r in _random_rows(rng, R, w, rng.choice(MODES))])
            streamed = Span(R, (r for r in rows), w)
            listed = Span(R, rows[::-1], w)
            assert _state(streamed) == _state(listed), (t, rows)
            grown, batched = Span(R, [], w), Span(R, [], w)
            while rows:
                cut = rng.randint(1, len(rows))
                batch, rows = rows[:cut], rows[cut:]
                assert grown.extend(iter(batch)) == batched.extend(tuple(batch[::-1]))
                assert grown.pivots == batched.pivots, (t, batch)
            assert _state(grown) == _state(batched)


def _reference_list(D, family):
    """The reference's relation columns of family, flat rows written out
    as B-matrices for it, as sparse dicts."""
    if family is not None:
        alg, rk = D.alg, [obj.rank for obj in D.objects]
        family = [(k, l, _unflatten_bmat(alg, [row.get(i, 0) for i in
                                               range(rk[l] * rk[k] * alg.fb)], rk[l], rk[k]))
                  for k, l, row in family]
    N, offsets, dims, cols = ref.relation_columns(D, family)
    return [{j: a for j, a in enumerate(col) if a} for col in cols]


def _assert_stream_is_list_reversed(D):
    families = [None] + ([D.gens] if D.gens is not None else [])
    lists = []
    for family in families:
        want = _reference_list(D, family)
        N, offsets, dims, stream = _relation_columns(D, family)
        assert list(stream) == want[::-1]
        lists.append(want[::-1])
    # the coend's call, which streams the generators D records, if any
    assert list(_relation_columns(D, D.gens)[3]) == lists[-1]


def test_relation_stream_is_the_column_list_reversed():
    # the spans shapes over GR(4,2), Z/4 and F2, before and after closure,
    # the six-object cycle of the CI pin and the F256 rung
    rng = random.Random(77)
    for a in ((2, 2, 2), (2, 2, 1), (2, 1, 1)):
        alg = AlgebraSpec.make(*a)
        for ranks, counts in spans_shapes(12):
            D = spans_draw(rng, alg, ranks, counts)
            _assert_stream_is_list_reversed(D)
            _assert_stream_is_list_reversed(hom_closure(D))
    _assert_stream_is_list_reversed(hom_closure(textio.parse_diagram(CYCLE)))
    _assert_stream_is_list_reversed(full_endo(2, 1, 8))


def test_coend_holds_no_relation_list(spans_draws):
    # draw 09 of the spans workload at seed 3: four GR(4,2) objects of ranks
    # 3, 2, 3, 3, whose closure gives 4,444 relation columns for 122 Howell
    # rows; with the columns listed (and copied by extend) the unchecked
    # coend peaked at 2.0 MB under tracemalloc, streamed at 0.4 MB
    D = hom_closure(spans_draws[9])
    assert [obj.rank for obj in D.objects] == [3, 2, 3, 3]
    tracemalloc.start()
    try:
        CR = coend(D, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(CR.rel_rows) == 122
    assert peak < 1 << 20, peak
