"""The coend takes the relations of each full block from the kernel of the
counit: a block is a class of objects of positive rank joined by full hom
spans, in either direction, that holds an object whose End span is full.
Its relations are exactly the kernel of eps on its T_k, and only the
morphisms that are not inside one block are streamed.  The Howell form is
unique, so the rows equal those of `coend_relation_rows`, which streams
every relation, on diagrams that have one block, several, or none; blocks
joined by spans that are not full; rank-0 objects; several components; and
generators divisible by p."""

import random

from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, coend,
                                   coend_relation_rows, hom_closure)

# F2, Z/4, Z/8, Z/9, F4, GR(4,2), GR(8,2), GR(4,3), Z/3^64
RINGS = ((2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2),
         (2, 3, 2), (2, 2, 3), (3, 64, 1))


def _whole_hom(alg, rk, rl):
    """x^b E_ts for every t < rl, s < rk and b < f_B: they span Hom."""
    B = alg.B
    out = []
    for t in range(rl):
        for s in range(rk):
            for b in range(alg.fb):
                F = Matrix.zeros(B, rl, rk)
                F.data[t][s] = B.pow(B.x, b)
                out.append(F)
    return out


def _draw(rng, alg):
    """A closed diagram of 1-4 objects of rank 0-2, with N <= 64 so that L
    fits MAX_L_RANK.  Each ordered pair of objects gets no generator, one or
    two random B-matrices, p times those, or the whole of its Hom."""
    B, p = alg.B, alg.R.p
    while True:
        ranks = [rng.choice((0, 1, 1, 2, 2)) for _ in range(rng.randint(1, 4))]
        if sum((r * alg.fb) ** 2 for r in ranks) <= 64:
            break
    homs = {}
    for k, rk in enumerate(ranks):
        for l, rl in enumerate(ranks):
            mode = rng.choice(("none", "none", "none", "random", "random", "p", "whole"))
            if mode == "whole":
                homs[(k, l)] = _whole_hom(alg, rk, rl)
            elif mode != "none":
                mats = [Matrix(B, [[rng.randrange(B.size) for _ in range(rk)]
                                   for _ in range(rl)], rl, rk)
                        for _ in range(rng.randint(1, 2))]
                homs[(k, l)] = [F.scale(p) for F in mats] if mode == "p" else mats
    objs = [DiagObject("A%d" % k, r) for k, r in enumerate(ranks)]
    return hom_closure(DiagramCategory(alg, objs, homs))


def _case(D):
    blocks = D.full_blocks()
    if not blocks:
        return "none"
    positive = [k for k, obj in enumerate(D.objects) if obj.rank]
    return "one block" if blocks == [positive] else "partial"


def test_coend_rows_equal_the_full_stream_on_blocked_draws():
    cases = dict.fromkeys(("one block", "partial", "none"), 0)
    # the shapes a wrong block rule gets wrong
    two_blocks = with_rank_0 = unanchored = not_full_link = 0
    for j, t in enumerate(RINGS):
        alg, rng = AlgebraSpec.make(*t), random.Random(4400 + j)
        for i in range(36):
            D = _draw(rng, alg)
            assert coend(D, check=False).rel_rows == coend_relation_rows(D)[1], (t, i)
            cases[_case(D)] += 1
            blocks = D.full_blocks()
            at = {k: b for b, ks in enumerate(blocks) for k in ks}
            pairs = [(k, l) for k, ok in enumerate(D.objects) for l, ol in enumerate(D.objects)
                     if k != l and ok.rank and ol.rank]
            two_blocks += len(blocks) >= 2
            with_rank_0 += len(blocks) >= 2 and any(not obj.rank for obj in D.objects)
            unanchored += any(D.span(k, l).is_full() and k not in at for k, l in pairs)
            not_full_link += any(k in at and l in at and at[k] != at[l] and D.span(k, l).pivots
                                 for k, l in pairs)
    assert sum(cases.values()) == 324
    assert min(cases.values()) >= 20, cases
    assert min(two_blocks, with_rank_0, unanchored, not_full_link) >= 5, \
        (two_blocks, with_rank_0, unanchored, not_full_link)
