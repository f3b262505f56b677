"""The coend stops reading its relation stream once the span holds the
relations of the full category on the same objects: N - f_B unit pivots.
`coend_relation_rows` reads the whole stream and is the reference: the
Howell rows agree on every draw, and the bound is reached on some draws and
missed on others, among them every draw of two components of positive
rank, which has at most N - 2 f_B."""

import random

from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix
from tannaka_forge.suite import random_diagram
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, coend,
                                   coend_relation_rows, hom_closure)

# F2, Z/4, Z/8, Z/9, F4, GR(4,2), GR(8,2), F9, GR(4,3), Z/5
RINGS = ((2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2),
         (2, 3, 2), (3, 1, 2), (2, 2, 3), (5, 1, 1))


def _raw(alg, objects, gens):
    homs = {}
    for k, l, F in gens:
        homs.setdefault((k, l), []).append(F)
    return DiagramCategory(alg, objects, homs)


def _draw(rng, alg, kind):
    """A closed diagram and the morphisms= override to pass, or None.
    kind 0: a `random_diagram` draw; 1: two draws side by side, so at least
    two components; 2: a draw with a rank-0 object, which no generator
    touches or which zero maps tie to the draw; 3: the draw's raw
    generators as the override."""
    D, gens = random_diagram(rng, alg)
    if kind == 0:
        return D, None
    if kind == 1:
        D2, gens2 = random_diagram(rng, alg)
        n = D.nobj()
        return hom_closure(_raw(alg, D.objects + D2.objects,
                                gens + [(k + n, l + n, F) for k, l, F in gens2])), None
    if kind == 2:
        n, r = D.nobj(), D.objects[0].rank
        ties = [(n, 0, Matrix.zeros(alg.B, r, 0)), (0, n, Matrix.zeros(alg.B, 0, r))]
        D0 = hom_closure(_raw(alg, D.objects + [DiagObject("Z", 0)], gens))
        hom_lists = [(k, l, F) for (k, l), mats in sorted(D0.homs.items()) for F in mats]
        return D0, (hom_lists + ties if rng.random() < 0.5 else None)
    return D, gens


def _unit_pivots(R, rows):
    return sum(1 for row in rows if R.val(next(e for e in row if e)) == 0)


def test_coend_rows_equal_the_full_stream_reference():
    reached = missed = 0
    for j, t in enumerate(RINGS):
        alg, rng = AlgebraSpec.make(*t), random.Random(4100 + j)
        for i in range(40):
            D, morphisms = _draw(rng, alg, i % 4)
            N, want = coend_relation_rows(D)
            assert coend(D, morphisms=morphisms, check=False).rel_rows == want, (t, i)
            units = _unit_pivots(alg.R, want)
            c = sum(1 for comp in D.components() if any(D.objects[k].rank for k in comp))
            assert units <= N - alg.fb * c
            if c and units == N - alg.fb:
                reached += 1
            else:
                missed += 1
    assert reached and missed, (reached, missed)
