"""The coend's relation family: `coend` streams the input generators
`hom_closure` records, or the hom lists when a diagram records none, and
both present the same relation submodule.  So the default coend equals
the coend from the hom lists in every output: Howell rows, carrier, class
map, delta and counit.
`restrict` hands the record over only to a union of components, and
`coend_relation_rows` keeps the hom lists as its default family."""

import importlib.util
import random
import sys
from pathlib import Path

from tannaka_forge import textio
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix
from tannaka_forge.suite import mf_family_diagram, standard_coend_cases
from tannaka_forge.tannaka import (CoendTooLarge, DiagObject, DiagramCategory,
                                   _relation_columns, coend, coend_relation_rows,
                                   hom_closure)

from oracle_reference import with_gens

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the six-object GR(4,2) cycle of the CI pin: one generator per edge
CYCLE = """alg R=GR(2^2,1) B=GR(2^2,2)
object A0 rank 3
object A1 rank 3
object A2 rank 3
object A3 rank 3
object A4 rank 3
object A5 rank 3
hom A0 A1 = [[[3*x,0,x+2],[2*x+1,3*x+3,1],[2*x,1,2*x+1]]]
hom A1 A2 = [[[3*x+1,3,3],[x+2,2*x+2,x+1],[2*x+3,3*x+3,3]]]
hom A2 A3 = [[[3,2*x+3,3*x+1],[2*x+3,x+2,x+1],[3*x+2,2,2]]]
hom A3 A4 = [[[3*x,2,x],[1,x+1,2],[x+3,3*x+1,3*x+2]]]
hom A4 A5 = [[[3*x+1,3*x+3,3*x+3],[3*x+2,1,3*x+3],[2*x+1,x+1,1]]]
hom A5 A0 = [[[3*x+1,3*x,3*x+2],[0,3*x+3,x+3],[3*x+1,2*x+3,2]]]
"""

# (p, n, f) of the full-endo rungs of the verify-witt ladder
FULL_ENDO = ((2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 1, 8))


def full_endo(p, n, f):
    """hom A A = [[[1]], [[x]]] over GR(p^n, f), closed."""
    return hom_closure(textio.parse_diagram(
        "alg R=GR(%d^%d,1) B=GR(%d^%d,%d)\nobject A rank 1\n"
        "hom A A = [[[1]],[[x]]]\n" % (p, n, p, n, f)))


def hom_lists(D):
    return [(k, l, F) for (k, l), mats in sorted(D.homs.items()) for F in mats]


def coend_outputs(D):
    try:
        CR = coend(D, check=False)
    except CoendTooLarge:
        return None
    L = CR.coalgebra
    return (CR.rel_rows, L.carrier.exps, CR.classmap, L.delta.mat, L.counit.mat)


def assert_same_coend(D, widths):
    """coend(D) equals the coend from D's hom lists; returns whether the
    default fed howell fewer columns."""
    want = coend_outputs(with_gens(D, hom_lists(D)))
    assert coend_outputs(D) == want
    return want is not None and widths[-1] < widths[-2]


def spans_shapes(count):
    """The draw shapes of the benchmark's `spans` workload."""
    spec = importlib.util.spec_from_file_location("_spans_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.spans_shapes(count)


def spans_draw(rng, alg, ranks, counts):
    B = alg.B
    homs = {(k, l): [Matrix(B, [[rng.randrange(B.size) for _ in range(rk)]
                                for _ in range(rl)], rl, rk)
                     for _ in range(counts[k][l])]
            for k, rk in enumerate(ranks) for l, rl in enumerate(ranks)}
    objs = [DiagObject("A%d" % k, r) for k, r in enumerate(ranks)]
    return DiagramCategory(alg, objs, homs)


def test_families_agree_on_spans_draws(howell_widths):
    # 150 draws: 50 spans shapes over each of GR(4,2), Z/4 and F2
    shapes = spans_shapes(50)
    taken = {True: 0, False: 0}
    for i, pnf in enumerate(((2, 2, 2), (2, 2, 1), (2, 1, 1))):
        alg, rng = AlgebraSpec.make(*pnf), random.Random(310 + i)
        for ranks, counts in shapes:
            D = hom_closure(spans_draw(rng, alg, ranks, counts))
            took = assert_same_coend(D, howell_widths)
            if not D.full_blocks():
                taken[took] += 1
    # the generators feed howell fewer columns than the hom lists on some
    # draws and not on others (counted where no block's rows come from the
    # counit's kernel instead)
    assert taken[True] and taken[False]


def test_families_agree_on_suite_ladders_cycle_and_mf(howell_widths):
    diagrams = [D for _, D in standard_coend_cases()]
    diagrams += [full_endo(*pnf) for pnf in FULL_ENDO]
    diagrams.append(hom_closure(textio.parse_diagram(CYCLE)))
    diagrams += [mf_family_diagram(2, 2, 2, (0, 1))[0],
                 mf_family_diagram(2, 3, 1, (0, 1), with_sum=True)[0]]
    for D in diagrams:
        assert D.gens is not None
        assert_same_coend(D, howell_widths)
        assert_same_coend(D.restrict(list(range(D.nobj()))), howell_widths)


def test_restrict_keeps_generators_only_on_components(howell_widths):
    cycle = hom_closure(textio.parse_diagram(CYCLE))
    assert len(cycle.gens) == 6
    # End(A0) holds the cycle word, which no generator between A0 and A1
    # reaches, so the restriction takes its relations from its hom lists
    sub = cycle.restrict([0, 1])
    assert sub.gens is None
    assert_same_coend(sub, howell_widths)
    cut = [g for g in cycle.gens if g[:2] == (0, 1)]
    assert len(coend_relation_rows(sub, cut)[1]) < len(coend_relation_rows(sub)[1]) == 64
    # reordered, the record follows the objects
    rev = cycle.restrict([5, 4, 3, 2, 1, 0])
    assert [(k, l) for k, l, _ in rev.gens] == [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0),
                                               (0, 5)]
    assert assert_same_coend(rev, howell_widths)
    # two components: each restriction keeps its own generators
    two = hom_closure(textio.parse_diagram(
        "alg R=GR(2^2,1) B=GR(2^2,2)\nobject A rank 1\nobject B rank 1\n"
        "hom A A = [[[x]]]\nhom B B = [[[2]]]\n"))
    assert two.components() == [[0], [1]]
    assert [(k, l) for k, l, _ in two.restrict([1]).gens] == [(0, 0)]
    assert [(k, l) for k, l, _ in two.restrict([1, 0]).gens] == [(1, 1), (0, 0)]
    # a second closure keeps the first record
    assert hom_closure(cycle).gens is cycle.gens


def test_f256_rung_feeds_howell_its_kernel_rows(howell_widths, stream_reads):
    # one object with a full End span: its relations are the kernel of the
    # counit T -> B, of rank 64 - 8, and no relation stream column is read
    D = full_endo(2, 1, 8)
    coend(D.restrict(D.components()[0]), check=False)
    assert howell_widths == howell_widths.read == [56]
    assert stream_reads == [0]


def test_coend_relation_rows_defaults_to_the_hom_lists(howell_widths):
    D = full_endo(2, 1, 8)
    N, rows = coend_relation_rows(D)
    assert howell_widths == [len(list(_relation_columns(D)[3]))] == [448]
    assert rows == coend(D, check=False).rel_rows
    assert coend_relation_rows(D, morphisms=D.gens) == (N, rows)
