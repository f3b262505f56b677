"""The CLI pipeline runs once per connected component of the closed diagram
and merges the results; against the pipeline on the whole diagram
(`pipeline_reference`) it reports the same checks and results, witnesses
included.  The witness of a strictly-smaller unit verdict is the first
basis map of the comodule-hom solve; that basis is the canonical Howell
generating set of a kernel, so a component's solve gives the same witness
as the whole diagram's."""

import random

from tannaka_forge import tannaka
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.cli import _run_pipeline
from tannaka_forge.coalgebra import comodule_hom
from tannaka_forge.linalg import Matrix, Span
from tannaka_forge.suite import (comatrix_diagram, grouplike_diagram,
                                 mf_family_diagram, random_diagram,
                                 standard_coend_cases, trivial_full_hom_diagram)
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, _flatten_bmat,
                                   coend, hom_closure, lift_coaction)
from tannaka_forge.textio import parse_diagram, parse_matrix

import pipeline_reference as ref

# Z/4, Z/8, F4, GR(4,2) and F3 in turn
RINGS = [(2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1)]


def _a_to_b():
    """A -> B with no way back: one component, a strictly-smaller verdict."""
    alg = AlgebraSpec.make(2, 1, 1)
    one = Matrix.identity(alg.B, 1)
    return DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                           {(0, 0): [one], (1, 1): [one], (0, 1): [one]})


def _side_by_side(parts):
    """The disjoint union of diagrams over one algebra: their objects in
    order, renamed apart, with no homs between them."""
    alg = parts[0].alg
    objects, homs, base = [], {}, 0
    for i, D in enumerate(parts):
        objects += [DiagObject("P%d%s" % (i, obj.name), obj.rank) for obj in D.objects]
        homs.update({(k + base, l + base): mats for (k, l), mats in D.homs.items()})
        base += D.nobj()
    return DiagramCategory(alg, objects, homs)


def _ladder_diagrams():
    """The diagrams of the verify-field and verify-witt benchmark ladders."""
    F2, F3 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(3, 1, 1)
    out = [comatrix_diagram(F2, 3), comatrix_diagram(F3, 3),
           grouplike_diagram(F2, 12), comatrix_diagram(F2, 4),
           mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)[0],
           mf_family_diagram(2, 2, 1, (0, 1), with_sum=True)[0],
           mf_family_diagram(2, 2, 2, (0, 1))[0]]
    for p, n, f in ((2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 1, 8)):
        alg = AlgebraSpec.make(p, n, f)
        out.append(DiagramCategory(alg, [DiagObject("A", 1)], {(0, 0): [
            Matrix.identity(alg.B, 1), Matrix.from_rows(alg.B, [[alg.B.x]])]}))
    return out


def _assert_valid_witness(D, k, l, text):
    """The witness is a comodule map M_k -> M_l of the whole diagram's
    lifted coactions that lies outside span(k, l)."""
    alg = D.alg
    CR = coend(D)
    lifted = lift_coaction(CR)
    _, basis = comodule_hom(lifted[k], lifted[l])
    width = D.objects[l].rank * D.objects[k].rank * alg.fb
    homs = Span(alg.R, [_flatten_bmat(alg, alg.rmat_to_bmat(g)) for g in basis], width)
    W = parse_matrix(text, alg.B)
    assert homs.contains(_flatten_bmat(alg, W)) and not D.hom_contains(k, l, W)


def _assert_same(D):
    """Equal checks and results; returns the split pipeline's."""
    got = _run_pipeline(D, 4096, with_recognition=False)
    assert got == ref.run_pipeline(D, 4096, with_recognition=False)
    return got


def test_components_and_restrict():
    F2 = AlgebraSpec.make(2, 1, 1)
    assert grouplike_diagram(F2, 3).components() == [[0], [1], [2]]
    assert comatrix_diagram(F2, 2).components() == [[0]]
    assert hom_closure(_a_to_b()).components() == [[0, 1]]
    D = hom_closure(_side_by_side([grouplike_diagram(F2, 1), _a_to_b(),
                                   trivial_full_hom_diagram(F2)]))
    assert D.components() == [[0], [1, 2], [3]]
    # ordered by smallest index, with a component that is not an interval
    one = Matrix.identity(F2.B, 1)
    D = hom_closure(DiagramCategory(F2, [DiagObject(c, 1) for c in "ABC"],
                                    {(2, 0): [one]}))
    assert D.components() == [[0, 2], [1]]
    sub = D.restrict([0, 2])
    assert [obj.name for obj in sub.objects] == ["A", "C"]
    assert sub.homs == {(0, 0): D.homs[(0, 0)], (0, 1): D.homs[(0, 2)],
                        (1, 0): D.homs[(2, 0)], (1, 1): D.homs[(2, 2)]}
    assert sub.span(1, 0) is D.span(2, 0) and sub.closure_violation() is None


def test_split_matches_whole_on_suite_diagrams():
    for _, D in standard_coend_cases():
        _assert_same(D)
    checks, results = _assert_same(_a_to_b())
    assert results["unit"]["B->A"]["verdict"] == "strictly-smaller"


def test_split_matches_whole_on_ladder_diagrams():
    for D in _ladder_diagrams():
        _assert_same(D)


def test_split_matches_whole_on_the_f16_pair():
    # two rank-16 components in place of one rank-32 coend
    D = mf_family_diagram(2, 1, 4, (0, 1))[0]
    assert hom_closure(D).components() == [[0], [1]]
    _, results = _assert_same(D)
    assert results["coend"]["rank"] == 32


def test_split_matches_whole_on_disjoint_unions():
    # two or three random_diagram draws side by side; over F4 and GR(4,2)
    # the draws have rank 1, since the whole-diagram reference can take a
    # minute on rank-2 unions there (its coend check builds dense tensors)
    rng = random.Random(16)
    seen = set()
    for i in range(15):
        alg = AlgebraSpec.make(*RINGS[i % len(RINGS)])
        parts = [random_diagram(rng, alg, max_obj=2, max_rank=2 if alg.fb == 1 else 1)[0]
                 for _ in range(rng.randint(2, 3))]
        D = _side_by_side(parts)
        checks, results = _assert_same(D)
        seen.add(len(hom_closure(D).components()))
        seen.update(v["verdict"] for v in results["unit"].values() if v != "equal")
        seen.update(c["name"] for c in checks if c["status"] == "fail")
    assert {"strictly-smaller", "unit-fully-faithful"} <= seen, seen
    assert {2, 3, 4} <= seen, seen


def test_split_witness_is_a_valid_one():
    # three components over Z/8; the component's solve and the whole
    # diagram's give the same first comodule map P1A0 -> P1A0 outside the
    # diagram's span (while kernels were read off Smith forms, whose pivots
    # depend on coordinates, the two witnesses differed here)
    D = parse_diagram("""alg R=GR(2^3,1) B=GR(2^3,1)
object P0A0 rank 2
object P1A0 rank 2
object P1A1 rank 1
hom P0A0 P0A0 = [[[1,0],[0,1]],[[0,2],[6,0]]]
hom P1A0 P1A0 = [[[1,0],[0,1]],[[0,1],[3,2]],[[0,0],[4,4]]]
hom P1A1 P1A1 = [[[1]]]
""")
    _, results = _assert_same(D)
    unit = results["unit"]["P1A0->P1A0"]
    assert unit["verdict"] == "strictly-smaller"
    _assert_valid_witness(hom_closure(D), 1, 1, unit["witness"])


def test_components_are_found_once_per_diagram(monkeypatch):
    # restrict reads the closed diagram's components to decide whether to
    # hand over gens; the diagram keeps them, so the pipeline on the g = 12
    # grouplike diagram finds them once, not once more per component
    found, classes = [], tannaka._classes

    def counted(ks, linked):
        if "components" in linked.__qualname__:
            found.append(list(ks))
        return classes(ks, linked)

    monkeypatch.setattr(tannaka, "_classes", counted)
    D = hom_closure(grouplike_diagram(AlgebraSpec.make(2, 1, 1), 12))
    checks, _ = _run_pipeline(D, 4096, with_recognition=False)
    assert found == [list(range(12))]
    assert all(c["status"] == "pass" for c in checks)
    # the pipeline found them on its own closed copy; D finds its own once
    first = D.components()
    assert D.components() is first and len(found) == 2
