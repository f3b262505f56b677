import random

import pytest

from tannaka_forge import linalg
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.algebra import AlgebraSpec, BBBimodule
from tannaka_forge.coalgebra import comodule_hom
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, hom_closure,
                                   coend, coend_relation_rows, lift_coaction,
                                   unit_fully_faithful_check, counit_map,
                                   flatness_check, recognition_check,
                                   DiagramNotClosed, _flatten_bmat,
                                   _is_universal)
from tannaka_forge.suite import (trivial_full_hom_diagram, grouplike_diagram,
                                 comatrix_diagram, grouplike_coalgebra,
                                 comatrix_coalgebra, grouplike_line,
                                 comatrix_standard_comodule, trivial_coalgebra,
                                 random_diagram)
from oracle_reference import (morphisms_are_comodule_maps, reconstruction_probe,
                              recheck_cone_witness, recheck_iso_witness)
from recognition_reference import span_membership, cocones
from dense_tensor import pure
import smith_reference


def class_of(CR, k: int, v: int, w: int) -> tuple[int, ...]:
    """The class in L of basis vector v (x) xi_w of fiber_k (x) fiber_k^dual."""
    j = CR.offsets[k] + v * CR.block_dims[k] + w
    return CR.coalgebra.carrier.reduce(CR.classmap.col(j))


def test_closure_idempotent(alg_f2):
    D = grouplike_diagram(alg_f2, 2)
    D2 = hom_closure(D)
    assert [m.data for p in sorted(D.homs) for m in D.homs[p]] == \
        [m.data for p in sorted(D2.homs) for m in D2.homs[p]]


def test_closure_powers_of_unit(alg_gr42):
    # one object, fiber B, generated by multiplication with the unit x
    # (order 3): closure is the R-span of its powers plus the identity
    alg = alg_gr42
    D = DiagramCategory(alg, [DiagObject("A", 1)],
                        {(0, 0): [Matrix.from_rows(alg.B, [[alg.B.x]])]})
    Dc = hom_closure(D)
    for k in range(3):
        assert Dc.hom_contains(0, 0, Matrix.from_rows(
            alg.B, [[alg.B.pow(alg.B.x, k)]]))


def test_closure_cross_morphism(alg_f2):
    # two objects, one cross morphism: nothing new to add
    alg = alg_f2
    D = DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                        {(0, 1): [Matrix.identity(alg.B, 1)]})
    Dc = hom_closure(D)
    assert len(Dc.homs[(0, 1)]) == 1
    assert Dc.homs[(1, 0)] == []


def test_coend_requires_closed(alg_f2):
    D = DiagramCategory(alg_f2, [DiagObject("A", 1)], {})   # no identity
    with pytest.raises(DiagramNotClosed):
        coend(D)


def test_coend_trivial_full_hom(alg_f2, alg_gr42):
    # hom = all of B makes L = B, the trivial coalgebra
    for alg in (alg_f2, alg_gr42):
        CR = coend(trivial_full_hom_diagram(alg))
        assert CR.coalgebra.carrier.exps == (alg.R.n,) * alg.fb
        assert flatness_check(CR.coalgebra)


def test_coend_comatrix(alg_f2, alg_f3):
    for alg in (alg_f2, alg_f3):
        for r in (1, 2, 3):
            CR = coend(comatrix_diagram(alg, r))
            assert CR.coalgebra.carrier.rank == r * r
            # entrywise comparison with the hand-built comatrix coalgebra:
            # delta[class(e_i (x) xi_j)] = sum_k class(e_i (x) xi_k) (x)
            # class(e_k (x) xi_j)
            C = comatrix_coalgebra(alg, r)
            CRc = CR.coalgebra
            for i in range(r):
                for j in range(r):
                    lhs = CRc.delta.apply(class_of(CR, 0, i, j))
                    acc = [0] * CRc.cc.module.rank
                    for k in range(r):
                        vec = pure(CRc.cc, class_of(CR, 0, i, k),
                                   class_of(CR, 0, k, j))
                        acc = [alg.R.add(a, v) for a, v in zip(acc, vec)]
                    assert lhs == CRc.cc.module.reduce(acc)


def test_coend_grouplike(alg_f2):
    CR = coend(grouplike_diagram(alg_f2, 2))
    assert CR.coalgebra.carrier.rank == 2
    # matches the hand-built grouplike coalgebra generator by generator
    C = grouplike_coalgebra(alg_f2, 2)
    for k in range(2):
        cls = class_of(CR, k, 0, 0)
        assert CR.coalgebra.delta.apply(cls) == \
            pure(CR.coalgebra.cc, cls, cls)
        assert CR.coalgebra.counit.apply(cls) == (1,)


def test_lift_coaction_suite(alg_f2, alg_gr42):
    for D in (grouplike_diagram(alg_f2, 2), comatrix_diagram(alg_f2, 2),
              trivial_full_hom_diagram(alg_gr42)):
        CR = coend(D)
        lifted = lift_coaction(CR)
        assert morphisms_are_comodule_maps(CR, lifted)


def test_lift_comatrix_formula(alg_f2):
    # rho(e_j) = sum_i class(e_j (x) xi_i) (x) e_i
    CR = coend(comatrix_diagram(alg_f2, 2))
    lifted = lift_coaction(CR)
    N = lifted[0]
    for j in range(2):
        acc = [0] * N.cm.module.rank
        for i in range(2):
            vec = pure(N.cm, class_of(CR, 0, j, i), N.carrier.gen(i))
            acc = [alg_f2.R.add(a, v) for a, v in zip(acc, vec)]
        assert N.rho.apply(N.carrier.gen(j)) == N.cm.module.reduce(acc)


def test_unit_fully_faithful(alg_f2):
    for D in (comatrix_diagram(alg_f2, 2), grouplike_diagram(alg_f2, 2)):
        CR = coend(D)
        verd = unit_fully_faithful_check(CR)
        assert all(v[0] == "equal" for v in verd.values())


def test_unit_strictly_smaller_with_witness(alg_f2):
    # two copies of one object glued by a one-way morphism: the cross
    # morphism identifies the lifted comodules, so the comodule hom in the
    # missing direction contains the inverse the diagram deleted
    alg = alg_f2
    objs = [DiagObject("A", 1), DiagObject("B", 1)]
    D = DiagramCategory(alg, objs, {(0, 0): [Matrix.identity(alg.B, 1)],
                                    (1, 1): [Matrix.identity(alg.B, 1)],
                                    (0, 1): [Matrix.identity(alg.B, 1)]})
    assert D.closure_violation() is None
    CR = coend(D)
    verd = unit_fully_faithful_check(CR)
    assert verd[(0, 1)][0] == "equal"
    assert verd[(1, 0)][0] == "strictly-smaller"
    witness = verd[(1, 0)][1]
    assert not D.hom_contains(1, 0, witness)
    # the witness really is a comodule map: it lies in the computed hom span
    lifted = lift_coaction(CR)
    K, basis = comodule_hom(lifted[1], lifted[0])
    assert not K.is_zero()


def test_counit_comatrix(alg_f2, alg_f3):
    for alg in (alg_f2, alg_f3):
        for r in (1, 2):
            C = comatrix_coalgebra(alg, r)
            std = comatrix_standard_comodule(C, r)
            res = counit_map(C, [std])
            assert res.iso and res.injective and res.surjective
            assert res.coalgebra_morphism


def test_counit_grouplike(alg_f2):
    for g in (1, 2, 3):
        C = grouplike_coalgebra(alg_f2, g)
        fam = [grouplike_line(C, i) for i in range(g)]
        res = counit_map(C, fam)
        assert res.iso and res.coalgebra_morphism


def test_counit_trivial(alg_gr42):
    from tannaka_forge.coalgebra import cofree
    from tannaka_forge.algebra import free_bmodule
    C = trivial_coalgebra(alg_gr42)
    CF = cofree(C, free_bmodule(alg_gr42, 1))
    res = counit_map(C, [CF])
    assert res.iso and res.coalgebra_morphism


def test_counit_not_injective_for_partial_family(alg_f2):
    # only one of the two grouplike lines: nu hits only half of C
    C = grouplike_coalgebra(alg_f2, 2)
    res = counit_map(C, [grouplike_line(C, 0)])
    assert res.coalgebra_morphism
    assert not res.surjective and not res.iso


def test_counit_rejects_non_cauchy(alg_f2):
    # a comodule with torsion carrier is rejected
    from tannaka_forge.algebra import BModule, tensor_bim_bmodule
    algZ4 = AlgebraSpec.make(2, 2, 1)
    C = trivial_coalgebra(algZ4)
    tor = FinModule(algZ4.R, (1,))
    mod = BModule(algZ4, tor, ModuleMap.identity(tor))
    cm = tensor_bim_bmodule(algZ4, C.bi, mod)
    from tannaka_forge.coalgebra import comodule_check
    rho = ModuleMap(tor, cm.module, Matrix.identity(algZ4.R, 1))
    Mc = comodule_check(C, cm, rho)
    with pytest.raises(ValueError):
        counit_map(C, [Mc])


def test_flatness_examples(alg_f2):
    # trivial: B over itself is flat; everything over a field is flat
    assert flatness_check(trivial_coalgebra(alg_f2))
    assert flatness_check(comatrix_coalgebra(alg_f2, 2))
    # over Z/4 a coalgebra with carrier Z/2 and scalar actions is not flat
    algZ4 = AlgebraSpec.make(2, 2, 1)
    car = FinModule(algZ4.R, (1,))
    ident = ModuleMap.identity(car)
    bi = BBBimodule(algZ4, car, ident, ident)
    from tannaka_forge.algebra import tensor_bimodules
    cc = tensor_bimodules(algZ4, bi, bi)
    delta = ModuleMap(car, cc.module, Matrix.identity(algZ4.R, 1))
    counit = ModuleMap(car, FinModule.free(algZ4.R, 1),
                       Matrix.from_rows(algZ4.R, [[2]]))
    # (this eps is the inclusion Z/2 -> Z/4 scaled by 2; counit law fails,
    # so only the bimodule-level flatness is probed)
    from tannaka_forge.algebra import is_b_free
    assert not is_b_free(algZ4, car, bi.right)


def test_coend_cardinality_cross_check():
    # |T| = |L| * |relation submodule|, with the right side computed from
    # the Howell pivots alone (independent of the Smith-based quotient)
    rng = random.Random(55)
    algs = [AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 1, 2),
            AlgebraSpec.make(2, 2, 1), AlgebraSpec.make(3, 1, 1)]
    for trial in range(24):
        alg = algs[trial % 4]
        D, _ = random_diagram(rng, alg, max_obj=2, max_rank=2)
        N, rows = coend_relation_rows(D)
        rel_size = 1
        for r in rows:
            j = next(k for k, v in enumerate(r) if v)
            rel_size *= alg.R.p ** ((alg.R.n - alg.R.val(r[j])) * alg.R.f)
        CR = coend(D, check=False)
        assert CR.coalgebra.carrier.cardinality() * rel_size == \
            alg.R.size ** N


def test_generator_robustness_small():
    rng = random.Random(7)
    algs = [AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 1, 2),
            AlgebraSpec.make(2, 2, 1)]
    for trial in range(12):
        alg = algs[trial % 3]
        D, gen_list = random_diagram(rng, alg)
        _, rows_full = coend_relation_rows(D)
        _, rows_sub = coend_relation_rows(D, morphisms=gen_list)
        assert rows_full == rows_sub


def test_recognition_trivial_full_hom(alg_f2):
    rep = recognition_check(trivial_full_hom_diagram(alg_f2), budget=512)
    assert rep.reflects_isos.status == "verified"
    assert rep.cofiltered.status == "verified"


def test_recognition_iso_reflection_refuted(alg_f2):
    alg = alg_f2
    D = DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                        {(0, 0): [Matrix.identity(alg.B, 1)],
                         (1, 1): [Matrix.identity(alg.B, 1)],
                         (0, 1): [Matrix.identity(alg.B, 1)]})
    assert D.closure_violation() is None
    rep = recognition_check(D, budget=512)
    assert rep.reflects_isos.status == "refuted"
    w = rep.reflects_isos.witness
    assert recheck_iso_witness(D, w["pair"][0], w["pair"][1], w["matrix"])


def test_recognition_cone_refuted(alg_f2):
    D = grouplike_diagram(alg_f2, 2)
    rep = recognition_check(D, budget=512)
    assert rep.cofiltered.status == "refuted"
    w = rep.cofiltered.witness
    assert w["kind"] == "no-cone"
    assert recheck_cone_witness(D, w["first"], w["second"])


def test_recognition_comatrix(alg_f2):
    # scalars: invertible iff nonzero, inverse present -> i) verified;
    # ii) refuted for r >= 2 (elements over non-proportional vectors)
    D = comatrix_diagram(alg_f2, 2)
    rep = recognition_check(D, budget=2048)
    assert rep.reflects_isos.status == "verified"
    assert rep.cofiltered.status == "refuted"


def test_recognition_budget_inconclusive(alg_f2):
    D = comatrix_diagram(alg_f2, 3)
    rep = recognition_check(D, budget=2)
    assert rep.cofiltered.status == "inconclusive"
    assert rep.cofiltered.reason


def test_recognition_closure_precondition(alg_f2):
    D = DiagramCategory(alg_f2, [DiagObject("A", 1)], {})
    with pytest.raises(DiagramNotClosed):
        recognition_check(D)


def test_recognition_rigid_colimits_full_hom(alg_f2):
    # with hom = B the coequalizer probes of (f, f) succeed; probes of
    # (f, 0) need a zero object and are honestly refuted
    rep = recognition_check(trivial_full_hom_diagram(alg_f2), budget=512)
    verdicts = {p["verdict"] for p in rep.probes}
    assert "verified" in verdicts
    # the pushout of (id, id) has the object itself as tip
    assert any(p["kind"] == "pushout" and p["verdict"] == "verified"
               for p in rep.probes)


def test_rigid_colimits_with_zero_object(alg_f2):
    # adding a rank-0 object makes the degenerate coequalizers land on it
    alg = alg_f2
    objs = [DiagObject("A", 1), DiagObject("Z", 0)]
    D = hom_closure(DiagramCategory(alg, objs,
                                    {(0, 0): [Matrix.identity(alg.B, 1)]}))
    rep = recognition_check(D, budget=512)
    assert rep.rigid_colimits.status == "verified"
    coeq = [p for p in rep.probes if p["kind"] == "coeq"]
    assert all(p["verdict"] in ("verified", "not-applicable") for p in coeq)


def test_reconstruction_probe_field_cases(alg_f2):
    for C in (trivial_coalgebra(alg_f2), grouplike_coalgebra(alg_f2, 2),
              comatrix_coalgebra(alg_f2, 2)):
        rep = reconstruction_probe(C)
        assert rep["surjective"]


def test_self_counit_of_lifted_family(alg_f2):
    # L is reconstructed from its own lifted comodules: nu is an
    # isomorphism whenever the unit is fully faithful
    for D in (grouplike_diagram(alg_f2, 2), comatrix_diagram(alg_f2, 2)):
        CR = coend(D)
        lifted = lift_coaction(CR)
        res = counit_map(CR.coalgebra, lifted)
        assert res.iso and res.coalgebra_morphism


def test_counit_always_coalgebra_morphism(alg_f2):
    # independent of iso-ness, nu respects eps and delta
    C = grouplike_coalgebra(alg_f2, 3)
    for fam in ([grouplike_line(C, 0)],
                [grouplike_line(C, 0), grouplike_line(C, 1)]):
        res = counit_map(C, fam)
        assert res.coalgebra_morphism


def test_cocone_uniqueness(alg_f2):
    # A of rank 1 and P of rank 2, with A -> P the first inclusion and both
    # coordinate projections P -> A
    B = alg_f2.B
    one, zero = Matrix.identity(B, 1), Matrix.zeros(B, 1, 1)
    inc = Matrix.from_rows(B, [[1], [0]])
    D = hom_closure(DiagramCategory(
        alg_f2, [DiagObject("A", 1), DiagObject("P", 2)],
        {(0, 1): [inc], (1, 0): [Matrix.from_rows(B, [[1, 0]]),
                                 Matrix.from_rows(B, [[0, 1]])]}))
    # coequalizer of (id, 0) on A: through the zero leg every cocone (only
    # t = 0) factors, but not uniquely (id_A kills the leg); through id_A
    # for the pair (id, id) it is unique
    def sizes(legs, cond):
        return [into.size() for into in cocones(D, legs, cond)]
    assert _is_universal(D, sizes([0], one), 0, [zero]) is False
    assert _is_universal(D, sizes([0], zero), 0, [one]) is True
    # pushout of (id, id): the legs A -> P admit every cocone, but the
    # second projection P -> A kills both; through A itself it is unique
    glue = one.vstack(-one)
    assert _is_universal(D, sizes([0, 0], glue), 1, [inc, inc]) is False
    assert _is_universal(D, sizes([0, 0], glue), 0, [one, one]) is True


def _reference_closure_violation(D):
    """closure_violation with membership decided by a Smith solve against
    the flattened generators, as before hom spans were held in Howell form."""
    alg = D.alg

    def contains(k, l, F):
        rows = [list(_flatten_bmat(alg, G)) for G in D.homs[(k, l)]]
        return span_membership(alg.R, rows,
                               list(_flatten_bmat(alg, F))) is not None

    for k, obj in enumerate(D.objects):
        if not contains(k, k, Matrix.identity(alg.B, obj.rank)):
            return ("missing-identity", k)
    for (k, l), mats in D.homs.items():
        for (l2, m), mats2 in D.homs.items():
            if l2 != l:
                continue
            for F in mats:
                for G in mats2:
                    if not contains(k, m, G @ F):
                        return ("not-closed", (k, l, m, F, G))
    return None


def test_closure_violation_matches_reference():
    rng = random.Random(2024)
    kinds = set()
    for alg in (AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 3, 1),
                AlgebraSpec.make(2, 2, 2)):
        B = alg.B
        for _ in range(25):
            objs = [DiagObject("A%d" % i, rng.randint(1, 2))
                    for i in range(rng.randint(1, 3))]
            homs = {}
            for k, ok in enumerate(objs):
                for l, ol in enumerate(objs):
                    mats = [Matrix(B, [[rng.randrange(B.size)
                                        for _ in range(ok.rank)]
                                       for _ in range(ol.rank)],
                                   ol.rank, ok.rank)
                            for _ in range(rng.randint(0, 2))]
                    if k == l and rng.random() < 0.8:
                        mats.append(Matrix.identity(B, ok.rank))
                    homs[(k, l)] = mats
            D = DiagramCategory(alg, objs, homs)
            got = D.closure_violation()
            assert got == _reference_closure_violation(D)
            kinds.add(got and got[0])
    assert kinds == {None, "missing-identity", "not-closed"}


def test_closed_closure_violation_runs_no_smith(monkeypatch, alg_gr42):
    D, _ = random_diagram(random.Random(3), alg_gr42)
    calls = []
    smith = linalg.smith

    def counted_smith(A):
        calls.append(A.rows)
        return smith(A)

    monkeypatch.setattr(linalg, "smith", counted_smith)
    assert D.closure_violation() is None
    assert calls == []
    # the counter sees the Smith solves of the reference path, which reads
    # the reference Smith form
    reference_smith = smith_reference.reference_smith

    def counted_reference(A):
        calls.append(A.rows)
        return reference_smith(A)

    monkeypatch.setattr(smith_reference, "reference_smith", counted_reference)
    assert _reference_closure_violation(D) is None
    assert calls
