"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured runtime.  Tolerances and time limits are asserted exactly
as stated; run with  pytest tests/test_acceptance.py -v -s  for the lines.
"""

import itertools
import random
import time

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix, smith, solve, is_invertible
from tannaka_forge.modules import (FinModule, ModuleMap, is_surjective,
                                   module_from_presentation)
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.tannaka import (coend, coend_relation_rows, lift_coaction,
                                   unit_fully_faithful_check, counit_map,
                                   flatness_check, recognition_check,
                                   DiagramCategory, DiagObject)
from tannaka_forge.mf import (tate_object, mf_direct_sum, mf_to_diagram, mbar,
                              is_mf_fl, mf_hom, mf_make)
from tannaka_forge.suite import (standard_coend_cases, comatrix_diagram,
                                 comatrix_coalgebra, comatrix_standard_comodule,
                                 grouplike_coalgebra, grouplike_line,
                                 grouplike_diagram, trivial_full_hom_diagram,
                                 random_diagram)

from oracle_reference import (essential_surjectivity_probe, morphisms_are_comodule_maps,
                              recheck_cone_witness, recheck_iso_witness, with_gens)
from test_mf import mf_hom_oracle, solver_span
from smith_reference import densify, reference_smith, smith_certificate
from dense_tensor import dense_kernel


def report(num, text, t0):
    print("ACCEPTANCE %2d: PASS  (%.2fs)  %s" % (num, time.monotonic() - t0, text))


def test_criterion_01_coend_axioms():
    t0 = time.monotonic()
    for name, D in standard_coend_cases():
        coend(D)   # coalgebra_check runs on every computed L
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "coend axiom suite took %.2fs" % elapsed
    report(1, "coend axioms exact on the whole built-in suite", t0)


def test_criterion_02_comatrix_reconstruction():
    t0 = time.monotonic()
    for p in (2, 3):
        alg = AlgebraSpec.make(p, 1, 1)
        for r in (1, 2, 3):
            t1 = time.monotonic()
            CR = coend(comatrix_diagram(alg, r))
            assert CR.coalgebra.carrier.rank == r * r
            C = comatrix_coalgebra(alg, r)
            std = comatrix_standard_comodule(C, r)
            res = counit_map(C, [std])
            assert res.iso and res.coalgebra_morphism
            each = time.monotonic() - t1
            assert each < 1.0, "comatrix p=%d r=%d took %.2fs" % (p, r, each)
    report(2, "comatrix reconstruction p in {2,3}, r in {1,2,3}, nu iso", t0)


def test_criterion_03_grouplike_reconstruction():
    t0 = time.monotonic()
    alg = AlgebraSpec.make(2, 1, 1)
    for g in (1, 2, 3):
        C = grouplike_coalgebra(alg, g)
        fam = [grouplike_line(C, i) for i in range(g)]
        res = counit_map(C, fam)
        assert res.iso
    report(3, "grouplike reconstruction g in {1,2,3}, nu iso, exact", t0)


def test_criterion_04_generator_robustness():
    t0 = time.monotonic()
    rng = random.Random(2024)
    algs = [AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 1, 2),
            AlgebraSpec.make(2, 2, 1)]
    rows_same = full_same = 0
    trial = 0
    while rows_same < 60:
        alg = algs[trial % 3]
        trial += 1
        D, gen_list = random_diagram(rng, alg)
        N, r_full = coend_relation_rows(D)
        _, r_sub = coend_relation_rows(D, morphisms=gen_list)
        assert r_full == r_sub
        rows_same += 1
        limit = 12 if alg.fb == 1 else 8
        if N <= limit:
            # the closure's hom lists against the raw generators
            CR_f = coend(with_gens(D, None), check=False)
            CR_s = coend(with_gens(D, gen_list), check=False)
            assert CR_f.coalgebra.carrier.exps == CR_s.coalgebra.carrier.exps
            assert CR_f.classmap == CR_s.classmap
            assert CR_f.coalgebra.delta == CR_s.coalgebra.delta
            assert CR_f.coalgebra.counit == CR_s.coalgebra.counit
            assert CR_f.coalgebra.bi.left == CR_s.coalgebra.bi.left
            assert CR_f.coalgebra.bi.right == CR_s.coalgebra.bi.right
            full_same += 1
    assert rows_same >= 60 and full_same >= 30
    report(4, "coend identical from generators vs closure on %d random "
              "diagrams (%d full presentations)" % (rows_same, full_same), t0)


def test_criterion_05_unit_lift():
    t0 = time.monotonic()
    for name, D in standard_coend_cases():
        CR = coend(D)
        lifted = lift_coaction(CR)   # comodule_check runs per object
        assert morphisms_are_comodule_maps(CR, lifted), name
    report(5, "lifted coactions pass comodule checks; all diagram morphisms "
              "are comodule maps", t0)


def test_criterion_06_mf_fully_faithful():
    t0 = time.monotonic()
    W = ring_make(2, 1, 1)
    M0, M1 = tate_object(W, 0), tate_object(W, 1)
    fam = [M0, M1, mf_direct_sum(M0, M1)]
    D = mf_to_diagram(fam)
    CR = coend(D)
    lifted = lift_coaction(CR)
    verd = unit_fully_faithful_check(CR, lifted)
    assert len(verd) == 9 and all(v[0] == "equal" for v in verd.values())
    assert flatness_check(CR.coalgebra)
    probe = essential_surjectivity_probe(CR, rank=1, budget=4096)
    assert probe["verdict"] == "verified", probe
    assert probe["outside_image"] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, "MF family check took %.2fs" % elapsed
    report(6, "MF^1_proj family: unit equal on 9 pairs, L flat, rank-1 "
              "probe finds nothing outside the image", t0)


def test_criterion_07_smith_correctness():
    t0 = time.monotonic()
    rng = random.Random(777)
    for R in (ring_make(2, 3, 1), ring_make(2, 1, 2), ring_make(2, 2, 2)):
        for _ in range(1000):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            A = Matrix(R, [[rng.randrange(R.size) for _ in range(c)]
                           for _ in range(r)], r, c)
            sf, ref = smith(A), reference_smith(A)
            smith_certificate(A, sf)
            sf = densify(R, sf)
            assert (sf.U, sf.u_inv, sf.invariants) == (ref.U, ref.u_inv, ref.invariants)
            assert ref.u_inv @ A @ ref.v_inv == ref.D
            assert is_invertible(ref.u_inv) and is_invertible(ref.v_inv)
    # kernel/cokernel vs enumeration oracles for |R| <= 16, dims <= 3
    for R in (ring_make(2, 2, 1), ring_make(2, 1, 2), ring_make(3, 1, 1),
              ring_make(2, 2, 2)):
        assert R.size <= 16
        for _ in range(25):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            A = Matrix(R, [[rng.randrange(R.size) for _ in range(c)]
                           for _ in range(r)], r, c)
            brute = {v for v in itertools.product(range(R.size), repeat=c)
                     if not any(A.apply(list(v)))}
            K = dense_kernel(A)
            spanned = {tuple(K.apply(list(cf))) for cf in
                       itertools.product(range(R.size), repeat=K.cols)} \
                if K.cols else {(0,) * c}
            assert brute == spanned
            img = {tuple(A.apply(list(v)))
                   for v in itertools.product(range(R.size), repeat=c)}
            size = 1
            for e in module_from_presentation(A).module.exps:
                size *= R.p ** (e * R.f)
            assert size * len(img) == R.size ** r
            for b in list(img)[:8]:
                assert solve(A, list(b)) is not None
    report(7, "3000 random Smith decompositions exact; kernel/cokernel "
              "match enumeration oracles", t0)


def test_criterion_08_frobenius():
    t0 = time.monotonic()
    for R in (ring_make(2, 2, 2), ring_make(2, 1, 2)):
        els = list(R.elements())
        for a in els:
            assert R.val(R.sub(R.frobenius(a), R.mul(a, a))) >= 1
            assert R.frobenius(R.frobenius(a)) == a
            for b in els:
                assert R.frobenius(R.add(a, b)) == \
                    R.add(R.frobenius(a), R.frobenius(b))
                assert R.frobenius(R.mul(a, b)) == \
                    R.mul(R.frobenius(a), R.frobenius(b))
    report(8, "Frobenius additive, multiplicative, a^2 mod 2, sigma^2 = id "
              "on full enumeration of GR(4,2) and F_4", t0)


def test_criterion_09_mf_invariants():
    t0 = time.monotonic()
    suite = []
    for (p, n, f) in ((2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)):
        W = ring_make(p, n, f)
        objs = [tate_object(W, 0), tate_object(W, 1),
                mf_direct_sum(tate_object(W, 0), tate_object(W, 1))]
        suite.append((W, objs))
        for X in objs:
            mb = mbar(X)
            assert mb.Mbar.length() == X.M.length()
            assert is_surjective(mb.phibar.linear) == is_mf_fl(X)
    # fl candidates that are not fl: surjective iff iso still agrees
    W2 = ring_make(2, 2, 1)
    M = FinModule.free(W2, 1)
    bad = mf_make(W2, M, 0, 0, {0: ModuleMap.identity(M)},
                  {0: Matrix.from_rows(W2, [[2]])}, require_span=False)
    assert is_surjective(mbar(bad).phibar.linear) == is_mf_fl(bad) == False
    # hom solver equals the enumeration oracle whenever the space is small
    checked = 0
    for W, objs in suite:
        for X in objs:
            for Y in objs:
                if W.size ** (X.M.rank * Y.M.rank) > 4096:
                    continue
                span, _ = solver_span(X, Y)
                assert span == mf_hom_oracle(X, Y)
                checked += 1
    assert checked >= 20
    report(9, "len(Mbar) = len(M); phibar surjective iff iso; mf_hom equals "
              "the enumeration oracle on %d pairs" % checked, t0)


def test_criterion_10_recognition_soundness():
    t0 = time.monotonic()
    alg = AlgebraSpec.make(2, 1, 1)
    # positive: trivial one-object full-hom diagram verifies i) and ii)
    rep = recognition_check(trivial_full_hom_diagram(alg), budget=4096)
    assert rep.reflects_isos.status == "verified"
    assert rep.cofiltered.status == "verified"
    # negative: iso-reflection broken by span restriction
    Dbad = DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                           {(0, 0): [Matrix.identity(alg.B, 1)],
                            (1, 1): [Matrix.identity(alg.B, 1)],
                            (0, 1): [Matrix.identity(alg.B, 1)]})
    rep2 = recognition_check(Dbad, budget=4096)
    assert rep2.reflects_isos.status == "refuted"
    w = rep2.reflects_isos.witness
    assert recheck_iso_witness(Dbad, w["pair"][0], w["pair"][1], w["matrix"])
    # negative: cofilteredness broken by removing cone objects
    Dg = grouplike_diagram(alg, 2)
    rep3 = recognition_check(Dg, budget=4096)
    assert rep3.cofiltered.status == "refuted"
    w3 = rep3.cofiltered.witness
    assert recheck_cone_witness(Dg, w3["first"], w3["second"])
    report(10, "recognition checkers: verified on the positive instance, "
               "refuted with standalone-recheckable witnesses on the "
               "constructed negatives", t0)
