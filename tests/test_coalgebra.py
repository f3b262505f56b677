import itertools

import pytest

from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap, hom_module
from tannaka_forge.algebra import AlgebraSpec, free_bmodule, tensor_bim_bmodule
from tannaka_forge.coalgebra import (coalgebra_check, comodule_check, comodule_hom,
                                     cofree, is_cauchy, enumerate_subcomodules,
                                     enumerate_b_submodules, subcomodule_as_comodule,
                                     AxiomError)
from tannaka_forge.suite import (trivial_coalgebra, grouplike_coalgebra,
                                 comatrix_coalgebra, grouplike_line)
from tannaka_forge.textio import format_reconstruct_input, parse_reconstruct_input
from recognition_reference import span_membership
from dense_tensor import dense, pure, rhohat
from hom_reference import dense_hom_equalizer


def b_hom(M, N):
    """Hom_B(M, N) as a submodule of Hom_R: (module, basis of maps, Hom_R)."""
    H = hom_module(M.carrier, N.carrier)
    K, incl, _ = dense_hom_equalizer([H], [(M.carrier, N.carrier)],
                                     lambda _, h: [(h @ M.act) - (N.act @ h)])
    return K, [H.from_coords(incl.apply(K.gen(k))) for k in range(K.rank)], H


def test_trivial_coalgebra(alg_f2, alg_gr42):
    for alg in (alg_f2, alg_gr42):
        C = trivial_coalgebra(alg)
        assert C.carrier.rank == alg.fb


def test_grouplike_coalgebra(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    assert C.carrier.exps == (1, 1)


def test_comatrix_coalgebra(alg_f2, alg_f3):
    for alg in (alg_f2, alg_f3):
        C = comatrix_coalgebra(alg, 2)
        assert C.carrier.rank == 4


def test_broken_coassociativity_detected(alg_f2):
    # tweak the grouplike comultiplication into delta(g0) = g0 (x) g1
    alg = alg_f2
    from tannaka_forge.algebra import BBBimodule, tensor_bimodules
    car = FinModule.free(alg.R, 2)
    ident = ModuleMap.identity(car)
    bi = BBBimodule(alg, car, ident, ident)
    cc = tensor_bimodules(alg, bi, bi)
    cols = [list(pure(cc, car.gen(0), car.gen(1))),
            list(pure(cc, car.gen(1), car.gen(1)))]
    delta = ModuleMap(car, cc.module, Matrix.from_cols(alg.R, cols, cc.module.rank))
    counit = ModuleMap(car, FinModule.free(alg.R, 1), Matrix(alg.R, [[1, 1]], 1, 2))
    with pytest.raises(AxiomError) as exc:
        coalgebra_check(cc, delta, counit)
    assert exc.value.code in ("CounitLeft", "CounitRight", "Coassoc")


@pytest.mark.parametrize("n, g, u, v, witness", [
    (1, 2, (1, 1, 0), (1, 1, 0), 2),     # F2
    (2, 1, (3, 1, 0), (3, 0, 1), 1),     # Z/4
])
def test_pure_coassociativity_failure(n, g, u, v, witness):
    # rank-3 grouplike delta plus u (x) v at g_g, with eps(u) = eps(v) = 0:
    # both counit laws hold, coassociativity does not
    alg = AlgebraSpec.make(2, n, 1)
    C = grouplike_coalgebra(alg, 3)
    car, cc = C.carrier, C.cc
    cols = [list(C.delta.apply(car.gen(i))) for i in range(3)]
    cols[g] = list(cc.module.add(cols[g], pure(cc, u, v)))
    delta = ModuleMap(car, cc.module, Matrix.from_cols(alg.R, cols, cc.module.rank))
    with pytest.raises(AxiomError) as exc:
        coalgebra_check(cc, delta, C.counit)
    assert exc.value.code == "Coassoc"
    assert exc.value.witness == witness


def test_pure_comodule_coassociativity_failure():
    # over Z/4, rho(m1) = (g0 + g1 - g2) (x) m1 is counital (eps = 1) but
    # g0 + g1 - g2 is not grouplike; rho(m0) = g0 (x) m0 is a valid line
    alg = AlgebraSpec.make(2, 2, 1)
    R = alg.R
    C = grouplike_coalgebra(alg, 3)
    M = free_bmodule(alg, 2)
    cm = tensor_bim_bmodule(alg, C.bi, M)
    c = C.carrier.reduce([1, 1, R.neg(1)])
    cols = [list(pure(cm, C.carrier.gen(0), M.carrier.gen(0))),
            list(pure(cm, c, M.carrier.gen(1)))]
    rho = ModuleMap(M.carrier, cm.module, Matrix.from_cols(R, cols, cm.module.rank))
    with pytest.raises(AxiomError) as exc:
        comodule_check(C, cm, rho)
    assert exc.value.code == "Coassoc"
    assert exc.value.witness == 1


def test_counit_failure_witness(alg_f2):
    # rho(m) = (g0 + g1) (x) m over F_2 gives eps-composite 2m = 0
    C = grouplike_coalgebra(alg_f2, 2)
    line = free_bmodule(alg_f2, 1)
    cm = tensor_bim_bmodule(alg_f2, C.bi, line)
    col = cm.module.add(pure(cm, C.carrier.gen(0), (1,)),
                        pure(cm, C.carrier.gen(1), (1,)))
    rho = ModuleMap(line.carrier, cm.module,
                    Matrix.from_cols(alg_f2.R, [list(col)], cm.module.rank))
    with pytest.raises(AxiomError) as exc:
        comodule_check(C, cm, rho)
    assert exc.value.code == "CounitLeft"
    assert exc.value.witness == 0


def test_trivial_comodule(alg_gr42):
    # C = B: the unit isomorphism is a valid coaction on any module
    alg = alg_gr42
    C = trivial_coalgebra(alg)
    M = free_bmodule(alg, 2)
    cm = tensor_bim_bmodule(alg, C.bi, M)
    one = tuple([1] + [0] * (alg.fb - 1))
    cols = [list(pure(cm, one, M.carrier.gen(i))) for i in range(M.carrier.rank)]
    rho = ModuleMap(M.carrier, cm.module,
                    Matrix.from_cols(alg.R, cols, cm.module.rank))
    comodule_check(C, cm, rho)


def test_comodule_hom_grouplike(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    M0, M1 = grouplike_line(C, 0), grouplike_line(C, 1)
    K, basis = comodule_hom(M0, M1)
    assert K.is_zero() and not basis
    K, basis = comodule_hom(M0, M0)
    assert K.exps == (1,) and len(basis) == 1
    assert basis[0].mat.data == [[1]]


def test_comodule_hom_vs_brute_force(alg_f2):
    # enumerate all B-linear maps, keep the ones commuting with coactions
    C = grouplike_coalgebra(alg_f2, 2)
    CF = cofree(C, free_bmodule(alg_f2, 1))
    for (Mc, Nc) in [(CF, CF), (grouplike_line(C, 0), CF),
                     (CF, grouplike_line(C, 1))]:
        K, basis = comodule_hom(Mc, Nc)
        brute = set()
        H = hom_module(Mc.carrier, Nc.carrier)
        from dense_tensor import map_tensor
        for coords in itertools.product(
                *[range(alg_f2.R.p ** e) for e in H.module.exps]):
            g = H.from_coords(coords)
            if (g @ Mc.module.act) != (Nc.module.act @ g):
                continue
            flat = map_tensor(Mc.cm.TR, ModuleMap.identity(C.carrier), g, Nc.cm.TR)
            term = ModuleMap(Mc.carrier, Nc.cm.module,
                             dense(Nc.cm).proj.mat @ flat.mat @ rhohat(Mc),
                             validate=False)
            if (Nc.rho @ g) == term:
                brute.add(g.mat)
        spanned = set()
        for coords in itertools.product(
                *[range(alg_f2.R.p ** e) for e in K.exps]):
            acc = None
            for c, b in zip(coords, basis):
                t = b.scale(c)
                acc = t if acc is None else acc + t
            spanned.add(acc.mat if acc is not None
                        else Matrix.zeros(alg_f2.R, Nc.carrier.rank, Mc.carrier.rank))
        assert brute == spanned


def test_comodule_hom_closed_under_composition(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    CF = cofree(C, free_bmodule(alg_f2, 1))
    K, basis = comodule_hom(CF, CF)
    for f in basis:
        for g in basis:
            h = f @ g
            # h is again a comodule hom: membership in the span
            rows = [[e for row in b.mat.data for e in row] for b in basis]
            target = [e for row in h.mat.data for e in row]
            assert span_membership(alg_f2.R, rows, target) is not None


def test_is_cauchy(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    assert is_cauchy(grouplike_line(C, 0))
    assert is_cauchy(cofree(C, free_bmodule(alg_f2, 1)))


def test_cofree_examples(alg_f2, alg_gr42):
    # cofree over the trivial coalgebra is the unit isomorphism coaction
    Ct = trivial_coalgebra(alg_gr42)
    CF = cofree(Ct, free_bmodule(alg_gr42, 1))
    assert CF.carrier.rank == alg_gr42.fb
    # cofree over the grouplike coalgebra: rho(c_i) = g_i (x) c_i
    C = grouplike_coalgebra(alg_f2, 2)
    CF2 = cofree(C, free_bmodule(alg_f2, 1))
    assert CF2.carrier.rank == 2
    for i in range(2):
        expect = pure(CF2.cm, C.carrier.gen(i), CF2.carrier.gen(i))
        assert CF2.rho.apply(CF2.carrier.gen(i)) == expect


def test_cofree_right_adjoint_bijection(alg_f2):
    # Hom_comod(M, cofree(N)) <-> Hom_B(M, N) by composing with eps (x) id
    alg = alg_f2
    C = grouplike_coalgebra(alg, 2)
    N = free_bmodule(alg, 1)
    CFN = cofree(C, N)
    cmN = tensor_bim_bmodule(alg, C.bi, N)   # same canonical carrier as CFN
    assert cmN.module == CFN.carrier
    for Mc in (grouplike_line(C, 0), CFN):
        K, basis = comodule_hom(Mc, CFN)
        KB, bbasis, _H = b_hom(Mc.module, N)
        assert K.cardinality() == KB.cardinality()
        # the correspondence phi -> (eps (x) id) . phi is injective on the span
        from tannaka_forge.algebra import descend_cols
        from tannaka_forge.coalgebra import counit_contraction
        eps_id = ModuleMap(cmN.module, N.carrier, descend_cols(
            cmN, counit_contraction(alg, C.counit.mat.sparse_cols(), cmN, N.act),
            N.carrier), validate=False)
        images = set()
        for coords in itertools.product(
                *[range(alg.R.p ** e) for e in K.exps]):
            acc = None
            for c, b in zip(coords, basis):
                t = b.scale(c)
                acc = t if acc is None else acc + t
            img = (eps_id @ acc).mat if acc is not None else None
            images.add(img if img is not None
                       else Matrix.zeros(alg.R, 1, Mc.carrier.rank))
        assert len(images) == K.cardinality()


def test_subcomodule_enumeration_cofree(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    CF = cofree(C, free_bmodule(alg_f2, 1))
    subs = enumerate_subcomodules(CF)
    assert [s for s, _, _ in subs] == [1, 2, 2, 4]
    # versus all 5 B-submodules of the carrier
    assert len(enumerate_b_submodules(alg_f2, CF.module)) == 5


def test_subcomodule_enumeration_trivial(alg_f2):
    # trivial C: every submodule is a subcomodule (5 subspaces of F_2^2)
    C = trivial_coalgebra(alg_f2)
    M = free_bmodule(alg_f2, 2)
    cm = tensor_bim_bmodule(alg_f2, C.bi, M)
    cols = [list(pure(cm, (1,), M.carrier.gen(i))) for i in range(2)]
    rho = ModuleMap(M.carrier, cm.module,
                    Matrix.from_cols(alg_f2.R, cols, cm.module.rank))
    Mc = comodule_check(C, cm, rho)
    assert len(enumerate_subcomodules(Mc)) == 5


def test_simple_comodule_subcomodules(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    M0 = grouplike_line(C, 0)
    subs = enumerate_subcomodules(M0)
    assert [s for s, _, _ in subs] == [1, 2]


def test_subcomodule_restriction(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    CF = cofree(C, free_bmodule(alg_f2, 1))
    subs = enumerate_subcomodules(CF)
    for size, gens, _ in subs:
        if size == 2:
            sc = subcomodule_as_comodule(CF, [tuple(g) for g in gens])
            assert sc is not None and sc.carrier.exps == (1,)


def test_serialization_roundtrip(alg_f2, alg_gr42):
    C = grouplike_coalgebra(alg_f2, 2)
    fam = [grouplike_line(C, 0), cofree(C, free_bmodule(alg_f2, 1))]
    text = format_reconstruct_input(C, fam)
    C2, fam2 = parse_reconstruct_input(text)   # re-runs every axiom check
    assert C2 == C and fam2 == fam
    Ct = trivial_coalgebra(alg_gr42)
    CF = cofree(Ct, free_bmodule(alg_gr42, 2))
    text2 = format_reconstruct_input(Ct, [CF])
    C3, fam3 = parse_reconstruct_input(text2)
    assert C3 == Ct and fam3 == [CF]
