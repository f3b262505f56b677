"""Differential tests for the one sparse descent: `induced`,
`counit_contraction`, `descend_sparse` (through its dense form
`descend_map` in tests/dense_tensor.py), `comodule_hom` and
`subcomodule_as_comodule` against the dense descents and the private sparse
copy they replaced (tests/descent_reference.py), and `_coassoc_witness`,
which descends nothing, against the dense comparison there, on the suite
coalgebras and comodules, seeded random coends with and without torsion,
and the MF coends over GR(4,2) and GR(8,2): equal matrices, equal
witnesses and the same exceptions; a delta the reference refuses to
descend is refused by coalgebra_check as not a bimodule map.  The counit
laws, coassociativity, nu and its coalgebra-morphism flag, which the
checks and the counit echo read off flat lifts, are compared with the
descended path of tests/descent_reference.py they replaced."""

import random

import pytest

import descent_reference as ref
from coassoc_reference import nested_triple_tensor
from dense_tensor import deltahat, dense, dense_kernel, descend, descend_map, pure, rhohat
from tannaka_forge import coalgebra, tannaka
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap, NotWellDefined
from tannaka_forge.algebra import (AlgebraSpec, BModule, free_bmodule,
                                   regular_bimodule, tensor_bimodules,
                                   tensor_bim_bmodule, induced, descend_cols)
from tannaka_forge.coalgebra import (AxiomError, Coalgebra, coalgebra_check,
                                     comodule_check, comodule_hom, is_cauchy,
                                     counit_contraction, cofree,
                                     enumerate_subcomodules,
                                     subcomodule_as_comodule)
from tannaka_forge.tannaka import coend, counit_map, lift_coaction
from tannaka_forge.suite import (trivial_coalgebra, grouplike_coalgebra,
                                 comatrix_coalgebra, grouplike_line,
                                 comatrix_standard_comodule, mf_family_diagram,
                                 random_diagram)

# F2, Z/4, Z/8, F4, GR(4,2)
RANDOM_RINGS = ((2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2))


def _outcome(fn):
    """("ok", value) or (exception type, message)."""
    try:
        return ("ok", fn())
    except ValueError as e:
        return (type(e), str(e))


def _same_descent(new, old):
    """The same value, or the same exception.  The reference witness said
    "to the tensor over B" where the one descent says "to the quotient"."""
    a, b = _outcome(new), _outcome(old)
    if a[0] is ValueError and b[0] is ValueError:
        assert "does not descend" in a[1] and "does not descend" in b[1]
    else:
        assert a == b
    return a


def _torsion_bmodule(alg):
    """B/p, a B-module that is not free when n >= 2."""
    car = FinModule(alg.R, (1,) * alg.fb)
    return BModule(alg, car, ModuleMap(car, car, alg.x_cols(1)))


def _perturbed(C):
    """delta plus c_0 (x) c_last at generator 0, which is B-linear only when
    f_B = 1, and when f_B >= 2 also the bimodule map delta + delta x."""
    cc, car = C.cc, C.carrier
    cols = [list(C.delta.apply(car.gen(i))) for i in range(car.rank)]
    cols[0] = list(cc.module.add(cols[0], pure(cc, car.gen(0), car.gen(car.rank - 1))))
    out = [ModuleMap(car, cc.module, Matrix.from_cols(C.alg.R, cols, cc.module.rank))]
    if C.alg.fb > 1:
        out.append(C.delta + C.delta @ C.bi.left)
    return out


def _witness(t3, dh, src, hat, zact):
    """The coassociativity witness as coalgebra_check and comodule_check
    compute it, for the triple tensor t3 and zact the x-action of its third
    factor."""
    return coalgebra._coassoc_witness(t3.xy, dh, src, hat, zact)


def _compare_coalgebra(C):
    """Outer actions, induced maps, both counit contractions and the
    coassociativity witness of delta and of perturbed deltas; returns the
    witness outcomes of the perturbed deltas."""
    alg, cc, bi = C.alg, C.cc, C.bi
    one = ModuleMap.identity(bi.carrier)
    assert dense(cc).left == ref.induced(cc, cc, bi.left, one)
    assert dense(cc).right == ref.induced(cc, cc, one, bi.right)
    assert induced(cc, cc, bi.left, bi.right) == ref.induced(cc, cc, bi.left, bi.right)
    for left, act in ((True, bi.left), (False, bi.right)):
        flat = counit_contraction(alg, C.counit.mat.sparse_cols(), cc, act, left)
        assert ModuleMap(cc.module, bi.carrier, descend_cols(cc, flat, bi.carrier),
                         validate=False) == \
            ref.counit_contraction(alg, C.counit, cc, act, left)
    t3 = nested_triple_tensor(alg, cc, bi.carrier, bi.left)
    dh, dense_dh = C.deltahat_cols, deltahat(C)
    assert _witness(t3, dh, cc, dh, bi.left) \
        is None is ref.coassoc_witness(t3, dense_dh, cc, dense_dh, C.delta)
    out = []
    for delta in _perturbed(C):
        hat = dense(cc).sect @ delta.mat
        old = _outcome(lambda: ref.coassoc_witness(t3, hat, cc, hat, delta))
        if old[0] is ValueError:
            # not B-linear: the check refuses it before the comparison
            assert "does not descend" in old[1]
            old = _outcome(lambda: coalgebra.coalgebra_check(cc, delta, C.counit))
            assert old[0] is AxiomError and old[1].startswith("NotBimoduleMap"), old
        else:
            assert _outcome(lambda: _witness(t3, hat.sparse_cols(), cc,
                                             hat.sparse_cols(), bi.left)) == old
        out.append(old)
    return out


def _compare_comodule(Mc):
    """induced and the counit contraction on C (x)_B M, the coassociativity
    witness of rho, and the comodule endomorphisms."""
    C, M, cm = Mc.coalgebra, Mc.module, Mc.cm
    alg, one = C.alg, ModuleMap.identity(C.carrier)
    assert induced(cm, cm, one, M.act) == ref.induced(cm, cm, one, M.act)
    assert induced(cm, cm, C.bi.left, M.act) == ref.induced(cm, cm, C.bi.left, M.act)
    flat = counit_contraction(alg, C.counit.mat.sparse_cols(), cm, M.act)
    assert ModuleMap(cm.module, M.carrier, descend_cols(cm, flat, M.carrier),
                     validate=False) == \
        ref.counit_contraction(alg, C.counit, cm, M.act)
    t3 = nested_triple_tensor(alg, C.cc, M.carrier, M.act)
    hat = rhohat(Mc)
    assert _witness(t3, C.deltahat_cols, cm, Mc.rhohat_cols, M.act) \
        is None is ref.coassoc_witness(t3, deltahat(C), cm, hat, Mc.rho)
    K, basis = comodule_hom(Mc, Mc)
    K_ref, basis_ref = ref.comodule_hom(Mc, Mc)
    assert K == K_ref and basis == basis_ref


def _suite():
    """(coalgebra, comodules) over F2, Z/4 and GR(4,2)."""
    f2, z4, gr42 = (AlgebraSpec.make(*t) for t in ((2, 1, 1), (2, 2, 1), (2, 2, 2)))
    out = []
    for alg in (f2, z4):
        for r in (1, 2, 3, 4) if alg is f2 else (2,):
            C = comatrix_coalgebra(alg, r)
            out.append((C, [comatrix_standard_comodule(C, r)]))
        for g in (1, 2, 5, 8) if alg is f2 else (3,):
            C = grouplike_coalgebra(alg, g)
            out.append((C, [grouplike_line(C, i) for i in range(min(g, 2))]))
    C = trivial_coalgebra(gr42)
    out.append((C, [cofree(C, free_bmodule(gr42, 1)),
                    cofree(C, _torsion_bmodule(gr42))]))
    return out


def test_suite_coalgebras_and_comodules_match_reference():
    witnesses, suite = set(), _suite()
    for C, comods in suite:
        witnesses.update(out[0] if out[0] != "ok" else out[1]
                         for out in _compare_coalgebra(C))
        for Mc in comods:
            _compare_comodule(Mc)
    # the perturbed deltas give witnesses over F2 and Z/4, and over GR(4,2)
    # a delta that is not B-linear, refused as not a bimodule map
    assert 0 in witnesses and AxiomError in witnesses
    assert any(not Mc.carrier.is_free() for _, comods in suite for Mc in comods)


def _random_coends():
    """Seeded coends of R-rank at most 9, several per ring."""
    out = []
    for i, t in enumerate(RANDOM_RINGS):
        alg, rng = AlgebraSpec.make(*t), random.Random(4100 + i)
        for _ in range(8):
            D = random_diagram(rng, alg, max_obj=3 if alg.fb == 1 else 2,
                               max_rank=2)[0]
            CR = coend(D, check=False)
            if CR.coalgebra.carrier.rank <= 9:
                out.append(CR)
    return out


def _compare_coend(CR):
    """descend_map on T for the flat structure maps, on a flat map that
    misses a relation, then the coalgebra and its lifted comodules; returns
    the witness outcomes of _compare_coalgebra."""
    L = CR.coalgebra
    T = FinModule.free(L.alg.R, CR.classmap.cols)
    P, S = CR.classmap, Matrix.from_sparse(L.alg.R, CR.sect, T.rank)
    for g in (L.counit, L.bi.left, L.bi.right, L.delta):
        flat = ModuleMap(T, g.dst, g.mat @ P, validate=False)
        assert descend_map(flat, CR.rel_rows, L.carrier, S) == \
            ref.descend_map(flat, CR.rel_rows, L.carrier, S) == g
    if CR.rel_rows:
        rel = CR.rel_rows[0]
        i = next(i for i, a in enumerate(rel) if a)
        row = [0] * T.rank
        row[i] = 1
        flat = ModuleMap(T, FinModule.free(L.alg.R, 1),
                         Matrix(L.alg.R, [row], 1, T.rank), validate=False)
        assert _same_descent(
            lambda: descend_map(flat, CR.rel_rows, L.carrier, S),
            lambda: ref.descend_map(flat, CR.rel_rows, L.carrier, S))[0] \
            is ValueError
    outs = _compare_coalgebra(L)
    for Mc in lift_coaction(CR):
        _compare_comodule(Mc)
    return outs


def test_random_coends_match_reference():
    coends = _random_coends()
    outs = {out[0] if out[0] != "ok" else type(out[1])
            for CR in coends for out in _compare_coend(CR)}
    assert outs == {int, type(None), AxiomError}
    rings = {(CR.coalgebra.alg.R.p ** CR.coalgebra.alg.R.n, CR.coalgebra.alg.fb)
             for CR in coends}
    assert rings == {(2, 1), (4, 1), (8, 1), (2, 2), (4, 2)}
    assert any(not CR.coalgebra.carrier.is_free() for CR in coends)


@pytest.mark.parametrize("pnf", [(2, 2, 2), (2, 3, 2)])
def test_mf_coends_match_reference(pnf):
    _compare_coend(coend(mf_family_diagram(*pnf, (0, 1))[0], check=False))


def test_subcomodules_match_reference():
    f2, gr42 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 2, 2)
    seen = 0
    for C, M in ((grouplike_coalgebra(f2, 2), free_bmodule(f2, 1)),
                 (trivial_coalgebra(gr42), _torsion_bmodule(gr42))):
        CF = cofree(C, M)
        for _, gens, _ in enumerate_subcomodules(CF):
            new = subcomodule_as_comodule(CF, gens)
            old = ref.subcomodule_as_comodule(CF, gens)
            assert new == old
            assert (new is None) or new.cm.module == old.cm.module
            seen += new is not None
    assert seen >= 4


def test_a_valuation_failure_is_reported_as_modulemap_reports_it():
    # Z/4-module R/p + R/p presented with no relations: the swap into R^2
    # breaks the valuation condition at (0,1) and at (1,0); the first
    # entry in row order is reported, as ModuleMap reports it
    R = AlgebraSpec.make(2, 2, 1).R
    free2 = FinModule.free(R, 2)
    flat = ModuleMap(free2, free2, Matrix(R, [[0, 1], [1, 0]], 2, 2))
    quotient = FinModule(R, (1, 1))
    new = _same_descent(
        lambda: descend_map(flat, [], quotient, Matrix.identity(R, 2)),
        lambda: ref.descend_map(flat, [], quotient, Matrix.identity(R, 2)))
    assert new == (NotWellDefined, "entry (0,1) has valuation 0 < 1")


def test_a_map_that_ignores_the_torsion_of_the_r_tensor_is_refused():
    # B (x)_B B/p over GR(4,2): its R-tensor is a torsion module, and a
    # functional that kills the middle relations as vectors but not that
    # torsion does not descend to a module map
    alg = AlgebraSpec.make(2, 2, 2)
    data = tensor_bim_bmodule(alg, regular_bimodule(alg), _torsion_bmodule(alg))
    rel = dense(data).rel_cols
    A = Matrix(alg.R, [list(c) for c in zip(*rel.data)], rel.cols, rel.rows)
    K = dense_kernel(A)
    outs = []
    for j in range(K.cols):
        flat = ModuleMap(data.TR.module, FinModule.free(alg.R, 1),
                         Matrix(alg.R, [K.col(j)], 1, K.rows), validate=False)
        outs.append(_same_descent(lambda: descend(data, flat),
                                  lambda: ref.descend(data, flat))[0])
    assert NotWellDefined in outs


def test_a_map_that_misses_a_middle_relation_is_refused():
    alg = AlgebraSpec.make(2, 2, 2)
    for data in (tensor_bimodules(alg, regular_bimodule(alg), regular_bimodule(alg)),
                 tensor_bim_bmodule(alg, regular_bimodule(alg), _torsion_bmodule(alg))):
        i = next(col for col in data.rels if col)[0][0]
        row = [0] * data.TR.module.rank
        row[i] = 1
        flat = ModuleMap(data.TR.module, FinModule.free(alg.R, 1),
                         Matrix(alg.R, [row], 1, len(row)), validate=False)
        assert _same_descent(lambda: descend(data, flat),
                             lambda: ref.descend(data, flat))[0] is ValueError



# ---------------------------------------------------------------------------
# the flat comparisons against the descended path they replaced
# ---------------------------------------------------------------------------

def _code(fn):
    """(code, witness) of an axiom check, ("pass", None) when it passes."""
    try:
        fn()
    except AxiomError as e:
        return e.code, e.witness
    return "pass", None


def _complement(C):
    """psi, a bimodule endomorphism of C with eps psi = 0: left - right when
    the two actions differ, else c |-> c - eps(c) u^-1 . g, g a generator
    with eps(g) = u a unit; None when no generator has one."""
    alg, car = C.alg, C.carrier
    if C.bi.left != C.bi.right:
        return C.bi.left - C.bi.right
    B = alg.B
    eps = [B.from_coeffs(C.counit.apply(car.gen(i))) for i in range(car.rank)]
    piv = next((i for i, e in enumerate(eps) if B.is_unit(e)), None)
    if piv is None:
        return None
    inv = B.inv(eps[piv])
    cols = [car.add(car.gen(i), ref.act_by(alg, C.bi.left, B.neg(B.mul(e, inv)))
                    .apply(car.gen(piv))) for i, e in enumerate(eps)]
    return ModuleMap(car, car, Matrix.from_cols(alg.R, cols, car.rank))


def _broken_deltas(C, psi):
    """delta + (id (x) psi) delta, which breaks the left counit law where
    psi is not zero, delta + (psi (x) id) delta, which breaks the right one,
    and delta + (psi (x) psi x) delta, which keeps both."""
    one, d = ModuleMap.identity(C.carrier), C.delta
    return [d + induced(C.cc, C.cc, f, g) @ d
            for f, g in ((one, psi), (psi, one), (psi, psi @ C.bi.left))]


def test_flat_axiom_checks_match_the_descended_path(monkeypatch):
    # coalgebra_check and comodule_check compare the counit laws and
    # coassociativity on flat lifts, and counit_from_coend reads nu and its
    # coalgebra-morphism flag off them; the descended path of
    # tests/descent_reference.py gives the same codes, witnesses, nu and
    # flag, on the suite, seeded coends over F2, Z/4, Z/8, F4 and GR(4,2)
    # with torsion, and deltas and coactions broken in each axiom
    echoes = []
    real_echo = tannaka.counit_from_coend

    def recorded(C, std_comods, CR):
        echoes.append((C, std_comods, CR))
        return real_echo(C, std_comods, CR)

    monkeypatch.setattr(tannaka, "counit_from_coend", recorded)
    codes, flags, cases = {}, [], _suite()
    for C, comods in cases:
        family = [Mc for Mc in comods if is_cauchy(Mc)]
        if family:
            counit_map(C, family)
    for CR in _random_coends():
        L = CR.coalgebra
        cases.append((L, lift_coaction(CR)))
        echoes.append((L, cases[-1][1], CR))
    for C, comods in cases:
        alg, car, psi = C.alg, C.carrier, _complement(C)
        t3 = nested_triple_tensor(alg, C.cc, car, C.bi.left)
        deltas = [C.delta] + (_broken_deltas(C, psi) if psi else []) + _perturbed(C)
        for delta in deltas:
            got = _code(lambda: coalgebra_check(C.cc, delta, C.counit))
            if got[0] != "NotBimoduleMap":
                assert got == ref.coalgebra_outcome(C.cc, delta, C.counit, C.bi, t3)
                codes[got[0]] = codes.get(got[0], 0) + 1
        for Mc in comods:
            M, cm = Mc.module, Mc.cm
            t3 = nested_triple_tensor(alg, C.cc, M.carrier, M.act)
            rhos = [Mc.rho, Mc.rho + induced(cm, cm, ModuleMap.identity(car), M.act) @ Mc.rho]
            if psi:
                rhos.append(Mc.rho + induced(cm, cm, psi, ModuleMap.identity(M.carrier))
                            @ Mc.rho)
            for rho in rhos:
                got = _code(lambda: comodule_check(C, cm, rho))
                if got[0] != "NotModuleMap":
                    assert got == ref.comodule_outcome(C, cm, rho, M.act, t3)
                    codes[got[0]] = codes.get(got[0], 0) + 1
    for L, std_comods, CR in echoes:
        res = real_echo(L, std_comods, CR)
        assert res.nu == ref.counit_nu(L, std_comods, CR)
        psi = _complement(L)
        for delta in [L.delta] + (_broken_deltas(L, psi) if psi else []):
            C = Coalgebra(L.cc, delta, L.counit)
            flag = real_echo(C, std_comods, CR).coalgebra_morphism
            assert flag == ref.coalgebra_morphism(C, CR.coalgebra, res.nu)
            flags.append(flag)
    # measured: 277 passes, 150, 27 and 29 witnesses; 48 echoes, 120 flags
    # True and 72 False
    assert codes["pass"] >= 250 and codes["CounitLeft"] >= 100 and \
        codes["CounitRight"] >= 20 and codes["Coassoc"] >= 20, codes
    assert len(echoes) >= 40 and flags.count(True) >= 100 and flags.count(False) >= 50, \
        (len(echoes), flags.count(True), flags.count(False))
