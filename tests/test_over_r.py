"""At f_B = 1, B is R with x = 1 (ring_make's modulus is x - 1), so a tensor
over B is its R-tensor and `BTensor` takes every shortcut that follows
(`BTensor.over_r`): unit outer actions, lifts that return their input,
induced maps with no projection, counit contractions with no descent.

The shortcut rests on every x-action being the identity at f_B = 1, which
`_check_modulus` enforces and the constructions that skip it satisfy.  The
differential tests compare the shortcuts with the general path, over_r read
as False, where every map out of a tensor is projected and descended by
`descend_sparse` through the unit sections and the outer actions are
induced: equal modules, actions, deltas, lifts, counit contractions, echo
maps and the witnesses of the `test_coassoc` perturbations."""

import random

import pytest

from tannaka_forge import modules
from tannaka_forge.algebra import (AlgebraSpec, BBBimodule, BModule, BTensor,
                                   ModulusViolation, _check_modulus,
                                   btensor_bmodule, free_bmodule,
                                   regular_bimodule, tensor_bimodules,
                                   tensor_bim_bmodule)
from tannaka_forge.coalgebra import (AxiomError, coalgebra_check, cofree,
                                     comodule_check, counit_contraction)
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.suite import (comatrix_coalgebra, comatrix_diagram,
                                 comatrix_standard_comodule, grouplike_coalgebra,
                                 grouplike_diagram, grouplike_line, mf_family_diagram,
                                 random_diagram)
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, coend, counit_map,
                                   hom_closure, lift_coaction)
from tannaka_forge.textio import (format_reconstruct_input, parse_diagram,
                                  parse_reconstruct_input)

from test_coassoc import _counit_kernel, _perturbed_delta, _perturbed_rho

# F2, F3, F5, Z/4, Z/8, Z/9 and Z/3^64, each with B = R
PN = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (3, 64)]


def _identity_diagram(alg, r):
    return DiagramCategory(alg, [DiagObject("A", r)], {(0, 0): [Matrix.identity(alg.B, r)]})


def _torsion_diagram(n, entry):
    """A0 -> A1 over Z/2^n by the column (entry, 0): its coend has torsion."""
    return hom_closure(parse_diagram(
        "alg R=GR(2^%d,1) B=GR(2^%d,1)\nobject A0 rank 1\nobject A1 rank 2\n"
        "hom A0 A1 = [[[%d],[0]]]\n" % (n, n, entry)))


def _torsion_bmodule(alg, exps):
    car = FinModule(alg.R, exps)
    return BModule(alg, car, ModuleMap.identity(car))


def _carriers(R):
    """A free carrier and, when n >= 2, one with torsion."""
    out = [FinModule.free(R, 3)]
    if R.n >= 2:
        out.append(FinModule(R, (R.n, R.n - 1, 1)))
    return out


def _random_endo(rng, M):
    """A seeded endomorphism of M: entry (j, i) a multiple of
    p^max(0, e_j - e_i), as every map out of R/p^e_i must be."""
    R = M.ring
    cols = [[(j, R.mul(rng.randrange(R.q), R.p_elem(max(0, d - e))))
             for j, d in enumerate(M.exps)] for e in M.exps]
    return ModuleMap(M, M, cols)


def _is_identity(act):
    return act == ModuleMap.identity(act.src)


# ---------------------------------------------------------------------------
# the precondition: every x-action at f_B = 1 is the identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", PN)
def test_modulus_admits_only_the_identity(p, n):
    # h = x - 1, so h(act) = 0 says act = 1: the identity passes, and every
    # other endomorphism, including the identity bumped by one unit of the
    # socle p^(e - 1), is refused, by BModule and BBBimodule too
    alg = AlgebraSpec.make(p, n, 1)
    R = alg.R
    assert alg.B.h == (R.neg(1), 1)
    rng = random.Random(51 * p + n)
    refused = 0
    for M in _carriers(R):
        one = ModuleMap.identity(M)
        _check_modulus(alg, one, "module")
        BModule(alg, M, one)
        bumped = [list(col) for col in one.cols]
        bumped[0] = [(0, R.add(1, R.p_elem(M.exps[0] - 1)))]
        acts = [ModuleMap(M, M, bumped)] + [_random_endo(rng, M) for _ in range(12)]
        for act in acts:
            if _is_identity(act):
                _check_modulus(alg, act, "module")
                continue
            refused += 1
            with pytest.raises(ModulusViolation):
                _check_modulus(alg, act, "module")
            with pytest.raises(ModulusViolation):
                BModule(alg, M, act)
            with pytest.raises(ModulusViolation):
                BBBimodule(alg, M, one, act)
    assert refused >= 13


@pytest.mark.parametrize("p,n", PN)
def test_unchecked_constructions_yield_identity_actions(p, n):
    # free_bmodule, regular_bimodule and btensor_bmodule skip _check_modulus,
    # and the coend builds L_bi from its own columns: each action is the
    # identity, as is every action parse_reconstruct_input accepts
    alg = AlgebraSpec.make(p, n, 1)
    for r in (1, 3):
        assert _is_identity(free_bmodule(alg, r).act)
    breg = regular_bimodule(alg)
    assert _is_identity(breg.left) and _is_identity(breg.right)
    diagrams = [comatrix_diagram(alg, 2), grouplike_diagram(alg, 2)]
    if p == 2 and n in (2, 3):
        diagrams.append(_torsion_diagram(n, 2))
    for D in diagrams:
        CR = coend(D)
        L = CR.coalgebra
        assert _is_identity(L.bi.left) and _is_identity(L.bi.right)
        for Mc in lift_coaction(CR):
            assert _is_identity(btensor_bmodule(Mc.cm).act)
        for M in [free_bmodule(alg, 2)] + ([_torsion_bmodule(alg, (n, 1))] if n > 1 else []):
            assert _is_identity(btensor_bmodule(tensor_bim_bmodule(alg, L.bi, M)).act)
    C = grouplike_coalgebra(alg, 2)
    text = format_reconstruct_input(C, [grouplike_line(C, i) for i in range(2)])
    C2, family = parse_reconstruct_input(text)
    assert _is_identity(C2.bi.left) and _is_identity(C2.bi.right)
    assert all(_is_identity(Mc.module.act) for Mc in family)
    # an action other than the identity is refused at parse time
    bad = text.replace("action = [[1]]", "action = [[%d]]" % (alg.R.q - 1), 1)
    if alg.R.q > 2:
        with pytest.raises(ModulusViolation):
            parse_reconstruct_input(bad)


# ---------------------------------------------------------------------------
# counting: no projection or descent at f_B = 1
# ---------------------------------------------------------------------------

def _general(monkeypatch):
    """Read over_r as False: the general path through the unit sections."""
    monkeypatch.setattr(BTensor, "over_r", property(lambda self: False))


def _tensor_calls(count_calls, alg):
    """sparse_image and descend_sparse calls of the two tensor
    constructors, whose outer actions are descended, and descend_sparse
    calls of the three counit contractions, on the coend of the rank-2
    identity."""
    C = coend(hom_closure(_identity_diagram(alg, 2)), check=False).coalgebra
    M = free_bmodule(alg, 2)
    counts = count_calls((modules, "sparse_image"), (modules, "descend_sparse"))
    cc = tensor_bimodules(alg, C.bi, C.bi)
    cm = tensor_bim_bmodule(alg, C.bi, M)
    images, descents = counts["sparse_image"], counts["descend_sparse"]
    ecols = C.counit.cols
    counit_contraction(alg, ecols, cc, C.bi.left)
    counit_contraction(alg, ecols, cc, C.bi.right, left=False)
    counit_contraction(alg, ecols, cm, M.act)
    return images, descents, counts["descend_sparse"] - descents


def test_tensors_project_and_descend_only_over_b(monkeypatch, count_calls):
    # the outer actions cc.left, cc.right and cm.left are descended over B;
    # the counit contractions are flat maps, descended on no path
    f2, gr42 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 2, 2)
    assert _tensor_calls(count_calls, f2) == (0, 0, 0)
    images, descents, contractions = _tensor_calls(count_calls, gr42)
    assert images > 0 and descents == 3 and contractions == 0
    # and the general path at f_B = 1 is the one the differential tests read
    _general(monkeypatch)
    images, descents, contractions = _tensor_calls(count_calls, f2)
    assert images > 0 and descents == 3 and contractions == 0


# ---------------------------------------------------------------------------
# differential: the shortcuts against the general path
# ---------------------------------------------------------------------------

def _outcome(fn):
    """("outcome", code, witness) of a check, or of the error it raised."""
    try:
        fn()
        return ("outcome", "pass", None)
    except AxiomError as e:
        return ("outcome", e.code, e.witness)
    except ValueError as e:
        return ("outcome", type(e).__name__, str(e))


def _coalgebra_record(C, rng, trials):
    """The tensor square, its actions, delta, its lift, both counit
    contractions and the outcomes of perturbed deltas, unless the counit's
    kernel, which the perturbations draw from, is zero; and that kernel."""
    alg, cc, ker = C.alg, C.cc, _counit_kernel(C)
    rec = [C.carrier, C.bi.left.cols, C.bi.right.cols, cc.module, cc.left, cc.right,
           C.delta.cols, C.counit.cols, C.deltahat_cols]
    rec += [counit_contraction(alg, C.counit.cols, cc, act, left)
            for left, act in ((True, C.bi.left), (False, C.bi.right))]
    rec += [_outcome(lambda: coalgebra_check(cc, _perturbed_delta(rng, C, t % 3 != 2),
                                             C.counit))
            for t in range(trials if ker else 0)]
    return rec, ker


def _comodule_record(Mc, rng, ker, trials):
    C, cm = Mc.coalgebra, Mc.cm
    rec = [Mc.carrier, Mc.module.act.cols, cm.module, cm.left, Mc.rho.cols,
           Mc.rhohat_cols, counit_contraction(C.alg, C.counit.cols, cm, Mc.module.act)]
    rec += [_outcome(lambda: comodule_check(C, cm, _perturbed_rho(rng, Mc, ker)))
            for _ in range(trials if ker else 0)]
    return rec


def _coend_record(D, seed, trials):
    rng = random.Random(seed)
    CR = coend(D)
    C = CR.coalgebra
    rec, ker = _coalgebra_record(C, rng, trials)
    rec.append(CR.classes)
    for Mc in lift_coaction(CR):
        rec += _comodule_record(Mc, rng, ker, 2)
    return rec


def _reconstruct_record(text, seed, trials):
    """parse_reconstruct_input, the family's records and the echo's nu."""
    rng = random.Random(seed)
    C, family = parse_reconstruct_input(text)
    rec, ker = _coalgebra_record(C, rng, trials)
    for Mc in family:
        rec += _comodule_record(Mc, rng, ker, 2)
    res = counit_map(C, family)
    return rec + [res.nu.cols, res.iso, res.coalgebra_morphism]


def _cofree_record(C, M, seed):
    rng = random.Random(seed)
    return _comodule_record(cofree(C, M), rng, _counit_kernel(C), 3)


def _same_on_both_paths(monkeypatch, record):
    new = record()
    with monkeypatch.context() as m:
        _general(m)
        old = record()
    assert new == old
    return new


def test_f2_identity_ladder_matches_the_general_path(monkeypatch):
    F2 = AlgebraSpec.make(2, 1, 1)
    for r, trials in ((2, 6), (3, 6), (4, 6), (8, 2)):
        D = hom_closure(_identity_diagram(F2, r))
        rec = _same_on_both_paths(monkeypatch, lambda: _coend_record(D, 100 + r, trials))
        assert rec[0].rank == r * r


def test_verify_field_inputs_match_the_general_path(monkeypatch):
    F2, F3 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(3, 1, 1)
    codes = set()
    for seed, D in enumerate([comatrix_diagram(F2, 3), comatrix_diagram(F3, 3),
                              grouplike_diagram(F2, 12), comatrix_diagram(F2, 4),
                              mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)[0],
                              mf_family_diagram(2, 2, 1, (0, 1), with_sum=True)[0]]):
        rec = _same_on_both_paths(monkeypatch, lambda: _coend_record(D, seed, 6))
        codes.update(x[1] for x in rec if isinstance(x, tuple) and x[0] == "outcome")
    C = comatrix_coalgebra(F2, 3)
    texts = [format_reconstruct_input(C, [comatrix_standard_comodule(C, 3)])]
    C = grouplike_coalgebra(F2, 8)
    texts.append(format_reconstruct_input(C, [grouplike_line(C, i) for i in range(8)]))
    for seed, text in enumerate(texts):
        rec = _same_on_both_paths(monkeypatch, lambda: _reconstruct_record(text, seed, 6))
        assert rec[-2:] == [True, True]
    # the perturbations reach the coassociativity comparison and pass it
    assert {"pass", "Coassoc"} <= codes


def test_torsion_carriers_match_the_general_path(monkeypatch):
    seeds = iter(range(18, 100))
    for n in (2, 3):
        alg = AlgebraSpec.make(2, n, 1)
        D = _torsion_diagram(n, 2)
        rec = _same_on_both_paths(monkeypatch, lambda: _coend_record(D, n, 6))
        assert not rec[0].is_free()
        for s in range(3):
            D = random_diagram(random.Random(1000 * n + s), alg, max_obj=2, max_rank=2)[0]
            _same_on_both_paths(monkeypatch, lambda: _coend_record(D, s, 4))
        for C in (comatrix_coalgebra(alg, 2), grouplike_coalgebra(alg, 3),
                  coend(_torsion_diagram(n, 2)).coalgebra):
            for exps in ((n, 1), (1, 1), (n - 1,)):
                M, seed = _torsion_bmodule(alg, exps), next(seeds)
                rec = _same_on_both_paths(monkeypatch, lambda: _cofree_record(C, M, seed))
                assert not rec[0].is_free()
