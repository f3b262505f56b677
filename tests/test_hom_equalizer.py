"""comodule_hom and mf_hom, solved through modules.hom_equalizer, and the
Hom_B helper of test_coalgebra, solved through the dense equalizer of
hom_reference, against the hand-stacked solvers kept there: equal kernel
exponents and equal basis matrices, entry for entry, on seeded inputs."""

import itertools
import random

import pytest

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap, HomData, hom_module
from tannaka_forge.algebra import AlgebraSpec, free_bmodule, btensor_bmodule
from tannaka_forge.coalgebra import cofree, comodule_hom
from tannaka_forge.tannaka import coend, lift_coaction
from tannaka_forge.mf import mf_hom, mf_make, mf_direct_sum, tate_object
from tannaka_forge.suite import (random_diagram, grouplike_coalgebra,
                                 grouplike_line, comatrix_coalgebra,
                                 comatrix_standard_comodule, trivial_coalgebra)

from hom_reference import ref_b_hom, ref_comodule_hom, ref_mf_hom
from test_coalgebra import b_hom

RINGS = [(2, 1, 1), (2, 3, 1), (2, 2, 2)]    # F2, Z/8 (torsion carriers), GR(4,2)


def _same(got, want):
    (K, basis), (K_ref, basis_ref) = got[:2], want[:2]
    assert K.exps == K_ref.exps
    assert [g.mat.data for g in basis] == [g.mat.data for g in basis_ref]


def _lifted_families():
    out = []
    for a in RINGS:
        alg = AlgebraSpec.make(*a)
        for seed in range(6):
            D = random_diagram(random.Random(seed), alg, max_obj=2, max_rank=2)[0]
            # the coalgebra axioms are tested elsewhere; lift_coaction still
            # checks every coaction it returns
            out.append(lift_coaction(coend(D, check=False)))
    return out


def test_lifted_coactions_match_reference():
    torsion = 0
    for lifted in _lifted_families():
        torsion += any(not Mc.cm.module.is_free() for Mc in lifted)
        for Mc, Nc in itertools.product(lifted, repeat=2):
            _same(comodule_hom(Mc, Nc), ref_comodule_hom(Mc, Nc))
            _same(b_hom(Mc.module, Nc.module),
                  ref_b_hom(Mc.coalgebra.alg, Mc.module, Nc.module))
            CN = btensor_bmodule(Nc.cm)     # C (x)_B N, torsion over Z/8
            _same(b_hom(Mc.module, CN), ref_b_hom(Mc.coalgebra.alg, Mc.module, CN))
    # some draws over Z/8 and GR(4,2) give a coend with a torsion summand,
    # so the target Hom(M, C (x)_B N) is not free
    assert torsion


def test_cofree_comodules_match_reference():
    f2, gr42 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 2, 2)
    cases = []
    C = grouplike_coalgebra(f2, 2)
    CF = cofree(C, free_bmodule(f2, 1))
    cases += [(CF, CF), (grouplike_line(C, 0), CF), (CF, grouplike_line(C, 1))]
    C = comatrix_coalgebra(f2, 2)
    CF, V = cofree(C, free_bmodule(f2, 1)), comatrix_standard_comodule(C, 2)
    cases += [(CF, CF), (V, CF), (CF, V)]
    C = trivial_coalgebra(gr42)
    CF = cofree(C, free_bmodule(gr42, 2))
    cases += [(CF, CF)]
    for Mc, Nc in cases:
        _same(comodule_hom(Mc, Nc), ref_comodule_hom(Mc, Nc))


@pytest.mark.parametrize("pnf", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2),
                                 (2, 3, 1), (3, 2, 1), (2, 3, 2), (2, 64, 1),
                                 (2, 3, 3)])
def test_mf_hom_matches_reference(pnf):
    # twists 0-3, and sums whose summands have unequal windows, so that a
    # step's Fil^i is all of one summand and none of the other
    W = ring_make(*pnf)
    tate = [tate_object(W, k) for k in range(4)]
    objs = tate + [mf_direct_sum(tate[a], tate[b]) for a, b in ((0, 1), (0, 2), (1, 3))]
    nonzero = 0
    for X, Y in itertools.product(objs, repeat=2):
        got = mf_hom(X, Y)
        _same(got, ref_mf_hom(X, Y))
        nonzero += bool(got[1])
    assert nonzero >= len(objs)


def test_mf_hom_torsion_carrier_matches_reference():
    W = ring_make(2, 2, 2)
    M = FinModule(W, (1,))
    X = mf_make(W, M, 0, 0, {0: ModuleMap.identity(M)},
                {0: Matrix.identity(W, 1)})
    _same(mf_hom(X, X), ref_mf_hom(X, X))


def test_comodule_hom_builds_no_target_basis(monkeypatch):
    # only the basis of Hom(M, N) and the kernel basis are built as maps;
    # the condition targets Hom(M, N) and Hom(M, C (x)_B N) are coordinate
    # charts only
    alg = AlgebraSpec.make(2, 1, 1)
    C = comatrix_coalgebra(alg, 2)
    CF = cofree(C, free_bmodule(alg, 1))
    calls = []
    orig = HomData.from_coords

    def counted(self, coords):
        calls.append(1)
        return orig(self, coords)

    monkeypatch.setattr(HomData, "from_coords", counted)
    K, _ = comodule_hom(CF, CF)
    rank_H = hom_module(CF.carrier, CF.carrier).module.rank
    assert rank_H and len(calls) <= rank_H + K.rank
