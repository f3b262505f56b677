"""Coassociativity at f_B = 1, where `_coassoc_witness` builds no nest and
compares the flat Sweedler sums entry by entry, against the comparison on
the flat triple tensor it replaces (`dense_coassoc_witness` on
`flat_triple_tensor`, tests/coassoc_reference.py), witness for witness, on
suite coalgebras, coends with torsion, lifted and cofree comodules and
perturbed delta and rho; and the memory the triple tensor no longer
takes."""

import random
import tracemalloc

from tannaka_forge import textio
from tannaka_forge.algebra import AlgebraSpec, free_bmodule
from tannaka_forge.coalgebra import _coassoc_witness, cofree
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import ModuleMap
from tannaka_forge.suite import (comatrix_coalgebra, comatrix_diagram,
                                 comatrix_standard_comodule, grouplike_coalgebra,
                                 grouplike_line, mf_family_diagram,
                                 random_diagram, trivial_coalgebra)
from tannaka_forge.tannaka import coend, hom_closure, lift_coaction

from coassoc_reference import dense_coassoc_witness, flat_triple_tensor

FIELD_ALGS = [(2, 1, 1), (3, 1, 1), (2, 2, 1)]          # F2, F3, Z/4

# the Z/3^64 coend of the CI pin: L has torsion exponents 64, 64, 1
Z3_64 = """alg R=GR(3^64,1) B=GR(3^64,1)
object A rank 2
object B rank 1
hom A A = [[[1,0],[0,1]],[[0,3],[0,0]]]
hom B A = [[[1],[0]]]
"""


def _coends():
    out = [comatrix_diagram(AlgebraSpec.make(2, 1, 1), 2),
           mf_family_diagram(2, 2, 1, (0, 1), with_sum=True)[0],
           hom_closure(textio.parse_diagram(Z3_64))]
    # over Z/8 these coends have torsion summands
    alg8 = AlgebraSpec.make(2, 3, 1)
    out += [random_diagram(random.Random(s), alg8, max_obj=2, max_rank=2)[0]
            for s in (0, 5, 7)]
    return [coend(D) for D in out]


def _bumped(rng, phi, g):
    """phi plus a nonzero random vector at generator g, scaled so that the
    map stays well defined on a torsion source."""
    R, src, dst = phi.src.ring, phi.src, phi.dst
    cols = [list(phi.apply(src.gen(i))) for i in range(src.rank)]
    bump = [rng.randrange(R.size) if rng.random() < 0.3 else 0 for _ in dst.exps]
    bump[rng.randrange(dst.rank)] = R.p_elem(0)         # a unit entry
    bump = [R.mul(b, R.p_elem(max(0, e - src.exps[g])))
            for b, e in zip(bump, dst.exps)]
    cols[g] = list(dst.add(cols[g], dst.reduce(bump)))
    return ModuleMap(src, dst, Matrix.from_cols(R, cols, dst.rank))


def _both(cc, deltahat, src, hat, zact):
    """The witness of the one comparison, with no nest, and the one on the
    flat triple tensor, zact the x-action of rho's source.  At f_B = 1 a
    lift is the identity on coordinates, so hat, the lift of rho, is also
    rho's own columns."""
    C_car = cc.TR.left
    t3 = flat_triple_tensor(src.alg, C_car, None, C_car, None, None,
                            src.TR.right, None)
    return (_coassoc_witness(cc, deltahat, src, hat, zact),
            dense_coassoc_witness(t3, deltahat, src, hat, hat))


def test_sweedler_witness_matches_flat_triple_tensor():
    rng = random.Random(1969)
    coalgebras = []
    for a in FIELD_ALGS:
        alg = AlgebraSpec.make(*a)
        coalgebras.append(trivial_coalgebra(alg))
        coalgebras += [grouplike_coalgebra(alg, g) for g in (1, 2, 3)]
        coalgebras += [comatrix_coalgebra(alg, r) for r in (1, 2, 3)]
    comodules = []
    for CR in _coends():
        coalgebras.append(CR.coalgebra)
        comodules += lift_coaction(CR)
    assert any(not C.carrier.is_free() for C in coalgebras)
    for C in coalgebras:
        comodules.append(cofree(C, free_bmodule(C.alg, 1)))
    for a in FIELD_ALGS:
        alg = AlgebraSpec.make(*a)
        C = grouplike_coalgebra(alg, 3)
        comodules += [grouplike_line(C, i) for i in range(3)]
        comodules.append(comatrix_standard_comodule(comatrix_coalgebra(alg, 3), 3))
    checks = witnesses = 0
    for C in coalgebras:
        for trial in range(9):
            delta = C.delta if trial == 0 else \
                _bumped(rng, C.delta, rng.randrange(C.carrier.rank))
            cols = delta.mat.sparse_cols()
            got, want = _both(C.cc, cols, C.cc, cols, C.bi.left)
            assert got == want, (C.carrier, trial)
            checks, witnesses = checks + 1, witnesses + (want is not None)
            if trial == 0:
                assert want is None
    for Mc in comodules:
        dcols = Mc.coalgebra.delta.mat.sparse_cols()
        for trial in range(9):
            rho = Mc.rho if trial == 0 else \
                _bumped(rng, Mc.rho, rng.randrange(Mc.carrier.rank))
            got, want = _both(Mc.coalgebra.cc, dcols, Mc.cm, rho.mat.sparse_cols(),
                              Mc.module.act)
            assert got == want, (Mc.carrier, trial)
            checks, witnesses = checks + 1, witnesses + (want is not None)
            if trial == 0:
                assert want is None
    assert checks >= 500 and witnesses >= 400, (checks, witnesses)


def test_f2_rank8_checked_coend_builds_no_triple_tensor():
    # L has rank 64; its triple tensor had rank 262,144, and the checked
    # coend peaked at 57 MB under tracemalloc, where in Sweedler
    # coordinates it peaks at about 6 MB
    D = comatrix_diagram(AlgebraSpec.make(2, 1, 1), 8)
    tracemalloc.start()
    try:
        CR = coend(D, check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert CR.coalgebra.carrier.rank == 64
    assert peak < 20 << 20, peak
