"""The sparse coassociativity comparison on the nested triple tensor against
the dense reference on the same quotient and on the flat one-Smith quotient,
the nest in B-coordinates against the Smith quotient it replaces, and the
memory and Smith-size bounds they make possible."""

import random

import pytest

from tannaka_forge import coalgebra, linalg, modules
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.algebra import (AlgebraSpec, BModule, FreeNest,
                                   free_bmodule, regular_bimodule,
                                   BBBimodule, tensor_bimodules, induced,
                                   nest_tensor, as_b_module)
from tannaka_forge.coalgebra import (coalgebra_check, comodule_check, cofree,
                                     AxiomError)
from tannaka_forge.suite import (trivial_coalgebra, grouplike_coalgebra,
                                 comatrix_coalgebra, grouplike_line,
                                 comatrix_standard_comodule, comatrix_diagram,
                                 trivial_full_hom_diagram, mf_family_diagram,
                                 random_diagram)
from tannaka_forge.tannaka import coend, lift_coaction, unit_fully_faithful_check

from coassoc_reference import (FlatTripleTensor, as_triple,
                               dense_coassoc_witness, dense_tensor_free,
                               flat_triple_tensor, nested_triple_tensor,
                               quotient_triple_tensor, reference_nest)
from dense_tensor import dense, from_cols, pure
from descent_reference import act_by

FIELD_ALGS = [(2, 1, 1), (3, 1, 1), (2, 2, 1)]          # F2, F3, Z/4
WITT_ALGS = [(2, 1, 2), (2, 2, 2)]                      # F4, GR(4,2)
PASS = ("pass", None)


def _outcome(fn):
    try:
        fn()
    except AxiomError as e:
        return (e.code, e.witness)
    return PASS


def _assert_nest_agrees(nest, quotient, reference):
    """The nest in B-coordinates against the dense nest the reference
    builds, (module, proj, sect), over the flat tensor of the Smith quotient
    of the same nest: equal modules and exponents; project_pair(q, k) equal
    to the reference's column for every flat pair (q, k), entry for entry;
    the projection kills every middle relation of the quotient, and the
    projection after the reference's section is the identity."""
    R, mod, TR = quotient.alg.R, nest.module, quotient.TR
    ref_module, ref_proj, ref_sect = reference
    assert mod == ref_module
    assert mod.exps == quotient.module.exps
    pcols = [None] * TR.module.rank
    for (q, k), c in TR.pos.items():
        pcols[c] = nest.project_pair(q, k)
    assert pcols == ref_proj.mat.sparse_cols()

    def image(col):
        acc = [0] * mod.rank
        for k, c in col:
            for r, a in pcols[k]:
                acc[r] = R.add(acc[r], R.mul(c, a))
        return mod.reduce(acc)

    assert all(image(col) == (0,) * mod.rank for col in quotient.rels)
    assert [image(col) for col in ref_sect.sparse_cols()] == \
        [mod.gen(r) for r in range(mod.rank)]


def _checked_nest(kinds, alg, xy, Z_car, Z_left):
    """nest_tensor's nest and, when it is built in B-coordinates, the
    nested Smith quotient of the same flat tensor, else None.  A nest in
    B-coordinates must agree with that quotient and with the dense
    reference nest (_assert_nest_agrees).  kinds collects "free" or
    "quotient" for each nest built."""
    nest = nest_tensor(alg, xy, Z_car, Z_left)
    if not isinstance(nest, FreeNest):
        kinds.append("quotient")
        return nest, None
    q = quotient_triple_tensor(alg, xy, Z_car, Z_left)
    _assert_nest_agrees(nest, q.nest, dense_tensor_free(
        alg, xy, Z_car, as_b_module(alg, Z_car, Z_left)))
    kinds.append("free")
    return nest, q


def _outcomes(monkeypatch, fn, bi, kinds, references=True):
    """The outcomes of fn, which checks a coalgebra or comodule over the
    coalgebra bimodule bi: with the one sparse comparison (on the nest it
    builds for a flat difference when f_B >= 2, on the flat Sweedler sums
    with no nest when f_B = 1), with the dense reference on the nested
    quotient (when f_B = 1, on the flat triple tensor) and, when f_B >= 2,
    with the dense reference on the flat one-Smith quotient.  The
    references must actually have run, and the nested and flat quotients
    must have the same exponents.  The check builds at most one nest, only
    when f_B >= 2, and one for every Coassoc witness there; whenever it
    builds one in B-coordinates, the sparse comparison must give the same
    witness on the Smith quotient of the same nest.  Every nest a reference
    comparison reaches is built by nest_tensor as well and checked by
    _checked_nest.  The dense reference runs on reference_nest, with rho's
    columns read back from its lift by src's projection.  With references
    False only the first run is made."""
    calls, built, exps = [], [], {"nested": [], "flat": []}
    quotients = []
    witness = coalgebra._coassoc_witness

    def reference(cc, deltahat, src, hat, zact):
        # the reference nest, the flat one-Smith quotient, or when f_B = 1
        # (no nest) the flat triple tensor, which is then the quotient
        calls.append(1)
        if cc.over_r:
            C_car = cc.TR.left
            t3 = flat_triple_tensor(bi.alg, C_car, None, C_car, None, None,
                                    src.TR.right, None)
            exps["nested"].append(t3.module.exps)
        else:
            t3 = coalgebra.nest_tensor(src.alg, cc, src.TR.right, zact)
            if not isinstance(t3, FlatTripleTensor):
                nest, _ = _checked_nest(kinds, src.alg, cc, src.TR.right, zact)
                exps["nested"].append(nest.module.exps)
                t3 = as_triple(cc, t3)
        return dense_coassoc_witness(t3, deltahat, src, hat, src.project(hat))

    def nested(alg, xy, Z_car, Z_left):
        nest, q = _checked_nest(kinds, alg, xy, Z_car, Z_left)
        built.append(nest)
        quotients.extend([q] if q else [])
        return nest

    def compared(*args):
        w = witness(*args)
        if quotients:
            q = quotients.pop()
            with monkeypatch.context() as m:
                m.setattr(coalgebra, "nest_tensor", lambda *_: q.nest)
                assert w == witness(*args)
        return w

    def flat(alg, xy, Z_car, Z_left):
        t3 = flat_triple_tensor(alg, bi.carrier, bi.right, bi.carrier,
                                bi.left, bi.right, Z_car, Z_left)
        exps["flat"].append(t3.module.exps)
        return t3

    with monkeypatch.context() as m:
        m.setattr(coalgebra, "nest_tensor", nested)
        m.setattr(coalgebra, "_coassoc_witness", compared)
        out = [_outcome(fn)]
    assert not quotients, "a B-coordinate nest was never compared"
    assert len(built) <= 1 and (not built or bi.alg.fb > 1), built
    if out[0][0] == "Coassoc" and bi.alg.fb > 1:
        assert built, "a witness at f_B >= 2 was read without a nest"
    if not references:
        return out
    with monkeypatch.context() as m:
        m.setattr(coalgebra, "nest_tensor", reference_nest)
        m.setattr(coalgebra, "_coassoc_witness", reference)
        out.append(_outcome(fn))
        if bi.alg.fb > 1:
            m.setattr(coalgebra, "nest_tensor", flat)
            out.append(_outcome(fn))
            assert exps["flat"] == exps["nested"]
    if out[0][0] not in ("NotBimoduleMap", "NotModuleMap",
                         "CounitLeft", "CounitRight"):
        assert calls, "the reference comparison was never reached"
        assert exps["nested"], "no triple tensor was built"
    return out


def _recheck_coalgebra(C):
    return lambda: coalgebra_check(C.cc, C.delta, C.counit)


def _recheck_comodule(Mc):
    return lambda: comodule_check(Mc.coalgebra, Mc.cm, Mc.rho)


def _b_grouplike(alg, g):
    """B^g with delta(x^k e_i) = x^k e_i (x) e_i and eps(x^k e_i) = x^k:
    a grouplike coalgebra whose elements are B-multiples, for any f_B."""
    fb = alg.fb
    M = free_bmodule(alg, g)
    bi = BBBimodule(alg, M.carrier, M.act, M.act)
    cc = tensor_bimodules(alg, bi, bi)
    cols = [list(pure(cc, M.carrier.gen(i * fb + k), M.carrier.gen(i * fb)))
            for i in range(g) for k in range(fb)]
    delta = ModuleMap(M.carrier, cc.module,
                      from_cols(alg.R, cols, cc.module.rank))
    eps = Matrix.zeros(alg.R, fb, g * fb)
    for i in range(g):
        for k in range(fb):
            eps.data[k][i * fb + k] = 1
    counit = ModuleMap(M.carrier, FinModule.free(alg.R, fb), eps)
    return coalgebra_check(cc, delta, counit)


def _torsion_bmodule(alg):
    """B/p, a B-module that is not free when n >= 2."""
    car = FinModule(alg.R, (1,) * alg.fb)
    return BModule(alg, car, ModuleMap(car, car, alg.x_cols(1)))


def _suite_coalgebras():
    out = []
    for p, n, f in FIELD_ALGS:
        alg = AlgebraSpec.make(p, n, f)
        out.append(trivial_coalgebra(alg))
        out += [grouplike_coalgebra(alg, g) for g in (1, 2, 3)]
        out += [comatrix_coalgebra(alg, r) for r in (1, 2, 3)]
    for p, n, f in WITT_ALGS:
        alg = AlgebraSpec.make(p, n, f)
        out += [trivial_coalgebra(alg), _b_grouplike(alg, 2)]
    return out


def _coend_diagrams():
    out = [comatrix_diagram(AlgebraSpec.make(2, 1, 1), 2)]
    out += [trivial_full_hom_diagram(AlgebraSpec.make(*a))
            for a in WITT_ALGS + [(2, 2, 3), (2, 3, 2)]]
    # coends whose left and right B-actions differ, so the nested quotient
    # must pair the right action of C (x)_B C with the left action of Z
    out += [random_diagram(random.Random(s), AlgebraSpec.make(*a),
                           max_obj=2, max_rank=2)[0]
            for s, a in zip((1, 2), WITT_ALGS)]
    out.append(mf_family_diagram(2, 2, 1, (0, 1), with_sum=True)[0])
    # over Z/8 these two coends have a torsion summand, so the valuation
    # checks of the descended maps are exercised
    alg8 = AlgebraSpec.make(2, 3, 1)
    out += [random_diagram(random.Random(s), alg8, max_obj=2, max_rank=2)[0]
            for s in (0, 5)]
    return out


def test_coalgebras_agree_with_dense(monkeypatch):
    kinds = []
    for C in _suite_coalgebras():
        assert set(_outcomes(monkeypatch, _recheck_coalgebra(C), C.bi,
                             kinds)) == {PASS}
    assert "free" in kinds


def test_comodules_agree_with_dense(monkeypatch):
    comods = []
    for C in _suite_coalgebras():
        comods.append(cofree(C, free_bmodule(C.alg, 2)))
    for p, n, f in FIELD_ALGS:
        alg = AlgebraSpec.make(p, n, f)
        C = grouplike_coalgebra(alg, 3)
        comods += [grouplike_line(C, i) for i in range(3)]
        comods.append(comatrix_standard_comodule(comatrix_coalgebra(alg, 3), 3))
    kinds = []
    for D in _coend_diagrams():
        CR = coend(D)
        comods += lift_coaction(CR)
        comods.append(cofree(CR.coalgebra, free_bmodule(D.alg, 1)))
        C = CR.coalgebra
        assert set(_outcomes(monkeypatch, _recheck_coalgebra(C), C.bi,
                             kinds)) == {PASS}
    # cofree comodules on a torsion B-module: their triple tensors keep the
    # Smith quotient
    alg = AlgebraSpec.make(2, 2, 2)
    comods += [cofree(C, _torsion_bmodule(alg))
               for C in (trivial_coalgebra(alg), _b_grouplike(alg, 2))]
    assert any(not Mc.carrier.is_free() for Mc in comods)
    for Mc in comods:
        assert set(_outcomes(monkeypatch, _recheck_comodule(Mc),
                             Mc.coalgebra.bi, kinds)) == {PASS}
    assert "free" in kinds and "quotient" in kinds


def _counit_kernel(C):
    """Generators g - eps(g) . g_piv of ker(eps), g_piv with eps a unit."""
    B, car = C.alg.B, C.carrier
    eps = [B.from_coeffs(C.counit.apply(car.gen(i))) for i in range(car.rank)]
    piv = next(i for i, e in enumerate(eps) if B.is_unit(e))
    inv = B.inv(eps[piv])
    return [car.add(car.gen(i),
                    act_by(C.alg, C.bi.left, B.neg(B.mul(e, inv))).apply(car.gen(piv)))
            for i, e in enumerate(eps) if i != piv]


def _perturbed_delta(rng, C, counital):
    """delta plus a random term at one B-generator, extended B-linearly.
    A counital term u (x) v with eps(u) = eps(v) = 0 keeps both counit laws,
    so only coassociativity can fail; otherwise the term is arbitrary."""
    alg, car, fb = C.alg, C.carrier, C.alg.fb
    R, cc = alg.R, C.cc
    act = C.bi.left
    if counital:
        ker = _counit_kernel(C)
        u, v = rng.choice(ker), rng.choice(ker)
        c = rng.randrange(1, R.size)
        u = car.reduce([R.mul(c, a) for a in u])
    else:
        u = car.reduce([rng.randrange(R.size) for _ in range(car.rank)])
        v = car.reduce([rng.randrange(R.size) for _ in range(car.rank)])
    s = rng.randrange(car.rank // fb)
    cols = [list(C.delta.apply(car.gen(i))) for i in range(car.rank)]
    for k in range(fb):
        cols[s * fb + k] = list(cc.module.add(cols[s * fb + k], pure(cc, u, v)))
        u = act.apply(u)
    return ModuleMap(car, cc.module, from_cols(R, cols, cc.module.rank))


def _not_coassociative(C):
    """delta + (k (x) k x) delta, k the bimodule map left - right action and
    x the left one: a bimodule map killed by eps on either side, so only
    coassociativity can fail, and it does on a coend whose two actions
    differ."""
    k = C.bi.left - C.bi.right
    return C.delta + induced(C.cc, C.cc, k, k @ C.bi.left) @ C.delta


def _perturbed_rho(rng, Mc, ker):
    """rho + (m |-> c u (x) x^j m) for u in ker, the counit's kernel: it
    keeps the counit law, and it is B-linear when the coalgebra's left and
    right actions are equal."""
    C, M, cm = Mc.coalgebra, Mc.module, Mc.cm
    R = C.alg.R
    u = C.carrier.reduce([R.mul(rng.randrange(1, R.size), a)
                          for a in rng.choice(ker)])
    phi = ModuleMap.identity(M.carrier)
    for _ in range(rng.randrange(C.alg.fb)):
        phi = M.act @ phi
    cols = [list(cm.module.add(Mc.rho.apply(g), pure(cm, u, phi.apply(g))))
            for g in (M.carrier.gen(i) for i in range(M.carrier.rank))]
    return ModuleMap(M.carrier, cm.module, from_cols(R, cols, cm.module.rank))


def _perturbable_coalgebras():
    out = []
    for p, n, f in FIELD_ALGS:
        alg = AlgebraSpec.make(p, n, f)
        out += [grouplike_coalgebra(alg, 3), comatrix_coalgebra(alg, 2)]
    out += [_b_grouplike(AlgebraSpec.make(*a), 3) for a in WITT_ALGS]
    return out


def test_perturbed_coalgebras_agree_with_dense(monkeypatch):
    rng = random.Random(20260)
    codes, kinds = {}, []
    for C in _perturbable_coalgebras():
        for trial in range(6):
            delta = _perturbed_delta(rng, C, counital=trial % 3 != 2)
            out = _outcomes(monkeypatch,
                            lambda: coalgebra_check(C.cc, delta, C.counit),
                            C.bi, kinds)
            assert len(set(out)) == 1
            codes.setdefault(C.alg.fb, set()).add(out[0][0])
    # the perturbations reach the coassociativity comparison for both f_B
    assert "Coassoc" in codes[1] and "Coassoc" in codes[2]
    assert "free" in kinds


def test_perturbed_comodules_agree_with_dense(monkeypatch):
    # rho + (m |-> c u (x) x^j m) with eps(u) = 0 keeps the counit law; it
    # is B-linear because every coalgebra here has equal left and right
    # actions
    rng = random.Random(4711)
    codes, kinds = {}, []
    for C in _perturbable_coalgebras():
        ker = _counit_kernel(C)
        Mc = cofree(C, free_bmodule(C.alg, 1))
        for _ in range(4):
            rho = _perturbed_rho(rng, Mc, ker)
            out = _outcomes(monkeypatch, lambda: comodule_check(C, Mc.cm, rho),
                            C.bi, kinds)
            assert len(set(out)) == 1
            codes.setdefault(C.alg.fb, set()).add(out[0][0])
    assert "Coassoc" in codes[1] and "Coassoc" in codes[2]
    assert "free" in kinds


def test_descent_failure_agrees_with_dense():
    # a delta that is not B-linear does not descend, so (delta (x) id) and
    # (id (x) delta) are not defined on C (x)_B C: coalgebra_check refuses
    # it as not a bimodule map before the comparison, which reads only flat
    # lifts, runs, and the dense references refuse to descend it
    for a in WITT_ALGS:
        alg = AlgebraSpec.make(*a)
        C = _b_grouplike(alg, 2)
        car, cc = C.carrier, C.cc
        cols = [list(C.delta.apply(car.gen(i))) for i in range(car.rank)]
        cols[0] = list(cc.module.add(cols[0], pure(cc, car.gen(0), car.gen(2))))
        delta = ModuleMap(car, cc.module,
                          from_cols(alg.R, cols, cc.module.rank))
        with pytest.raises(AxiomError) as e:
            coalgebra_check(cc, delta, C.counit)
        assert (e.value.code, e.value.witness, str(e.value)) == \
            ("NotBimoduleMap", 0, "NotBimoduleMap (witness generator 0) (left action)")
        deltahat = (dense(cc).sect @ delta.mat).sparse_cols()
        nested = nested_triple_tensor(alg, cc, car, C.bi.left)
        flat = flat_triple_tensor(alg, car, C.bi.right, car, C.bi.left,
                                  C.bi.right, car, C.bi.left)
        args = (deltahat, cc, deltahat, delta.mat.sparse_cols())
        for t3 in (nested, flat):
            with pytest.raises(ValueError, match="does not descend"):
                dense_coassoc_witness(t3, *args)


def test_comatrix_r5_checked_coend():
    # the dense comparison needed (rank L)^3-square matrices, about 2 GB each
    alg = AlgebraSpec.make(2, 1, 1)
    CR = coend(comatrix_diagram(alg, 5), check=True)
    assert CR.coalgebra.carrier.rank == 25


def _largest_matrix(monkeypatch):
    """A one-element list that records the most cells of any Matrix built by
    Matrix.zeros or Matrix.identity from now on."""
    largest = [0]
    zeros, identity = Matrix.zeros.__func__, Matrix.identity.__func__

    def counted_zeros(cls, ring, rows, cols):
        largest[0] = max(largest[0], rows * cols)
        return zeros(cls, ring, rows, cols)

    def counted_identity(cls, ring, k):
        largest[0] = max(largest[0], k * k)
        return identity(cls, ring, k)

    monkeypatch.setattr(Matrix, "zeros", classmethod(counted_zeros))
    monkeypatch.setattr(Matrix, "identity", classmethod(counted_identity))
    return largest


def test_tensor_square_allocates_no_square_matrix(monkeypatch):
    # comatrix r=4 over F2: C (x)_B C has rank 256, and its outer actions
    # are sparse columns, so no 256 x 256 matrix is built, nor any other:
    # the actions of C are read as the sparse columns their maps hold
    C = comatrix_coalgebra(AlgebraSpec.make(2, 1, 1), 4)
    largest = _largest_matrix(monkeypatch)
    cc = tensor_bimodules(C.alg, C.bi, C.bi)
    assert cc.module.rank == 256
    assert 0 == largest[0] < cc.module.rank ** 2, largest[0]
    # the counter is live: reading a map's dense matrix writes one
    assert C.bi.left.mat.rows == 16 and largest[0] == 16 * 16


def test_comodule_hom_allocates_nothing_above_its_condition_matrix(monkeypatch):
    # the standard comodule M of comatrix r=4: the conditions live in
    # Hom(M, M) + Hom(M, C (x)_B M), of rank 16 + 4 * 64, and the unknowns
    # in Hom(M, M), of rank 16; the direct sums are layouts, not matrices,
    # and the kernel is read off a sparse Howell form, with no Smith form
    # (whose U and U^-1 would have side 272)
    alg = AlgebraSpec.make(2, 1, 1)
    Mc = comatrix_standard_comodule(comatrix_coalgebra(alg, 4), 4)
    assert (Mc.carrier.rank, Mc.cm.module.rank) == (4, 64)
    largest = _largest_matrix(monkeypatch)
    K, basis = coalgebra.comodule_hom(Mc, Mc)
    assert K.rank == len(basis) > 0
    # the condition columns go to the kernel's graph as they are, so no
    # matrix at all is built
    assert 0 == largest[0] <= (16 + 4 * 64) * 16, largest[0]
    # the counter is live: reading a map's dense matrix writes one
    assert basis[0].mat.rows == 4 and largest[0] == 4 * 4


def test_rank8_identity_coend_and_unit_check_allocate_no_large_matrix(monkeypatch):
    # the identity of F2^8 (the CI input): L has rank 64 and C (x)_B C
    # rank 4,096.  delta, the lifted coactions, which read the class
    # columns, and the unit check's condition columns stay sparse, so the
    # largest matrix is the 8 x 8 identity that AlgebraSpec.x_cols scales
    # into the x-action of B^8, where a dense delta and condition matrix
    # had 262,144 cells and the dense class map 4,096
    D = comatrix_diagram(AlgebraSpec.make(2, 1, 1), 8)
    largest = _largest_matrix(monkeypatch)
    CR = coend(D, check=True)
    assert CR.coalgebra.carrier.rank == 64 and CR.coalgebra.cc.module.rank == 4096
    assert unit_fully_faithful_check(CR, lift_coaction(CR)) == {(0, 0): ("equal",)}
    assert largest[0] <= 8 * 8, largest[0]


def test_coalgebra_check_allocates_no_large_matrix(monkeypatch):
    # comatrix r=4 over F2, rank L = 16: the flat C (x) C has rank 256, the
    # flat triple tensor 4096.  The checked coend of one rank-2 object over
    # GR(4,2) with only its identity: rank L = 16, C (x)_B C has rank 128,
    # and its nest in B-coordinates has rank 1024 over a flat tensor of rank
    # 2048, which a dense projection would fill.  Each delta is perturbed
    # so that only coassociativity fails, and over GR(4,2) the check builds
    # the nest to find the witness
    F2 = comatrix_coalgebra(AlgebraSpec.make(2, 1, 1), 4)
    cases = [(F2, _perturbed_delta(random.Random(0), F2, counital=True), 256 ** 2)]
    C = coend(comatrix_diagram(AlgebraSpec.make(2, 2, 2), 2)).coalgebra
    assert (C.carrier.rank, C.cc.module.rank) == (16, 128)
    cases.append((C, _not_coassociative(C), C.cc.module.rank ** 2))
    largest = _largest_matrix(monkeypatch)
    sizes = []
    for C, delta, bound in cases:
        largest[0] = 0
        with pytest.raises(AxiomError, match="Coassoc"):
            coalgebra_check(C.cc, delta, C.counit)
        assert largest[0] <= bound, (largest[0], bound)
        sizes.append(largest[0])
    # the largest matrices built: over F2 none, since the one matrix it
    # built, the 1-cell x-action of B^1, is kept on the AlgebraSpec from
    # C's construction; over GR(4,2) the 16 x 16 B-presentation of L that
    # as_b_module writes for its Smith form
    assert sizes == [0, 256]


def test_witt_coalgebra_check_smith_size(monkeypatch):
    # full-endo coend over GR(2^2,4): L has R-rank 4 and L (x)_B L has
    # R-rank 4, so the nested quotient presents a 16-row matrix where the
    # flat triple tensor presented 64 rows
    alg = AlgebraSpec.make(2, 2, 4)
    C = coend(trivial_full_hom_diagram(alg)).coalgebra
    assert C.carrier.rank == 4 and C.cc.module.rank == 4
    rows = []
    smith = linalg.smith

    def counted_smith(A):
        rows.append(A.rows)
        return smith(A)

    monkeypatch.setattr(linalg, "smith", counted_smith)
    monkeypatch.setattr(modules, "smith", counted_smith)
    # the tensor square is built inside the counted region: on this B-free
    # coend the check itself presents nothing
    coalgebra_check(tensor_bimodules(alg, C.bi, C.bi), C.delta, C.counit)
    assert rows and max(rows) <= 16


def test_mf_coend_nests_agree_with_quotient(monkeypatch):
    # MF coends over GR(4,2), GR(8,2) and GR(4,3) are B-free, so every
    # nest their checks could build is in B-coordinates; over GR(4,3) the
    # Smith quotient of the coalgebra's nest presents 1,944 rows.  Their
    # deltas and coactions are coassociative, so the checks build none,
    # and each nest is built here by a direct call
    for pnf in ((2, 2, 2), (2, 3, 2), (2, 2, 3)):
        CR = coend(mf_family_diagram(*pnf, (0, 1))[0], check=False)
        C, kinds = CR.coalgebra, []
        assert _outcomes(monkeypatch, _recheck_coalgebra(C), C.bi,
                         kinds, references=False) == [PASS]
        _checked_nest(kinds, C.alg, C.cc, C.carrier, C.bi.left)
        for Mc in lift_coaction(CR):
            assert _outcomes(monkeypatch, _recheck_comodule(Mc), C.bi,
                             kinds, references=False) == [PASS]
            _checked_nest(kinds, C.alg, C.cc, Mc.carrier, Mc.module.act)
        assert kinds == ["free"] * 3


def test_gr43_triple_tensor_smith_size(monkeypatch):
    # inside nest_tensor only as_b_module presents anything: the coend L
    # has R-rank 18, where the Smith quotient of the nest presented
    # rank(C (x)_B C) * rank(L) = 108 * 18 = 1,944 rows.  Its delta is
    # coassociative, so the check builds no nest, and the nest is built
    # by a direct call
    CR = coend(mf_family_diagram(2, 2, 3, (0, 1))[0], check=False)
    C = CR.coalgebra
    assert C.carrier.rank == 18 and C.cc.module.rank == 108
    rows, inside = [], [False]
    smith = linalg.smith

    def counted_smith(A):
        if inside[0]:
            rows.append(A.rows)
        return smith(A)

    def traced(*args):
        inside[0] = True
        try:
            return nest_tensor(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "smith", counted_smith)
    monkeypatch.setattr(modules, "smith", counted_smith)
    monkeypatch.setattr(coalgebra, "nest_tensor", traced)
    coalgebra_check(C.cc, C.delta, C.counit)
    assert rows == []
    coalgebra.nest_tensor(C.alg, C.cc, C.carrier, C.bi.left)
    assert rows and max(rows) <= 64


def test_checked_coend_random_gr42_seed4():
    # a single rank-2 object over GR(4,2) with a B-free coend of R-rank 16;
    # its check took 35 s when the nest was always a Smith quotient
    D = random_diagram(random.Random(4), AlgebraSpec.make(2, 2, 2),
                       max_obj=2, max_rank=2)[0]
    checked = coend(D).coalgebra
    unchecked = coend(D, check=False).coalgebra
    assert checked.carrier.rank == 16
    assert (checked.carrier, checked.delta, checked.counit) == \
        (unchecked.carrier, unchecked.delta, unchecked.counit)


def _dense_first_difference(f, g):
    gens = [f.src.gen(i) for i in range(f.src.rank)]
    return next((i for i, v in enumerate(gens) if f.apply(v) != g.apply(v)), None)


def _dense_equivariance(C, delta, counit):
    """The first failing bimodule-map condition of (delta, counit), computed
    densely with the actions of C (x)_B C written out, as coalgebra_check
    raises it, or PASS."""
    d, breg = dense(C.cc), regular_bimodule(C.alg)
    for name, lhs, rhs in (("left", delta @ C.bi.left, d.left @ delta),
                           ("right", delta @ C.bi.right, d.right @ delta),
                           ("left", counit @ C.bi.left, breg.left @ counit),
                           ("right", counit @ C.bi.right, breg.right @ counit)):
        w = _dense_first_difference(lhs, rhs)
        if w is not None:
            return ("NotBimoduleMap", w)
    return PASS


def _bump(rng, phi, g):
    """phi plus a random vector at generator g: not B-linear in general."""
    dst, R = phi.dst, phi.src.ring
    cols = [list(phi.apply(phi.src.gen(i))) for i in range(phi.src.rank)]
    cols[g] = list(dst.add(cols[g], dst.reduce(
        [rng.randrange(R.size) if rng.random() < 0.3 else 0 for _ in range(dst.rank)])))
    return ModuleMap(phi.src, dst, from_cols(R, cols, dst.rank))


def test_sparse_equivariance_matches_dense_actions():
    # delta, the counit and rho perturbed at one generator, over F4, GR(4,2)
    # and F9: the bimodule-map and module-map conditions read on the columns
    # of delta and rho give the code and witness that the dense actions of
    # the tensor give, first failing condition first
    rng = random.Random(99)
    coalgebras = [_b_grouplike(AlgebraSpec.make(*a), 2)
                  for a in ((2, 1, 2), (2, 2, 2), (3, 1, 2))]
    coalgebras += [coend(random_diagram(random.Random(s), AlgebraSpec.make(*a),
                                        max_obj=2, max_rank=2)[0]).coalgebra
                   for s, a in ((1, (2, 2, 2)), (2, (2, 1, 2)))]
    codes = set()
    for C in coalgebras:
        for _ in range(6):
            g = rng.randrange(C.carrier.rank)
            for delta, counit in ((_bump(rng, C.delta, g), C.counit),
                                  (C.delta, _bump(rng, C.counit, g))):
                got = _outcome(lambda: coalgebra_check(C.cc, delta, counit))
                want = _dense_equivariance(C, delta, counit)
                assert got == want if want != PASS else got[0] != "NotBimoduleMap"
                codes.add(got[0])
        Mc = cofree(C, free_bmodule(C.alg, 1))
        for _ in range(4):
            rho = _bump(rng, Mc.rho, rng.randrange(Mc.carrier.rank))
            got = _outcome(lambda: comodule_check(C, Mc.cm, rho))
            w = _dense_first_difference(rho @ Mc.module.act, dense(Mc.cm).left @ rho)
            assert got == ("NotModuleMap", w) if w is not None \
                else got[0] != "NotModuleMap"
            codes.add(got[0])
    assert {"NotBimoduleMap", "NotModuleMap"} <= codes, codes
