"""Differential tests: the coend's relation columns, x-actions, counit and
counit map nu, built as sparse columns from `bmat_cols`, the dual-basis
functional and the counit contraction, equal the hand-indexed loops of
tests/coend_reference.py entry for entry, as does the cofree coaction; the
one descent refuses a flat map that misses a relation, on a tensor over B
and on the coend's T; and no map out of T is multiplied as a dense matrix
of T's rank."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import coend_reference as ref
from dense_tensor import dense, descend, descend_map
from tannaka_forge import algebra, linalg, mf, modules, tannaka, textio
from tannaka_forge.algebra import (AlgebraSpec, BModule, free_bmodule,
                                   tensor_bimodules, regular_bimodule)
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.coalgebra import cofree
from tannaka_forge.tannaka import (DiagramCategory, _relation_columns, coend,
                                   counit_map, counit_from_coend, hom_closure,
                                   lift_coaction)
from tannaka_forge.suite import (random_diagram, comatrix_coalgebra,
                                 comatrix_standard_comodule, comatrix_diagram,
                                 grouplike_coalgebra, grouplike_line,
                                 grouplike_diagram, trivial_coalgebra,
                                 trivial_full_hom_diagram, mf_family_diagram)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (p, n, f): F2, Z/4, Z/8, F4, F9, GR(4,2)
RINGS = ((2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2))


@pytest.fixture(scope="module")
def spans_draws():
    """The raw diagrams of the benchmark's 30 ``spans`` draws at seed 3."""
    spec = importlib.util.spec_from_file_location("_spans_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    engine = {"algebra": algebra, "linalg": linalg, "textio": textio}
    return [textio.parse_diagram(op.text) for op in workloads.spans_ops(engine, 3)]


@pytest.fixture(scope="module")
def random_draws():
    """(closed diagram, raw generators): seeded draws over every ring."""
    out = []
    for i, t in enumerate(RINGS):
        alg = AlgebraSpec.make(*t)
        rng = random.Random(1000 + i)
        for _ in range(12):
            out.append(random_diagram(rng, alg, max_obj=3 if alg.fb == 1 else 2,
                                      max_rank=2))
    return out


def torsion_coends(random_draws):
    """Checked coends with a torsion summand and of R-rank at most 6 (the
    larger GR(4,2) ones take seconds): those among random_draws, and seed-7
    draws over Z/4 and Z/8."""
    draws = [D for D, _ in random_draws]
    for t in ((2, 2, 1), (2, 3, 1)):
        alg, rng = AlgebraSpec.make(*t), random.Random(7)
        draws += [random_diagram(rng, alg, max_obj=3, max_rank=2)[0]
                  for _ in range(30)]
    out = []
    for D in draws:
        L = coend(D, check=False).coalgebra.carrier
        if not L.is_free() and L.rank <= 6:
            out.append(coend(D))
    return out


def suite_diagrams():
    f2 = AlgebraSpec.make(2, 1, 1)
    out = [comatrix_diagram(f2, r) for r in (1, 2, 3, 4)]
    out += [grouplike_diagram(f2, g) for g in (1, 2, 5, 8)]
    out.append(trivial_full_hom_diagram(AlgebraSpec.make(2, 2, 2)))
    out.append(mf_family_diagram(2, 2, 2, (0, 1), with_sum=True)[0])
    return out


def _dense_relation_columns(D, morphisms=None):
    """_relation_columns with its sparse columns written out as the dense
    T-columns of the reference; a sparse column holds no zero entry.  The
    stream yields them in the reverse of the reference's list order, the
    order in which a Span inserts that list."""
    N, offsets, dims, cols = _relation_columns(D, morphisms)
    dense = []
    for col in reversed(list(cols)):
        assert col and all(col.values())
        row = [0] * N
        for j, a in col.items():
            row[j] = a
        dense.append(row)
    return N, offsets, dims, dense


def _assert_coend_maps_match(D):
    """The actions and counit of coend(D) equal the reference's flat maps
    through the class map and the section; returns the coend."""
    alg = D.alg
    N, offsets, dims, cols = ref.relation_columns(D)
    assert _dense_relation_columns(D) == (N, offsets, dims, cols)
    CR = coend(D, check=False)
    L, P = CR.coalgebra, CR.classmap
    S = Matrix.from_sparse(alg.R, CR.sect, N)
    for got, side in ((L.bi.left, "left"), (L.bi.right, "right")):
        X = ref.block_x_action(alg, dims, offsets, N, side)
        assert got == ModuleMap(L.carrier, L.carrier, P @ X @ S)
    eps = ref.counit_flat(alg, dims, offsets, N)
    assert L.counit.mat @ P == eps
    assert L.counit == ModuleMap(L.carrier, regular_bimodule(alg).carrier, eps @ S)
    return CR


def test_relation_columns_match_reference_on_spans_draws(spans_draws):
    for D_raw in spans_draws:
        assert _dense_relation_columns(D_raw) == ref.relation_columns(D_raw)
        D = hom_closure(D_raw)
        assert _dense_relation_columns(D) == ref.relation_columns(D)


def test_relation_columns_match_reference_on_generator_families(random_draws):
    for D, gens in random_draws:
        assert _dense_relation_columns(D, gens) == ref.relation_columns(D, gens)


def test_actions_and_counit_match_reference_on_spans_draws(spans_draws):
    for D_raw in spans_draws:
        _assert_coend_maps_match(hom_closure(D_raw))


def test_actions_and_counit_match_reference_on_random_draws(random_draws):
    torsion = 0
    for D, _ in random_draws:
        CR = _assert_coend_maps_match(D)
        torsion += not CR.coalgebra.carrier.is_free()
    assert torsion >= 5


def test_actions_and_counit_match_reference_on_suite_families():
    for D in suite_diagrams():
        _assert_coend_maps_match(D)


def _assert_nu_matches(C, family):
    nu_flat, CR_ref = ref.nu_flat(C, family)
    res = counit_map(C, family)
    CR = res.coend_result
    assert CR.classmap == CR_ref.classmap
    T = FinModule.free(C.alg.R, CR.classmap.cols)
    assert ModuleMap(T, C.carrier, res.nu.mat @ CR.classmap) == \
        ModuleMap(T, C.carrier, nu_flat)
    S = Matrix.from_sparse(C.alg.R, CR.sect, CR.classmap.cols)
    assert res.nu == ModuleMap(CR.coalgebra.carrier, C.carrier, nu_flat @ S)
    return res


def test_nu_matches_reference_on_suite_families():
    f2 = AlgebraSpec.make(2, 1, 1)
    for alg in (f2, AlgebraSpec.make(3, 1, 1)):
        for r in (1, 2, 3, 4) if alg == f2 else (1, 2):
            C = comatrix_coalgebra(alg, r)
            assert _assert_nu_matches(C, [comatrix_standard_comodule(C, r)]).iso
    for g in (1, 2, 3, 5, 8):
        C = grouplike_coalgebra(f2, g)
        lines = [grouplike_line(C, i) for i in range(g)]
        assert _assert_nu_matches(C, lines).iso
        assert not _assert_nu_matches(C, lines[:1]).surjective or g == 1
    gr42 = AlgebraSpec.make(2, 2, 2)
    C = trivial_coalgebra(gr42)
    assert _assert_nu_matches(C, [cofree(C, free_bmodule(gr42, 1))]).iso
    D, _ = mf_family_diagram(2, 2, 2, (0, 1))
    CR = coend(D)
    assert _assert_nu_matches(CR.coalgebra, lift_coaction(CR)).iso


def test_nu_matches_reference_on_coends_with_torsion(random_draws):
    coends = torsion_coends(random_draws)
    assert len(coends) >= 10 and any(CR.diagram.alg.fb > 1 for CR in coends)
    for CR in coends:
        _assert_nu_matches(CR.coalgebra, lift_coaction(CR))


def test_cofree_coaction_matches_reference(random_draws):
    coalgebras = [trivial_coalgebra(AlgebraSpec.make(*t)) for t in RINGS]
    f2 = AlgebraSpec.make(2, 1, 1)
    coalgebras += [grouplike_coalgebra(f2, 3), comatrix_coalgebra(f2, 2)]
    coalgebras += [CR.coalgebra for CR in torsion_coends(random_draws)[:4]]
    for C in coalgebras:
        alg = C.alg
        mods = [free_bmodule(alg, 1), free_bmodule(alg, 2)]
        if alg.R.n > 1 and alg.fb == 1:
            tor = FinModule(alg.R, (1,))
            mods.append(BModule(alg, tor, ModuleMap.identity(tor)))
        for M in mods:
            assert cofree(C, M).rho == ref.cofree_rho(C, M)


def _missing_one(rels, width, dst):
    """A flat map R^width -> dst that reads the first nonzero coordinate of
    the first nonzero relation, so it does not kill that relation."""
    rel = next(r for r in rels if any(r))
    i = next(i for i, a in enumerate(rel) if a)
    row = [0] * width
    row[i] = 1
    return ModuleMap(FinModule.free(dst.ring, width), dst,
                     Matrix(dst.ring, [row], 1, width), validate=False)


def test_descent_refuses_a_map_that_misses_a_relation_on_a_btensor():
    alg = AlgebraSpec.make(2, 2, 2)
    bi = regular_bimodule(alg)
    cc = tensor_bimodules(alg, bi, bi)
    d = dense(cc)
    rels = [d.rel_cols.col(j) for j in range(d.rel_cols.cols)]
    flat = _missing_one(rels, cc.TR.module.rank, FinModule.free(alg.R, 1))
    with pytest.raises(ValueError, match="does not descend"):
        descend(cc, flat)
    with pytest.raises(ValueError, match="does not descend"):
        descend_map(flat, rels, cc.module, d.sect)


def test_descent_refuses_a_map_that_misses_a_relation_on_the_coend():
    for D in (trivial_full_hom_diagram(AlgebraSpec.make(2, 2, 2)),
              mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)[0]):
        CR = coend(D, check=False)
        L = CR.coalgebra.carrier
        S = Matrix.from_sparse(D.alg.R, CR.sect, CR.classmap.cols)
        flat = _missing_one(CR.rel_rows, CR.classmap.cols,
                            FinModule.free(D.alg.R, 1))
        with pytest.raises(ValueError, match="does not descend"):
            descend_map(flat, CR.rel_rows, L, S)
        # the class map itself descends, to the identity of L
        P = ModuleMap(FinModule.free(D.alg.R, CR.classmap.cols), L, CR.classmap,
                      validate=False)
        assert descend_map(P, CR.rel_rows, L, S) == ModuleMap.identity(L)


def test_the_descents_share_one_function(monkeypatch):
    calls = []
    real = modules.descend_sparse

    def counted(cols, rels, sect, dst, quotient):
        calls.append(quotient)
        return real(cols, rels, sect, dst, quotient)

    for mod in (modules, algebra, tannaka, mf):
        monkeypatch.setattr(mod, "descend_sparse", counted)
    alg = AlgebraSpec.make(2, 2, 2)
    bi = regular_bimodule(alg)
    tensor_bimodules(alg, bi, bi)
    assert len(calls) == 2          # the two outer actions
    calls.clear()
    CR = coend(trivial_full_hom_diagram(alg))
    C = CR.coalgebra
    # the two actions, eps and delta on the coend, and the two outer
    # actions of C (x)_B C in between.  The check descends nothing: its
    # counit laws and coassociativity read delta's flat lift, which the
    # bimodule-map conditions make well defined
    assert len(calls) == 6
    assert sum(q is C.carrier for q in calls) == 4
    assert sum(q is C.cc.module for q in calls) == 2
    # nu is descended out of T once; its checks descend nothing: the
    # counit contractions read the flat lifts of the coactions, and
    # nu (x) nu the flat lift of delta
    lifted = lift_coaction(CR)
    calls.clear()
    counit_from_coend(C, lifted, CR)
    assert calls == [C.carrier]
    # the colimit map of a filtered F-module
    calls.clear()
    mf.mbar(mf.tate_object(alg.B, 1))
    assert len(calls) == 1


def _record_products(monkeypatch):
    """The shapes (rows, inner, cols) of every Matrix product formed from
    now on."""
    shapes = []
    real = Matrix.__matmul__

    def counted(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return real(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return shapes


def _products_of_rank(shapes, N):
    """The nonempty products with a dimension equal to N."""
    return [s for s in shapes if N in s and 0 not in s]


def test_the_coend_forms_no_product_of_t_rank(monkeypatch, spans_draws):
    # the class map was multiplied by the dense N x N actions on T; where
    # L has T's rank, L's own products (the commuting check of its two
    # actions) have that rank too, so those draws are skipped
    closed = [hom_closure(D) for D in spans_draws]
    shapes = _record_products(monkeypatch)
    seen = 0
    for D in closed:
        shapes.clear()
        CR = coend(D, check=False)
        N = CR.classmap.cols
        if CR.coalgebra.carrier.rank != N:
            assert not _products_of_rank(shapes, N)
            seen += 1
    assert seen >= 25


def test_nu_forms_no_product_of_t_rank(monkeypatch):
    # the families of _assert_nu_matches; nu and its checks stay sparse,
    # so not even L's products appear where L has T's rank
    f2, gr42 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 2, 2)
    families = []
    for alg in (f2, AlgebraSpec.make(3, 1, 1)):
        for r in (1, 2, 3, 4) if alg == f2 else (1, 2):
            C = comatrix_coalgebra(alg, r)
            families.append((C, [comatrix_standard_comodule(C, r)]))
    for g in (1, 2, 3, 5, 8):
        C = grouplike_coalgebra(f2, g)
        lines = [grouplike_line(C, i) for i in range(g)]
        families += [(C, lines), (C, lines[:1])]
    C = trivial_coalgebra(gr42)
    families.append((C, [cofree(C, free_bmodule(gr42, 1))]))
    CR = coend(mf_family_diagram(2, 2, 2, (0, 1))[0])
    families.append((CR.coalgebra, lift_coaction(CR)))
    shapes, seen = _record_products(monkeypatch), []
    real = tannaka.counit_from_coend

    def probe(C, std_comods, CR):
        shapes.clear()
        res = real(C, std_comods, CR)
        seen.append(_products_of_rank(shapes, CR.classmap.cols))
        return res

    monkeypatch.setattr(tannaka, "counit_from_coend", probe)
    for C, family in families:
        counit_map(C, family)
    assert len(seen) == 18 and not any(seen)


def test_a_closed_diagram_is_not_rechecked(monkeypatch, spans_draws):
    calls = []
    real = DiagramCategory.closure_violation

    def counted(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(DiagramCategory, "closure_violation", counted)
    for D in spans_draws:
        closed = hom_closure(D)
        coend(closed, check=False)
        coend(closed.restrict(closed.components()[0]), check=False)
    assert not calls
