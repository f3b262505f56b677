import itertools
import random

import pytest

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import (FinModule, ModuleMap, module_from_presentation,
                                   hom_module, tensor_with_data, map_kernel,
                                   map_cokernel, submodule, direct_sum,
                                   solve_in, sub_elements, NotWellDefined,
                                   EnumerationBudget, is_isomorphism)
from tannaka_forge.algebra import AlgebraSpec, _btensor_core

from dense_tensor import dense, embed, inject, map_tensor
from hom_reference import hom_basis, hom_coords
from smith_reference import densify


def brute_force_maps(M, N):
    """Every well-defined map M -> N, by enumeration (entries are only
    meaningful mod the target exponents, so deduplicate canonically)."""
    R = M.ring
    seen = {}
    for entries in itertools.product(range(R.size), repeat=M.rank * N.rank):
        mat = Matrix(R, [list(entries[r * M.rank:(r + 1) * M.rank])
                         for r in range(N.rank)], N.rank, M.rank)
        try:
            g = ModuleMap(M, N, mat)
        except NotWellDefined:
            continue
        seen[g.mat] = g
    return list(seen.values())


def test_presentation_examples(Z8):
    # zero map into R^2: free of rank 2
    assert module_from_presentation(Matrix.zeros(Z8, 2, 0)).module.exps == (3, 3)
    # coker of *2 on Z/8 is Z/2
    assert module_from_presentation(Matrix.from_rows(Z8, [[2]])).module.exps == (1,)
    # [[4,0],[0,1]]: second generator killed, Z/4 remains
    assert module_from_presentation(
        Matrix.from_rows(Z8, [[4, 0], [0, 1]])).module.exps == (2,)


def test_presentation_projection_section(Z8):
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 3), rng.randint(0, 3)
        P = Matrix(Z8, [[rng.randrange(8) for _ in range(cols)]
                        for _ in range(rows)], rows, cols)
        pres = densify(Z8, module_from_presentation(P))
        M = pres.module
        # proj . sect = id on canonical coordinates
        for k in range(M.rank):
            assert M.reduce(pres.proj.apply(pres.sect.col(k))) == M.gen(k)
        # proj kills the presented relations
        for j in range(P.cols):
            assert not any(M.reduce(pres.proj.apply(P.col(j))))


def test_hom_examples(Z8):
    R1 = FinModule.free(Z8, 1)
    Z2 = FinModule(Z8, (1,))
    Z4m = FinModule(Z8, (2,))
    hd = hom_module(R1, R1)
    assert hd.module.exps == (3,) and hom_basis(hd)[0].mat.data == [[1]]
    hd = hom_module(Z2, R1)
    assert hd.module.exps == (1,) and hom_basis(hd)[0].mat.data == [[4]]
    hd = hom_module(Z4m, Z2)
    assert hd.module.exps == (1,) and hom_basis(hd)[0].mat.data == [[1]]


def test_hom_vs_brute_force():
    rng = random.Random(8)
    for R in (ring_make(2, 2, 1), ring_make(2, 1, 2)):
        cases = [FinModule(R, e) for e in [(R.n,), (1,), (R.n, 1), ()]
                 if all(1 <= x <= R.n for x in e)]
        for M in cases:
            for N in cases:
                hd = hom_module(M, N)
                assert hd.module.cardinality() == len(brute_force_maps(M, N))
                # coords round-trip on every basis element
                for k, b in enumerate(hom_basis(hd)):
                    assert hom_coords(hd, b) == hd.module.gen(k)
                    assert hd.sparse_coords(b.mat.sparse_cols()) == [(k, 1)]


def test_hom_coords_roundtrip(Z8):
    M = FinModule(Z8, (3, 2))
    N = FinModule(Z8, (2, 1))
    hd = hom_module(M, N)
    rng = random.Random(5)
    for _ in range(30):
        coords = hd.module.reduce([rng.randrange(Z8.size)
                                   for _ in range(hd.module.rank)])
        g = hd.from_coords(coords)
        assert hom_coords(hd, g) == coords
        assert dict(hd.sparse_coords(g.mat.sparse_cols())) == \
            {k: v for k, v in enumerate(coords) if v}


def test_tensor_examples(Z8):
    Z2 = FinModule(Z8, (1,))
    Z4m = FinModule(Z8, (2,))
    assert tensor_with_data(Z2, Z4m).module.exps == (1,)
    assert tensor_with_data(FinModule.free(Z8, 2),
                            FinModule.free(Z8, 3)).module.exps == (3,) * 6


def test_tensor_universal_property(Z4):
    # bilinearity of the pure-tensor embedding, by enumeration
    M = FinModule(Z4, (2, 1))
    N = FinModule(Z4, (1,))
    td = tensor_with_data(M, N)
    for v in M.elements():
        for w in N.elements():
            for c in range(4):
                lhs = embed(td, M.scale(c, v), w)
                rhs = td.module.scale(c, embed(td, v, w))
                assert lhs == rhs
    for v1 in M.elements():
        for v2 in M.elements():
            w = (1,)
            assert embed(td, M.add(v1, v2), w) == \
                td.module.add(embed(td, v1, w), embed(td, v2, w))


def test_projectivity(Z8):
    assert FinModule.free(Z8, 2).is_free()
    assert not FinModule(Z8, (1,)).is_free()


def test_projective_iff_split_surjection(Z4):
    # spec invariant: projective iff some surjection R^k -> M splits
    for exps in [(2,), (1,), (2, 1), (1, 1)]:
        M = FinModule(Z4, exps)
        k = M.rank
        cover = FinModule.free(Z4, k)
        proj = ModuleMap(cover, M, Matrix.identity(Z4, k))
        found = False
        for cand in itertools.product(range(4), repeat=k * k):
            mat = Matrix(Z4, [list(cand[r * k:(r + 1) * k]) for r in range(k)])
            try:
                sect = ModuleMap(M, cover, mat)
            except NotWellDefined:
                continue
            if (proj @ sect) == ModuleMap.identity(M):
                found = True
                break
        assert found == M.is_free()


def test_map_kernel_cokernel_examples(Z8):
    R1 = FinModule.free(Z8, 1)
    g = ModuleMap(R1, R1, Matrix.from_rows(Z8, [[2]]))
    K, incl = map_kernel(g)
    assert K.exps == (1,)
    assert incl.apply(K.gen(0)) == (4,)
    C, proj = map_cokernel(g)
    assert C.exps == (1,)
    I, iincl = submodule(g.dst, g.cols)
    assert I.exps == (2,)
    K0, _ = map_kernel(ModuleMap.identity(R1))
    assert K0.is_zero()


def test_kernel_image_cokernel_vs_enumeration():
    rng = random.Random(12)
    for R in (ring_make(2, 2, 1), ring_make(3, 1, 1)):
        mods = [FinModule(R, e) for e in [(R.n,), (1,), (R.n, 1)]
                if all(1 <= x <= R.n for x in e)]
        for M in mods:
            for N in mods:
                for _ in range(6):
                    mat = Matrix(R, [[rng.randrange(R.size)
                                      for _ in range(M.rank)]
                                     for _ in range(N.rank)])
                    try:
                        g = ModuleMap(M, N, mat)
                    except NotWellDefined:
                        continue
                    ker = {v for v in M.elements() if not any(g.apply(v))}
                    img = {g.apply(v) for v in M.elements()}
                    K, incl = map_kernel(g)
                    assert K.cardinality() == len(ker)
                    spanned = {incl.apply(v) for v in K.elements()}
                    assert spanned == ker
                    I, iincl = submodule(g.dst, g.cols)
                    assert I.cardinality() == len(img)
                    assert {iincl.apply(v) for v in I.elements()} == img
                    C, proj = map_cokernel(g)
                    assert C.cardinality() * len(img) == N.cardinality()
                    # proj kills exactly the image
                    assert all(not any(proj.apply(v)) for v in img)


def test_compose_associative(Z8):
    M = FinModule(Z8, (3, 2))
    hd = hom_module(M, M)
    f, g, h = hom_basis(hd)[:3]
    assert (f @ g) @ h == f @ (g @ h)


def test_length_additive(Z8, F4):
    for R, exps1, exps2 in ((Z8, (3, 1), (2,)), (F4, (1, 1), (1,))):
        M = FinModule(R, exps1)
        N = FinModule(R, exps2)
        sd = direct_sum([M, N])
        assert sd.module.length() == M.length() + N.length()
        assert M.cardinality() == R.p ** M.length()


def test_direct_sum_maps(Z8):
    # the layout: place is a bijection onto the sum's coordinates, each
    # summand generator keeps its exponent, and reading a summand's places
    # back after inject gives the element again, with zeros elsewhere
    mods = [FinModule(Z8, (3, 1)), FinModule(Z8, (2,)), FinModule(Z8, (3, 2, 1))]
    sd = direct_sum(mods)
    assert sorted(sd.place.values()) == list(range(sd.module.rank))
    assert sorted(sd.place) == [(t, i) for t, m in enumerate(mods)
                                for i in range(m.rank)]
    for (t, i), r in sd.place.items():
        assert sd.module.exps[r] == mods[t].exps[i]
    for t, m in enumerate(mods):
        for v in m.elements():
            w = inject(sd, t, v)
            assert tuple(w[sd.place[(t, i)]] for i in range(m.rank)) == v
            assert sum(1 for a in w if a) == sum(1 for a in v if a)


def test_elements_enumeration(Z8, F4):
    Z2 = FinModule(Z8, (1,))
    assert list(Z2.elements()) == [(0,), (1,)]
    M = FinModule(Z8, (2, 1))
    els = list(M.elements())
    assert len(els) == 8 and len(set(els)) == 8
    assert els == sorted(els)
    assert len(list(FinModule.free(F4, 1).elements())) == 4
    with pytest.raises(EnumerationBudget):
        list(FinModule.free(Z8, 5).elements(budget=100))


def test_map_well_definedness_check(Z8):
    Z2 = FinModule(Z8, (1,))
    R1 = FinModule.free(Z8, 1)
    with pytest.raises(NotWellDefined):
        ModuleMap(Z2, R1, Matrix.from_rows(Z8, [[1]]))
    # canonical reduction of entries mod the target exponent
    g = ModuleMap(R1, Z2, Matrix.from_rows(Z8, [[5]]))
    assert g.mat.data == [[1]]


def test_sub_membership_and_elements(Z8):
    M = FinModule(Z8, (3, 1))
    gens = [(2, 0)]
    A = Matrix.from_cols(Z8, gens, M.rank)
    assert solve_in(M, A.sparse_cols(), [(6, 0)])[0] is not None
    assert solve_in(M, A.sparse_cols(), [(1, 0)])[0] is None
    assert set(sub_elements(M, gens)) == {(0, 0), (2, 0), (4, 0), (6, 0)}


def test_is_isomorphism(Z8):
    R2 = FinModule.free(Z8, 2)
    assert is_isomorphism(ModuleMap(R2, R2, Matrix.from_rows(Z8, [[1, 2], [0, 3]])))
    assert not is_isomorphism(ModuleMap(R2, R2, Matrix.from_rows(Z8, [[2, 0], [0, 1]])))


def dense_map_tensor(T, f, g, T2):
    """The loop map_tensor ran before it went sparse: every pair of
    positions of T and T2."""
    ring = T.left.ring
    mat = Matrix.zeros(ring, T2.module.rank, T.module.rank)
    for (i, j), k in T.pos.items():
        for (i2, j2), k2 in T2.pos.items():
            a = f.mat.data[i2][i]
            if a == 0:
                continue
            b = g.mat.data[j2][j]
            if b:
                mat.data[k2][k] = ring.mul(a, b)
    return ModuleMap(T.module, T2.module, mat, validate=False)


def random_module(rng, R, max_rank=3):
    """Rank 0..max_rank, exponents drawn from 1..n, so torsion for n > 1."""
    return FinModule(R, tuple(sorted((rng.randint(1, R.n)
                                      for _ in range(rng.randint(0, max_rank))),
                                     reverse=True)))


def random_map(rng, M, N):
    """A well-defined M -> N with about half its entries zero."""
    R = M.ring
    rows = [[0 if rng.random() < 0.5 else
             R.mul(rng.randrange(R.size), R.p_elem(max(0, d - e)))
             for e in M.exps] for d in N.exps]
    return ModuleMap(M, N, Matrix(R, rows, N.rank, M.rank))


@pytest.mark.parametrize("pnf", [(2, 1, 1), (2, 3, 1), (2, 2, 2)])
def test_map_tensor_matches_dense(pnf):
    R = ring_make(*pnf)
    rng = random.Random(11)
    empty = FinModule(R, ())
    for trial in range(40):
        mods = [random_module(rng, R) for _ in range(4)]
        if trial < 4:
            mods[trial] = empty  # each side of source and target zero once
        M, N, M2, N2 = mods
        f, g = random_map(rng, M, M2), random_map(rng, N, N2)
        T, T2 = tensor_with_data(M, N), tensor_with_data(M2, N2)
        assert map_tensor(T, f, g, T2).mat == dense_map_tensor(T, f, g, T2).mat


@pytest.mark.parametrize("pnf", [(2, 1, 2), (2, 2, 2), (2, 3, 2)])
def test_middle_relation_matches_dense(pnf):
    # the relation columns x_right(e_i) (x) e_j - e_i (x) y_left(e_j) of
    # _btensor_core equal the difference of the two dense map_tensor results
    alg = AlgebraSpec.make(*pnf)
    R = alg.R
    rng = random.Random(5)
    for trial in range(25):
        X = FinModule(R, ()) if trial == 0 else random_module(rng, R, 4)
        Y = FinModule(R, ()) if trial == 1 else random_module(rng, R, 4)
        x_right, y_left = random_map(rng, X, X), random_map(rng, Y, Y)
        data = _btensor_core(alg, X, x_right, Y, y_left)
        TR = data.TR
        rel = (dense_map_tensor(TR, x_right, ModuleMap.identity(Y), TR)
               - dense_map_tensor(TR, ModuleMap.identity(X), y_left, TR))
        assert dense(data).rel_cols == rel.mat
