"""ModuleMap holds one form, its canonical sparse columns, and writes its
dense matrix only when it is read.  Differential test against the dense
constructor it replaced (dense_tensor.DenseModuleMap): seeded random maps
over F2, Z/4, Z/8 and GR(4,2), between free, torsion and zero-rank
modules, built from a Matrix and from raw columns (rows in any order,
entries unreduced, zeros kept), must agree with the reference on the
valuation check and its NotWellDefined message, and then on mat, cols,
==, hash, apply, @ and is_zero."""

import random

import pytest

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap, NotWellDefined

from dense_tensor import DenseModuleMap

RINGS = [ring_make(2, 1, 1), ring_make(2, 2, 1), ring_make(2, 3, 1), ring_make(2, 2, 2)]


def rand_module(rng, R) -> FinModule:
    r = rng.choice([0, 1, 2, 3, 3, 4, 4, 4])
    if rng.random() < 0.2:
        return FinModule.free(R, r)
    return FinModule(R, sorted((rng.randint(1, R.n) for _ in range(r)), reverse=True))


def rand_matrix(rng, src, dst, bad: float = 0.0) -> Matrix:
    """Entries meeting the valuation condition (p^need times a random
    element), except for a share bad of random ones; some are zero."""
    R = src.ring
    data = []
    for j in range(dst.rank):
        row = []
        for i in range(src.rank):
            u = rng.randrange(R.size)
            need = max(0, dst.exps[j] - src.exps[i])
            if rng.random() < 0.3:
                row.append(0)
            elif need and rng.random() >= bad:
                row.append(R.mul(R.p_elem(need), u))
            else:
                row.append(u)
        data.append(row)
    return Matrix(R, data, dst.rank, src.rank)


def raw_cols(rng, M: Matrix):
    """The columns of M as (row, entry) pairs in a shuffled row order,
    zero entries included."""
    cols = []
    for i in range(M.cols):
        col = [(j, M.data[j][i]) for j in range(M.rows)]
        rng.shuffle(col)
        cols.append(col)
    return cols


def build(rng, src, dst, M: Matrix):
    """(reference, from the Matrix, from raw columns), or the three
    NotWellDefined messages."""
    out, msgs = [], []
    for make in (lambda: DenseModuleMap(src, dst, M), lambda: ModuleMap(src, dst, M),
                 lambda: ModuleMap(src, dst, raw_cols(rng, M))):
        try:
            out.append(make())
        except NotWellDefined as exc:
            msgs.append(str(exc))
    assert len(msgs) in (0, 3), msgs
    return out, msgs


def test_module_map_matches_dense_reference():
    rng = random.Random(20)
    seen = {"torsion": 0, "free": 0, "zero-rank": 0, "refused": 0, "built": 0,
            "equal": 0, "unequal": 0, "nonzero": 0, "composed": 0}
    for _ in range(600):
        R = rng.choice(RINGS)
        src, dst, dst2 = rand_module(rng, R), rand_module(rng, R), rand_module(rng, R)
        seen["torsion" if not (src.is_free() and dst.is_free()) else "free"] += 1
        seen["zero-rank"] += src.rank == 0 or dst.rank == 0
        M = rand_matrix(rng, src, dst, rng.choice([0.0, 0.5, 1.0]))
        maps, msgs = build(rng, src, dst, M)
        if msgs:
            assert msgs[0] == msgs[1] == msgs[2]
            seen["refused"] += 1
            continue
        ref, by_mat, by_cols = maps
        seen["built"] += 1
        for f in (by_mat, by_cols):
            assert f.cols == ref.mat.sparse_cols()
            assert f.mat == ref.mat
            assert all(a for col in f.cols for _, a in col)
            assert f.is_zero() == ref.is_zero()
        assert by_mat == by_cols and hash(by_mat) == hash(by_cols)
        seen["nonzero"] += not ref.is_zero()
        for _ in range(3):
            v = [rng.randrange(R.size) for _ in range(src.rank)]
            assert by_cols.apply(v) == ref.apply(v)
        # == and hash against a second map between the same modules
        other = build(rng, src, dst, rand_matrix(rng, src, dst))[0]
        if other:
            same = other[0] == ref
            assert (other[2] == by_cols) == same
            assert not same or hash(other[2]) == hash(by_cols)
            seen["equal" if same else "unequal"] += 1
        # composition with a map dst -> dst2
        second = build(rng, dst, dst2, rand_matrix(rng, dst, dst2))[0]
        if second:
            g_ref, g = second[0], second[2]
            assert (g @ by_cols).mat == (g_ref @ ref).mat
            assert (g @ by_cols).cols == (g_ref @ ref).mat.sparse_cols()
            seen["composed"] += 1
    assert seen["torsion"] >= 300 and seen["refused"] >= 60 and seen["built"] >= 400, seen
    assert all(seen.values()), seen


def test_module_map_refuses_wrong_shapes():
    R = RINGS[1]
    src, dst = FinModule(R, (2, 1)), FinModule(R, (1,))
    with pytest.raises(ValueError, match="matrix is 2x2, expected 1x2"):
        ModuleMap(src, dst, Matrix.zeros(R, 2, 2))
    with pytest.raises(ValueError, match="1 columns, expected 2"):
        ModuleMap(src, dst, [[]])


def test_module_map_writes_mat_only_when_read():
    R = RINGS[3]
    M = FinModule(R, (2, 1, 1))
    f = ModuleMap(M, M, [[(0, 1)], [(2, 1), (1, 1)], []])
    assert f._mat is None
    assert f.cols == [[(0, 1)], [(1, 1), (2, 1)], []]
    assert f.mat is f.mat and f.mat.data == [[1, 0, 0], [0, 1, 0], [0, 1, 0]]
