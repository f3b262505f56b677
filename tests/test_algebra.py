import random

import pytest

from tannaka_forge.linalg import Matrix, is_invertible
from tannaka_forge.modules import FinModule, ModuleMap, tensor_with_data
from tannaka_forge.algebra import (AlgebraSpec, BBBimodule,
                                   free_bmodule, regular_bimodule,
                                   tensor_bimodules, tensor_bim_bmodule,
                                   _btensor_core, induced, as_b_module,
                                   is_b_free, ModulusViolation,
                                   NonCommutingActions)

from coassoc_reference import unit_left_isos, unit_right_isos, assoc_isos
from dense_tensor import bmat_to_rmat, inverse, pure


def test_algebra_spec_validation(F4):
    with pytest.raises(ValueError):
        AlgebraSpec(F4, F4)            # enrichment base must have f = 1
    alg = AlgebraSpec.make(2, 2, 2)
    assert alg.literal() == "alg R=GR(2^2,1) B=GR(2^2,2)"


def test_bmat_rmat_roundtrip(alg_gr42):
    alg = alg_gr42
    B = alg.B
    M = Matrix(B, [[B.x, 3], [0, B.mul(B.x, B.x)]], 2, 2)
    R = bmat_to_rmat(alg, M)
    car = FinModule.free(alg.R, 2 * alg.fb)
    assert alg.rmat_to_bmat(ModuleMap(car, car, R)) == M
    # multiplicativity of the regular representation
    N = Matrix(B, [[1, B.x], [B.x, 2]], 2, 2)
    assert bmat_to_rmat(alg, M @ N) == bmat_to_rmat(alg, M) @ bmat_to_rmat(alg, N)


def _reference_bmat_cols(alg, M):
    """The R-matrix of M block by block: entry (t, s) fills rows t f_B + d
    of column s f_B + gamma with the coefficients of M[t][s] x^gamma, as
    tests/coend_reference.py builds its x-action; then read off by
    columns."""
    B, fb = alg.B, alg.fb
    dense = [[0] * (M.cols * fb) for _ in range(M.rows * fb)]
    for t in range(M.rows):
        for s in range(M.cols):
            for gamma in range(fb):
                b = B.mul(M.data[t][s], B.pow(B.x, gamma))
                for d, c in enumerate(B.coeffs(b)):
                    dense[t * fb + d][s * fb + gamma] = c
    return dense, [[(r, row[q]) for r, row in enumerate(dense) if row[q]]
                   for q in range(M.cols * fb)]


@pytest.mark.parametrize("pnf", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 3, 2),
                                 (2, 2, 3)])
def test_bmat_cols_matches_block_reference(pnf):
    # F4, F9, GR(4,2), GR(8,2), GR(4,3): seeded matrices with about half
    # their entries zero, every shape up to 3 x 3 including the empty ones
    alg = AlgebraSpec.make(*pnf)
    B = alg.B
    rng = random.Random(sum(pnf))
    for rows in range(4):
        for cols in range(4):
            for _ in range(3):
                M = Matrix(B, [[0 if rng.random() < 0.5 else rng.randrange(B.size)
                                for _ in range(cols)] for _ in range(rows)],
                           rows, cols)
                dense, cols_ref = _reference_bmat_cols(alg, M)
                assert alg.bmat_cols(M) == cols_ref
                assert bmat_to_rmat(alg, M) == Matrix(alg.R, dense, rows * alg.fb,
                                                     cols * alg.fb)
    assert Matrix.from_sparse(alg.R, alg.x_cols(2), 2 * alg.fb) == Matrix(alg.R, _reference_bmat_cols(
        alg, Matrix.identity(B, 2).scale(B.x))[0], 2 * alg.fb, 2 * alg.fb)


def test_rmat_to_bmat_into_torsion_carrier(alg_gr42):
    # x on W/p = F4, as a map of the R-carrier mod(1,1): x.x = -x - 1 has raw
    # coefficients 3 that the canonical matrix stores as 1, and the map is
    # still B-linear
    alg = alg_gr42
    B = alg.B
    car = FinModule(alg.R, (1, 1))
    xmat = Matrix(B, [[B.x]], 1, 1)
    g = ModuleMap(car, car, bmat_to_rmat(alg, xmat))
    assert g.mat != bmat_to_rmat(alg, xmat)
    assert alg.rmat_to_bmat(g) == xmat


def test_regular_bimodule_valid(alg_f4, alg_gr42):
    for alg in (alg_f4, alg_gr42):
        bi = regular_bimodule(alg)
        BBBimodule(alg, bi.carrier, bi.left, bi.right)


def test_bimodule_scalar_actions_valid(alg_f2):
    car = FinModule(alg_f2.R, (1,))
    ident = ModuleMap.identity(car)
    BBBimodule(alg_f2, car, ident, ident)


def test_modulus_violation_example(alg_f2):
    # over F_2 with h = x - 1, x must act as the identity, so a nilpotent
    # action violates h(x) = 0
    car = FinModule.free(alg_f2.R, 2)
    lx = ModuleMap(car, car, Matrix.from_rows(alg_f2.R, [[0, 1], [0, 0]]))
    rx = ModuleMap(car, car, Matrix.from_rows(alg_f2.R, [[0, 0], [1, 0]]))
    with pytest.raises(ModulusViolation):
        BBBimodule(alg_f2, car, lx, rx)


def test_noncommuting_actions(alg_f4):
    # valid modulus on both sides but the actions do not commute
    alg = alg_f4
    car = FinModule.free(alg.R, 4)
    a = free_bmodule(alg, 2).act.mat
    P = Matrix.from_rows(alg.R, [[1, 0, 0, 1], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])
    b = P @ a @ inverse(P)
    lx = ModuleMap(car, car, a)
    rx = ModuleMap(car, car, b)
    if (lx @ rx) != (rx @ lx):
        with pytest.raises(NonCommutingActions):
            BBBimodule(alg, car, lx, rx)


def test_tensor_ranks_f4_over_f2(alg_f4):
    # B (x)_R B has R-rank 4; B (x)_B B has R-rank 2
    bi = regular_bimodule(alg_f4)
    assert tensor_with_data(bi.carrier, bi.carrier).module.rank == 4
    assert tensor_bimodules(alg_f4, bi, bi).module.rank == 2


def test_unit_laws(alg_f4, alg_gr42, alg_f2):
    for alg in (alg_f2, alg_f4, alg_gr42):
        breg = regular_bimodule(alg)
        for r in (1, 2):
            M = free_bmodule(alg, r)
            data = tensor_bim_bmodule(alg, breg, M)
            unit_left_isos(alg, data, M)     # raises on failure
            data2 = _btensor_core(alg, M.carrier, M.act, breg.carrier, breg.left)
            unit_right_isos(alg, data2, M)


def test_middle_linearity_on_generators(alg_gr42):
    # (m . x) (x) y and m (x) (x . y) agree in the quotient
    alg = alg_gr42
    breg = regular_bimodule(alg)
    data = tensor_bimodules(alg, breg, breg)
    car = breg.carrier
    for i in range(car.rank):
        for j in range(car.rank):
            lhs = pure(data, breg.right.apply(car.gen(i)), car.gen(j))
            rhs = pure(data, car.gen(i), breg.left.apply(car.gen(j)))
            assert lhs == rhs


def test_associativity_isomorphism(alg_f4, alg_gr42, alg_f2):
    for alg in (alg_f2, alg_f4, alg_gr42):
        B = regular_bimodule(alg)
        f, g = assoc_isos(alg, B, B, B)
        assert (g @ f) == ModuleMap.identity(f.src)
        assert (f @ g) == ModuleMap.identity(f.dst)


def test_induced_maps_functorial(alg_f4):
    alg = alg_f4
    breg = regular_bimodule(alg)
    M = free_bmodule(alg, 2)
    data = tensor_bim_bmodule(alg, breg, M)
    idm = induced(data, data, ModuleMap.identity(breg.carrier),
                  ModuleMap.identity(M.carrier))
    assert idm == ModuleMap.identity(data.module)


def test_b_freeness(alg_f4, alg_gr42):
    # the regular module is free of rank 1; a torsion carrier is not free
    for alg in (alg_f4, alg_gr42):
        breg = regular_bimodule(alg)
        form = as_b_module(alg, breg.carrier, breg.left)
        assert form.exps == (alg.B.n,) and form.is_free()
    import tannaka_forge.rings as rings
    algZ8 = AlgebraSpec.make(2, 3, 1)
    z2 = FinModule(algZ8.R, (1,))
    assert not is_b_free(algZ8, z2, ModuleMap.identity(z2))


def test_b_freeness_nonstandard_basis(alg_f4):
    # conjugated free action is still recognized as free
    alg = alg_f4
    std = free_bmodule(alg, 2)
    P = Matrix.from_rows(alg.R, [[1, 1, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [1, 0, 1, 1]])
    assert is_invertible(P)
    car = FinModule.free(alg.R, 4)
    act = ModuleMap(car, car, P @ std.act.mat @ inverse(P))
    form = as_b_module(alg, car, act)
    assert form.is_free() and form.exps == (1, 1)
    # theta really is a B-module isomorphism from the standard module
    th = form.theta.mat
    assert is_invertible(th)
    assert th @ std.act.mat == act.mat @ th
