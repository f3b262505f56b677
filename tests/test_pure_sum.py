"""`BTensor.pure_sum` takes (v, w) pairs of sparse vectors and returns the
sparse pairs of their sum of pure tensors; `dense_tensor.pure_sum`, the
dense accumulate-and-project form it replaced, is the reference.  Seeded
draws over F2, Z/4 (with torsion carriers), GR(4,2) and GR(4,3), on
`tensor_bimodules` and `tensor_bim_bmodule`: the two agree entry for
entry, with flat pairs (i, j) hit more than once and with products that
cancel modulo the exponent of their flat coordinate both occurring."""

import random

from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.algebra import (AlgebraSpec, BBBimodule, BModule,
                                   free_bmodule, regular_bimodule,
                                   tensor_bimodules, tensor_bim_bmodule)
from tannaka_forge.tannaka import coend
from tannaka_forge.suite import random_diagram
from dense_tensor import pure_sum

RINGS = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 2, 3)]


def _torsion(alg, free: int):
    """B^free (+) B/p as a left module and as a bimodule, x acting on each
    summand as on B: not free when n >= 2."""
    car = FinModule(alg.R, (alg.R.n,) * (free * alg.fb) + (1,) * alg.fb)
    act = ModuleMap(car, car, alg.x_cols(free + 1))
    return BModule(alg, car, act), BBBimodule(alg, car, act, act)


def _tensors(alg, rng):
    """tensor_bimodules and tensor_bim_bmodule of the regular bimodule, B/p,
    B (+) B/p and a seeded coend's bimodule, with B^2, B/p and B (+) B/p
    on the right."""
    bims = [regular_bimodule(alg)]
    mods = [free_bmodule(alg, 2)]
    if alg.R.n >= 2:
        for free in (0, 1):
            tm, tb = _torsion(alg, free)
            bims.append(tb)
            mods.append(tm)
    for _ in range(40):
        L = coend(random_diagram(rng, alg, max_obj=2, max_rank=2)[0], check=False)
        if 2 * alg.fb <= L.coalgebra.carrier.rank <= 6:
            bims.append(L.coalgebra.bi)
            break
    return ([tensor_bimodules(alg, X, Y) for X in bims for Y in bims]
            + [tensor_bim_bmodule(alg, X, M) for X in bims for M in mods])


def _vec(rng, M, q):
    """A dense vector over M with a nonzero entry at index 0 or beyond."""
    vec = [rng.randrange(1, q) if rng.random() < 0.6 else 0 for _ in range(M.rank)]
    vec[rng.randrange(M.rank)] = rng.randrange(1, q)
    return vec


def _pairs(rng, data):
    """Random dense pairs, with a repeated pair or a pair and its negative
    added at random."""
    R, X, Y = data.alg.R, data.TR.left, data.TR.right
    pairs = [(_vec(rng, X, R.q), _vec(rng, Y, R.q)) for _ in range(rng.randint(1, 3))]
    extra = rng.random()
    if extra < 0.3:
        pairs.append(pairs[0])
    elif extra < 0.5:
        pairs.append((pairs[0][0], [R.neg(b) for b in pairs[0][1]]))
    return pairs


def _sparse(vec):
    return [(i, a) for i, a in enumerate(vec) if a]


def test_sparse_pure_sum_matches_the_dense_reference():
    seen = {"repeated": 0, "cancelled": 0, "torsion": 0, "nonzero": 0, "zero": 0}
    for t in RINGS:
        alg = AlgebraSpec.make(*t)
        R, rng = alg.R, random.Random(4500 + sum(t))
        for data in _tensors(alg, rng):
            seen["torsion"] += not (data.TR.left.is_free() and data.TR.right.is_free())
            exps = data.TR.module.exps
            for _ in range(6):
                pairs = _pairs(rng, data)
                got = data.pure_sum((_sparse(v), _sparse(w)) for v, w in pairs)
                assert got == _sparse(pure_sum(data, pairs))
                assert [r for r, _ in got] == sorted({r for r, _ in got})
                seen["nonzero" if got else "zero"] += 1
                terms: dict[int, list[int]] = {}
                for v, w in pairs:
                    for i, a in _sparse(v):
                        for j, b in _sparse(w):
                            terms.setdefault(data.TR.pos[(i, j)], []).append(a * b)
                seen["repeated"] += any(len(ts) > 1 for ts in terms.values())
                seen["cancelled"] += any(
                    any(c % R.q for c in ts) and sum(ts) % R.p ** exps[k] == 0
                    for k, ts in terms.items())
    assert min(seen.values()) >= 5, seen


def test_pure_sum_of_no_pairs_is_zero(alg_gr42):
    data = tensor_bimodules(alg_gr42, regular_bimodule(alg_gr42), regular_bimodule(alg_gr42))
    assert data.pure_sum([]) == []
    assert data.pure_sum([([], [(0, 1)])]) == []
