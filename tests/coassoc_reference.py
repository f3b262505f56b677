"""Dense reference for the coassociativity comparison.

This is the comparison ``coalgebra_check`` and ``comodule_check`` made before
the sparse routine: the whole flat maps (delta (x) id) and (id (x) rho) are
built as dense matrices into the triple tensor, pushed pure tensor by pure
tensor through its projection, descended with ``descend`` (which checks the
middle relations and validates the result) and composed with delta or rho
before being compared generator by generator.  It is kept only to be tested
against, with the signature of ``coalgebra._coassoc_witness``.
"""

from __future__ import annotations

from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.algebra import BTensor, TripleTensor, descend


def _proj(t3: TripleTensor) -> ModuleMap:
    return ModuleMap.identity(t3.module) if t3.proj is None else t3.proj


def _delta_tensor_id(deltahat: Matrix, data: BTensor, t3: TripleTensor,
                     right_car: FinModule) -> ModuleMap:
    """(delta (x)_B id) : C (x)_B Z -> C (x)_B C (x)_B Z."""
    proj = _proj(t3)
    flat = Matrix.zeros(t3.alg.R, t3.module.rank, data.TR.module.rank)
    for (i, j), k in data.TR.pos.items():
        dcol = deltahat.col(i)
        col = proj.apply(t3.TR.embed(tuple(dcol), right_car.gen(j)))
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(data, ModuleMap(data.TR.module, t3.module, flat, validate=False))


def _id_tensor_coaction(data: BTensor, t3: TripleTensor, C_car: FinModule,
                        hat: Matrix) -> ModuleMap:
    """(id (x)_B rho) : C (x)_B Z -> C (x)_B C (x)_B Z, hat the lift of rho
    into data.TR."""
    R = t3.alg.R
    proj = _proj(t3)
    inner_pos = {v: k for k, v in data.TR.pos.items()}
    flat = Matrix.zeros(R, t3.module.rank, data.TR.module.rank)
    for (i, j), k in data.TR.pos.items():
        acc = [0] * t3.module.rank
        for kk, coeff in enumerate(hat.col(j)):
            if coeff == 0:
                continue
            a, b = inner_pos[kk]
            vec = proj.apply(t3.embed3(C_car.gen(i), C_car.gen(a),
                                       t3.TR.right.gen(b)))
            for r, v in enumerate(vec):
                if v:
                    acc[r] = R.add(acc[r], R.mul(coeff, v))
        col = t3.module.reduce(acc)
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(data, ModuleMap(data.TR.module, t3.module, flat, validate=False))


def dense_coassoc_witness(t3: TripleTensor, cc: BTensor, deltahat: Matrix,
                          src: BTensor, hat: Matrix, phi: ModuleMap) -> int | None:
    lhs = _delta_tensor_id(deltahat, src, t3, src.TR.right) @ phi
    rhs = _id_tensor_coaction(src, t3, cc.TR.left, hat) @ phi
    for g in range(phi.src.rank):
        if lhs.apply(phi.src.gen(g)) != rhs.apply(phi.src.gen(g)):
            return g
    return None
