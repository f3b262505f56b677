"""References for the coassociativity comparison.

``flat_triple_tensor`` is the triple tensor the checks used before the
nested quotient: X (x)_B Y (x)_B Z as one quotient of the flat R-module of
rank (rank)^3, by the middle relations of slots 1-2 and 2-3 together, with a
single Smith form.

``dense_coassoc_witness`` is the comparison ``coalgebra_check`` and
``comodule_check`` made before the sparse routine: the whole flat maps
(delta (x) id) and (id (x) rho) are built as dense matrices into the triple
tensor, pushed pure tensor by pure tensor through a dense projection from
the flat triple coordinates, descended with ``descend`` (which checks the
middle relations and validates the result) and composed with delta or rho
before being compared generator by generator.  It accepts the nested
``TripleTensor`` and ``FlatTripleTensor`` alike, with the signature of
``coalgebra._coassoc_witness``.

Both are kept only to be tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import (FinModule, ModuleMap, TensorData,
                                   tensor_with_data, map_tensor,
                                   presentation_with_torsion)
from tannaka_forge.algebra import AlgebraSpec, BTensor, TripleTensor, descend


@dataclass
class FlatTripleTensor:
    """X (x)_B Y (x)_B Z as one quotient of the flat R-triple tensor TR =
    (T12.module) (x) Z; proj maps TR.module onto it."""
    alg: AlgebraSpec
    T12: TensorData
    TR: TensorData
    module: FinModule
    proj: ModuleMap

    def embed3(self, v, w, u) -> tuple[int, ...]:
        return self.TR.embed(self.T12.embed(v, w), u)


def flat_triple_tensor(alg: AlgebraSpec, X_car: FinModule, X_right: ModuleMap,
                       Y_car: FinModule, Y_left: ModuleMap, Y_right: ModuleMap,
                       Z_car: FinModule, Z_left: ModuleMap) -> FlatTripleTensor:
    T12 = tensor_with_data(X_car, Y_car)
    TR = tensor_with_data(T12.module, Z_car)
    if alg.fb == 1:
        return FlatTripleTensor(alg, T12, TR, TR.module,
                                ModuleMap.identity(TR.module))
    rel12_xy = (map_tensor(T12, X_right, ModuleMap.identity(Y_car), T12)
                - map_tensor(T12, ModuleMap.identity(X_car), Y_left, T12))
    rel12 = map_tensor(TR, rel12_xy, ModuleMap.identity(Z_car), TR)
    # middle relations in slots 2-3, built columnwise on the flat basis
    t23 = Matrix.zeros(alg.R, TR.module.rank, TR.module.rank)
    pos12_inv = {v: kk for kk, v in T12.pos.items()}
    for (pk, zc), k in TR.pos.items():
        i, j = pos12_inv[pk]
        yi = Y_right.apply(Y_car.gen(j))
        zl = Z_left.apply(Z_car.gen(zc))
        v1 = TR.embed(T12.embed(X_car.gen(i), yi), Z_car.gen(zc))
        v2 = TR.embed(T12.embed(X_car.gen(i), Y_car.gen(j)), zl)
        for idx in range(TR.module.rank):
            t23.data[idx][k] = alg.R.sub(v1[idx], v2[idx])
    pres = presentation_with_torsion(TR.module, rel12.mat.hstack(t23))
    return FlatTripleTensor(alg, T12, TR, pres.module,
                            ModuleMap(TR.module, pres.module, pres.proj))


def dense_proj(t3) -> ModuleMap:
    """The projection from the flat triple coordinates onto t3.module; for
    the nested quotient the composite nest.proj . (xy.proj (x) id)."""
    if isinstance(t3, FlatTripleTensor):
        return t3.proj
    if t3.nest is None:
        return ModuleMap.identity(t3.module)
    xz = map_tensor(t3.TR, t3.xy.proj, ModuleMap.identity(t3.TR.right),
                    t3.nest.TR)
    return t3.nest.proj @ xz


def _delta_tensor_id(deltahat: Matrix, data: BTensor, t3, proj: ModuleMap,
                     right_car: FinModule) -> ModuleMap:
    """(delta (x)_B id) : C (x)_B Z -> C (x)_B C (x)_B Z."""
    flat = Matrix.zeros(t3.alg.R, t3.module.rank, data.TR.module.rank)
    for (i, j), k in data.TR.pos.items():
        dcol = deltahat.col(i)
        col = proj.apply(t3.TR.embed(tuple(dcol), right_car.gen(j)))
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(data, ModuleMap(data.TR.module, t3.module, flat, validate=False))


def _id_tensor_coaction(data: BTensor, t3, proj: ModuleMap, C_car: FinModule,
                        hat: Matrix) -> ModuleMap:
    """(id (x)_B rho) : C (x)_B Z -> C (x)_B C (x)_B Z, hat the lift of rho
    into data.TR."""
    R = t3.alg.R
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


def dense_coassoc_witness(t3: TripleTensor | FlatTripleTensor, deltahat: Matrix,
                          src: BTensor, hat: Matrix, phi: ModuleMap) -> int | None:
    proj = dense_proj(t3)
    lhs = _delta_tensor_id(deltahat, src, t3, proj, src.TR.right) @ phi
    rhs = _id_tensor_coaction(src, t3, proj, t3.T12.left, hat) @ phi
    for g in range(phi.src.rank):
        if lhs.apply(phi.src.gen(g)) != rhs.apply(phi.src.gen(g)):
            return g
    return None
