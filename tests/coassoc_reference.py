"""References for the coassociativity comparison.

``TripleTensor`` is the container the comparison used before it worked on
the nest alone: a nest, together with the flat R-triple tensor it is a
quotient of.  ``nested_triple_tensor`` builds it around ``reference_nest``,
and also when f_B = 1, where the flat triple tensor is the quotient and
there is no nest.

``dense_tensor_free`` is the nest in B-coordinates as it was built before
its projection and section became sparse columns: both filled into dense
matrices, entry by entry, over the whole flat X (x)_R Z.
``reference_nest`` is the nest as a ``BTensor`` over that flat tensor: for
a Z free over B, ``dense_tensor_free``'s projection and section with the
middle relations the quotient presents; otherwise
``algebra.triple_tensor``'s quotient.

``quotient_triple_tensor`` is the nested triple tensor with the nest always
presented as the quotient of the flat (X (x)_B Y) (x) Z by the middle
relations, by one Smith form, as it was built before free carriers got the
nest in B-coordinates.

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
``TripleTensor`` and ``FlatTripleTensor`` alike, in place of the nest
that ``coalgebra._coassoc_witness`` takes with xy, and the same sparse
columns of the lifts and of delta or rho, which it writes out as dense
matrices first.

All of these are kept only to be tested against.

The remaining helpers serve the tests of the tensor over B itself:
``embed3``, ``pure3`` and ``lift_gen`` move elements between the flat triple
coordinates and a ``TripleTensor``, ``assoc_isos`` builds and verifies the
associativity isomorphisms through the triple tensor (so it also checks the
``sect`` of the nest), and ``unit_left_isos``/``unit_right_isos`` verify the
unit isomorphisms B (x)_B M = M = M (x)_B B.
"""

from __future__ import annotations

from dataclasses import dataclass

from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import (FinModule, ModuleMap, TensorData,
                                   tensor_with_data, presentation_with_torsion)
from tannaka_forge.algebra import (AlgebraSpec, BModule, BBBimodule, BTensor,
                                   BForm, tensor_bimodules, triple_tensor,
                                   _btensor_core, as_b_module)

from dense_tensor import dense, descend, embed, from_cols, map_tensor, pure
from descent_reference import act_by
from smith_reference import densify


@dataclass
class TripleTensor:
    """X tensor_B Y tensor_B Z as the nested tensor (X tensor_B Y) tensor_B Z.

    TR is the flat R-triple tensor (T12.module) tensor Z, T12 = xy.TR the
    flat X tensor Y.  Tensor over B is right exact, so the flat triple tensor
    maps onto the nested tensor by xy's projection (tensor id) followed by
    nest's, where nest is the binary tensor xy.module tensor_B Z.  When
    f_B = 1 the flat triple tensor is the quotient: nest is None and module
    is TR.module."""
    alg: AlgebraSpec
    xy: BTensor
    TR: TensorData          # (T12.module) tensor Z
    nest: BTensor | None    # (xy.module) tensor_B Z
    module: FinModule

    @property
    def T12(self) -> TensorData:
        return self.xy.TR


def as_triple(xy: BTensor, nest: BTensor) -> TripleTensor:
    """The TripleTensor of the nest xy.module tensor_B Z."""
    return TripleTensor(xy.alg, xy, tensor_with_data(xy.TR.module, nest.TR.right),
                        nest, nest.module)


def nested_triple_tensor(alg: AlgebraSpec, xy: BTensor, Z_car: FinModule,
                         Z_left: ModuleMap) -> TripleTensor:
    """(X tensor_B Y) tensor_B Z around reference_nest; the flat triple
    tensor itself when f_B = 1."""
    if alg.fb == 1:
        TR = tensor_with_data(xy.TR.module, Z_car)
        return TripleTensor(alg, xy, TR, None, TR.module)
    return as_triple(xy, reference_nest(alg, xy, Z_car, Z_left))


@dataclass
class FlatTripleTensor:
    """X (x)_B Y (x)_B Z as one quotient of the flat R-triple tensor TR =
    (T12.module) (x) Z; proj maps TR.module onto it."""
    alg: AlgebraSpec
    T12: TensorData
    TR: TensorData
    module: FinModule
    proj: ModuleMap


def dense_tensor_free(alg: AlgebraSpec, xy: BTensor, Z_car: FinModule,
                      form: BForm) -> tuple[FinModule, ModuleMap, Matrix]:
    """(module, proj, sect) of X (x)_B Z = X^{(+)s} for X = xy.module and Z
    free over B with basis z_1..z_s (form), as the nest in B-coordinates
    was built before it wrote sparse columns: proj and sect filled entry by
    entry into dense matrices of side rank(X (x)_B Z) x rank(X (x)_R Z)."""
    R, fb, X = alg.R, alg.fb, xy.module
    add, mul = R.add, R.mul
    TR = tensor_with_data(X, Z_car)
    s = len(form.exps)
    entries = sorted(((e, (j, q)) for j in range(s) for q, e in enumerate(X.exps)),
                     key=lambda t: (-t[0], t[1]))
    module = FinModule(R, tuple(e for e, _ in entries))
    at = {jq: r for r, (_, jq) in enumerate(entries)}
    # pows[g][q]: right^g(x_q) as sparse (index, coeff) pairs
    rcols = xy.right
    pows = [[[(q, 1)] for q in range(X.rank)]]
    for _ in range(fb - 1):
        nxt = []
        for col in pows[-1]:
            acc: dict[int, int] = {}
            for i, a in col:
                for i2, b in rcols[i]:
                    acc[i2] = add(acc.get(i2, 0), mul(a, b))
            nxt.append([(i, v) for i, v in acc.items() if v])
        pows.append(nxt)
    proj = Matrix.zeros(R, module.rank, TR.module.rank)
    beta = form.theta_inv.cols
    for (q, k), c in TR.pos.items():
        for jg, b in beta[k]:
            j, g = divmod(jg, fb)
            for q2, a in pows[g][q]:
                row = proj.data[at[(j, q2)]]
                row[c] = add(row[c], mul(b, a))
    sect = Matrix.zeros(R, TR.module.rank, module.rank)
    zcols = form.theta.cols
    for (j, q), r in at.items():
        for k, b in zcols[j * fb]:
            sect.data[TR.pos[(q, k)]][r] = b
    return module, ModuleMap(TR.module, module, proj, validate=False), sect


def reference_nest(alg: AlgebraSpec, xy: BTensor, Z_car: FinModule,
                   Z_left: ModuleMap) -> BTensor:
    """The nest xy.module (x)_B Z as a BTensor over the flat
    xy.module (x)_R Z, for f_B >= 2: when Z is free over B, the projection
    and section of dense_tensor_free, with the middle relations written out
    by the dense map_tensor; otherwise triple_tensor's quotient."""
    form = as_b_module(alg, Z_car, Z_left)
    if not form.is_free():
        return triple_tensor(alg, xy, Z_car, Z_left)
    module, proj, sect = dense_tensor_free(alg, xy, Z_car, form)
    TR, X = tensor_with_data(xy.module, Z_car), xy.module
    rels = (map_tensor(TR, dense(xy).right, ModuleMap.identity(Z_car), TR)
            - map_tensor(TR, ModuleMap.identity(X), Z_left, TR))
    return BTensor(alg, TR, module, proj.mat.sparse_cols(), sect.sparse_cols(),
                   rels.mat.sparse_cols())


def quotient_triple_tensor(alg: AlgebraSpec, xy: BTensor, Z_car: FinModule,
                           Z_left: ModuleMap) -> TripleTensor:
    """(X (x)_B Y) (x)_B Z with the nest presented by _btensor_core, for
    f_B >= 2."""
    nest = _btensor_core(alg, xy.module, dense(xy).right, Z_car, Z_left)
    return TripleTensor(alg, xy, tensor_with_data(xy.TR.module, Z_car), nest,
                        nest.module)


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
        v1 = embed(TR, embed(T12, X_car.gen(i), yi), Z_car.gen(zc))
        v2 = embed(TR, embed(T12, X_car.gen(i), Y_car.gen(j)), zl)
        for idx in range(TR.module.rank):
            t23.data[idx][k] = alg.R.sub(v1[idx], v2[idx])
    pres = densify(alg.R, presentation_with_torsion(TR.module,
                                                        rel12.mat.hstack(t23).sparse_cols()))
    return FlatTripleTensor(alg, T12, TR, pres.module,
                            ModuleMap(TR.module, pres.module, pres.proj))


def dense_proj(t3) -> ModuleMap | None:
    """The projection from the flat triple coordinates onto t3.module; for
    the nested quotient the composite nest.proj . (xy.proj (x) id).  None
    when t3.module is the flat triple tensor itself (f_B = 1), where it is
    the identity."""
    if t3.module is t3.TR.module:
        return None
    if isinstance(t3, FlatTripleTensor):
        return t3.proj
    xz = map_tensor(t3.TR, dense(t3.xy).proj, ModuleMap.identity(t3.TR.right),
                    t3.nest.TR)
    return dense(t3.nest).proj @ xz


def _projected(proj: ModuleMap | None, vec) -> tuple[int, ...]:
    return vec if proj is None else proj.apply(vec)


def _delta_tensor_id(deltahat: Matrix, data: BTensor, t3, proj: ModuleMap | None,
                     right_car: FinModule) -> ModuleMap:
    """(delta (x)_B id) : C (x)_B Z -> C (x)_B C (x)_B Z."""
    flat = Matrix.zeros(t3.alg.R, t3.module.rank, data.TR.module.rank)
    for (i, j), k in data.TR.pos.items():
        dcol = deltahat.col(i)
        col = _projected(proj, embed(t3.TR, tuple(dcol), right_car.gen(j)))
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(data, ModuleMap(data.TR.module, t3.module, flat, validate=False))


def _id_tensor_coaction(data: BTensor, t3, proj: ModuleMap | None, C_car: FinModule,
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
            vec = _projected(proj, embed3(t3, C_car.gen(i), C_car.gen(a),
                                          t3.TR.right.gen(b)))
            for r, v in enumerate(vec):
                if v:
                    acc[r] = R.add(acc[r], R.mul(coeff, v))
        col = t3.module.reduce(acc)
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(data, ModuleMap(data.TR.module, t3.module, flat, validate=False))


def dense_coassoc_witness(t3: TripleTensor | FlatTripleTensor, deltahat: list,
                          src: BTensor, hat: list, phi: list) -> int | None:
    R = src.alg.R
    deltahat = Matrix.from_sparse(R, deltahat, t3.T12.module.rank)
    hat = Matrix.from_sparse(R, hat, src.TR.module.rank)
    phi = ModuleMap(FinModule.free(R, len(phi)), src.module,
                    Matrix.from_sparse(R, phi, src.module.rank), validate=False)
    proj = dense_proj(t3)
    lhs = _delta_tensor_id(deltahat, src, t3, proj, src.TR.right) @ phi
    rhs = _id_tensor_coaction(src, t3, proj, t3.T12.left, hat) @ phi
    for g in range(phi.src.rank):
        if lhs.apply(phi.src.gen(g)) != rhs.apply(phi.src.gen(g)):
            return g
    return None


# ---------------------------------------------------------------------------
# elements of triple tensors, and the unit and associativity isomorphisms
# ---------------------------------------------------------------------------

def embed3(t3: TripleTensor | FlatTripleTensor, v, w, u) -> tuple[int, ...]:
    """v (x) w (x) u in the flat triple coordinates."""
    return embed(t3.TR, embed(t3.T12, v, w), u)


def pure3(t3: TripleTensor, v, w, u) -> tuple[int, ...]:
    """v (x) w (x) u in t3.module."""
    if t3.nest is None:
        return embed3(t3, v, w, u)
    return pure(t3.nest, pure(t3.xy, v, w), u)


def lift_gen(t3: TripleTensor, q: int) -> list[int]:
    """A flat representative of the q-th generator of t3.module: nest.sect,
    then xy.sect tensor id."""
    if t3.nest is None:
        return list(t3.module.gen(q))
    R, Z = t3.alg.R, t3.TR.right
    nest_sect, xy_sect = dense(t3.nest).sect, dense(t3.xy).sect
    out = [0] * t3.TR.module.rank
    for (qq, z), k in t3.nest.TR.pos.items():
        c = nest_sect.data[k][q]
        if c:
            vec = embed(t3.TR, xy_sect.col(qq), Z.gen(z))
            out = [R.add(a, R.mul(c, b)) for a, b in zip(out, vec)]
    return out


def unit_left_isos(alg: AlgebraSpec, data: BTensor, M: BModule) -> tuple[ModuleMap, ModuleMap]:
    """(to, fro) for B tensor_B M = M, data the tensor with the regular
    bimodule on the left; verified mutually inverse."""
    one = alg.B.coeffs(alg.B.one)
    cols = [list(pure(data, one, M.carrier.gen(i))) for i in range(M.carrier.rank)]
    to = ModuleMap(M.carrier, data.module,
                   from_cols(alg.R, cols, data.module.rank))
    # b (x) m -> b . m, descended from the flat map
    flat = Matrix.zeros(alg.R, M.carrier.rank, data.TR.module.rank)
    for (a, j), k in data.TR.pos.items():
        # basis a of B-carrier is x^a; its action on gen_j
        col = act_by(alg, M.act, alg.B.pow(alg.B.x, a)).apply(M.carrier.gen(j))
        for i, v in enumerate(col):
            flat.data[i][k] = v
    fro = descend(data, ModuleMap(data.TR.module, M.carrier, flat, validate=False))
    if (fro @ to) != ModuleMap.identity(M.carrier) or \
       (to @ fro) != ModuleMap.identity(data.module):
        raise RuntimeError("unit isomorphism failed to verify")
    return to, fro


def unit_right_isos(alg: AlgebraSpec, data: BTensor, M: BModule) -> tuple[ModuleMap, ModuleMap]:
    """(to, fro) for M tensor_B B = M; M's action is used as the right
    action."""
    one = alg.B.coeffs(alg.B.one)
    cols = [list(pure(data, M.carrier.gen(i), one)) for i in range(M.carrier.rank)]
    to = ModuleMap(M.carrier, data.module,
                   from_cols(alg.R, cols, data.module.rank))
    flat = Matrix.zeros(alg.R, M.carrier.rank, data.TR.module.rank)
    for (i, a), k in data.TR.pos.items():
        col = act_by(alg, M.act, alg.B.pow(alg.B.x, a)).apply(M.carrier.gen(i))
        for r, v in enumerate(col):
            flat.data[r][k] = v
    fro = descend(data, ModuleMap(data.TR.module, M.carrier, flat, validate=False))
    if (fro @ to) != ModuleMap.identity(M.carrier) or \
       (to @ fro) != ModuleMap.identity(data.module):
        raise RuntimeError("unit isomorphism failed to verify")
    return to, fro


def assoc_isos(alg: AlgebraSpec, X: BBBimodule, Y: BBBimodule, Z: BBBimodule):
    """Mutually inverse isomorphisms (X (x)_B Y) (x)_B Z <-> X (x)_B
    (Y (x)_B Z), both verified, constructed through the common triple
    tensor."""
    txy = tensor_bimodules(alg, X, Y)
    t3 = nested_triple_tensor(alg, txy, Z.carrier, Z.left)
    left_nested = _btensor_core(alg, txy.module, dense(txy).right, Z.carrier,
                                Z.left)
    tyz = tensor_bimodules(alg, Y, Z)
    right_nested = _btensor_core(alg, X.carrier, X.right, tyz.module,
                                 dense(tyz).left)
    txy_sect, tyz_sect = dense(txy).sect, dense(tyz).sect
    inv_txy = {v: k for k, v in txy.TR.pos.items()}
    inv_tyz = {v: k for k, v in tyz.TR.pos.items()}
    inv_t3tr = {v: k for k, v in t3.TR.pos.items()}
    inv_t312 = {v: k for k, v in t3.T12.pos.items()}

    def nested_left_to_t3() -> ModuleMap:
        cols = []
        for (q1, k), pos in sorted(left_nested.TR.pos.items(), key=lambda kv: kv[1]):
            lift = txy_sect.col(q1)
            acc = [0] * t3.module.rank
            for kk, coeff in enumerate(lift):
                if coeff == 0:
                    continue
                i, j = inv_txy[kk]
                vec = pure3(t3, X.carrier.gen(i), Y.carrier.gen(j), Z.carrier.gen(k))
                for r, v in enumerate(vec):
                    if v:
                        acc[r] = alg.R.add(acc[r], alg.R.mul(coeff, v))
            cols.append(t3.module.reduce(acc))
        flat = ModuleMap(left_nested.TR.module, t3.module,
                         from_cols(alg.R, [list(c) for c in cols],
                                          t3.module.rank), validate=False)
        return descend(left_nested, flat)

    def t3_to_nested_left() -> ModuleMap:
        cols = []
        for kq in range(t3.module.rank):
            lift = lift_gen(t3, kq)
            acc = [0] * left_nested.module.rank
            for kk, coeff in enumerate(lift):
                if coeff == 0:
                    continue
                pk, k = inv_t3tr[kk]
                i, j = inv_t312[pk]
                inner = pure(txy, X.carrier.gen(i), Y.carrier.gen(j))
                vec = pure(left_nested, inner, Z.carrier.gen(k))
                for r, v in enumerate(vec):
                    if v:
                        acc[r] = alg.R.add(acc[r], alg.R.mul(coeff, v))
            cols.append(left_nested.module.reduce(acc))
        return ModuleMap(t3.module, left_nested.module,
                         from_cols(alg.R, [list(c) for c in cols],
                                          left_nested.module.rank))

    def nested_right_to_t3() -> ModuleMap:
        cols = []
        for (i, q2), pos in sorted(right_nested.TR.pos.items(), key=lambda kv: kv[1]):
            lift = tyz_sect.col(q2)
            acc = [0] * t3.module.rank
            for kk, coeff in enumerate(lift):
                if coeff == 0:
                    continue
                j, k = inv_tyz[kk]
                vec = pure3(t3, X.carrier.gen(i), Y.carrier.gen(j), Z.carrier.gen(k))
                for r, v in enumerate(vec):
                    if v:
                        acc[r] = alg.R.add(acc[r], alg.R.mul(coeff, v))
            cols.append(t3.module.reduce(acc))
        flat = ModuleMap(right_nested.TR.module, t3.module,
                         from_cols(alg.R, [list(c) for c in cols],
                                          t3.module.rank), validate=False)
        return descend(right_nested, flat)

    def t3_to_nested_right() -> ModuleMap:
        cols = []
        for kq in range(t3.module.rank):
            lift = lift_gen(t3, kq)
            acc = [0] * right_nested.module.rank
            for kk, coeff in enumerate(lift):
                if coeff == 0:
                    continue
                pk, k = inv_t3tr[kk]
                i, j = inv_t312[pk]
                inner = pure(tyz, Y.carrier.gen(j), Z.carrier.gen(k))
                vec = pure(right_nested, X.carrier.gen(i), inner)
                for r, v in enumerate(vec):
                    if v:
                        acc[r] = alg.R.add(acc[r], alg.R.mul(coeff, v))
            cols.append(right_nested.module.reduce(acc))
        return ModuleMap(t3.module, right_nested.module,
                         from_cols(alg.R, [list(c) for c in cols],
                                          right_nested.module.rank))

    a = nested_left_to_t3()
    b = t3_to_nested_left()
    c = nested_right_to_t3()
    d = t3_to_nested_right()
    for f, g, M in ((a, b, left_nested.module), (c, d, right_nested.module)):
        if (g @ f) != ModuleMap.identity(M) or \
           (f @ g) != ModuleMap.identity(t3.module):
            raise RuntimeError("associativity isomorphism failed to verify")
    return d @ a, b @ c
