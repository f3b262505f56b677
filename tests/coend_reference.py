"""The coend's structure maps written out with hand index arithmetic on the
T-basis, as they were before `tannaka` built them from the algebra layer's
primitives (`bmat_to_rmat`, `map_tensor`, the dual-basis functional and
the counit contraction), and the cofree coaction written out term by term.
Kept only as the differential reference for tests/test_coend_maps.py.

T = sum_k fiber_k (x)_R fiber_k^dual, with v (x) xi_w of block k at
offsets[k] + v m_k + w, m_k = r_k f_B, and xi_w = x^beta e_t^dual for
w = t f_B + beta.
"""

from __future__ import annotations

from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import ModuleMap
from tannaka_forge.algebra import (free_bmodule, tensor_bim_bmodule, induced,
                                   as_b_module, btensor_bmodule)
from tannaka_forge.coalgebra import comodule_check, comodule_hom
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, hom_closure,
                                   coend)

from dense_tensor import bmat_to_rmat, deltahat, descend, pure, rhohat
from descent_reference import act_by


def block_diag(ring, blocks) -> Matrix:
    """The block-diagonal matrix of the blocks, in order."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = Matrix.zeros(ring, rows, cols)
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            out.data[r + i][c:c + b.cols] = list(b.data[i])
        r += b.rows
        c += b.cols
    return out


def relation_columns(D: DiagramCategory, morphisms=None):
    """(N, offsets, dims, cols): the relations (F v) (x) xi - v (x) (xi F)
    as dense T-columns, xi F computed entry by entry over B."""
    alg = D.alg
    B, R, fb = alg.B, alg.R, alg.fb
    dims = [obj.rank * fb for obj in D.objects]
    offsets = []
    acc = 0
    for m in dims:
        offsets.append(acc)
        acc += m * m
    N = acc
    cols = []
    items = morphisms if morphisms is not None else \
        [(k, l, F) for (k, l), mats in sorted(D.homs.items()) for F in mats]
    for (k, l, F) in items:
        mk, ml = dims[k], dims[l]
        rk = D.objects[k].rank
        Fr = bmat_to_rmat(alg, F)
        for v in range(mk):
            for w in range(ml):
                col = [0] * N
                for w2 in range(ml):
                    a = Fr.data[w2][v]
                    if a:
                        col[offsets[l] + w2 * ml + w] = a
                # xi F as a row over B: xi = (t, beta) with w = t*fb + beta
                t, beta = divmod(w, fb)
                xb = B.pow(B.x, beta)
                for u in range(rk):
                    b = B.mul(F.data[t][u], xb)
                    if b:
                        for g, c in enumerate(B.coeffs(b)):
                            if c:
                                j = offsets[k] + v * mk + (u * fb + g)
                                col[j] = R.sub(col[j], c)
                if any(col):
                    cols.append(col)
    return N, offsets, dims, cols


def block_x_action(alg, dims, offsets, N, side: str) -> Matrix:
    """x acting on T on the chosen side: through the fiber for 'left',
    through the dual for 'right'; both act by the regular matrix of x."""
    R = alg.R
    xmat = Matrix.from_sparse(R, alg.x_cols(1), alg.fb)
    out = Matrix.zeros(R, N, N)
    for k, m in enumerate(dims):
        rk = m // alg.fb
        X = block_diag(R, [xmat] * rk)
        for v in range(m):
            for w in range(m):
                j = offsets[k] + v * m + w
                if side == "left":
                    for v2 in range(m):
                        a = X.data[v2][v]
                        if a:
                            out.data[offsets[k] + v2 * m + w][j] = a
                else:
                    for w2 in range(m):
                        a = X.data[w2][w]
                        if a:
                            out.data[offsets[k] + v * m + w2][j] = a
    return out


def counit_flat(alg, dims, offsets, N) -> Matrix:
    """eps on the T-basis: v (x) xi_w |-> xi_w(v) = x^{alpha + beta} when v
    and w lie over the same B-basis vector."""
    R, B, fb = alg.R, alg.B, alg.fb
    eps_flat = Matrix.zeros(R, fb, N)
    for k, m in enumerate(dims):
        for v in range(m):
            s, alpha = divmod(v, fb)
            for w in range(m):
                t, beta = divmod(w, fb)
                if s == t:
                    b = B.pow(B.x, alpha + beta)
                    for g, c in enumerate(B.coeffs(b)):
                        eps_flat.data[g][offsets[k] + v * m + w] = c
    return eps_flat


def nu_flat(C, family):
    """(nu on the T-basis, the coend of the family's comodule homs): column
    (v, w) of block i applies id (x) xi_w to the lift of rho_i(e_v) term by
    term, with one right action of x^{beta + gamma} per term."""
    alg = C.alg
    R, B, fb = alg.R, alg.B, alg.fb
    std_comods = []
    for Mc in family:
        form = as_b_module(alg, Mc.carrier, Mc.module.act)
        r = len(form.exps)
        std = free_bmodule(alg, r)
        th, thinv = form.theta, form.theta_inv
        cm_std = tensor_bim_bmodule(alg, C.bi, std)
        rho_std = induced(Mc.cm, cm_std, ModuleMap.identity(C.carrier), thinv) \
            @ Mc.rho @ th
        std_comods.append(comodule_check(C, cm_std, rho_std))
    objects = [DiagObject("M%d" % i, sc.carrier.rank // fb)
               for i, sc in enumerate(std_comods)]
    homs = {}
    for i, Mi in enumerate(std_comods):
        for j, Mj in enumerate(std_comods):
            _, basis = comodule_hom(Mi, Mj)
            homs[(i, j)] = [alg.rmat_to_bmat(g) for g in basis]
    CR = coend(hom_closure(DiagramCategory(alg, objects, homs)))
    N = CR.classmap.cols
    out = Matrix.zeros(R, C.carrier.rank, N)
    for i, sc in enumerate(std_comods):
        m = CR.block_dims[i]
        hat = rhohat(sc)
        pos_inv = {v: kk for kk, v in sc.cm.TR.pos.items()}
        for v in range(m):
            lift = hat.col(v)
            for w in range(m):
                t, beta = divmod(w, fb)
                acc = [0] * C.carrier.rank
                for kk, coeff in enumerate(lift):
                    if coeff == 0:
                        continue
                    a, u = pos_inv[kk]
                    s, gamma = divmod(u, fb)
                    if s != t:
                        continue
                    b = B.pow(B.x, beta + gamma)
                    vec = act_by(C.alg, C.bi.right, b).apply(C.carrier.gen(a))
                    for rix, val in enumerate(vec):
                        if val:
                            acc[rix] = R.add(acc[rix], R.mul(coeff, val))
                col = C.carrier.reduce(acc)
                j = CR.offsets[i] + v * m + w
                for rix, val in enumerate(col):
                    out.data[rix][j] = val
    return out, CR


def cofree_rho(C, M) -> ModuleMap:
    """delta (x) id on C (x)_B M, descended from its flat map."""
    alg = C.alg
    R = alg.R
    cm = tensor_bim_bmodule(alg, C.bi, M)
    target = tensor_bim_bmodule(alg, C.bi, btensor_bmodule(cm))
    flat = Matrix.zeros(R, target.module.rank, cm.TR.module.rank)
    pos_inv = {v: k for k, v in C.cc.TR.pos.items()}
    dh = deltahat(C)
    for (i, j), k in cm.TR.pos.items():
        acc = [0] * target.module.rank
        for kk, coeff in enumerate(dh.col(i)):
            if coeff == 0:
                continue
            a, b = pos_inv[kk]
            inner = pure(cm, C.carrier.gen(b), M.carrier.gen(j))
            vec = pure(target, C.carrier.gen(a), inner)
            for r, v in enumerate(vec):
                if v:
                    acc[r] = R.add(acc[r], R.mul(coeff, v))
        col = target.module.reduce(acc)
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(cm, ModuleMap(cm.TR.module, target.module, flat, validate=False))
