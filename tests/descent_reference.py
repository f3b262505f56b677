"""The descents as they were before one sparse kernel (`descend_sparse`)
served them all, kept only as the differential reference for
tests/test_descent.py.

``descend_map`` checks a dense flat map on every dense relation vector and
composes it with the section by a dense product; ``descend``, ``induced``
and ``counit_contraction`` reach it through the tensor over B, building
dense flat maps as wide as the R-tensor (``induced`` through a dense
``map_tensor`` and ``proj @ flat``), and ``counit_contraction`` through
``act_by``, the action of an element of B as the dense polynomial
``poly_in`` in the x-action.  ``coassoc_witness`` is the sparse
coassociativity comparison with its private copy of the descent, and
``comodule_hom`` and ``subcomodule_as_comodule`` build their id (x) h and
id (x) incl terms from the dense ``map_tensor``.  ``coalgebra_outcome``,
``comodule_outcome``, ``counit_nu`` and ``coalgebra_morphism`` are the
axiom checks and the counit echo as they were made before they read flat
lifts: each counit contraction descended and composed with delta or rho,
both sides of coassociativity descended into a nested triple tensor, and
nu (x) nu induced onto the tensor over B.  ``map_tensor`` here is
its own fill loop, so that these references share no column builder with
the code under test.
"""

from __future__ import annotations

from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import (FinModule, ModuleMap, NotWellDefined, hom_module,
                                   submodule, solve_in)
from tannaka_forge.algebra import BModule, tensor_bim_bmodule
from tannaka_forge.coalgebra import AxiomError, comodule_check

from dense_tensor import deltahat, dense, rhohat
from hom_reference import dense_hom_equalizer


def map_tensor(T, f, g, T2):
    ring = T.left.ring
    mat = Matrix.zeros(ring, T2.module.rank, T.module.rank)
    fcols, gcols = f.mat.sparse_cols(), g.mat.sparse_cols()
    for (i, j), k in T.pos.items():
        for i2, a in fcols[i]:
            for j2, b in gcols[j]:
                mat.data[T2.pos[(i2, j2)]][k] = ring.mul(a, b)
    return ModuleMap(T.module, T2.module, mat, validate=False)


def act_powers(act, k):
    """id, act, ..., act^(k-1) for an endomorphism act, as ModuleMaps."""
    pows = [ModuleMap.identity(act.src)]
    for _ in range(k - 1):
        pows.append(act @ pows[-1])
    return pows


def poly_in(act, coeffs):
    """sum_k coeffs[k] act^k as a dense ModuleMap."""
    acc = ModuleMap.zero(act.src, act.dst)
    for c, powmap in zip(coeffs, act_powers(act, len(coeffs))):
        if c:
            acc = acc + powmap.scale(c)
    return acc


def act_by(alg, act, b):
    """The action of the element b of B through the x-action act."""
    return poly_in(act, alg.B.coeffs(b))


def descend_map(flat, rels, quotient, sect):
    for rel in rels:
        if any(flat.apply(rel)):
            raise ValueError("map does not descend to the quotient")
    return ModuleMap(quotient, flat.dst, flat.mat @ sect)


def descend(data, flat):
    d = dense(data)
    rels = (d.rel_cols.col(j) for j in range(d.rel_cols.cols))
    return descend_map(flat, rels, data.module, d.sect)


def induced(data, data2, f, g):
    flat = map_tensor(data.TR, f, g, data2.TR)
    return descend(data, ModuleMap(data.TR.module, data2.module,
                                   dense(data2).proj.mat @ flat.mat, validate=False))


def counit_contraction(alg, counit, data, act, left=True):
    car_c, car_m = (data.TR.left, data.TR.right) if left else \
        (data.TR.right, data.TR.left)
    flat = Matrix.zeros(alg.R, car_m.rank, data.TR.module.rank)
    eps_act = [act_by(alg, act, alg.B.from_coeffs(counit.apply(car_c.gen(i))))
               for i in range(car_c.rank)]
    for (i, j), k in data.TR.pos.items():
        c, m = (i, j) if left else (j, i)
        col = eps_act[c].apply(car_m.gen(m))
        for r, v in enumerate(col):
            flat.data[r][k] = v
    return descend(data, ModuleMap(data.TR.module, car_m, flat, validate=False))


def coassoc_witness(t3, deltahat, src, hat, phi):
    R = t3.alg.R
    add, mul, red, val = R.add, R.mul, R.reduce_exp, R.val
    exps = t3.module.exps
    p12, p3 = t3.T12.pos, t3.TR.pos
    src_inv = {k: ij for ij, k in src.TR.pos.items()}
    dcols = deltahat.sparse_cols()
    hcols = [[(src_inv[kk], c) for kk, c in col] for col in hat.sparse_cols()]

    def combine(terms):
        acc = {}
        for c, vec in terms:
            for k, v in vec:
                acc[k] = add(acc.get(k, 0), mul(c, v))
        return acc

    def canon(acc):
        out = []
        for k, v in acc.items():
            v = red(v, exps[k])
            if v:
                out.append((k, v))
        out.sort()
        return out

    if t3.nest is None:
        to_quot = canon
    else:
        npos, xcols = t3.nest.TR.pos, dense(t3.xy).proj.mat.sparse_cols()
        xz = [None] * t3.TR.module.rank
        for (pk, z), k in p3.items():
            xz[k] = [(npos[(q, z)], a) for q, a in xcols[pk]]
        ncols = dense(t3.nest).proj.mat.sparse_cols()

        def to_quot(acc):
            mid = combine((v, xz[k]) for k, v in acc.items())
            return canon(combine((v, ncols[k]) for k, v in mid.items()))

    if src.alg.fb > 1:
        d = dense(src)
        rel_cols, sect_cols = d.rel_cols.sparse_cols(), d.sect.sparse_cols()

    def descend_cols(flat):
        if src.alg.fb == 1:
            cols = [to_quot(dict(col)) for col in flat]
        else:
            for rel in rel_cols:
                if to_quot(combine((c, flat[k]) for k, c in rel)):
                    raise ValueError("map does not descend to the tensor over B")
            cols = [to_quot(combine((c, flat[k]) for k, c in col))
                    for col in sect_cols]
        for q, col in enumerate(cols):
            for j, a in col:
                need = exps[j] - src.module.exps[q]
                if need > 0 and val(a) < need:
                    raise NotWellDefined("entry (%d,%d) has valuation %d < %d"
                                         % (j, q, val(a), need))
        return cols

    lhs_flat = [None] * src.TR.module.rank
    rhs_flat = [None] * src.TR.module.rank
    for (i, j), k in src.TR.pos.items():
        lhs_flat[k] = [(p3[(pk, j)], c) for pk, c in dcols[i]]
        rhs_flat[k] = [(p3[(p12[(i, a)], b)], c) for (a, b), c in hcols[j]]
    lhs = descend_cols(lhs_flat)
    rhs = descend_cols(rhs_flat)
    for g, terms in enumerate(phi.mat.sparse_cols()):
        if (canon(combine((c, lhs[q]) for q, c in terms))
                != canon(combine((c, rhs[q]) for q, c in terms))):
            return g
    return None


def comodule_hom(Mc, Nc):
    C = Mc.coalgebra
    M, N = Mc.module, Nc.module
    H = hom_module(M.carrier, N.carrier)
    rhohat_M = rhohat(Mc)

    def image(_, h):
        flat = map_tensor(Mc.cm.TR, ModuleMap.identity(C.carrier), h, Nc.cm.TR)
        term = ModuleMap(M.carrier, Nc.cm.module,
                         dense(Nc.cm).proj.mat @ flat.mat @ rhohat_M, validate=False)
        return [(h @ M.act) - (N.act @ h), (Nc.rho @ h) - term]

    K, incl, _ = dense_hom_equalizer(
        [H], [(M.carrier, N.carrier), (M.carrier, Nc.cm.module)], image)
    return K, [H.from_coords(incl.apply(K.gen(k))) for k in range(K.rank)]


def subcomodule_as_comodule(Mc, gens):
    alg = Mc.coalgebra.alg
    car = Mc.carrier
    acts = [ModuleMap.identity(car)]
    for _ in range(alg.fb - 1):
        acts.append(Mc.module.act @ acts[-1])
    full = [a.apply(g) for g in gens for a in acts]
    S, incl = submodule(car, Matrix.from_cols(alg.R, full, car.rank).sparse_cols())
    s_elems = [incl.apply(S.gen(k)) for k in range(S.rank)]
    sols = solve_in(car, incl.cols, [Mc.module.act.apply(v) for v in s_elems])
    if None in sols:
        return None
    act = ModuleMap(S, S, Matrix.from_cols(alg.R, [S.reduce(x) for x in sols], S.rank))
    cs = tensor_bim_bmodule(alg, Mc.coalgebra.bi, BModule(alg, S, act))
    flat = map_tensor(cs.TR, ModuleMap.identity(Mc.coalgebra.carrier), incl, Mc.cm.TR)
    idincl = ModuleMap(cs.module, Mc.cm.module,
                       dense(Mc.cm).proj.mat @ flat.mat @ dense(cs).sect, validate=False)
    sols = solve_in(Mc.cm.module, idincl.cols, [Mc.rho.apply(v) for v in s_elems])
    if None in sols:
        return None
    rho = ModuleMap(S, cs.module, Matrix.from_cols(
        alg.R, [cs.module.reduce(x) for x in sols], cs.module.rank))
    try:
        return comodule_check(Mc.coalgebra, cs, rho)
    except AxiomError:
        return None


def _first_change(f):
    """The first generator an endomorphism f does not fix, or None."""
    return next((i for i in range(f.src.rank) if f.apply(f.src.gen(i)) != f.src.gen(i)),
                None)


def coalgebra_outcome(cc, delta, counit, bi, t3):
    """The counit laws and coassociativity of (delta, counit), bimodule maps
    on bi, as (code, witness) or ("pass", None): each descended counit
    contraction composed with delta, then coassoc_witness on the nested
    triple tensor t3 of C (x)_B C (x)_B C."""
    for code, left, act in (("CounitLeft", True, bi.left), ("CounitRight", False, bi.right)):
        w = _first_change(counit_contraction(cc.alg, counit, cc, act, left) @ delta)
        if w is not None:
            return code, w
    hat = dense(cc).sect @ delta.mat
    w = coassoc_witness(t3, hat, cc, hat, delta)
    return ("pass", None) if w is None else ("Coassoc", w)


def comodule_outcome(C, cm, rho, act, t3):
    """The counit law and coassociativity of the coaction rho, a module map
    on the x-action act, as coalgebra_outcome reads them, t3 the nested
    triple tensor of C (x)_B C (x)_B M."""
    w = _first_change(counit_contraction(C.alg, C.counit, cm, act) @ rho)
    if w is not None:
        return "CounitLeft", w
    w = coassoc_witness(t3, deltahat(C), cm, dense(cm).sect @ rho.mat, rho)
    return ("pass", None) if w is None else ("Coassoc", w)


def counit_nu(C, std_comods, CR):
    """nu : L -> C of counit_from_coend: on the T-basis, column (v, w) of
    block i is the descended contraction by xi_w composed with rho_i, at
    e_v; then descended out of T."""
    alg, fb, cols = C.alg, C.alg.fb, []
    for i, sc in enumerate(std_comods):
        m = CR.block_dims[i]
        nus = [counit_contraction(alg, ModuleMap(sc.carrier, FinModule.free(alg.R, fb),
                                                 alg.dual_functional(m // fb, w),
                                                 validate=False),
                                  sc.cm, C.bi.right, left=False) @ sc.rho
               for w in range(m)]
        cols += [nus[w].apply(sc.carrier.gen(v)) for v in range(m) for w in range(m)]
    T = FinModule.free(alg.R, len(cols))
    flat = ModuleMap(T, C.carrier, Matrix.from_cols(alg.R, cols, C.carrier.rank),
                     validate=False)
    return descend_map(flat, CR.rel_rows, CR.coalgebra.carrier,
                       Matrix.from_sparse(alg.R, CR.sect, T.rank))


def coalgebra_morphism(C, L, nu):
    """nu is a bimodule map commuting with the counits and with delta, the
    last through nu (x) nu induced onto C (x)_B C (defined for a bimodule
    map nu only)."""
    if any(nu @ a != b @ nu for a, b in ((L.bi.left, C.bi.left), (L.bi.right, C.bi.right))):
        return False
    return C.counit @ nu == L.counit and \
        C.delta @ nu == induced(L.cc, C.cc, nu, nu) @ L.delta
