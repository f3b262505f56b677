"""References for the hom solvers built on ``modules.hom_equalizer``.

``hom_basis`` and ``hom_coords`` are the dense views of a Hom module: its
basis maps as ``ModuleMap``s, and the coordinates of a dense map.
``dense_hom_equalizer`` is the equalizer as it ran on them: each unknown
basis map's conditions are dense ``ModuleMap``s, read back through
``hom_coords`` and stacked into one dense condition map, whose kernel it
returns.  ``modules.hom_equalizer`` writes sparse condition columns
instead.

``ref_b_hom``, ``ref_comodule_hom`` and ``ref_mf_hom`` are the solvers that
stacked their hom conditions by hand: each builds a full Hom module for
every condition target, places every basis map's condition coordinates
with the layout of a direct sum, and takes ``map_kernel`` of the
result.

``ref_unit_fully_faithful_check`` is the unit check that solved the full
comodule hom of every pair and read its verdict and witness off the basis;
it takes the bases, so that a test solves each pair once, with
``ref_comodule_hom`` (which agrees with ``comodule_hom`` entry for entry,
see test_hom_equalizer).

``ref_mf_hom`` writes its columns in the order of the concatenated unknown
Hom modules while the kernel reads them in the (exponent-sorted) order of
their direct sum.  The two orders agree when every unknown's exponents sit
at or above the next one's, which holds on free and single-exponent
carriers; on a carrier such as W + W/p they differ and this reference misses
morphisms, so it is compared only where the orders agree.

They are kept only to be tested against.
"""

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix, Span
from tannaka_forge.modules import ModuleMap, hom_module, map_kernel, direct_sum
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.mf import MFError, _RCarrier, _extend_window
from tannaka_forge.tannaka import _flatten_bmat

from dense_tensor import bmat_to_rmat, dense, inject, map_tensor, rhohat


def hom_basis(H):
    """The basis maps of the Hom module H, in coordinate order."""
    return [H.from_coords(H.module.gen(k)) for k in range(H.module.rank)]


def hom_coords(H, g):
    """The coordinates of the map g in the Hom module H: entry (j, i)
    divided by p^shift, reduced into the summand of (i, j)."""
    ring, out = H.src.ring, [0] * H.module.rank
    for (i, j), k in H.pos.items():
        shift = max(0, H.dst.exps[j] - H.src.exps[i])
        out[k] = ring.reduce_exp(ring.divide_p_power(g.mat.data[j][i], shift),
                                 H.module.exps[k])
    return tuple(out)


def dense_hom_equalizer(unknowns, targets, image):
    """(K, incl, usum): usum is the direct sum of the unknown Hom modules and
    incl : K -> usum.module the kernel of the stacked conditions.  targets
    lists the (src, dst) pair of each condition's Hom module; image(s, h)
    gives, for a basis map h of unknowns[s], one ModuleMap (or None for
    zero) per target."""
    ring = unknowns[0].src.ring
    charts = [hom_module(src, dst) for src, dst in targets]
    tsum = direct_sum([T.module for T in charts])
    usum = direct_sum([U.module for U in unknowns])
    mat = Matrix.zeros(ring, tsum.module.rank, usum.module.rank)
    for s, U in enumerate(unknowns):
        for k, h in enumerate(hom_basis(U)):
            c = usum.place[(s, k)]
            for t, g in enumerate(image(s, h)):
                if g is not None:
                    for r, v in enumerate(hom_coords(charts[t], g)):
                        mat.data[tsum.place[(t, r)]][c] = v
    K, incl = map_kernel(ModuleMap(usum.module, tsum.module, mat, validate=False))
    return K, incl, usum


def ref_b_hom(alg, M, N):
    """Hom_B(M, N) as a submodule of Hom_R, with a basis of maps."""
    H = hom_module(M.carrier, N.carrier)
    defect_coords = []
    for h in hom_basis(H):
        defect_coords.append(hom_coords(H, (h @ M.act) - (N.act @ h)))
    if H.module.rank:
        mat = Matrix(alg.R, [list(r) for r in zip(*defect_coords)],
                     H.module.rank, H.module.rank)
    else:
        mat = Matrix.zeros(alg.R, 0, 0)
    phi = ModuleMap(H.module, H.module, mat, validate=False)
    K, incl = map_kernel(phi)
    basis = [H.from_coords(incl.apply(K.gen(k))) for k in range(K.rank)]
    return K, basis, H


def ref_comodule_hom(Mc, Nc):
    """The comodule maps M -> N as the kernel of the hand-stacked
    conditions in Hom(M, N) + Hom(M, C (x)_B N)."""
    C = Mc.coalgebra
    if Nc.coalgebra != C:
        raise ValueError("comodules over different coalgebras")
    alg = C.alg
    M, N = Mc.module, Nc.module
    H = hom_module(M.carrier, N.carrier)
    H2 = hom_module(M.carrier, N.carrier)
    HC = hom_module(M.carrier, Nc.cm.module)
    rhohat_M = rhohat(Mc)
    cond_cols = []
    sum_data = direct_sum([H2.module, HC.module])
    for h in hom_basis(H):
        d1 = (h @ M.act) - (N.act @ h)
        flat = map_tensor(Mc.cm.TR, ModuleMap.identity(C.carrier), h, Nc.cm.TR)
        term = ModuleMap(M.carrier, Nc.cm.module,
                         dense(Nc.cm).proj.mat @ flat.mat @ rhohat_M, validate=False)
        d2 = (Nc.rho @ h) - term
        v1 = inject(sum_data, 0, hom_coords(H2, d1))
        v2 = inject(sum_data, 1, hom_coords(HC, d2))
        cond_cols.append(sum_data.module.add(v1, v2))
    if H.module.rank:
        mat = Matrix(alg.R, [list(r) for r in zip(*cond_cols)],
                     sum_data.module.rank, H.module.rank)
    else:
        mat = Matrix.zeros(alg.R, sum_data.module.rank, 0)
    phi = ModuleMap(H.module, sum_data.module, mat, validate=False)
    K, incl = map_kernel(phi)
    basis = [H.from_coords(incl.apply(K.gen(k))) for k in range(K.rank)]
    return K, basis


def ref_unit_fully_faithful_check(CR, bases):
    """{(k, l): ("equal",) or ("strictly-smaller", witness)} from the full
    comodule hom of each pair, bases[(k, l)] being its basis maps: "equal"
    when every basis map lies in the diagram span, else the first one
    outside it is the witness.  Raises RuntimeError when a diagram morphism
    is not a comodule map."""
    D = CR.diagram
    alg = D.alg
    verdicts = {}
    for k in range(D.nobj()):
        for l in range(D.nobj()):
            basis = bases[(k, l)]
            rk, rl = D.objects[k].rank, D.objects[l].rank
            bmats = [alg.rmat_to_bmat(g) for g in basis]
            missing = next((bm for bm in bmats
                            if not D.hom_contains(k, l, bm)), None)
            hom_span = Span(alg.R, [_flatten_bmat(alg, bm) for bm in bmats],
                            rl * rk * alg.fb)
            for F in D.homs[(k, l)]:
                if not hom_span.contains(_flatten_bmat(alg, F)):
                    raise RuntimeError("internal error: diagram morphism is "
                                       "not a comodule map")
            verdicts[(k, l)] = ("equal",) if missing is None \
                else ("strictly-smaller", missing)
    return verdicts


def ref_mf_hom(X, Y):
    """All MF-morphisms X -> Y from one hand-stacked R-linear system:
    (module over Z/p^n, basis of ModuleMap over W, alg)."""
    if X.W != Y.W:
        raise MFError("NotAnnihilated", detail="objects over different rings")
    W = X.W
    alg = AlgebraSpec(ring_make(W.p, W.n, 1), W)
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    filX, phiX = _extend_window(X, lo, hi)
    filY, phiY = _extend_window(Y, lo, hi)
    carMX, carMY = _RCarrier(alg, X.M), _RCarrier(alg, Y.M)
    carFX = {i: _RCarrier(alg, filX[i].src) for i in range(lo, hi + 1)}
    carFY = {i: _RCarrier(alg, filY[i].src) for i in range(lo, hi + 1)}
    unknowns = [hom_module(carMX.rmod, carMY.rmod)]
    for i in range(lo, hi + 1):
        unknowns.append(hom_module(carFX[i].rmod, carFY[i].rmod))
    blocks = direct_sum([h.module for h in unknowns])
    targets = [hom_module(carMX.rmod, carMY.rmod)]
    for i in range(lo, hi + 1):
        targets.append(hom_module(carFX[i].rmod, carFY[i].rmod))
    for i in range(lo, hi + 1):
        targets.append(hom_module(carFX[i].rmod, carMY.rmod))
        targets.append(hom_module(carFX[i].rmod, carMY.rmod))
    tsum = direct_sum([t.module for t in targets])
    def w2r_map(dst, src, wmat):
        """The R-matrix of a W-matrix src.wmod -> dst.wmod."""
        return ModuleMap(src.rmod, dst.rmod, bmat_to_rmat(alg, wmat))

    iotaX = {i: w2r_map(carMX, carFX[i], filX[i].mat) for i in range(lo, hi + 1)}
    iotaY = {i: w2r_map(carMY, carFY[i], filY[i].mat) for i in range(lo, hi + 1)}
    phiXr = {i: w2r_map(carMX, carFX[i], phiX[i].linear.mat) @ carFX[i].sigma
             for i in range(lo, hi + 1)}
    phiYr = {i: w2r_map(carMY, carFY[i], phiY[i].linear.mat) @ carFY[i].sigma
             for i in range(lo, hi + 1)}

    def conditions(slot, h):
        out = (0,) * tsum.module.rank
        nfil = hi - lo + 1
        if slot == 0:
            d = (h @ carMX.act) - (carMY.act @ h)
            out = tsum.module.add(out, inject(tsum, 0, hom_coords(targets[0], d)))
            for idx, i in enumerate(range(lo, hi + 1)):
                c = -(h @ iotaX[i])
                out = tsum.module.add(out, inject(tsum,
                    1 + nfil + 2 * idx, hom_coords(targets[1 + nfil + 2 * idx], c)))
                dphi = -(h @ phiXr[i])
                out = tsum.module.add(out, inject(tsum,
                    2 + nfil + 2 * idx, hom_coords(targets[2 + nfil + 2 * idx], dphi)))
        else:
            i = lo + slot - 1
            idx = slot - 1
            d = (h @ carFX[i].act) - (carFY[i].act @ h)
            out = tsum.module.add(out, inject(tsum, slot, hom_coords(targets[slot], d)))
            c = iotaY[i] @ h
            out = tsum.module.add(out, inject(tsum,
                1 + nfil + 2 * idx, hom_coords(targets[1 + nfil + 2 * idx], c)))
            dphi = phiYr[i] @ h
            out = tsum.module.add(out, inject(tsum,
                2 + nfil + 2 * idx, hom_coords(targets[2 + nfil + 2 * idx], dphi)))
        return out

    cols = []
    for slot, h in enumerate(unknowns):
        for b in hom_basis(h):
            cols.append(conditions(slot, b))
    if cols:
        mat = Matrix(alg.R, [list(r) for r in zip(*cols)], tsum.module.rank,
                     len(cols))
    else:
        mat = Matrix.zeros(alg.R, tsum.module.rank, 0)
    phimap = ModuleMap(blocks.module, tsum.module, mat, validate=False)
    K, incl = map_kernel(phimap)
    basis = []
    for k in range(K.rank):
        v = incl.apply(K.gen(k))
        coords = [v[blocks.place[(0, i)]] for i in range(unknowns[0].module.rank)]
        g_r = unknowns[0].from_coords(coords)
        basis.append(ModuleMap(X.M, Y.M, alg.rmat_to_bmat(g_r)))
    return K, basis, alg
