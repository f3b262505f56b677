"""Filtered F-modules over the truncated Witt ring W_n = GR(p^n, f).

An object is a W-module M of finite length with a decreasing filtration
Fil^lo = M >= Fil^{lo+1} >= ... >= Fil^hi >= Fil^{hi+1} = 0 (the finite
window encodes exhaustive and separated) and sigma-semilinear maps
phi^i : Fil^i -> M, stored as SemilinearMaps, phi^i(v) = Phi^i(sigma(v))
with Phi^i a W-linear ModuleMap (sigma applied coordinatewise), subject
to phi^i restricted to Fil^{i+1} being p . phi^{i+1}.

The colimit module Mbar is the quotient of the slot sum by the relations
incl(x) at slot i-1  =  p.x at slot i; slots below the window are redundant
(each such relation eliminates its own slot), so the finite window loses
nothing.  len(Mbar) = len(M) is asserted on every call as a runtime
cross-check of the relation convention.

Hom spaces are solved over R = Z/p^n, not W: sigma-semilinearity makes the
phi-compatibility constraint only R-linear, which is exactly why base
coalgebras over B = W_n (rather than plain W_n-coalgebras) appear when these
categories are fed to the coend machinery.  mf_hom writes W-linearity, the
filtration and phi as sparse condition columns, and modules.hom_equalizer
solves them, as it solves the comodule-hom conditions.

The objects a command builds are Tate objects M(k), with k at most
MAX_TWIST, and their direct sums, as the CLI's object spec names them;
mf_to_diagram hands a family of free Fontaine-Laffaille objects to that
machinery as a diagram category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import RingSpec, ring_make
from .modules import (FinModule, ModuleMap, NotWellDefined, direct_sum,
                      presentation_with_torsion, hom_module, hom_equalizer,
                      commutator_cols, sparse_image, submodule, map_kernel,
                      is_isomorphism, is_surjective, descend_sparse,
                      factor_through)
from .algebra import AlgebraSpec
from .tannaka import DiagObject, DiagramCategory, hom_closure


# The largest twist k of a Tate object M(k) an object spec may name: M(k)
# has a filtration window of k + 1 steps, and every hom solve and colimit
# module grows with the window, so larger twists are refused up front.
MAX_TWIST = 64


class MFError(ValueError):
    def __init__(self, code: str, witness=None, detail: str = ""):
        self.code = code
        self.witness = witness
        super().__init__("%s%s%s" % (code,
                                     " witness=%r" % (witness,) if witness is not None else "",
                                     " " + detail if detail else ""))


@dataclass(frozen=True)
class SemilinearMap:
    """v |-> linear(sigma(v)) between modules over W, for the W-linear map
    linear, a ModuleMap, so with its congruence constraints (sigma fixes
    p-powers); sigma, coordinatewise, is the identity when f = 1, and
    self . g = (linear . sigma(g)) sigma for a linear g."""
    linear: ModuleMap

    @property
    def src(self) -> FinModule:
        return self.linear.src

    def apply(self, v):
        W = self.src.ring
        return self.linear.apply([W.frobenius(a) for a in v] if W.f > 1 else v)

    def after_linear(self, g: ModuleMap) -> "SemilinearMap":
        """self . g  (apply g first)."""
        W = self.src.ring
        if W.f > 1:     # sigma(g), entry by entry
            g = ModuleMap(g.src, g.dst, [[(j, W.frobenius(a)) for j, a in col]
                                         for col in g.cols], validate=False)
        return SemilinearMap(self.linear @ g)

    def scale(self, c: int) -> "SemilinearMap":
        return SemilinearMap(self.linear.scale(c))


class FilteredFModule:
    """Validated filtered F-module; construct through mf_make."""

    def __init__(self, W, M, lo, hi, fil, phi, eps, span_ok):
        self.W = W
        self.M = M
        self.lo = lo
        self.hi = hi
        self.fil = fil          # i -> ModuleMap F_i -> M (injective)
        self.phi = phi          # i -> SemilinearMap F_i -> M
        self.eps = eps          # i -> ModuleMap F_i -> F_{i-1}, lo < i <= hi
        self.span_ok = span_ok

    def __repr__(self):
        return "mf(M=%r, window %d..%d)" % (self.M, self.lo, self.hi)


def mf_make(W: RingSpec, M: FinModule, lo: int, hi: int,
            fil: dict[int, ModuleMap], phi: dict,
            require_span: bool = True) -> FilteredFModule:
    """Validate and construct; MFError names the first violated clause.
    phi[i] is the matrix Phi^i, as a Matrix or as sparse columns, either
    of which a ModuleMap takes."""
    if M.ring != W:
        raise MFError("NotAnnihilated", detail="module is not over W")
    if lo > hi:
        raise MFError("WindowViolation", detail="empty filtration window")
    if set(fil) != set(range(lo, hi + 1)) or set(phi) != set(range(lo, hi + 1)):
        raise MFError("WindowViolation", detail="fil/phi must cover lo..hi")
    for i, inc in fil.items():
        if inc.dst != M:
            raise MFError("WindowViolation", (i,), "inclusion target is not M")
        K, _ = map_kernel(inc)
        if not K.is_zero():
            raise MFError("WindowViolation", (i,), "inclusion is not injective")
    if not is_surjective(fil[lo]):
        raise MFError("WindowViolation", (lo,), "Fil^lo must be all of M")
    # decreasing: Fil^{i+1} inside Fil^i, recording the factorizations
    eps = {}
    for i in range(lo, hi):
        e = factor_through(fil[i], fil[i + 1])
        if e is None:
            raise MFError("NotDecreasing", (i + 1,))
        eps[i + 1] = e
    # phi well-formed (congruences) and compatible
    semi = {}
    for i in range(lo, hi + 1):
        try:
            semi[i] = SemilinearMap(ModuleMap(fil[i].src, M, phi[i]))
        except NotWellDefined as exc:
            raise MFError("PhiIncompatible", (i,),
                          "phi^%d is not a morphism: %s" % (i, exc)) from exc
    for i in range(lo, hi):
        lhs = semi[i].after_linear(eps[i + 1])
        rhs = semi[i + 1].scale(W.p_elem(1))
        if lhs != rhs:
            w = next((k for k in range(lhs.src.rank)
                      if lhs.apply(lhs.src.gen(k)) != rhs.apply(rhs.src.gen(k))), 0)
            raise MFError("PhiIncompatible", (i, w))
    span_ok = _span_check(M, semi)
    if require_span and not span_ok:
        raise MFError("SpanFails")
    return FilteredFModule(W, M, lo, hi, dict(fil), semi, eps, span_ok)


def _span_check(M, semi) -> bool:
    cols = [col for _, s in sorted(semi.items()) for col in s.linear.cols]
    return presentation_with_torsion(M, cols).module.is_zero()


@dataclass
class MBarResult:
    Mbar: FinModule
    phibar: SemilinearMap        # Mbar -> M (target carries the sigma twist)
    slotmaps: dict[int, ModuleMap]


def mbar(X: FilteredFModule) -> MBarResult:
    """Colimit of the filtration zigzag, with the induced map to M."""
    W = X.W
    slots = list(range(X.lo, X.hi + 1))
    mods = [X.fil[i].src for i in slots]
    sd = direct_sum(mods)
    # eps(g) at slot i - 1, less p g at slot i, for each generator g of Fil^i
    minus_p, rels = W.neg(W.p_elem(1)), []
    for idx, i in enumerate(slots[1:], 1):
        for k, col in enumerate(X.eps[i].cols):
            rel = [(sd.place[(idx - 1, j)], a) for j, a in col] + [(sd.place[(idx, k)], minus_p)]
            rels.append([(j, a) for j, a in rel if a])
    pres = presentation_with_torsion(sd.module, rels)
    Mbar = pres.module
    # the blockwise semilinear map descends: its linear part kills the
    # twisted relations, which present Mbar with the twisted section
    tw_rels, sect_tw = ([[(j, W.frobenius(a)) for j, a in col] for col in cols]
                        for cols in (rels, pres.sect))
    phibar = SemilinearMap(ModuleMap(Mbar, X.M, descend_sparse(
        [X.phi[slots[idx]].linear.cols[k] for idx, k in sd.place],
        tw_rels, sect_tw, X.M, Mbar), validate=False))
    slotmaps = {i: ModuleMap(X.fil[i].src, Mbar,
                             [pres.proj[sd.place[(idx, k)]] for k in range(mods[idx].rank)])
                for idx, i in enumerate(slots)}
    if Mbar.length() != X.M.length():
        raise RuntimeError("length of the colimit differs from len(M); "
                           "the filtration data is inconsistent")
    return MBarResult(Mbar, phibar, slotmaps)


def is_mf_fl(X: FilteredFModule) -> bool:
    """Fontaine-Laffaille admissible: the induced map Mbar -> M_sigma is an
    isomorphism (equivalently surjective, by the length equality)."""
    mb = mbar(X)
    return is_isomorphism(mb.phibar.linear)


# ---------------------------------------------------------------------------
# standard objects and direct sums
# ---------------------------------------------------------------------------

def tate_object(W: RingSpec, k: int) -> FilteredFModule:
    """M(k): rank-one free module, Fil^i = M for i <= k, 0 above, with
    phi^k the identity and phi^i = p^{k-i} below."""
    M = FinModule.free(W, 1)
    ident = ModuleMap.identity(M)
    fil = {i: ident for i in range(0, k + 1)}
    phi = {i: [[(0, W.p_elem(k - i))] if k - i < W.n else []] for i in range(0, k + 1)}
    return mf_make(W, M, 0, k, fil, phi)


def mf_direct_sum(X: FilteredFModule, Y: FilteredFModule) -> FilteredFModule:
    if X.W != Y.W:
        raise MFError("NotAnnihilated", detail="summands over different rings")
    W = X.W
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    Xe = _extend_window(X, lo, hi)
    Ye = _extend_window(Y, lo, hi)
    sd = direct_sum([X.M, Y.M])

    def blocks(fs, maps) -> list:
        # the sparse columns of the blockwise map from the sum fs of sources
        # into X.M (+) Y.M
        return [[(sd.place[(t, j)], a) for j, a in maps[t].cols[k]] for t, k in fs.place]

    fil, phi = {}, {}
    for i in range(lo, hi + 1):
        fs = direct_sum([Xe[0][i].src, Ye[0][i].src])
        fil[i] = ModuleMap(fs.module, sd.module, blocks(fs, [Xe[0][i], Ye[0][i]]),
                           validate=False)
        phi[i] = blocks(fs, [Xe[1][i].linear, Ye[1][i].linear])
    return mf_make(W, sd.module, lo, hi, fil, phi,
                   require_span=X.span_ok and Y.span_ok)


def _extend_window(X: FilteredFModule, lo: int, hi: int):
    """fil and phi dicts over a larger window: Fil^i = M with
    phi^i = p^{lo_X - i} phi^{lo_X} below, zero above."""
    W = X.W
    fil = dict(X.fil)
    phi = {i: s for i, s in X.phi.items()}
    for i in range(lo, X.lo):
        fil[i] = X.fil[X.lo]
        k = X.lo - i
        phi[i] = X.phi[X.lo].scale(W.p_elem(k) if k < W.n else 0)
    zero = FinModule.zero(W)
    for i in range(X.hi + 1, hi + 1):
        fil[i] = ModuleMap.zero(zero, X.M)
        phi[i] = SemilinearMap(ModuleMap.zero(zero, X.M))
    return fil, phi


# ---------------------------------------------------------------------------
# hom solver over R = Z/p^n
# ---------------------------------------------------------------------------

class _RCarrier:
    """A W-module seen as a Z/p^n-module, with the x-action of W and the
    Frobenius sigma of W on the power basis of each coordinate."""

    def __init__(self, alg: AlgebraSpec, wmod: FinModule):
        self.alg = alg
        self.wmod = wmod
        R, W, f = alg.R, alg.B, alg.fb
        self.rmod = FinModule(R, tuple(e for e in wmod.exps for _ in range(f)))
        self.act = ModuleMap(self.rmod, self.rmod, alg.x_cols(wmod.rank))
        # sigma(x^g e_s) = sigma(x^g) e_s, one block per coordinate
        sig = [[(d, c) for d, c in enumerate(W.coeffs(W.frobenius(xg))) if c]
               for xg in alg.xpows]
        self.sigma = ModuleMap(self.rmod, self.rmod, [
            [(s * f + d, c) for d, c in col] for s in range(wmod.rank) for col in sig],
            validate=False)


def mf_hom(X: FilteredFModule, Y: FilteredFModule):
    """All MF-morphisms X -> Y: W-linear g with g(Fil^i) inside Fil^i and
    phi^i_Y . g_i = g . phi^i_X, solved as one R-linear system.

    Returns (module over Z/p^n, basis of ModuleMap over W, alg).
    """
    if X.W != Y.W:
        raise MFError("NotAnnihilated", detail="objects over different rings")
    W = X.W
    alg = AlgebraSpec(ring_make(W.p, W.n, 1), W)
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    filX, phiX = _extend_window(X, lo, hi)
    filY, phiY = _extend_window(Y, lo, hi)
    steps = range(lo, hi + 1)
    # slot 0 is M, slot s >= 1 is Fil^(lo + s - 1); the unknowns are g and
    # the g_i, one Hom module per slot
    carX = [_RCarrier(alg, X.M)] + [_RCarrier(alg, filX[i].src) for i in steps]
    carY = [_RCarrier(alg, Y.M)] + [_RCarrier(alg, filY[i].src) for i in steps]
    unknowns = [hom_module(a.rmod, b.rmod) for a, b in zip(carX, carY)]
    usum = direct_sum([U.module for U in unknowns])
    # charts: the x-commutator of each slot, then per step the inclusion
    # factorization and the phi compatibility, both Fil^i_X -> M_Y
    nfil, MY = len(steps), carY[0].rmod
    charts = unknowns + [H for c in carX[1:] for H in [hom_module(c.rmod, MY)] * 2]
    fils = list(zip(carX[1:], carY[1:], steps))
    # each step's inclusion and phi . sigma as the sparse columns of their
    # R-matrices: X's, which g follows (so with -g), and Y's, which follow g_i
    neg = alg.R.neg

    def step_cols(c: _RCarrier, M: FinModule, fil: ModuleMap, phi: SemilinearMap):
        phic = alg.bmat_cols(phi.linear.mat)
        return [alg.bmat_cols(fil.mat),
                [sparse_image(col, phic, M) for col in c.sigma.cols]]
    pre = [step_cols(cx, carX[0].rmod, filX[i], phiX[i]) for cx, _, i in fils]
    post = [step_cols(cy, MY, filY[i], phiY[i]) for _, cy, i in fils]
    acts = [(a.act.cols, b.act.cols, b.rmod)
            for a, b in zip(carX, carY)]

    def conditions(s: int, h):
        out = [[] for _ in charts]
        out[s] = commutator_cols(h, *acts[s])
        if s == 0:
            minus_h = [[(r, neg(a)) for r, a in col] for col in h]
            for t in range(nfil):
                for d, m in enumerate(pre[t]):
                    out[nfil + 1 + 2 * t + d] = [sparse_image(c, minus_h, MY) for c in m]
        else:
            for d, m in enumerate(post[s - 1]):
                out[nfil + 2 * s - 1 + d] = [sparse_image(c, m, MY) for c in h]
        return out

    conds = [None] * usum.module.rank
    for s, U in enumerate(unknowns):
        for k, h in enumerate(U.basis_cols()):
            conds[usum.place[(s, k)]] = conditions(s, h)
    K, incl = submodule(usum.module, hom_equalizer(charts, conds))
    basis = []
    for k in range(K.rank):
        v = incl.apply(K.gen(k))
        g_r = unknowns[0].from_coords(
            [v[usum.place[(0, i)]] for i in range(unknowns[0].module.rank)])
        basis.append(ModuleMap(X.M, Y.M, alg.rmat_to_bmat(g_r)))
    return K, basis, alg


# ---------------------------------------------------------------------------
# export to the Tannaka pipeline
# ---------------------------------------------------------------------------

def mf_to_diagram(objects: list[FilteredFModule]):
    """Diagram with R = Z/p^n, B = W_n, fibers the underlying free modules
    and homs the solver bases, with hom sets in canonical form.  The raw
    bases are verified closed by the spin: each hom span of their closure,
    which holds theirs, must be no larger."""
    if not objects:
        raise MFError("WindowViolation", detail="empty object list")
    W = objects[0].W
    for X in objects:
        if not X.M.is_free() or not is_mf_fl(X):
            raise MFError("SpanFails", detail="object is not in MF_proj")
    alg = AlgebraSpec(ring_make(W.p, W.n, 1), W)
    objs = [DiagObject("M%d" % i, X.M.rank) for i, X in enumerate(objects)]
    homs = {}
    for i, Xi in enumerate(objects):
        for j, Xj in enumerate(objects):
            _, basis, _ = mf_hom(Xi, Xj)
            homs[(i, j)] = [g.mat for g in basis]
    D = DiagramCategory(alg, objs, homs)
    closed = hom_closure(D)
    if any(closed.span(k, l).size() != D.span(k, l).size()
           for k in range(D.nobj()) for l in range(D.nobj())):
        raise RuntimeError("internal error: MF hom bases are not "
                           "composition-closed")
    return closed
