"""B-B-coalgebras and their left comodules.

A coalgebra is a B-B-bimodule C with a comultiplication delta : C -> C (x)_B C
and a counit eps : C -> B, both bimodule maps, satisfying coassociativity and
the two counit laws.  A left comodule is a left B-module M with a coaction
rho : M -> C (x)_B M compatible with delta and eps.

delta and rho are maps written in the coordinates of one presentation of
C (x)_B C and C (x)_B M: the BTensor their constructor built.  That tensor is
the coalgebra's cc and the comodule's cm; coalgebra_check and comodule_check
take it and validate against it, and never build it again.  They read its
sparse columns, its outer actions too, on the sparse columns every
ModuleMap holds, delta's and rho's among them.  The flat lifts of delta
and rho into the R-tensors are sparse columns as well, each computed once:
the coalgebra keeps deltahat_cols, which its own check and every comodule
check read, and a comodule keeps rhohat_cols and what every comodule-hom
condition reads of it as a source (lift_terms) and bmat_rank, its
standard rank.

Axioms are evaluated on a generating set of the carrier (maps are linear, so
this is exhaustive).  Once the bimodule-map conditions hold, the other
axioms are compared on the flat lifts, and no map is descended: the counit
laws apply the flat counit_contraction to them, and coassociativity
compares the flat Sweedler sums of both sides per generator
(_coassoc_witness); at f_B >= 2 only the flat pairs where they differ are
projected into the nest (C (x)_B C) (x)_B Z, built only then.

Failure reports carry the axiom name and a witness generator index so a
refutation can be replayed in isolation.

Comodule homs M -> N are the kernel of the coaction condition
rho_N h - (id (x)_B h) rho_M, whose columns one helper writes as sparse
columns in the chart Hom_R(M, C (x)_B N); modules.hom_equalizer solves it.
comodule_hom solves it over Hom_R(M, N) with B-linearity (commutator_cols)
stacked on, for any comodules; comodule_hom_span solves it over an R-basis
of Hom_B, for comodules on the standard free carriers, with f_B times fewer
unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import Span
from .modules import (FinModule, ModuleMap, hom_module, hom_equalizer,
                      commutator_cols, submodule, sparse_image)
from .algebra import (AlgebraSpec, BModule, BBBimodule, BTensor,
                      tensor_bim_bmodule, nest_tensor, descend_cols, power_cols,
                      poly_cols, regular_bimodule, btensor_bmodule, _standard_rank)


class AxiomError(ValueError):
    """code is one of NotBimoduleMap, NotModuleMap, Coassoc, CounitLeft,
    CounitRight; witness is a generator index of the carrier."""

    def __init__(self, code: str, witness: int, detail: str = ""):
        self.code = code
        self.witness = witness
        super().__init__("%s (witness generator %d)%s"
                         % (code, witness, " " + detail if detail else ""))


def _first_difference(f, g, h, k, dst: FinModule) -> int | None:
    """The first generator x with f(g(x)) != h(k(x)) in dst, or None, for
    four maps given by sparse columns."""
    return next((x for x, (gx, kx) in enumerate(zip(g, k))
                 if sparse_image(gx, f, dst) != sparse_image(kx, h, dst)), None)


@dataclass
class Coalgebra:
    cc: BTensor                 # C (x)_B C, built by tensor_bimodules(alg, C, C)
    delta: ModuleMap            # carrier -> cc.module
    counit: ModuleMap           # carrier -> regular bimodule carrier

    @property
    def alg(self) -> AlgebraSpec:
        return self.cc.alg

    @property
    def bi(self) -> BBBimodule:
        return self.cc.factors[0]

    @property
    def carrier(self) -> FinModule:
        return self.bi.carrier

    @cached_property
    def deltahat_cols(self) -> list:
        """The sparse columns of the lift of delta into the flat R-tensor
        cc.TR, computed once for the coalgebra check, every comodule check,
        the counit echo and the formatted coalgebra."""
        return self.cc.lift(self.delta)

    def __eq__(self, other):
        return self is other or (isinstance(other, Coalgebra) and self.bi == other.bi
                                 and self.delta == other.delta and self.counit == other.counit)

    def __hash__(self):
        return hash((self.bi, self.delta, self.counit))


def counit_contraction(alg: AlgebraSpec, ecols: list, data: BTensor,
                       act: ModuleMap, left: bool = True) -> list:
    """The flat map c (x) m |-> eps(c) . m : X (x)_R M -> M on data.TR, as
    sparse columns; with left=False, m (x) c |-> m . eps(c) on M (x)_R X.
    eps : X -> B, given by its sparse columns ecols, is a counit, or any
    B-linear functional such as a dual-basis one.  act is the x-action on
    M: the left one for eps (x) id, the right one for id (x) eps.  The flat
    map descends to (eps (x)_B id) : X (x)_B M -> M, as eps is B-linear,
    so it maps any flat lift of an element as (eps (x)_B id) the element."""
    car_c, car_m = (data.TR.left, data.TR.right) if left else \
        (data.TR.right, data.TR.left)
    # column (c, m) of the flat map is column m of the action of eps(c),
    # sum_k eps(c)_k act^k, read off the powers of act once per value of eps
    pows = power_cols(act.cols, act.dst, alg.fb)
    polys = {t: poly_cols(pows, t, car_m) for t in set(map(tuple, ecols))}
    eps_act = [polys[tuple(terms)] for terms in ecols]
    cols = [None] * data.TR.module.rank
    for (i, j), k in data.TR.pos.items():
        c, m = (i, j) if left else (j, i)
        cols[k] = eps_act[c][m]
    return cols


def _coassoc_witness(cc: BTensor, deltahat: list, src: BTensor, hat: list,
                     zact: ModuleMap) -> int | None:
    """The first generator g of Z with (delta (x) id) rho(g) different from
    (id (x) rho) rho(g), or None, for rho : Z -> src.module = C (x)_B Z
    (rho = delta when Z = C), cc = C (x)_B C and zact the x-action of Z.
    deltahat and hat are the flat lifts of delta into cc.TR and of rho into
    src.TR, as sparse columns.

    In Sweedler notation (Sweedler, Hopf Algebras, 1969, 1.2), for each
    flat term c (a, z) of hat[g] the two sides add c deltahat[a] (x) z and
    c a (x) hat[z], and their difference is summed keyed by the flat pairs
    (pk, z) of (C (x)_R C) (x)_R Z, each entry reduced mod p^min(e_pk, e_z),
    its order.  When f_B = 1 that flat tensor is the triple tensor, so g
    is a witness when an entry is left.  Otherwise only the entries left
    are pushed through cc's projection and the nest (C (x)_B C) (x)_B Z
    (nest_tensor, built on the first generator that leaves one), each pair
    (q, z) of the nest projected once, and g is a witness when the image
    is nonzero.

    The flat maps are never descended through src: (delta (x) id) descends
    exactly when delta is right B-linear, and (id (x) rho) exactly when rho
    is left B-linear, which NotBimoduleMap and NotModuleMap test before the
    comparison, so either side's image of rho(g) is its image of any lift,
    hat[g] among them."""
    R = src.alg.R                           # Z/p^n: entries are ints mod p^n
    pe = [R.p ** e for e in range(R.n + 1)]
    epk, ez, p12 = cc.TR.module.exps, src.TR.right.exps, cc.TR.pos
    spair = list(src.TR.pos)                # pos iterates in coordinate order
    nest, pairs = None, {}                  # pair of the nest -> its image
    for g, terms in enumerate(hat):
        diff: dict[tuple[int, int], int] = {}
        for k, c in terms:
            a, z = spair[k]
            for pk, d in deltahat[a]:
                diff[pk, z] = diff.get((pk, z), 0) + c * d
            for kk, d in hat[z]:
                b, z2 = spair[kk]
                key = (p12[a, b], z2)
                diff[key] = diff.get(key, 0) - c * d
        left = [(pkz, r) for pkz, x in diff.items()
                if (r := x % pe[min(epk[pkz[0]], ez[pkz[1]])])]
        if not left:
            continue
        if cc.over_r:
            return g
        nest = nest or nest_tensor(src.alg, cc, src.TR.right, zact)
        image = [((q, z), x * a) for (pk, z), x in left for q, a in cc.proj_cols[pk]]
        for qz, _ in image:
            if qz not in pairs:
                pairs[qz] = nest.project_pair(*qz)
        if sparse_image(image, pairs, nest.module):
            return g
    return None


def coalgebra_check(cc: BTensor, delta: ModuleMap,
                    counit: ModuleMap) -> Coalgebra:
    """Validate (C, delta, eps) for cc = C (x)_B C, the tensor delta is
    written in; raises AxiomError naming the first failing axiom with a
    witness generator.  At f_B = 1 every x-action is the identity, checked
    by _check_modulus (h = x - 1) or built so by free_bmodule,
    regular_bimodule, btensor_bmodule or the coend: NotBimoduleMap here and
    NotModuleMap in comodule_check fire only at f_B >= 2, or on an action
    built unchecked that is not the identity, which cc's unit outer actions
    would otherwise hide.  The counit laws and coassociativity then read
    deltahat_cols, which NotBimoduleMap makes sound: no map is descended,
    and a nest is built only for a delta that is not coassociative."""
    if cc.factors is None or cc.factors[0] != cc.factors[1]:
        raise ValueError("cc must be the tensor square of one bimodule")
    coalg = Coalgebra(cc, delta, counit)
    alg, C = coalg.alg, coalg.bi
    breg = regular_bimodule(alg)
    if delta.src != C.carrier or delta.dst != cc.module:
        raise ValueError("delta must map the carrier into C (x)_B C")
    if counit.src != C.carrier or counit.dst != breg.carrier:
        raise ValueError("counit must map the carrier into B")
    # the columns of delta and eps, each read once for every check below
    dcols, ecols = delta.cols, counit.cols
    # bimodule-map conditions
    for name, cols, act, act_dst, dst in (
            ("left", dcols, C.left, cc.left, cc.module),
            ("right", dcols, C.right, cc.right, cc.module),
            ("left", ecols, C.left, breg.left.cols, breg.carrier),
            ("right", ecols, C.right, breg.right.cols, breg.carrier)):
        w = _first_difference(cols, act.cols, act_dst, cols, dst)
        if w is not None:
            raise AxiomError("NotBimoduleMap", w, "(%s action)" % name)
    # counit laws: (eps (x) id) delta = id = (id (x) eps) delta
    unit, hat = [[(x, 1)] for x in range(C.carrier.rank)], coalg.deltahat_cols
    for code, left, act in (("CounitLeft", True, C.left),
                            ("CounitRight", False, C.right)):
        contraction = counit_contraction(alg, ecols, cc, act, left)
        w = _first_difference(contraction, hat, unit, unit, C.carrier)
        if w is not None:
            raise AxiomError(code, w)
    w = _coassoc_witness(cc, hat, cc, hat, C.left)
    if w is not None:
        raise AxiomError("Coassoc", w)
    return coalg


@dataclass
class Comodule:
    coalgebra: Coalgebra
    cm: BTensor                 # C (x)_B M, built by tensor_bim_bmodule(alg, C.bi, M)
    rho: ModuleMap              # carrier -> cm.module

    @property
    def module(self) -> BModule:
        return self.cm.factors[1]

    @property
    def carrier(self) -> FinModule:
        return self.module.carrier

    @cached_property
    def rhohat_cols(self) -> list:
        """The sparse columns of the lift of rho into the flat R-tensor
        cm.TR, computed once for the comodule check, every comodule-hom
        condition and the formatted comodule."""
        return self.cm.lift(self.rho)

    @cached_property
    def bmat_rank(self) -> int | None:
        """r when the carrier is the standard free B-module
        free_bmodule(r), read off its exponents and x-action, else None."""
        alg, M = self.coalgebra.alg, self.module
        return _standard_rank(alg, M.carrier, M.act) if M.alg == alg else None

    @cached_property
    def lift_terms(self) -> list:
        """The flat lift of rho(m_i), for each i, as ((c, m) pair, -entry)
        terms, which every comodule-hom condition out of it reads."""
        neg, pair = self.coalgebra.alg.R.neg, {k: ij for ij, k in self.cm.TR.pos.items()}
        return [[(pair[k], neg(a)) for k, a in col] for col in self.rhohat_cols]

    def __eq__(self, other):
        return (isinstance(other, Comodule) and self.coalgebra == other.coalgebra
                and self.module == other.module and self.rho == other.rho)

    def __hash__(self):
        return hash((self.coalgebra, self.module, self.rho))


def comodule_check(C: Coalgebra, cm: BTensor, rho: ModuleMap) -> Comodule:
    """Validate the coaction rho on M for cm = C (x)_B M, the tensor rho is
    written in; raises AxiomError on the first failing axiom.  C must have
    passed coalgebra_check or be built B-linear, as the coend builds it:
    the counit law reads rhohat_cols through the flat contraction by eps,
    which descends only when eps is B-linear, not tested again here."""
    if cm.factors is None or cm.factors[0] != C.bi:
        raise ValueError("cm must be a tensor C (x)_B M over the coalgebra")
    Mc = Comodule(C, cm, rho)
    alg, M = C.alg, Mc.module
    if rho.src != M.carrier or rho.dst != cm.module:
        raise ValueError("rho must map the carrier into C (x)_B M")
    cols, unit = rho.cols, [[(x, 1)] for x in range(M.carrier.rank)]
    w = _first_difference(cols, M.act.cols, cm.left, cols, cm.module)
    if w is not None:
        raise AxiomError("NotModuleMap", w)
    eps_id = counit_contraction(alg, C.counit.cols, cm, M.act)
    w = _first_difference(eps_id, Mc.rhohat_cols, unit, unit, M.carrier)
    if w is not None:
        raise AxiomError("CounitLeft", w)
    w = _coassoc_witness(C.cc, C.deltahat_cols, cm, Mc.rhohat_cols, M.act)
    if w is not None:
        raise AxiomError("Coassoc", w)
    return Mc


# ---------------------------------------------------------------------------
# comodule homs: the kernel of the coaction condition
# ---------------------------------------------------------------------------

def _coaction_condition(Mc: Comodule, Nc: Comodule):
    """The map h |-> rho_N h - (id_C (x)_B h) rho_M : M -> C (x)_B N, on
    maps h : M -> N and their conditions given by sparse columns.  Column i
    is one sparse_image over the columns of rho_N and of the projection onto
    C (x)_B N: h(m_i) through rho_N, less (id (x) h) of the flat lift of
    rho_M(m_i), both kept by the comodules."""
    if Nc.coalgebra != Mc.coalgebra:
        raise ValueError("comodules over different coalgebras")
    cmN, lift = Nc.cm, Mc.lift_terms
    cols = Nc.rho.cols + cmN.proj_cols
    mul, off, pos = cmN.alg.R.mul, Nc.carrier.rank, cmN.TR.pos

    def condition(h):
        return [sparse_image(h[i] + [(off + pos[(a, n)], mul(c, b))
                                     for (a, m), c in lift[i] for n, b in h[m]],
                             cols, cmN.module) for i in range(len(h))]
    return condition


def comodule_hom(Mc: Comodule, Nc: Comodule):
    """The R-module of comodule maps M -> N, as the maps h in Hom_R(M, N)
    with h x_M = x_N h (B-linear) and rho_N h = (id_C (x)_B h) rho_M.

    Returns (module, basis of ModuleMap).
    """
    coaction = _coaction_condition(Mc, Nc)
    M, N = Mc.module, Nc.module
    H = hom_module(M.carrier, N.carrier)
    syz = hom_equalizer([H, hom_module(M.carrier, Nc.cm.module)],
                        [[commutator_cols(h, M.act.cols, N.act.cols, N.carrier), coaction(h)]
                         for h in H.basis_cols()])
    K, incl = submodule(H.module, syz)
    return K, [H.from_coords(incl.apply(K.gen(k))) for k in range(K.rank)]


def comodule_hom_span(Mc: Comodule, Nc: Comodule, charts: dict | None = None) -> Span:
    """The comodule maps B^{r_k} -> B^{r_l} between comodules whose carriers
    are the standard free B-modules free_bmodule(r), as the Span of their
    B-matrices in flat coordinates (tannaka._flatten_bmat): entry (t, s),
    coefficient of x^beta, at (t r_k + s) f_B + beta.  The unknowns are the
    maps x^beta E_ts, an R-basis of Hom_B that is B-linear by construction,
    so only the coaction condition is solved, in the chart
    Hom_R(M, C (x)_B N), torsion included.  The span is that of the
    B-matrices of comodule_hom's basis.  charts, when given, keeps the
    charts by (M, C (x)_B N), for a caller to build each one once."""
    alg = Mc.coalgebra.alg
    rk, rl = Mc.bmat_rank, Nc.bmat_rank
    if rk is None or rl is None:
        raise ValueError("comodule carrier is not a standard free B-module")
    coaction = _coaction_condition(Mc, Nc)
    conds = [[coaction(alg.flat_cols([(i, 1)], rk))] for i in range(rl * rk * alg.fb)]
    charts, key = {} if charts is None else charts, (Mc.carrier, Nc.cm.module)
    syz = hom_equalizer([charts.get(key) or charts.setdefault(key, hom_module(*key))], conds)
    return Span(alg.R, [dict(col) for col in syz], len(conds))


def cofree(C: Coalgebra, M: BModule) -> Comodule:
    """The cofree comodule on M: carrier C (x)_B M, coaction delta (x) id
    (verified by comodule_check even though it holds by construction)."""
    alg = C.alg
    cm = tensor_bim_bmodule(alg, C.bi, M)
    carrier_mod = btensor_bmodule(cm)
    target = tensor_bim_bmodule(alg, C.bi, carrier_mod)
    # column (i, j) of the flat map is delta(c_i) (x) m_j, reassociated;
    # pos iterates its pairs in coordinate order
    dh, pair = C.deltahat_cols, list(C.cc.TR.pos)
    cols = [target.pure_sum(([(pair[kk][0], c)], cm.project_pair(pair[kk][1], j))
                            for kk, c in dh[i])
            for i, j in cm.TR.pos]
    rho = ModuleMap(cm.module, target.module, descend_cols(cm, cols, target.module),
                    validate=False)
    return comodule_check(C, target, rho)
