"""Enumeration oracles, probes and witness rechecks that only tests use.

Each one answers a question of the engine by brute force or by a second
route, so a test can compare it with the engine's own answer:
- `sub_canonical` and `sub_elements`: a submodule by its Howell rows, and
  every element of it;
- `enumerate_b_submodules`, `enumerate_subcomodules`,
  `subcomodule_as_comodule` and `is_cauchy`: every B-submodule and
  subcomodule of a small comodule, as comodules, and whether one is Cauchy;
- `reconstruction_probe`: is nu onto C from the Cauchy subcomodules of the
  cofree comodule on B (the enough-Cauchy-comodules hypothesis);
- `essential_surjectivity_probe`: is every comodule structure on a small
  free module isomorphic to a lifted one;
- `morphisms_are_comodule_maps`: does every spanning morphism of a diagram
  meet the coaction condition on the lifted fibers;
- `recheck_iso_witness` and `recheck_cone_witness`: replay a refutation of
  the recognition checkers on its own;
- `with_gens`: a diagram whose coend streams the relations of a given
  family.
"""

from __future__ import annotations

import itertools

from tannaka_forge.linalg import Matrix, Span, howell, is_invertible
from tannaka_forge.modules import (FinModule, ModuleMap, submodule, solve_in,
                                   factor_through, sparse_image, span_elements,
                                   torsion_cols, is_isomorphism,
                                   DEFAULT_ENUM_BUDGET, EnumerationBudget)
from tannaka_forge.algebra import (AlgebraSpec, BModule, free_bmodule,
                                   tensor_bim_bmodule, induced, power_cols, is_b_free)
from tannaka_forge.coalgebra import (Coalgebra, Comodule, AxiomError, cofree,
                                     comodule_check, comodule_hom, _coaction_condition)
from tannaka_forge.tannaka import (CoendResult, DiagramCategory, DEFAULT_BUDGET,
                                   lift_coaction, counit_map, _flat_row,
                                   _some_source, _two_sided_inverse_in_span)

from dense_tensor import from_cols


# ---------------------------------------------------------------------------
# submodules and subcomodules
# ---------------------------------------------------------------------------

def sub_canonical(M: FinModule, gens: list[tuple[int, ...]]) -> tuple:
    """Canonical form of the submodule of M generated by gens (as a row
    tuple); equal iff the submodules are equal."""
    rows = [list(g) for g in gens] + [dict(c) for c in torsion_cols(M)]
    hf = howell(M.ring, rows, M.rank)
    return tuple(tuple(r) for r in hf)


def sub_elements(M: FinModule, gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All elements of the submodule spanned by gens, via its Howell rows."""
    return [M.reduce(v) for v in
            span_elements(M.ring, sub_canonical(M, gens), M.rank, None)]


def is_cauchy(Mc: Comodule) -> bool:
    """Cauchy = underlying B-module finitely generated projective; over a
    chain ring that means free."""
    return is_b_free(Mc.coalgebra.alg, Mc.carrier, Mc.module.act)


def enumerate_b_submodules(alg: AlgebraSpec, M: BModule,
                           budget: int = DEFAULT_ENUM_BUDGET):
    """All B-submodules of M's carrier, as canonical generator tuples."""
    car = M.carrier
    if car.cardinality() > budget:
        raise EnumerationBudget("carrier too large for submodule enumeration")
    acts = [ModuleMap(car, car, c, validate=False) for c in power_cols(M.act.cols, car, alg.fb)]

    def close(gens):
        return frozenset(sub_elements(car, [a.apply(g) for g in gens for a in acts]))

    elems = list(car.elements(budget))
    base = {close([e]) for e in elems}
    base.add(frozenset([(0,) * car.rank]))
    closed = set(base)
    work = list(base)
    while work:
        S = work.pop()
        for T in base:
            if T <= S:
                continue
            U = close(list(S | T))
            if U not in closed:
                closed.add(U)
                work.append(U)
    out = []
    for S in closed:
        gens = sub_canonical(car, sorted(S))
        out.append((len(S), gens, sorted(S)))
    out.sort(key=lambda t: (t[0], t[2]))
    return out


def enumerate_subcomodules(Mc: Comodule, budget: int = DEFAULT_ENUM_BUDGET):
    """All B-submodules S with rho(S) inside the image of C (x)_B S in
    C (x)_B M; complete, contains 0 and M."""
    alg = Mc.coalgebra.alg
    C_car = Mc.coalgebra.carrier
    out = []
    for size, gens, elems in enumerate_b_submodules(alg, Mc.module, budget):
        sparse = [[(i, x) for i, x in enumerate(s) if x] for s in gens]
        image_gens = [Mc.cm.pure_sum([([(a, 1)], s)])
                      for a in range(C_car.rank) for s in sparse]
        if None not in solve_in(Mc.cm.module, image_gens, [Mc.rho.apply(s) for s in gens]):
            out.append((size, [tuple(g) for g in gens], elems))
    return out


def subcomodule_as_comodule(Mc: Comodule, gens) -> Comodule | None:
    """Restrict the coaction to the subcomodule spanned by gens, presented
    abstractly; None when the restriction cannot be solved or fails the
    axioms (possible only for non-flat coalgebras)."""
    alg = Mc.coalgebra.alg
    car = Mc.carrier
    acts = power_cols(Mc.module.act.cols, car, alg.fb)
    S, incl = submodule(car, [sparse_image([(i, c) for i, c in enumerate(g) if c], a, car)
                              for g in gens for a in acts])
    # S as a B-module: x-action transported through incl
    act = factor_through(incl, Mc.module.act @ incl)
    if act is None:
        return None
    cs = tensor_bim_bmodule(alg, Mc.coalgebra.bi, BModule(alg, S, act))
    # solve (id (x) incl) . rho_S = rho_M . incl
    rho = factor_through(induced(cs, Mc.cm, ModuleMap.identity(Mc.coalgebra.carrier),
                                 incl), Mc.rho @ incl)
    if rho is None:
        return None
    try:
        return comodule_check(Mc.coalgebra, cs, rho)
    except AxiomError:
        return None


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def reconstruction_probe(C: Coalgebra, budget: int = 4096) -> dict:
    """Desk-scale echo of the enough-Cauchy-comodules hypothesis: take every
    Cauchy subcomodule of the cofree comodule on B and ask whether nu onto C
    is surjective.  Reported, not asserted."""
    alg = C.alg
    CF = cofree(C, free_bmodule(alg, 1))
    subs = enumerate_subcomodules(CF, budget)
    family = []
    for size, gens, _ in subs:
        if size == 1:
            continue
        sc = subcomodule_as_comodule(CF, [tuple(g) for g in gens])
        if sc is None:
            continue
        if is_cauchy(sc):
            family.append(sc)
    if not family:
        return {"family_size": 0, "surjective": False,
                "note": "no nonzero Cauchy subcomodules"}
    res = counit_map(C, family)
    return {"family_size": len(family), "surjective": res.surjective,
            "injective": res.injective, "iso": res.iso,
            "coalgebra_morphism": res.coalgebra_morphism}


def essential_surjectivity_probe(CR, rank: int = 1, budget: int = 4096) -> dict:
    """Enumerate every comodule structure on the free module of the given
    rank and check each is isomorphic to a lifted one.  Only run when the
    search space fits the budget."""
    alg = CR.diagram.alg
    L = CR.coalgebra
    fiber = free_bmodule(alg, rank)
    cm = tensor_bim_bmodule(alg, L.bi, fiber)
    n_cols = fiber.carrier.rank
    space = cm.module.cardinality() ** n_cols
    if space > budget:
        return {"verdict": "inconclusive", "reason": "search space %d" % space}
    lifted = lift_coaction(CR)
    lifted_same_rank = [N for N in lifted if N.carrier.rank == fiber.carrier.rank]
    found = []
    outside = []
    for cols in itertools.product(list(cm.module.elements(None)), repeat=n_cols):
        mat = from_cols(alg.R, [list(c) for c in cols], cm.module.rank)
        try:
            rho = ModuleMap(fiber.carrier, cm.module, mat)
            N = comodule_check(L, cm, rho)
        except (AxiomError, ValueError):
            continue
        found.append(N)
        if not any(_comodules_isomorphic(N, M, budget) for M in lifted_same_rank):
            outside.append(N)
    return {"verdict": "verified" if not outside else "refuted",
            "comodules_found": len(found), "outside_image": len(outside)}


def _comodules_isomorphic(N: Comodule, M: Comodule, budget: int) -> bool:
    if N.carrier.exps != M.carrier.exps:
        return False
    K, basis = comodule_hom(N, M)
    if K.cardinality() > budget:
        raise EnumerationBudget("comodule hom has %d elements, budget %d"
                                % (K.cardinality(), budget))
    reps = [range(N.carrier.ring.p ** e) for e in K.exps]
    for coeffs in itertools.product(*reps):
        g = None
        for c, b in zip(coeffs, basis):
            t = b.scale(c)
            g = t if g is None else g + t
        if g is not None and is_isomorphism(g):
            return True
    return N.carrier.rank == 0


# ---------------------------------------------------------------------------
# the unit and the recognition witnesses
# ---------------------------------------------------------------------------

def morphisms_are_comodule_maps(CR: CoendResult, lifted: list[Comodule]) -> bool:
    """Every spanning morphism F : k -> l meets the coaction condition that
    comodule_hom solves: rho_l F = (id (x)_B F) rho_k on the lifted fibers."""
    D = CR.diagram
    return not any(any(_coaction_condition(lifted[k], lifted[l])(
        D.alg.flat_cols(row.items(), D.objects[k].rank))) for k, l, row in D.family())


def recheck_iso_witness(D: DiagramCategory, k: int, l: int, F: Matrix) -> bool:
    """True iff F really is an invertible matrix in the span with no
    two-sided inverse in the opposite span."""
    alg = D.alg
    if not D.hom_contains(k, l, F):
        return False
    if D.objects[k].rank != D.objects[l].rank or not is_invertible(F):
        return False
    return not _two_sided_inverse_in_span(alg, F, D.homs[(l, k)],
                                          D.objects[k].rank, D.objects[l].rank)


def recheck_cone_witness(D: DiagramCategory, first, second,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every source fiber can be enumerated within budget and no
    source (c, u) reaches both elements."""
    alg = D.alg
    return _some_source(D, budget, lambda c, u: all(
        Span(alg.R, [alg.bvec_to_rvec(G.apply(u)) for G in D.homs[(c, k)]],
             D.objects[k].rank * alg.fb).contains(alg.bvec_to_rvec(v))
        for k, v in (first, second))) is False


# ---------------------------------------------------------------------------
# relation families
# ---------------------------------------------------------------------------

def with_gens(D: DiagramCategory, gens) -> DiagramCategory:
    """D with gens, triples (k, l, F) of B-matrices or flat rows, as its
    record of generators, or with none: `coend` streams the relations of
    gens, or of the hom lists when gens is None."""
    out = D.restrict(list(range(D.nobj())))
    out.gens = None if gens is None else \
        [(k, l, F if isinstance(F, dict) else _flat_row(D.alg, F)) for k, l, F in gens]
    return out
