"""References for the recognition searches.

``span_membership`` decides span membership by a Smith solve against the
generators and returns the coefficients, the way the recognition searches
asked every membership question before they used Howell reduction.

``rigid_colimit_probes`` is the colimit sweep as it ran with one search per
colimit shape: ``find_coequalizer`` and ``find_pushout`` enumerate the
candidate cocones, and ``is_universal_cocone`` and ``pushout_universal``
decide universality by enumerating the cocones into every object of the
diagram, within the budget.  ``is_universal_cocone`` answers False when its
enumeration runs over the budget, and ``pushout_universal`` answers
"budget".  The sweep keeps at most 96 probes and the first two generators
of each pushout leg, and reports nothing about what those caps drop.

``cofiltered_check`` is the cofilteredness search as it ran before its
memos: it builds a fresh `Span` for every cone membership question and
every equalizing question, even when the same one was asked before.

``memo_cofiltered_check`` is the search with those memos, as it ran before
it read cones off reachable sets: it asks each cone question of a `Span` of
the F u, and enumerates and unflattens the span of hom(k, l) again for
every element pair (``el_morphisms``).  ``product_find_colimit`` is the
colimit search as it ran before it enumerated cocone modules: it filters
the product of the leg spans by q cond = 0, and ``product_is_universal``
computes the kernel of cocones into every object again for each candidate.
``sweep_reflects_isos_check`` tests every invertible element of each span,
not only the first.  ``cocone_find_colimit`` is the colimit search on
cocone modules as it ran before it skipped tips whose hom spans and cocone
modules differ in size: it builds the cocone module into every object as
the image of a kernel (``cocones``), enumerates the cocones into every tip
(``cocone_candidates``), and decides universality on each candidate before
it compares fibers, by containment on Howell rows and by comparing the
sizes of hom spans and cocone modules (``containment_is_universal``).
``factoring_is_universal`` decides universality as it did before it
compared sizes: containment, then a kernel that shows each factorization
is unique (``factors_uniquely``).  Both colimit searches take the
presentation of coker(cond) that the sweep computed, and the sweep's table
of products, which they do not read, as ``tannaka._find_colimit`` does, so
that a test can put either in its place.

Their kernels and solves are read off Smith forms (`smith_reference`), as
they were when these searches ran.  All of them are kept only to be tested
against.
"""

from __future__ import annotations

import functools
import itertools
import math

from tannaka_forge.linalg import Matrix, Span, is_invertible
from tannaka_forge.modules import (FinModule, ModuleMap,
                                   module_from_presentation, is_isomorphism,
                                   span_elements)
from tannaka_forge.tannaka import (DEFAULT_BUDGET, DiagramCategory, Verdict,
                                   _flatten_bmat, _unflatten_bmat,
                                   _fiber_elements,
                                   _two_sided_inverse_in_span)
from dense_tensor import from_cols
from smith_reference import densify, smith_kernel as kernel, smith_solve as solve


def factors_uniquely(alg, srows, gens) -> bool:
    """srows[i] flattens gens[i] composed with the cocone legs: does every
    combination of gens that the legs kill vanish?"""
    if not srows:
        return True
    R = alg.R
    K = kernel(from_cols(R, srows, len(srows[0])))
    flat = [_flatten_bmat(alg, S) for S in gens]
    for j in range(K.cols):
        acc = [0] * len(flat[0])
        for cf, fv in zip(K.col(j), flat):
            if cf:
                for idx, vv in enumerate(fv):
                    acc[idx] = R.add(acc[idx], R.mul(cf, vv))
        if any(acc):
            return False
    return True


def factoring_is_universal(D: DiagramCategory, cocones, tip: int, qs) -> bool:
    """Universality as it was decided before it counted: every cocone into
    each e factors through the legs qs (on its Howell rows), and a kernel
    of the factoring map shows that the factorization is unique."""
    alg = D.alg
    for e, into in enumerate(cocones):
        gens_te = D.homs[(tip, e)]
        srows = [[v for q in qs for v in _flatten_bmat(alg, S @ q)]
                 for S in gens_te]
        factored = Span(alg.R, srows, into.width)
        if not all(factored.contains(r) for r in into.rows):
            return False
        if not factors_uniquely(alg, srows, gens_te):
            return False
    return True


def cocone_candidates(D: DiagramCategory, legs: list[int], into, tip: int):
    """Every element of the cocone module into into tip, unflattened into
    its legs (q_1, ..., q_m)."""
    alg, rank = D.alg, D.objects[tip].rank
    starts = list(itertools.accumulate((D.objects[i].rank for i in legs), initial=0))
    for vec in span_elements(alg.R, into.rows, into.width, None):
        yield [_unflatten_bmat(alg, vec[rank * a * alg.fb:rank * b * alg.fb], rank, b - a)
               for a, b in zip(starts, starts[1:])]


def span_membership(ring, gens, target):
    """Coefficients c with sum c_i gens_i = target, or None."""
    if not gens:
        return [] if not any(target) else None
    A = Matrix(ring, [list(col) for col in zip(*gens)], len(target), len(gens))
    return solve(A, list(target))


def rigid_colimit_probes(D: DiagramCategory, budget: int = DEFAULT_BUDGET):
    alg = D.alg
    B = alg.B
    probes = []
    jobs = []
    for (k, l), mats in sorted(D.homs.items()):
        for i, F in enumerate(mats):
            for G in [Matrix.zeros(B, D.objects[l].rank, D.objects[k].rank)] + mats[i:]:
                jobs.append(("coeq", k, l, F, G))
    for (c, k) in sorted(D.homs):
        for l in range(D.nobj()):
            for F in D.homs[(c, k)][:2]:
                for G in D.homs[(c, l)][:2]:
                    jobs.append(("pushout", c, k, l, F, G))
    overall = "verified"
    witness = None
    for job in jobs[:96]:
        kind = job[0]
        if kind == "coeq":
            _, k, l, F, G = job
            detail = {"kind": "coeq", "pair": (k, l)}
            diffB = F - G
            cok_exps = module_from_presentation(diffB).module.exps
            if any(e != B.n for e in cok_exps):
                detail["verdict"] = "not-applicable"
                probes.append(detail)
                continue
            found = find_coequalizer(D, l, F, G, budget)
        else:
            _, c, k, l, F, G = job
            detail = {"kind": "pushout", "span": (c, k, l)}
            glueB = F.vstack(-G)
            cok_exps = module_from_presentation(glueB).module.exps
            if any(e != B.n for e in cok_exps):
                detail["verdict"] = "not-applicable"
                probes.append(detail)
                continue
            found = find_pushout(D, c, k, l, F, G, budget)
        if found is None:
            detail["verdict"] = "refuted"
            if overall != "refuted":
                overall = "refuted"
                witness = detail | {"f": job[-2], "g": job[-1]}
        elif found == "budget":
            detail["verdict"] = "inconclusive"
            if overall == "verified":
                overall = "inconclusive"
        else:
            detail["verdict"] = "verified"
            detail["tip"] = found[0]
        probes.append(detail)
    v = Verdict(overall, witness,
                "" if overall != "inconclusive" else "probe sweep over budget")
    return v, probes


def find_coequalizer(D: DiagramCategory, l: int, F: Matrix, G: Matrix,
                     budget: int):
    """(c, q) realizing the coequalizer of f, g with omega preserving it."""
    alg = D.alg
    B = alg.B
    diff = F - G
    for c, cobj in enumerate(D.objects):
        # with no rows the span still holds the zero morphism
        elems = span_elements(alg.R, D.span_rows(l, c),
                              cobj.rank * D.objects[l].rank * alg.fb, budget)
        if elems is None:
            return "budget"
        for vec in elems:
            q = _unflatten_bmat(alg, vec, cobj.rank, D.objects[l].rank)
            if not (q @ diff).is_zero():
                continue
            if is_universal_cocone(D, l, c, q, diff, budget):
                # omega must send it to the fiber colimit: the induced map
                # coker(diff) -> fiber(c) must be an isomorphism over B
                presB = densify(B, module_from_presentation(diff))
                qbar = ModuleMap(presB.module, FinModule.free(B, cobj.rank),
                                 q @ presB.sect)
                if is_isomorphism(qbar):
                    return (c, q)
    return None


def find_pushout(D: DiagramCategory, c: int, k: int, l: int, F: Matrix,
                 G: Matrix, budget: int):
    """(tip, q1, q2) realizing the pushout of F : c -> k, G : c -> l, with
    the fiber comparison an isomorphism, or None / "budget"."""
    alg = D.alg
    B = alg.B
    glueB = F.vstack(-G)
    for t, tobj in enumerate(D.objects):
        e1 = span_elements(alg.R, D.span_rows(k, t),
                           tobj.rank * D.objects[k].rank * alg.fb, budget)
        e2 = span_elements(alg.R, D.span_rows(l, t),
                           tobj.rank * D.objects[l].rank * alg.fb, budget)
        if e1 is None or e2 is None or len(e1) * len(e2) > budget:
            return "budget"
        for v1 in e1:
            q1 = _unflatten_bmat(alg, v1, tobj.rank, D.objects[k].rank)
            q1F = q1 @ F
            for v2 in e2:
                q2 = _unflatten_bmat(alg, v2, tobj.rank, D.objects[l].rank)
                if q1F != q2 @ G:
                    continue
                ok = pushout_universal(D, c, k, l, t, q1, q2, F, G, budget)
                if ok == "budget":
                    return "budget"
                if ok:
                    pres = densify(B, module_from_presentation(glueB))
                    qbar = ModuleMap(pres.module, FinModule.free(B, tobj.rank),
                                     q1.hstack(q2) @ pres.sect)
                    if is_isomorphism(qbar):
                        return (t, q1, q2)
    return None


def pushout_universal(D: DiagramCategory, c: int, k: int, l: int, t: int,
                      q1: Matrix, q2: Matrix, F: Matrix, G: Matrix,
                      budget: int):
    alg = D.alg
    R = alg.R
    for e, eobj in enumerate(D.objects):
        gens1 = D.homs[(k, e)]
        gens2 = D.homs[(l, e)]
        gens_te = D.homs[(t, e)]
        # the cocone pairs (t1, t2) with t1 F = t2 G form the kernel of a
        # linear map on the joint coefficient space
        width_cond = eobj.rank * D.objects[c].rank * alg.fb
        rows = []
        for H in gens1:
            rows.append(list(_flatten_bmat(alg, H @ F)))
        for H in gens2:
            rows.append([R.neg(v) for v in _flatten_bmat(alg, H @ G)])
        if rows:
            A = Matrix(R, [list(rr) for rr in zip(*rows)], width_cond, len(rows))
            Kk = kernel(A)
            if R.size ** Kk.cols > budget:
                return "budget"
            coeff_vectors = [Kk.apply(list(cf)) for cf in
                             itertools.product(range(R.size), repeat=Kk.cols)] \
                if Kk.cols else [[0] * len(rows)]
        else:
            coeff_vectors = [[]]
        srows = [list(_flatten_bmat(alg, S @ q1)) +
                 list(_flatten_bmat(alg, S @ q2)) for S in gens_te]
        seen = set()
        for cf in coeff_vectors:
            t1 = Matrix.zeros(alg.B, eobj.rank, D.objects[k].rank)
            for cc, H in zip(cf[:len(gens1)], gens1):
                if cc:
                    t1 = t1 + H.scale(alg.B.from_int(cc))
            t2 = Matrix.zeros(alg.B, eobj.rank, D.objects[l].rank)
            for cc, H in zip(cf[len(gens1):], gens2):
                if cc:
                    t2 = t2 + H.scale(alg.B.from_int(cc))
            key = (tuple(map(tuple, t1.data)), tuple(map(tuple, t2.data)))
            if key in seen:
                continue
            seen.add(key)
            target = list(_flatten_bmat(alg, t1)) + list(_flatten_bmat(alg, t2))
            if span_membership(R, srows, target) is None:
                return False
        # uniqueness: s q1 = 0 and s q2 = 0 force s = 0
        if not factors_uniquely(alg, srows, gens_te):
            return False
    return True


def is_universal_cocone(D: DiagramCategory, l: int, c: int, q: Matrix,
                        diff: Matrix, budget: int) -> bool:
    alg = D.alg
    for e, eobj in enumerate(D.objects):
        rows = D.span_rows(l, e)
        elems = span_elements(alg.R, rows, len(rows[0]), budget) if rows else []
        if elems is None:
            return False
        gens_ce = D.homs[(c, e)]
        srows = [list(_flatten_bmat(alg, S @ q)) for S in gens_ce]
        for vec in elems:
            t = _unflatten_bmat(alg, vec, eobj.rank, D.objects[l].rank)
            if not (t @ diff).is_zero():
                continue
            if span_membership(alg.R, srows, list(_flatten_bmat(alg, t))) is None:
                return False
        # uniqueness: s q = 0 forces s = 0 on the span
        if not factors_uniquely(alg, srows, gens_ce):
            return False
    return True


def cofiltered_check(D: DiagramCategory, budget: int = DEFAULT_BUDGET) -> Verdict:
    """el(omega) nonempty, with binary cones and equalizing morphisms, by
    exhaustive search within the budget; one `Span` per membership question."""
    alg = D.alg
    if not D.objects:
        return Verdict("refuted", {"reason": "category of elements is empty"})
    objs = []
    for k, obj in enumerate(D.objects):
        els = _fiber_elements(alg, obj.rank, budget)
        if els is None:
            return Verdict("inconclusive", reason="fiber enumeration over budget")
        objs.extend((k, v) for v in els)
    if len(objs) ** 2 > budget * 16:
        return Verdict("inconclusive", reason="element-pair sweep over budget")
    for (k, vA) in objs:
        for (l, vB) in objs:
            cone = has_cone(D, (k, vA), (l, vB), budget)
            if cone == "budget":
                return Verdict("inconclusive", reason="cone search over budget")
            if not cone:
                return Verdict("refuted", {"kind": "no-cone",
                                           "first": (k, list(vA)),
                                           "second": (l, list(vB))})
    # equalizing morphisms for parallel pairs
    for (k, vA) in objs:
        for (l, vB) in objs:
            pairmaps = el_morphisms(D, (k, vA), (l, vB), budget)
            if pairmaps is None:
                return Verdict("inconclusive", reason="parallel-pair sweep over budget")
            for f, g in itertools.combinations(pairmaps, 2):
                eq = has_equalizing(D, (k, vA), f, g, budget)
                if eq == "budget":
                    return Verdict("inconclusive",
                                   reason="equalizer search over budget")
                if not eq:
                    return Verdict("refuted", {"kind": "no-equalizer",
                                               "source": (k, list(vA)),
                                               "target": (l, list(vB)),
                                               "f": f, "g": g})
    return Verdict("verified")


def has_cone(D: DiagramCategory, obj1, obj2, budget: int = DEFAULT_BUDGET):
    """True / False / "budget": a refutation is only sound when every
    candidate source fiber could be enumerated."""
    alg = D.alg
    (k, vA), (l, vB) = obj1, obj2
    exhausted = False
    for c, cobj in enumerate(D.objects):
        els = _fiber_elements(alg, cobj.rank, budget)
        if els is None:
            exhausted = True
            continue
        for u in els:
            if solvable_at(alg, D, c, k, u, vA) and \
               solvable_at(alg, D, c, l, u, vB):
                return True
    return "budget" if exhausted else False


def solvable_at(alg, D, c, k, u, target) -> bool:
    """Is there F in span(c -> k) with F u = target?"""
    rows = [alg.bvec_to_rvec(G.apply(u)) for G in D.homs[(c, k)]]
    return Span(alg.R, rows, D.objects[k].rank * alg.fb).contains(
        alg.bvec_to_rvec(target))


def has_equalizing(D, src, f, g, budget):
    """True / False / "budget": is there (C, u) and h in span(C -> src)
    with h u = v_src and f h = g h?"""
    alg = D.alg
    k, vA = src
    diff = f - g
    exhausted = False
    for c, cobj in enumerate(D.objects):
        els = _fiber_elements(alg, cobj.rank, budget)
        if els is None:
            exhausted = True
            continue
        gens = D.homs[(c, k)]
        target = alg.bvec_to_rvec(vA) + (0,) * (diff.rows * cobj.rank * alg.fb)
        for u in els:
            rows = [alg.bvec_to_rvec(G.apply(u)) + _flatten_bmat(alg, diff @ G)
                    for G in gens]
            if Span(alg.R, rows, len(target)).contains(target):
                return True
    return "budget" if exhausted else False


def sweep_reflects_isos_check(D: DiagramCategory,
                              budget: int = DEFAULT_BUDGET) -> Verdict:
    alg = D.alg
    skipped = False
    for (k, l) in sorted(D.homs):
        rows = D.span_rows(k, l)
        if not rows:
            continue
        elems = span_elements(alg.R, rows, len(rows[0]), budget)
        if elems is None:
            skipped = True
            continue
        rk, rl = D.objects[k].rank, D.objects[l].rank
        back = D.homs[(l, k)]
        for vec in elems:
            F = _unflatten_bmat(alg, vec, rl, rk)
            if rk != rl or not is_invertible(F):
                continue
            if not _two_sided_inverse_in_span(alg, F, back, rk, rl):
                return Verdict("refuted", {"pair": (k, l), "matrix": F})
    if skipped:
        return Verdict("inconclusive", reason="hom span sweep over budget")
    return Verdict("verified")


def memo_cofiltered_check(D: DiagramCategory,
                          budget: int = DEFAULT_BUDGET) -> Verdict:
    alg = D.alg
    if not D.objects:
        return Verdict("refuted", {"reason": "category of elements is empty"})
    objs = []
    for k, obj in enumerate(D.objects):
        els = _fiber_elements(alg, obj.rank, budget)
        if els is None:
            return Verdict("inconclusive", reason="fiber enumeration over budget")
        objs.extend((k, v) for v in els)
    if len(objs) ** 2 > budget * 16:
        return Verdict("inconclusive", reason="element-pair sweep over budget")
    cone_spans: dict[tuple, Span] = {}
    for (k, vA) in objs:
        for (l, vB) in objs:
            cone = memo_has_cone(D, (k, vA), (l, vB), budget, cone_spans)
            if cone == "budget":
                return Verdict("inconclusive", reason="cone search over budget")
            if not cone:
                return Verdict("refuted", {"kind": "no-cone",
                                           "first": (k, list(vA)),
                                           "second": (l, list(vB))})
    equalizing: dict[tuple, object] = {}
    for (k, vA) in objs:
        for (l, vB) in objs:
            pairmaps = el_morphisms(D, (k, vA), (l, vB), budget)
            if pairmaps is None:
                return Verdict("inconclusive", reason="parallel-pair sweep over budget")
            for f, g in itertools.combinations(pairmaps, 2):
                diff = f - g
                key = (k, vA, tuple(map(tuple, diff.data)))
                eq = equalizing.get(key)
                if eq is None:
                    eq = equalizing[key] = has_equalizing(D, (k, vA), f, g, budget)
                if eq == "budget":
                    return Verdict("inconclusive",
                                   reason="equalizer search over budget")
                if not eq:
                    return Verdict("refuted", {"kind": "no-equalizer",
                                               "source": (k, list(vA)),
                                               "target": (l, list(vB)),
                                               "f": f, "g": g})
    return Verdict("verified")


def memo_has_cone(D: DiagramCategory, obj1, obj2, budget: int, cone_spans: dict):
    alg = D.alg
    (k, vA), (l, vB) = obj1, obj2
    exhausted = False
    for c, cobj in enumerate(D.objects):
        els = _fiber_elements(alg, cobj.rank, budget)
        if els is None:
            exhausted = True
            continue
        if any(memo_solvable_at(alg, D, c, k, u, vA, cone_spans)
               and memo_solvable_at(alg, D, c, l, u, vB, cone_spans)
               for u in els):
            return True
    return "budget" if exhausted else False


def memo_solvable_at(alg, D, c, k, u, target, cone_spans) -> bool:
    sp = cone_spans.get((c, k, u))
    if sp is None:
        rows = [alg.bvec_to_rvec(G.apply(u)) for G in D.homs[(c, k)]]
        sp = cone_spans[(c, k, u)] = Span(alg.R, rows, D.objects[k].rank * alg.fb)
    return sp.contains(alg.bvec_to_rvec(target))


def el_morphisms(D, obj1, obj2, budget):
    """All span elements f with f(v1) = v2, as B-matrices."""
    alg = D.alg
    (k, vA), (l, vB) = obj1, obj2
    rows = D.span_rows(k, l)
    if not rows:
        return []
    elems = span_elements(alg.R, rows, len(rows[0]), budget)
    if elems is None:
        return None
    out = []
    for vec in elems:
        F = _unflatten_bmat(alg, vec, D.objects[l].rank, D.objects[k].rank)
        if tuple(F.apply(vA)) == tuple(vB):
            out.append(F)
    return out


def product_find_colimit(D: DiagramCategory, legs: list[int], cond: Matrix,
                         pres, budget: int, products=None):
    alg = D.alg
    pres = densify(alg.B, pres)
    ranks = [D.objects[i].rank for i in legs]
    for t, tobj in enumerate(D.objects):
        elems = [span_elements(alg.R, D.span_rows(i, t),
                               tobj.rank * ri * alg.fb, budget)
                 for i, ri in zip(legs, ranks)]
        if None in elems or math.prod(map(len, elems)) > budget:
            return "budget"
        for vecs in itertools.product(*elems):
            qs = [_unflatten_bmat(alg, v, tobj.rank, ri)
                  for v, ri in zip(vecs, ranks)]
            q = functools.reduce(Matrix.hstack, qs)
            if not (q @ cond).is_zero() or \
               not product_is_universal(D, legs, cond, t, qs):
                continue
            qbar = ModuleMap(pres.module, FinModule.free(alg.B, tobj.rank),
                             q @ pres.sect)
            if is_isomorphism(qbar):
                return t
    return None


def product_is_universal(D: DiagramCategory, legs: list[int], cond: Matrix,
                         tip: int, qs) -> bool:
    alg = D.alg
    R, fb = alg.R, alg.fb
    starts = list(itertools.accumulate((D.objects[i].rank for i in legs), initial=0))
    blocks = [Matrix(alg.B, cond.data[a:b], b - a, cond.cols)
              for a, b in zip(starts, starts[1:])]
    for e, eobj in enumerate(D.objects):
        width = eobj.rank * starts[-1] * fb
        conds, cocones = [], []
        for i, a, block in zip(legs, starts, blocks):
            lo = eobj.rank * a * fb
            for H in D.homs[(i, e)]:
                conds.append(_flatten_bmat(alg, H @ block))
                flat = _flatten_bmat(alg, H)
                cocones.append((0,) * lo + flat + (0,) * (width - lo - len(flat)))
        K = kernel(from_cols(R, conds, eobj.rank * cond.cols * fb))
        gens_te = D.homs[(tip, e)]
        srows = [[v for q in qs for v in _flatten_bmat(alg, S @ q)]
                 for S in gens_te]
        factored = Span(R, srows, width)
        G = from_cols(R, cocones, width) @ K
        if not all(factored.contains(G.col(j)) for j in range(G.cols)):
            return False
        if not factors_uniquely(alg, srows, gens_te):
            return False
    return True


def cocone_find_colimit(D: DiagramCategory, legs: list[int], cond: Matrix,
                        pres, budget: int, products=None):
    alg = D.alg
    pres = densify(alg.B, pres)
    into_all = cocones(D, legs, cond)
    for t, tobj in enumerate(D.objects):
        if math.prod(D.span(i, t).size() for i in legs) > budget:
            return "budget"
        for qs in cocone_candidates(D, legs, into_all[t], t):
            if not containment_is_universal(D, into_all, t, qs):
                continue
            q = functools.reduce(Matrix.hstack, qs)
            qbar = ModuleMap(pres.module, FinModule.free(alg.B, tobj.rank),
                             q @ pres.sect)
            if is_isomorphism(qbar):
                return t
    return None


def cocones(D: DiagramCategory, legs: list[int], cond: Matrix) -> list[Span]:
    """The cocones on the legs under cond into each object e, as the span
    of the flattened (q_1 | ... | q_m).  With H_g running over the hom
    generators leg_i -> e, they are the combinations sum c_g H_g whose
    coefficients lie in the kernel of c |-> sum c_g H_g cond_i (cond_i the
    rows of cond that leg i meets)."""
    alg = D.alg
    R, fb = alg.R, alg.fb
    starts = list(itertools.accumulate((D.objects[i].rank for i in legs), initial=0))
    blocks = [Matrix(alg.B, cond.data[a:b], b - a, cond.cols)
              for a, b in zip(starts, starts[1:])]
    out = []
    for e, eobj in enumerate(D.objects):
        width = eobj.rank * starts[-1] * fb
        conds, gens = [], []
        for i, a, block in zip(legs, starts, blocks):
            lo = eobj.rank * a * fb
            for H in D.homs[(i, e)]:
                conds.append(_flatten_bmat(alg, H @ block))
                flat = _flatten_bmat(alg, H)
                gens.append((0,) * lo + flat + (0,) * (width - lo - len(flat)))
        K = kernel(from_cols(R, conds, eobj.rank * cond.cols * fb))
        G = from_cols(R, gens, width) @ K
        out.append(Span(R, [G.col(j) for j in range(G.cols)], width))
    return out


def containment_is_universal(D: DiagramCategory, into_all, tip: int, qs) -> bool:
    """Does every cocone (into_all[e] spans those into e, ``cocones``)
    factor through the cocone qs into tip, and uniquely?  Factoring is
    checked on the Howell rows of the cocones into e alone.  On a closed D
    every S q with S in span(tip, e) is a cocone, so once every cocone
    factors, S |-> S q maps span(tip, e) onto the cocones into e, and this
    map of finite sets is one to one exactly when the two have the same
    size."""
    alg = D.alg
    for e, into in enumerate(into_all):
        srows = [[v for q in qs for v in _flatten_bmat(alg, S @ q)]
                 for S in D.homs[(tip, e)]]
        factored = Span(alg.R, srows, into.width)
        if D.span(tip, e).size() != into.size() or \
           not all(factored.contains(r) for r in into.rows):
            return False
    return True
