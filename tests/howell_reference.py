"""References for ``linalg.howell`` and ``tannaka.hom_closure``.

``dense_howell`` is the Howell form as it was computed before the sparse
insertion kernel: one pass over the columns, each picking the work row of
least valuation in that column as the pivot and eliminating the column from
every other work row at full width.  The Howell form of a span is unique, so
it must agree with ``linalg.howell`` entry for entry.

``hom_closure`` is the closure as a fixpoint over Howell-row lists, as it
ran before the closure spun the input generators: every round forms every
product G F of two hom lists and re-Howells it with the target's rows,
even when the target is all of Hom or neither factor changed, and the
diagram it returns holds no spans.  It calls ``linalg.howell`` through the
module, so a test can count its calls, and it forms its products with
``Matrix.__matmul__``, so a test can count those too.

Kept only to be tested against.
"""

from __future__ import annotations

from tannaka_forge import linalg
from tannaka_forge.linalg import Matrix
from tannaka_forge.tannaka import DiagramCategory, _flatten_bmat, _unflatten_bmat


def dense_howell(ring, rows: list[list[int]], width: int) -> list[list[int]]:
    """Canonical row-span form over a chain ring.

    The output depends only on the R-submodule of R^width spanned by the
    input rows: pivots are pure powers p^a in increasing column order, each
    column below a pivot is zero, entries above a pivot are reduced mod p^a,
    and for every pivot p^a with a > 0 the annihilated tail p^{n-a} * row is
    re-inserted so all prefix-zero span elements stay representable.
    """
    n = ring.n
    add, mul, neg = ring.add, ring.mul, ring.neg
    work = [list(r) for r in rows if any(r)]
    pivots: list[tuple[int, int]] = []  # (column, exponent)
    result: list[list[int]] = []
    for j in range(width):
        cands = [r for r in work if r[j] != 0]
        if not cands:
            continue
        best = min(cands, key=lambda r: ring.val(r[j]))
        a = ring.val(best[j])
        u_inv = ring.inv(ring.unit_part(best[j]))
        piv = [mul(u_inv, e) for e in best]
        work.remove(best)
        for r in work:
            e = r[j]
            if e:
                t = ring.divide_p_power(e, a)
                for k in range(j, width):
                    pe = piv[k]
                    if pe:
                        r[k] = add(r[k], mul(neg(t), pe))
        if a > 0:
            tail = [mul(ring.p_elem(n - a), e) for e in piv]
            if any(tail):
                work.append(tail)
        work = [r for r in work if any(r)]
        result.append(piv)
        pivots.append((j, a))
    # reduce entries above each pivot modulo p^a
    for idx in range(len(result)):
        j, a = pivots[idx]
        if a == n:
            continue
        for idx2 in range(idx):
            e = result[idx2][j]
            red = ring.reduce_exp(e, a)
            if red != e:
                t = ring.divide_p_power(ring.sub(e, red), a)
                row2, piv = result[idx2], result[idx]
                for k in range(j, width):
                    pe = piv[k]
                    if pe:
                        row2[k] = add(row2[k], mul(neg(t), pe))
    return result


def hom_closure(D: DiagramCategory) -> DiagramCategory:
    alg = D.alg
    B = alg.B
    homs = {pair: list(mats) for pair, mats in D.homs.items()}
    for k, obj in enumerate(D.objects):
        homs[(k, k)].append(Matrix.identity(B, obj.rank))

    def canon(pair, mats):
        k, l = pair
        width = D.objects[l].rank * D.objects[k].rank * alg.fb
        rows = linalg.howell(alg.R, [_flatten_bmat(alg, F) for F in mats], width)
        return [_unflatten_bmat(alg, r, D.objects[l].rank, D.objects[k].rank)
                for r in rows]

    homs = {pair: canon(pair, mats) for pair, mats in homs.items()}
    changed = True
    while changed:
        changed = False
        for (k, l) in list(homs):
            for m in range(D.nobj()):
                prods = [G @ F for F in homs[(k, l)] for G in homs[(l, m)]]
                if not prods:
                    continue
                new = canon((k, m), homs[(k, m)] + prods)
                if [M.data for M in new] != [M.data for M in homs[(k, m)]]:
                    homs[(k, m)] = new
                    changed = True
    return DiagramCategory(alg, D.objects, homs)
