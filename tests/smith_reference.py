"""Smith forms with both transforms, and the kernels, solves and inverses
read off them.

`reference_smith` is `linalg.smith` as it ran on dense matrices while it
also cleared each pivot row by column operations and accumulated V^-1: it
returns U, the diagonal D, U^-1, V^-1 with D = U^-1 A V^-1, and the column
swaps perm.  `linalg.smith` keeps only the row operations, on sparse rows,
and returns U and U^-1 as sparse columns and rows; `densify` writes them,
or the sparse proj and sect of a `Presentation`, out as dense matrices, and
`smith_certificate` checks what `linalg.smith` returns.

`smith_kernel`, `smith_solve_columns`, `smith_solve` and `smith_inverse`
are `linalg.kernel`, `solve_columns`, `solve` and `inverse` as they ran
before they were read off the Howell form of the graph [A^T | I]: the
kernel is generated by the columns of V^-1 over the invariants, scaled by
p^(n - a), and a solution is V^-1 y with D y = U^-1 b.  Each calls
`reference_smith` through this module, so a test that replaces it sees
these calls too.

Kept only to be tested against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from tannaka_forge.linalg import DimensionMismatch, Matrix, SmithForm

from dense_tensor import from_cols


@dataclass(frozen=True)
class ReferenceSmith:
    U: Matrix
    D: Matrix
    invariants: tuple[int, ...]
    u_inv: Matrix
    v_inv: Matrix
    perm: tuple[int, ...]


def densify(ring, form):
    """The SmithForm or Presentation form with its sparse fields written out
    as dense Matrixes over ring: U from its columns and u_inv from its rows,
    or proj and sect from their columns."""
    if isinstance(form, SmithForm):
        side = len(form.U)
        rows_as_cols = Matrix.from_sparse(ring, form.u_inv, side)
        return dataclasses.replace(
            form, U=Matrix.from_sparse(ring, form.U, side),
            u_inv=from_cols(ring, rows_as_cols.data, side))
    return dataclasses.replace(
        form, proj=Matrix.from_sparse(ring, form.proj, form.module.rank),
        sect=Matrix.from_sparse(ring, form.sect, len(form.proj)))


def reference_smith(A: Matrix) -> ReferenceSmith:
    ring = A.ring
    n = ring.n
    rows, cols = A.rows, A.cols
    D = Matrix(ring, [row[:] for row in A.data], rows, cols)
    U = Matrix.identity(ring, rows)
    Ui = Matrix.identity(ring, rows)
    Vi = Matrix.identity(ring, cols)
    perm = list(range(cols))
    mul, neg, val, addmul = ring.mul, ring.neg, ring.val, ring.addmul

    def row_swap(M, i, j):
        M.data[i], M.data[j] = M.data[j], M.data[i]

    def col_swap(M, i, j):
        for r in M.data:
            r[i], r[j] = r[j], r[i]

    def row_addmul(M, dst, src, c):
        rd = M.data[dst]
        for j, a in enumerate(M.data[src]):
            if a:
                rd[j] = addmul(rd[j], c, a)

    def col_addmul(M, dst, src, c):
        for r in M.data:
            a = r[src]
            if a:
                r[dst] = addmul(r[dst], c, a)

    def row_scale(M, i, c):
        M.data[i] = [mul(c, a) if a else 0 for a in M.data[i]]

    def col_scale(M, j, c):
        for r in M.data:
            if r[j]:
                r[j] = mul(c, r[j])

    m = min(rows, cols)
    for k in range(m):
        # pivot: minimal valuation, then row-major position
        best = None
        best_val = n
        for i in range(k, rows):
            di = D.data[i]
            for j in range(k, cols):
                e = di[j]
                if e:
                    v = val(e)
                    if v < best_val:
                        best_val = v
                        best = (i, j)
                        if v == 0:
                            break
            if best_val == 0:
                break
        if best is None:
            break
        pi, pj = best
        if pi != k:
            row_swap(D, pi, k)
            col_swap(U, pi, k)
            row_swap(Ui, pi, k)
        if pj != k:
            col_swap(D, pj, k)
            col_swap(Vi, pj, k)
            perm[pj], perm[k] = perm[k], perm[pj]
        a = best_val
        u = ring.unit_part(D.data[k][k])
        if u != 1:
            u_inv = ring.inv(u)
            row_scale(D, k, u_inv)
            col_scale(U, k, u)
            row_scale(Ui, k, u_inv)
        piv = D.data[k][k]
        for i in range(k + 1, rows):
            e = D.data[i][k]
            if e:
                t = ring.divide_p_power(e, a)
                row_addmul(D, i, k, neg(t))
                col_addmul(U, k, i, t)
                row_addmul(Ui, i, k, neg(t))
        for j in range(k + 1, cols):
            e = D.data[k][j]
            if e:
                t = ring.divide_p_power(e, a)
                col_addmul(D, j, k, neg(t))
                col_addmul(Vi, j, k, neg(t))
        assert D.data[k][k] == piv
    invariants = tuple(val(D.data[i][i]) for i in range(m))
    return ReferenceSmith(U, D, invariants, Ui, Vi, tuple(perm))


def smith_certificate(A: Matrix, sf) -> None:
    """Assert what linalg.smith promises: U^-1 A, its columns in perm order,
    is upper triangular, row i has p^(a_i) on the diagonal and is divisible
    by it, the rows past the rank are zero, U U^-1 = I and the invariants
    are sorted."""
    R = A.ring
    sf = densify(R, sf)
    assert sorted(sf.perm) == list(range(A.cols))
    a = list(sf.invariants) + [R.n] * (A.rows - len(sf.invariants))
    for i, row in enumerate((sf.u_inv @ A).data):
        row = [row[j] for j in sf.perm]
        assert not any(row[:i]), (i, row)
        assert all(R.val(e) >= a[i] for e in row[i:]), (i, row)
        assert a[i] == R.n or row[i] == R.p_elem(a[i]), (i, row)
    assert sf.U @ sf.u_inv == Matrix.identity(R, A.rows)
    assert list(sf.invariants) == sorted(sf.invariants)


def smith_kernel(A: Matrix) -> Matrix:
    """Columns generate {v : A v = 0} as an R-module."""
    ring = A.ring
    n = ring.n
    sf = reference_smith(A)
    gens = []
    m = min(A.rows, A.cols)
    for i, a in enumerate(sf.invariants):
        if a > 0:
            c = ring.p_elem(n - a)  # p^{n-a}, equal to 1 when a = n
            gens.append([ring.mul(c, e) for e in sf.v_inv.col(i)])
    for j in range(m, A.cols):
        gens.append(sf.v_inv.col(j))
    return from_cols(ring, gens, A.cols)


def smith_solve_columns(A: Matrix, targets) -> list[list[int] | None]:
    """For each target b, some x with A x = b (None if there is none), all
    read off one Smith form of A."""
    for b in targets:
        if len(b) != A.rows:
            raise DimensionMismatch("rhs length %d, expected %d" % (len(b), A.rows))
    ring = A.ring
    n = ring.n
    sf = reference_smith(A)
    # invariant of each row of D; rows past min(rows, cols) are zero
    inv = sf.invariants + (n,) * (A.rows - len(sf.invariants))

    def one(b):
        c = sf.u_inv.apply(list(b))
        y = [0] * A.cols
        for i, (a, ci) in enumerate(zip(inv, c)):
            if ring.val(ci) < a:    # val(0) = n: a zero row needs ci = 0
                return None
            if a < n:
                y[i] = ring.divide_p_power(ci, a)
        return sf.v_inv.apply(y)

    return [one(b) for b in targets]


def smith_solve(A: Matrix, b: list[int]) -> list[int] | None:
    """Some x with A x = b, or None if no solution exists."""
    return smith_solve_columns(A, [b])[0]


def smith_inverse(A: Matrix) -> Matrix:
    sf = reference_smith(A)
    if A.rows != A.cols or any(sf.invariants):
        raise DimensionMismatch("matrix is not invertible")
    # A = U D V with D = I, so A^{-1} = V^{-1} U^{-1}
    return sf.v_inv @ sf.u_inv

