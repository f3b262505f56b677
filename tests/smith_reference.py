"""Kernels, solves and inverses read off a Smith form A = U D V.

These are `linalg.kernel`, `solve_columns`, `solve` and `inverse` as they
ran before they were read off the Howell form of the graph [A^T | I]: the
kernel is generated by the columns of V^-1 over the invariants, scaled by
p^(n - a), and a solution is V^-1 y with D y = U^-1 b.  Each calls
`linalg.smith` through the module, so a test that replaces `linalg.smith`
sees these calls too.

Kept only to be tested against.
"""

from __future__ import annotations

from tannaka_forge import linalg
from tannaka_forge.linalg import DimensionMismatch, Matrix


def smith_kernel(A: Matrix) -> Matrix:
    """Columns generate {v : A v = 0} as an R-module."""
    ring = A.ring
    n = ring.n
    sf = linalg.smith(A)
    gens = []
    m = min(A.rows, A.cols)
    for i, a in enumerate(sf.invariants):
        if a > 0:
            c = ring.p_elem(n - a)  # p^{n-a}, equal to 1 when a = n
            gens.append([ring.mul(c, e) for e in sf.v_inv.col(i)])
    for j in range(m, A.cols):
        gens.append(sf.v_inv.col(j))
    return Matrix.from_cols(ring, gens, A.cols)


def smith_solve_columns(A: Matrix, targets) -> list[list[int] | None]:
    """For each target b, some x with A x = b (None if there is none), all
    read off one Smith form of A."""
    for b in targets:
        if len(b) != A.rows:
            raise DimensionMismatch("rhs length %d, expected %d" % (len(b), A.rows))
    ring = A.ring
    n = ring.n
    sf = linalg.smith(A)
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
    sf = linalg.smith(A)
    if A.rows != A.cols or any(sf.invariants):
        raise DimensionMismatch("matrix is not invertible")
    # A = U D V with D = I, so A^{-1} = V^{-1} U^{-1}
    return sf.v_inv @ sf.u_inv

