"""Exact matrix algebra over a chain ring GR(p^n, f).

Every element of the ring is unit * p^v, so Gaussian elimination with
minimal-valuation pivoting produces a diagonal (Smith-style) normal form
A = U * D * V with U, V invertible and D_ii = p^{a_i}, a_1 <= a_2 <= ...
(a_i = n encodes a zero entry).  The pivot rule is fixed - minimal
valuation, then row-major position - and units are normalized into U, which
makes the output deterministic for a given input.  `smith` returns U, U^-1,
the invariants and the column swaps: presentations read only these, so
the row operations alone are carried out, leaving U^-1 A, with its columns
swapped, upper triangular, and neither V nor V^-1 is built.  It runs on
sparse rows, with U kept by columns and U^-1 by rows, and swaps columns in
a permutation, so its cost follows the nonzeros of A, not its side.  Images
are not computed here: a column span is presented by modules.submodule.

The Howell form is the canonical generating matrix of a row span: it
depends only on the span, which makes span comparisons and coend
presentations reproducible.  A `Span` is the one structure that holds it:
it grows in place, batch by batch, saying whether a batch grew the span,
keeps its pivot rows sparse, and writes the dense Howell rows only when
`rows` is read.  `Span.reduce` takes a vector to its canonical normal form
modulo the span in one pass over the pivot rows; the form is zero exactly
on the span, which is how `Span.contains` answers every membership
question.  Kernels and solves
are read off one Span of the graph of A, the rows (A e_i, e_i) of
[A^T | I] (Howell 1986; Storjohann, ETH thesis 2000, ch. 4): its rows with
zero A-part generate the kernel, and (b, 0) reduces to (b - A x, -x).
`kernel` and `solve_columns` take A as its sparse columns and row count,
which are the graph's rows as they are, and `kernel` returns the sparse
rows with zero A-part, the only ones it reduces.  Both depend only on A
and b, and need no Smith form with its transforms of side A.rows;
`solve_columns` answers many right-hand sides from one graph, and
`solve` is its one-target case on a Matrix.

Over R = Z/p^n (ring.native_q is q) elements are ints mod q, and the
matrix product and Span.reduce sum plain int products and reduce mod q once
per entry instead of calling the ring twice per term; other rings go
through ring.add and ring.mul.  Smith's row updates and the Howell
insertion make one ring.addmul per term.

No fraction-free or probabilistic shortcuts; everything is exact at desk
scale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .rings import RingSpec


class DimensionMismatch(ValueError):
    pass


class Matrix:
    """Dense matrix over a RingSpec; entries are packed ints.

    Treated as immutable by convention: operations return new matrices.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: RingSpec, data: list[list[int]], rows: int | None = None,
                 cols: int | None = None):
        self.ring = ring
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return cls(ring, [[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, ring: RingSpec, k: int) -> "Matrix":
        m = cls.zeros(ring, k, k)
        for i in range(k):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: list[list[int]]) -> "Matrix":
        return cls(ring, [list(r) for r in rows])

    @classmethod
    def from_cols(cls, ring: RingSpec, cols, rows: int) -> "Matrix":
        """Build from a list of column vectors, keeping the row count even
        when the list is empty."""
        if not cols:
            return cls(ring, [[] for _ in range(rows)], rows, 0)
        return cls(ring, [list(r) for r in zip(*cols)], rows, len(cols))

    @classmethod
    def from_sparse(cls, ring: RingSpec, cols, rows: int) -> "Matrix":
        """Write out the sparse columns cols, lists of (row, entry) pairs,
        as a dense matrix with rows rows."""
        mat = cls.zeros(ring, rows, len(cols))
        for q, col in enumerate(cols):
            for j, a in col:
                mat.data[j][q] = a
        return mat

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        fmt = self.ring.format_elem
        body = ",".join("[" + ",".join(fmt(e) for e in row) + "]" for row in self.data)
        return "[%s]" % body

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other, same=True)
        add = self.ring.add
        return Matrix(self.ring,
                      [[add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)],
                      self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix(self.ring, [[neg(a) for a in row] for row in self.data],
                      self.rows, self.cols)

    def scale(self, c: int) -> "Matrix":
        mul = self.ring.mul
        return Matrix(self.ring, [[mul(c, a) if a else 0 for a in row]
                                  for row in self.data], self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.ring != other.ring:
            raise DimensionMismatch("%dx%d @ %dx%d" % (self.rows, self.cols,
                                                       other.rows, other.cols))
        ring, q = self.ring, self.ring.native_q
        add, mul = ring.add, ring.mul
        out = []
        for srow in self.data:
            acc = [0] * other.cols
            if q:
                # Z/q: sum plain int products, reduce once per entry
                for a, brow in zip(srow, other.data):
                    if a:
                        acc = [x + a * b for x, b in zip(acc, brow)]
                acc = [x % q for x in acc]
            else:
                for a, brow in zip(srow, other.data):
                    if a:
                        acc = [add(x, mul(a, b)) if b else x for x, b in zip(acc, brow)]
            out.append(acc)
        return Matrix(ring, out, self.rows, other.cols)

    def apply(self, vec) -> list[int]:
        """Matrix times column vector (as a plain list)."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(vec), self.cols))
        add, mul = self.ring.add, self.ring.mul
        out = [0] * self.rows
        for k, v in enumerate(vec):
            if v == 0:
                continue
            for i in range(self.rows):
                a = self.data[i][k]
                if a:
                    out[i] = add(out[i], mul(a, v))
        return out

    def col(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def sparse_cols(self) -> list[list[tuple[int, int]]]:
        """The nonzero (row, entry) pairs of each column."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for r, row in enumerate(self.data):
            for c, v in enumerate(row):
                if v:
                    cols[c].append((r, v))
        return cols

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack rows %d vs %d" % (self.rows, other.rows))
        return Matrix(self.ring, [ra + rb for ra, rb in zip(self.data, other.data)],
                      self.rows, self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack cols %d vs %d" % (self.cols, other.cols))
        return Matrix(self.ring, [r[:] for r in self.data] + [r[:] for r in other.data],
                      self.rows + other.rows, self.cols)

    def _shape_check(self, other, same=False):
        if self.ring != other.ring:
            raise DimensionMismatch("ring mismatch")
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise DimensionMismatch("shape mismatch")


@dataclass(frozen=True)
class SmithForm:
    """U^-1 A P = T with U invertible, P the column permutation perm
    (column j of A P is column perm[j] of A) and T upper triangular: row i
    has p^{a_i} on the diagonal and entries divisible by p^{a_i} to its
    right, and the rows past the rank are zero.  invariants lists a_i (a_i =
    n for a zero pivot), nondecreasing.  U is given by its sparse columns
    and its exact inverse u_inv by its sparse rows, lists of (index, entry)
    pairs, both accumulated during reduction.  Column operations alone take
    T to diag(p^{a_i}), so A = U D V for some invertible V, which no reader
    needs and so is not built."""
    U: list[list[tuple[int, int]]]
    invariants: tuple[int, ...]
    u_inv: list[list[tuple[int, int]]]
    perm: tuple[int, ...]


def smith(A: Matrix) -> SmithForm:
    """The Smith form of A on sparse rows: the rows of A are read once into
    {column: entry} dicts, U is kept by columns and U^-1 by rows, also as
    dicts, and a column swap swaps two positions of perm."""
    ring = A.ring
    rows = A.rows
    D = [{j: e for j, e in enumerate(row) if e} for row in A.data]
    U = [{i: 1} for i in range(rows)]      # U[c]: column c of U, {row: entry}
    Ui = [{i: 1} for i in range(rows)]     # Ui[r]: row r of U^-1, {column: entry}
    perm = list(range(A.cols))
    at = list(range(A.cols))               # the position of each column: at[perm[j]] = j
    mul, neg, val, addmul = ring.mul, ring.neg, ring.val, ring.addmul
    m = min(rows, A.cols)
    a = 0
    for k in range(m):
        # pivot: minimal valuation, then row-major position.  Rows k.. hold
        # entries only at positions >= k, all of valuation >= a, the last
        # pivot's (each pivot has the least valuation left, and the row
        # operations add its multiples), so an entry of valuation a ends the
        # scan after its row.
        bv, bi, bp = ring.n, -1, -1
        for i in range(k, rows):
            for j, e in D[i].items():
                v = val(e)
                if v < bv or (v == bv and i == bi and at[j] < bp):
                    bv, bi, bp = v, i, at[j]
            if bv == a:
                break
        if bi < 0:
            break  # submatrix is zero
        if bi != k:
            D[bi], D[k] = D[k], D[bi]
            U[bi], U[k] = U[k], U[bi]
            Ui[bi], Ui[k] = Ui[k], Ui[bi]
        if bp != k:
            perm[bp], perm[k] = perm[k], perm[bp]
            at[perm[bp]], at[perm[k]] = bp, k
        # normalize pivot to p^a, pushing the unit into U
        c, a = perm[k], bv
        u = ring.unit_part(D[k][c])
        if u != 1:
            u_inv = ring.inv(u)
            D[k] = {j: mul(u_inv, e) for j, e in D[k].items()}
            U[k] = {i: mul(u, e) for i, e in U[k].items()}
            Ui[k] = {j: mul(u_inv, e) for j, e in Ui[k].items()}
        # clear column k below the pivot; row k is left as it is, since
        # clearing it changes only row k, which no later step reads
        for i in range(k + 1, rows):
            e = D[i].get(c)
            if e:
                t = ring.divide_p_power(e, a)
                _add_row(addmul, D[i], D[k], neg(t))
                _add_row(addmul, U[k], U[i], t)
                _add_row(addmul, Ui[i], Ui[k], neg(t))
    invariants = tuple(val(D[i].get(perm[i], 0)) for i in range(m))
    return SmithForm([list(col.items()) for col in U], invariants,
                     [list(row.items()) for row in Ui], tuple(perm))


def _graph(ring: RingSpec, cols, rows: int) -> "Span":
    """The span of the rows (A e_i, e_i) of [A^T | I], the graph of the
    map A with rows rows and the sparse columns cols, lists of (row,
    nonzero entry) pairs: its elements are the (A x, x)."""
    return Span(ring, [{**dict(col), rows + i: 1} for i, col in enumerate(cols)],
                rows + len(cols))


def is_invertible(A: Matrix) -> bool:
    return A.rows == A.cols and Span(A.ring, A.data, A.cols).is_full()


def kernel(ring: RingSpec, cols, rows: int) -> list[list[tuple[int, int]]]:
    """Sparse columns generating {v : A v = 0} as an R-module, for the map
    A with rows rows and the sparse columns cols: the graph's Howell rows
    with zero A-part, those with pivot column >= rows, in pivot order.  By
    the Howell property they span every graph element (0, v), and they
    depend only on A."""
    return [[(k - rows, e) for k, e in sorted(row.items())]
            for row in _graph(ring, cols, rows).tail_rows(rows, sparse=True)]


def solve_columns(ring: RingSpec, cols, rows: int, targets) -> list[list[int] | None]:
    """For each target b, the canonical x with A x = b (None if there is
    none), for the map A with rows rows and the sparse columns cols, as
    `kernel` takes it, all read off one Howell form of the graph of A:
    (b, 0) reduces to (b - A x, -x), with zero A-part exactly when b = A x
    is solvable."""
    for b in targets:
        if len(b) != rows:
            raise DimensionMismatch("rhs length %d, expected %d" % (len(b), rows))
    graph = _graph(ring, cols, rows)

    def one(b):
        r = graph.reduce(list(b) + [0] * len(cols))
        return None if any(r[:rows]) else [ring.neg(e) for e in r[rows:]]

    return [one(b) for b in targets]


def solve(A: Matrix, b: list[int]) -> list[int] | None:
    """Some x with A x = b, or None if no solution exists."""
    return solve_columns(A.ring, A.sparse_cols(), A.rows, [b])[0]


# ---------------------------------------------------------------------------
# Howell form: canonical generating matrix of a row span
# ---------------------------------------------------------------------------

def howell(ring: RingSpec, rows, width: int, corank: int = 0) -> list[list[int]]:
    """The Howell rows of the span of rows, which are read, as `Span.extend`
    reads them, only until the span has width - corank unit pivots.

    corank = 0 is always safe: a span with a unit pivot in every column is
    all of R^width.  A caller passing corank > 0 guarantees that every row
    lies in a free summand S of R^width of rank width - corank.  Once the
    unit-pivot rows, which span a free summand U of that rank, are in, the
    quotient map R^width/U -> R^width/S is onto and both sides are free of
    rank corank, so it is a bijection: U = S, the span is S, and no later
    row changes it or its Howell rows."""
    span = Span(ring, (), width)
    rows = reversed(rows) if isinstance(rows, (list, tuple)) else iter(rows)
    # the bound is tested before each row is drawn, so none is drawn past it
    span.extend(iter(lambda: next(rows, None) if span.units < width - corank else None,
                     None))
    return span.rows


def _add_row(addmul, r, prow, t):
    # r += t * prow, keeping r free of zero entries
    for k, pe in prow.items():
        e = addmul(r.get(k, 0), t, pe)
        if e:
            r[k] = e
        else:
            r.pop(k, None)


class Span:
    """The R-span of some rows of R^width, held as its Howell form and
    grown in place by `extend`: pivots are pure powers p^a in increasing
    column order, each column below a pivot is zero, and for every pivot
    p^a with a > 0 the tail p^{n-a} * row is in the span of the rows below
    it, so every span element whose first j entries vanish is a
    combination of the rows with pivot column >= j.  Pivots and their
    exponents depend only on the span, and so does the form once the
    entries above each pivot p^a are reduced mod p^a, which `rows` does.

    Rows go in one at a time, as sparse {column: entry} dicts, so a
    reduction touches only the pivot row's nonzeros; the form does not
    depend on their order, but its cost does.  A row
    reaching a pivot column reduces against its pivot when its entry's
    valuation is not smaller; otherwise it takes the column, and the old
    pivot row, reduced against it, goes in again, as does the tail of
    every new pivot p^a with a > 0.  Between rows the last property above
    holds, so the span grows exactly when a pivot is set.

    Build it once and ask `contains` many times: the Howell property makes
    membership one greedy pass over the pivot rows in increasing column
    order, and `is_full`, `size`, `reduce` and `contains` read those
    sparse rows as they are.  The dense `rows` are written on first read
    and kept until the span grows."""

    __slots__ = ("ring", "width", "pivots", "units", "_rows")

    def __init__(self, ring: RingSpec, rows, width: int):
        self.ring, self.width, self.units = ring, width, 0  # units: pivots p^0
        # pivot column -> (row, exponent a), in increasing column order
        self.pivots: dict[int, tuple[dict[int, int], int]] = {}
        self._rows: list[list[int]] | None = None
        self.extend(rows)

    def extend(self, rows) -> bool:
        """Insert rows, dense lists or sparse {column: nonzero entry} dicts;
        True when some row lay outside the span.  A list or tuple goes in
        the last row first; any other iterable is read lazily, in the order
        it yields, so a stream of rows is never held whole."""
        ring, pivots = self.ring, self.pivots
        mul, neg, val, addmul = ring.mul, ring.neg, ring.val, ring.addmul
        divide = ring.divide_p_power
        if isinstance(rows, (list, tuple)):
            rows = reversed(rows)
        grew = False
        for row in rows:
            todo = [dict(row) if isinstance(row, dict)
                    else {k: e for k, e in enumerate(row) if e}]
            while todo:
                r = todo.pop()
                while r:
                    j = min(r)
                    e = r[j]
                    a = val(e)
                    piv = pivots.get(j)
                    if piv is not None and piv[1] <= a:
                        _add_row(addmul, r, piv[0], neg(divide(e, piv[1])))
                        continue
                    u_inv = ring.inv(ring.unit_part(e))
                    new = {k: mul(u_inv, x) for k, x in r.items()}
                    pivots[j] = (new, a)
                    grew = True
                    if piv is not None:
                        old = piv[0]
                        _add_row(addmul, old, new, neg(divide(old[j], a)))
                        todo.append(old)
                    if a > 0:
                        tail: dict[int, int] = {}
                        _add_row(addmul, tail, new, ring.p_elem(ring.n - a))
                        todo.append(tail)
                    else:
                        self.units += 1
                    break
        if grew:
            self.pivots, self._rows = dict(sorted(pivots.items())), None
        return grew

    def is_full(self) -> bool:
        """Is the span all of R^width: a unit pivot in every column?"""
        return self.units == self.width

    def size(self) -> int:
        """The number of elements of the span: a row with pivot p^a
        contributes a factor p^(f (n - a))."""
        ring = self.ring
        return ring.p ** (ring.f * sum(ring.n - a for _, a in self.pivots.values()))

    @property
    def rows(self) -> list[list[int]]:
        """The Howell rows, dense, once the entries above each pivot p^a
        are reduced mod p^a."""
        if self._rows is None:
            self._rows = self.tail_rows(0)
        return self._rows

    def tail_rows(self, start: int, sparse: bool = False) -> list:
        """The Howell rows with pivot column >= start, dense from column
        start on (they are zero before it), or if sparse the span's own dicts,
        not to be changed.  Only these rows reduce one another, so they are
        reduced alone, in place; reducing a reduced row again leaves it.
        The last row is reduced first, and each row then against the
        reduced rows below it at its own nonzero pivot columns, in
        increasing order, so the cost follows the rows' nonzeros, not the
        square of their number; the reduced form is unique, so the order
        does not change it."""
        ring, pivots = self.ring, self.pivots
        cols = [j for j in pivots if j >= start]
        for i in reversed(cols):
            row = pivots[i][0]
            todo = sorted(k for k in row if k > i and k in pivots)
            while todo:
                j = heapq.heappop(todo)
                e = row.get(j)
                if e:
                    prow, a = pivots[j]
                    # the residue mod a unit pivot is 0
                    red = ring.reduce_exp(e, a) if a else 0
                    if red != e:
                        fresh = [k for k in prow if k not in row and k in pivots]
                        _add_row(ring.addmul, row, prow,
                                 ring.neg(ring.divide_p_power(ring.sub(e, red), a)))
                        for k in fresh:
                            heapq.heappush(todo, k)
        if sparse:
            return [pivots[j][0] for j in cols]
        out = [[0] * (self.width - start) for _ in cols]
        for row, j in zip(out, cols):
            for k, e in pivots[j][0].items():
                row[k - start] = e
        return out

    def reduce(self, vec) -> list[int]:
        """The canonical normal form of vec modulo the span: in increasing
        column order, the entry at each pivot p^a is reduced mod p^a.  It is
        zero exactly when vec lies in the span, and equal for two vectors
        exactly when they differ by a span element, whether or not the
        entries above the pivots are reduced yet."""
        ring, q = self.ring, self.ring.native_q
        add, mul, red = ring.add, ring.mul, ring.reduce_exp
        r = list(vec)
        for j, (prow, a) in self.pivots.items():
            # over Z/q the entries are plain int sums, reduced when read
            e = r[j] % q if q else r[j]
            if e:
                rest = red(e, a) if a else 0    # the residue mod a unit pivot is 0
                if rest != e:
                    t = ring.neg(ring.divide_p_power(ring.sub(e, rest), a))
                    if q:
                        for k, pe in prow.items():
                            r[k] += t * pe
                    else:
                        for k, pe in prow.items():
                            r[k] = add(r[k], mul(t, pe))
        return [e % q for e in r] if q else r

    def contains(self, vec) -> bool:
        """Is vec an R-combination of the rows?"""
        if len(vec) != self.width:
            raise DimensionMismatch("vector length %d, expected %d"
                                    % (len(vec), self.width))
        return not any(self.reduce(vec))
