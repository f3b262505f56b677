"""Finitely presented modules over a chain ring, in canonical form.

A module is recorded by its exponent list: M = R/p^{e_1} + ... + R/p^{e_r}
with n >= e_1 >= ... >= e_r >= 1 (e = n is a free summand).  Over a chain
ring this classification is complete, so every isomorphism question reduces
to equality of exponent lists.

Elements are tuples of packed ring ints, coordinate i canonical mod p^{e_i}.
A morphism is held in one form, its sparse columns, each entry reduced mod
p^{e_j^dst} and subject to the congruence val(entry (j, i)) >=
max(0, e_j^dst - e_i^src), checked on construction, not a latent
invariant; ModuleMap writes its dense matrix only when it is read.

Every solve and submodule question goes through one spine, on sparse
columns from end to end, which appends the torsion columns of M to the
columns cols of a map into M so that equations hold in M rather than in
its free cover: syzygies(M, cols) generates the relations among cols as
sparse columns, read off the kernel's graph, submodule(M, cols) presents
their span in canonical form, and solve_in(M, cols, targets) expresses
any number of targets in that span from one Howell form of that graph.
presentation_with_torsion(M, cols) is the one place a relation matrix is
written dense, once, as the Matrix module_from_presentation takes to its
Smith form.  A presented
quotient comes with its projection and section as sparse columns, and
every map out of it is descended by one sparse kernel, descend_sparse, on
sparse columns such as those tensor_cols builds for f (x) g from the
nonzeros of f and g; a ModuleMap takes its result as it is.
Kernels and images of maps are submodules.

A Hom module is a coordinate chart: HomData.sparse_coords writes a map
given by sparse columns straight into its coordinates.  hom_equalizer is
the one solver for the maps that satisfy R-linear conditions (comodule
maps, morphisms of filtered modules): each unknown's conditions are sparse
columns in the charts of their Hom modules, stacked into the direct sum
of the charts, and the syzygies of the stack generate the solutions.
commutator_cols writes the linearity condition h x - x h both solvers
impose.

Every canonical sum of summands (a direct sum, M tensor_R N, Hom_R(M, N), a
Smith presentation) is laid out by one helper, canonical_layout, which
orders the summands and records where each lands; a direct sum is that
layout alone, with no injection or projection matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rings import RingSpec
from .linalg import Matrix, DimensionMismatch, smith, kernel, solve_columns


class RingMismatch(ValueError):
    pass


class NotWellDefined(ValueError):
    """A matrix that does not descend to the stated torsion quotients."""


class EnumerationBudget(RuntimeError):
    pass


DEFAULT_ENUM_BUDGET = 65536


class FinModule:
    """R/p^{e_1} + ... + R/p^{e_r} with exps sorted descending."""

    __slots__ = ("ring", "exps")

    def __init__(self, ring: RingSpec, exps):
        exps = tuple(exps)
        if any(not (1 <= e <= ring.n) for e in exps):
            raise ValueError("exponents must lie in 1..n")
        if list(exps) != sorted(exps, reverse=True):
            raise ValueError("exponents must be sorted descending")
        self.ring = ring
        self.exps = exps

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FinModule":
        return cls(ring, (ring.n,) * rank)

    @classmethod
    def zero(cls, ring: RingSpec) -> "FinModule":
        return cls(ring, ())

    @property
    def rank(self) -> int:
        return len(self.exps)

    def is_free(self) -> bool:
        return all(e == self.ring.n for e in self.exps)

    def is_zero(self) -> bool:
        return not self.exps

    def length(self) -> int:
        """Number of composition factors over the prime field: log_p |M|."""
        return sum(self.exps) * self.ring.f

    def cardinality(self) -> int:
        return self.ring.p ** self.length()

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonicalize a raw coordinate vector into this module."""
        red = self.ring.reduce_exp
        return tuple(red(v, e) for v, e in zip(vec, self.exps))

    def gen(self, i: int) -> tuple[int, ...]:
        v = [0] * self.rank
        v[i] = 1
        return tuple(v)

    def add(self, v, w):
        a = self.ring.add
        return self.reduce([a(x, y) for x, y in zip(v, w)])

    def scale(self, c, v):
        m = self.ring.mul
        return self.reduce([m(c, x) for x in v])

    def elements(self, budget: int | None = DEFAULT_ENUM_BUDGET):
        """All elements, each exactly once, lexicographic in canonical
        coordinates.  Restartable (a fresh iterator per call)."""
        if budget is not None and self.cardinality() > budget:
            raise EnumerationBudget("module has %d elements, budget %d"
                                    % (self.cardinality(), budget))
        reps = [_coord_reps(self.ring, e) for e in self.exps]
        return (tuple(t) for t in itertools.product(*reps))

    def __eq__(self, other):
        return (isinstance(other, FinModule) and self.ring == other.ring
                and self.exps == other.exps)

    def __hash__(self):
        return hash((self.ring, self.exps))

    def __repr__(self):
        return "mod(%s) over %s" % (",".join(map(str, self.exps)), self.ring)


_COORD_REPS: dict[tuple, list[int]] = {}


def _coord_reps(ring: RingSpec, e: int) -> list[int]:
    key = (ring, e)
    if key not in _COORD_REPS:
        pe = ring.p**e
        reps = sorted(ring.from_coeffs(t)
                      for t in itertools.product(range(pe), repeat=ring.f))
        _COORD_REPS[key] = reps
    return _COORD_REPS[key]


def canonical_layout(ring: RingSpec, entries) -> tuple[FinModule, dict]:
    """The canonical module with one summand R/p^e per (e, key) entry, and
    the coordinate of each key: summands in descending exponent, ties by
    key.  The dict iterates its keys in coordinate order."""
    entries = sorted(entries, key=lambda t: (-t[0], t[1]))
    return (FinModule(ring, tuple(e for e, _ in entries)),
            {key: r for r, (_, key) in enumerate(entries)})


class ModuleMap:
    """A morphism src -> dst, held in one form, its canonical sparse columns:
    cols[i] is the image of generator i of src, its (row, entry) pairs in
    increasing row order, each entry reduced into dst and nonzero.  It is
    built from sparse columns (any row order, each row at most once) or from
    a Matrix of shape dst.rank x src.rank; unless validate is False, entry
    (j, i) must have valuation >= e_j^dst - e_i^src, and NotWellDefined names
    the first bad entry in row order.  mat is the dense matrix, written on
    first read and not to be changed."""

    __slots__ = ("src", "dst", "cols", "_mat")

    def __init__(self, src: FinModule, dst: FinModule, cols, validate: bool = True):
        dense = isinstance(cols, Matrix)
        if src.ring != dst.ring or (dense and cols.ring != src.ring):
            raise RingMismatch("map pieces over different rings")
        if dense:
            if cols.rows != dst.rank or cols.cols != src.rank:
                raise ValueError("matrix is %dx%d, expected %dx%d"
                                 % (cols.rows, cols.cols, dst.rank, src.rank))
            cols = cols.sparse_cols()
        elif len(cols) != src.rank:
            raise ValueError("%d columns, expected %d" % (len(cols), src.rank))
        red, exps = src.ring.reduce_exp, dst.exps
        self.cols = [[(j, v) for j, a in sorted(col) if (v := red(a, exps[j]))]
                     for col in cols]
        if validate and not src.is_free():
            _check_valuations(self.cols, src, dst)
        self.src, self.dst, self._mat = src, dst, None

    @classmethod
    def zero(cls, src: FinModule, dst: FinModule) -> "ModuleMap":
        return cls(src, dst, [[] for _ in range(src.rank)], validate=False)

    @classmethod
    def identity(cls, M: FinModule) -> "ModuleMap":
        return cls(M, M, [[(i, 1)] for i in range(M.rank)], validate=False)

    @property
    def mat(self) -> Matrix:
        if self._mat is None:
            self._mat = Matrix.from_sparse(self.src.ring, self.cols, self.dst.rank)
        return self._mat

    def apply(self, v) -> tuple[int, ...]:
        if len(v) != self.src.rank:
            raise DimensionMismatch("vector length %d, expected %d"
                                    % (len(v), self.src.rank))
        out = [0] * self.dst.rank
        for j, a in sparse_image([(k, c) for k, c in enumerate(v) if c], self.cols, self.dst):
            out[j] = a
        return tuple(out)

    def _images(self, src: FinModule, vecs, cols) -> "ModuleMap":
        """The map src -> dst whose columns are the images of the sparse
        vectors vecs under the map with sparse columns cols."""
        return ModuleMap(src, self.dst, [sparse_image(v, cols, self.dst) for v in vecs],
                         validate=False)

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """Composition: (g @ h)(v) = g(h(v)); requires h.dst == g.src."""
        if other.dst != self.src:
            raise ValueError("not composable: %r then %r" % (other, self))
        return self._images(other.src, other.cols, self.cols)

    def _plus(self, c: int, other: "ModuleMap", what: str) -> "ModuleMap":
        """self + c other, column by column."""
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("%s of maps with different endpoints" % what)
        k = self.src.rank
        return self._images(self.src, ([(q, 1), (k + q, c)] for q in range(k)),
                            self.cols + other.cols)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return self._plus(1, other, "sum")

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self._plus(self.src.ring.neg(1), other, "difference")

    def __neg__(self) -> "ModuleMap":
        return self.scale(self.src.ring.neg(1))

    def scale(self, c: int) -> "ModuleMap":
        return self._images(self.src, ([(q, c)] for q in range(self.src.rank)), self.cols)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.src == other.src
                and self.dst == other.dst and self.cols == other.cols)

    def __hash__(self):
        return hash((self.src, self.dst, tuple(map(tuple, self.cols))))

    def __repr__(self):
        return "map %r -> %r: %r" % (self.src, self.dst, self.mat)


def torsion_cols(M: FinModule) -> list[list[tuple[int, int]]]:
    """The sparse columns p^{e_i} e_i for the non-free summands: the
    relations of M inside its free cover R^rank."""
    ring = M.ring
    return [[(i, ring.p_elem(e))] for i, e in enumerate(M.exps) if e < ring.n]


@dataclass
class Presentation:
    """coker(P) in canonical form.  proj maps raw coordinates R^rows onto
    canonical coordinates; sect lifts canonical generators (a choice of
    representatives, not a module map).  proj @ sect = identity.  Both are
    sparse columns, proj one per raw coordinate, sect one per generator."""
    module: FinModule
    proj: list[list[tuple[int, int]]]
    sect: list[list[tuple[int, int]]]


def module_from_presentation(P: Matrix) -> Presentation:
    """The canonical form of coker(P), read off the Smith form of P: proj
    from the rows of U^-1 at the kept invariants, sect from the columns of U."""
    ring = P.ring
    n = ring.n
    if P.rows == 0:
        return Presentation(FinModule.zero(ring), [], [])
    sf = smith(P)
    m = min(P.rows, P.cols)
    keep = [(a, i) for i, a in enumerate(sf.invariants) if a > 0]
    keep += [(n, i) for i in range(m, P.rows)]
    M, at = canonical_layout(ring, keep)
    red = ring.reduce_exp
    proj = [[] for _ in range(P.rows)]
    for r, (i, a) in enumerate(zip(at, M.exps)):
        for c, v in sf.u_inv[i]:
            v = red(v, a)
            if v:
                proj[c].append((r, v))
    return Presentation(M, proj, [sf.U[i] for i in at])


def presentation_with_torsion(M: FinModule, cols) -> Presentation:
    """Canonical form of M / (span of cols), for sparse columns cols in
    M-coordinates: they and the torsion columns of M are written into the
    one dense relation matrix that module_from_presentation reads."""
    return module_from_presentation(Matrix.from_sparse(M.ring, cols + torsion_cols(M),
                                                       M.rank))


def sparse_image(vec, cols, dst: FinModule) -> list[tuple[int, int]]:
    """The image of the sparse vector vec under the map with sparse columns
    cols, reduced into dst: its nonzero (index, entry) pairs in order.  Over
    Z/p^n the products are summed as plain ints, reduced once per entry."""
    ring, q = dst.ring, dst.ring.native_q
    add, mul, red, exps = ring.add, ring.mul, ring.reduce_exp, dst.exps
    acc: dict[int, int] = {}
    for k, c in vec:
        if q:
            for r, a in cols[k]:
                acc[r] = acc.get(r, 0) + c * a
        else:
            for r, a in cols[k]:
                acc[r] = add(acc.get(r, 0), mul(c, a))
    out = []
    for r in sorted(acc):
        v = red(acc[r] % q if q else acc[r], exps[r])
        if v:
            out.append((r, v))
    return out


def descend_sparse(cols, rels, sect, dst: FinModule,
                   quotient: FinModule) -> list[list[tuple[int, int]]]:
    """The map quotient -> dst induced by the flat map with sparse columns
    cols, quotient being the flat source modulo the sparse vectors rels and
    sect lifting its generators, as columns reduced into dst.  Raises unless
    the flat map kills every relation and the composite with sect meets the
    valuation condition (the first bad entry in row order, as ModuleMap)."""
    for rel in rels:
        if sparse_image(rel, cols, dst):
            raise ValueError("map does not descend to the quotient")
    out = [sparse_image(s, cols, dst) for s in sect]
    _check_valuations(out, quotient, dst)
    return out


def _check_valuations(cols, src: FinModule, dst: FinModule):
    """Raise NotWellDefined, naming the first bad entry in row order, unless
    every entry (j, i) of the map src -> dst with sparse columns cols has
    valuation >= e_j^dst - e_i^src."""
    val, bad = dst.ring.val, []
    for i, col in enumerate(cols):
        for j, a in col:
            need = dst.exps[j] - src.exps[i]
            if need > 0 and val(a) < need:
                bad.append((j, i, val(a), need))
    if bad:
        raise NotWellDefined("entry (%d,%d) has valuation %d < %d" % min(bad))


# ---------------------------------------------------------------------------
# the solve/submodule spine, and kernels, images, cokernels of module maps
# ---------------------------------------------------------------------------

def syzygies(M: FinModule, cols) -> list[list[tuple[int, int]]]:
    """Sparse columns generating {x : A x = 0 in M}, for the map A into M
    with the sparse columns cols, which go to the kernel's graph as they
    are, with the torsion columns of M: the kernel's columns, cut to the
    coordinates of cols."""
    n = len(cols)
    return [[(i, a) for i, a in col if i < n]
            for col in kernel(M.ring, cols + torsion_cols(M), M.rank)]


def submodule(M: FinModule, cols) -> tuple[FinModule, ModuleMap]:
    """(S, incl) with incl : S -> M the span of the sparse columns cols,
    in canonical form."""
    pres = presentation_with_torsion(FinModule.free(M.ring, len(cols)), syzygies(M, cols))
    return pres.module, ModuleMap(pres.module, M,
                                  [sparse_image(s, cols, M) for s in pres.sect])


def solve_in(M: FinModule, cols, targets) -> list[list[int] | None]:
    """For each target in M, coefficients x with A x = target in M (None
    when the target lies outside the span of the sparse columns cols of
    A), all from one Howell form of the graph of cols and the torsion
    columns of M."""
    sols = solve_columns(M.ring, cols + torsion_cols(M), M.rank, targets)
    return [None if x is None else x[:len(cols)] for x in sols]


def factor_through(incl: ModuleMap, other: ModuleMap) -> ModuleMap | None:
    """g with incl . g = other (unique when incl is injective), from one
    solve_in; None when other does not land in the image of incl."""
    sols = solve_in(incl.dst, incl.cols,
                    [other.apply(other.src.gen(k)) for k in range(other.src.rank)])
    if None in sols:
        return None
    return ModuleMap(other.src, incl.src, [list(enumerate(x)) for x in sols])


def map_kernel(g: ModuleMap) -> tuple[FinModule, ModuleMap]:
    """(K, incl) with incl : K -> src the kernel in canonical form."""
    return submodule(g.src, syzygies(g.dst, g.cols))


def map_cokernel(g: ModuleMap) -> tuple[FinModule, ModuleMap]:
    """(C, proj) with proj : dst -> C the cokernel in canonical form."""
    pres = presentation_with_torsion(g.dst, g.cols)
    return pres.module, ModuleMap(g.dst, pres.module, pres.proj)


def is_injective(g: ModuleMap) -> bool:
    return map_kernel(g)[0].is_zero()


def is_surjective(g: ModuleMap) -> bool:
    return map_cokernel(g)[0].is_zero()


def is_isomorphism(g: ModuleMap) -> bool:
    return (g.src.exps == g.dst.exps and is_injective(g) and is_surjective(g))


# ---------------------------------------------------------------------------
# hom modules
# ---------------------------------------------------------------------------

@dataclass
class HomData:
    """Hom_R(M, N) = sum over (i,j) of R/p^{min(e_i, d_j)}, with the basis
    map for (i,j) sending gen_i to p^{max(0, d_j - e_i)} gen_j; pos[(i, j)]
    is that map's coordinate, and pos iterates in coordinate order."""
    src: FinModule
    dst: FinModule
    module: FinModule
    pos: dict[tuple[int, int], int]

    def _shift(self, i: int, j: int) -> int:
        return max(0, self.dst.exps[j] - self.src.exps[i])

    def basis_cols(self):
        """The sparse columns of each basis map in coordinate order, with no
        matrix built."""
        for i, j in self.pos:
            cols = [[] for _ in range(self.src.rank)]
            cols[i] = [(j, self.src.ring.p_elem(self._shift(i, j)))]
            yield cols

    def sparse_coords(self, cols) -> list[tuple[int, int]]:
        """The coordinates of the map with sparse columns cols, as (index,
        entry) pairs: entry (j, i) divided by p^shift, reduced into the
        summand of (i, j)."""
        ring, exps = self.src.ring, self.module.exps
        out = []
        for i, col in enumerate(cols):
            for j, a in col:
                k = self.pos[(i, j)]
                v = ring.reduce_exp(ring.divide_p_power(a, self._shift(i, j)), exps[k])
                if v:
                    out.append((k, v))
        return out

    def from_coords(self, coords) -> ModuleMap:
        ring = self.src.ring
        cols = [[] for _ in range(self.src.rank)]
        for (i, j), c in zip(self.pos, coords):
            shift = self._shift(i, j)
            cols[i].append((j, ring.mul(c, ring.p_elem(shift)) if shift else c))
        return ModuleMap(self.src, self.dst, cols)


def hom_module(M: FinModule, N: FinModule) -> HomData:
    """Hom_R(M, N) has the summands, and so the layout, of M tensor_R N."""
    if M.ring != N.ring:
        raise RingMismatch("hom of modules over different rings")
    T = tensor_with_data(M, N)
    return HomData(M, N, T.module, T.pos)


def commutator_cols(h, xM, xN, dst: FinModule) -> list[list[tuple[int, int]]]:
    """The sparse columns of h xM - xN h, reduced into dst, for maps
    h : M -> N, xM : M -> M and xN : N -> N given by sparse columns: one
    sparse_image per column, over the columns of h and of xN."""
    neg = dst.ring.neg
    return [sparse_image(col + [(len(h) + r, neg(c)) for r, c in h[q]], h + xN, dst)
            for q, col in enumerate(xM)]


def hom_equalizer(charts: list[HomData], conds) -> list[list[tuple[int, int]]]:
    """Generators of the unknowns on which every R-linear condition
    vanishes, one unknown generator u per entry of conds.  conds[u][t]
    holds the sparse columns of the condition map of u in the Hom module
    charts[t] (empty where it has none); they are written straight into
    the coordinates of the direct sum of the charts, and those columns are
    the kernel's, with its torsion; the solutions are returned as sparse
    columns, as syzygies returns them.  One chart is its own direct sum."""
    if len(charts) == 1:
        return syzygies(charts[0].module, [charts[0].sparse_coords(c[0]) for c in conds])
    tsum = direct_sum([chart.module for chart in charts])
    return syzygies(tsum.module, [[(tsum.place[(t, r)], v) for t, g in enumerate(cond)
                                   for r, v in charts[t].sparse_coords(g)] for cond in conds])


# ---------------------------------------------------------------------------
# tensor products over R and duals
# ---------------------------------------------------------------------------

@dataclass
class TensorData:
    """M tensor_R N in canonical form.

    pos maps a summand pair (i, j) to its position in the sorted exponent
    list; tensor_cols is functorial on maps.
    """
    left: FinModule
    right: FinModule
    module: FinModule
    pos: dict[tuple[int, int], int]


def tensor_with_data(M: FinModule, N: FinModule) -> TensorData:
    if M.ring != N.ring:
        raise RingMismatch("tensor of modules over different rings")
    return TensorData(M, N, *canonical_layout(M.ring, (
        (min(e, d), (i, j)) for i, e in enumerate(M.exps)
        for j, d in enumerate(N.exps))))


def tensor_cols(T: TensorData, f: ModuleMap, g: ModuleMap,
                T2: TensorData) -> list[list[tuple[int, int]]]:
    """The sparse columns of f tensor g : T -> T2, for f : T.left -> T2.left
    and g : T.right -> T2.right.  Column (i, j) is built from the nonzeros
    of column i of f and column j of g only."""
    mul, pos2 = T.left.ring.mul, T2.pos
    fcols, gcols = f.cols, g.cols
    cols = [None] * T.module.rank
    for (i, j), k in T.pos.items():
        cols[k] = [(pos2[(i2, j2)], mul(a, b))
                   for i2, a in fcols[i] for j2, b in gcols[j]]
    return cols


# ---------------------------------------------------------------------------
# direct sums and submodule utilities
# ---------------------------------------------------------------------------

@dataclass
class SumData:
    """The direct sum of mods in canonical form: place[(t, i)] is the
    coordinate of generator i of summand t."""
    module: FinModule
    place: dict[tuple[int, int], int]


def direct_sum(mods: list[FinModule]) -> SumData:
    if not mods:
        raise ValueError("empty direct sum needs a ring")
    ring = mods[0].ring
    if any(m.ring != ring for m in mods):
        raise RingMismatch("direct sum over different rings")
    return SumData(*canonical_layout(ring, (
        (e, (t, i)) for t, m in enumerate(mods) for i, e in enumerate(m.exps))))


def span_elements(ring: RingSpec, rows, width: int,
                  budget: int | None) -> list[list[int]] | None:
    """All elements of the R-span of rows already in Howell form, each
    exactly once (each span element has a unique reduced coefficient
    vector); None when there are more than budget."""
    anns = [ring.n - ring.val(next(v for v in r if v)) for r in rows]
    if budget is not None and ring.p ** (sum(anns) * ring.f) > budget:
        return None
    add, mul = ring.add, ring.mul
    out = []
    for coeffs in itertools.product(*[_coord_reps(ring, a) for a in anns]):
        acc = [0] * width
        for c, r in zip(coeffs, rows):
            if c:
                for k, v in enumerate(r):
                    if v:
                        acc[k] = add(acc[k], mul(c, v))
        out.append(acc)
    return out
