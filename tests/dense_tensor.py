"""The dense matrices of a tensor over B, for tests that multiply or compare
them.  A ``BTensor`` holds its projection, section, middle relations and
outer actions only as sparse columns; ``dense`` writes them out, entry for
entry, as the projection ``ModuleMap`` TR.module -> module, the section
``Matrix`` (its entries unreduced, as the section records them), the
relation ``Matrix`` over TR.module and the left and right actions as
``ModuleMap``s module -> module (None where the tensor records none).

``embed`` is the pure-tensor embedding of a ``TensorData``: v (x) w as an
element of M tensor_R N.  ``pure_sum`` is the dense form of
``BTensor.pure_sum``, kept as its reference: dense vectors in, a dense
element of the quotient out; ``pure`` is one v (x) w.  ``map_tensor``,
``descend_map`` and ``descend`` are the dense forms of
``modules.tensor_cols``, ``modules.descend_sparse`` and
``algebra.descend_cols``: the same kernels, on and to dense maps, for
the references and tests that multiply them.  ``dense_lift`` writes the
flat lift of a map into a tensor over B out as a dense matrix, and
``deltahat`` and ``rhohat`` apply it to a coalgebra's delta and a
comodule's rho.  ``bmat_to_rmat`` writes ``AlgebraSpec.bmat_cols`` out as
a dense R-matrix.

``DenseModuleMap`` is ``ModuleMap`` as it was when it held a dense matrix:
reduced row by row into dst and validated on it.  It is the reference
tests/test_module_map.py checks the sparse-column map against.

``torsion_matrix`` writes ``modules.torsion_cols`` out as a dense matrix,
for the references that augment a dense map by the torsion of its target,
and ``inverse`` is the dense inverse of a square matrix, read off the
graph solves of ``linalg.solve_columns`` with the identity's columns as
targets.  ``dense_kernel`` writes the sparse columns of ``linalg.kernel``
out as a dense matrix, and ``inject`` places an element of one summand of
a ``modules.SumData`` in the direct sum."""

from __future__ import annotations

from dataclasses import dataclass

from tannaka_forge.linalg import DimensionMismatch, Matrix, kernel, solve_columns
from tannaka_forge.modules import (ModuleMap, NotWellDefined, RingMismatch,
                                   descend_sparse, tensor_cols, torsion_cols)
from tannaka_forge.algebra import descend_cols


@dataclass
class DenseTensor:
    proj: ModuleMap
    sect: Matrix
    rel_cols: Matrix
    left: ModuleMap | None
    right: ModuleMap | None


def dense(data) -> DenseTensor:
    R, flat, mod = data.alg.R, data.TR.module, data.module
    proj = ModuleMap(flat, mod, data.proj_cols, validate=False)
    rels = Matrix.from_sparse(R, data.rels, flat.rank)
    left, right = (None if cols is None else ModuleMap(mod, mod, cols, validate=False)
                   for cols in (data.left, data.right))
    return DenseTensor(proj, Matrix.from_sparse(R, data.sect_cols, flat.rank), rels,
                       left, right)


def embed(T, v, w) -> tuple[int, ...]:
    ring = T.left.ring
    out = [0] * T.module.rank
    for i, a in enumerate(v):
        if a:
            for j, b in enumerate(w):
                if b:
                    k = T.pos[(i, j)]
                    out[k] = ring.add(out[k], ring.mul(a, b))
    return T.module.reduce(out)


def pure_sum(data, pairs) -> tuple[int, ...]:
    """The sum of v (x) w over the (v, w) pairs of dense vectors, as a
    dense element of data.module: the products accumulated entry by entry
    over the flat pairs, then projected."""
    add, mul, pos = data.alg.R.add, data.alg.R.mul, data.TR.pos
    acc: dict[int, int] = {}
    for v, w in pairs:
        for i, a in enumerate(v):
            if a:
                for j, b in enumerate(w):
                    if b:
                        k = pos[(i, j)]
                        acc[k] = add(acc.get(k, 0), mul(a, b))
    out = [0] * data.module.rank
    for r, a in data.project([acc.items()])[0]:
        out[r] = a
    return tuple(out)


def pure(data, v, w) -> tuple[int, ...]:
    """v (x) w for dense v and w, as a dense element of data.module."""
    return pure_sum(data, ((v, w),))


def map_tensor(T, f, g, T2) -> ModuleMap:
    """f tensor g : T -> T2 as a module map."""
    return ModuleMap(T.module, T2.module, tensor_cols(T, f, g, T2), validate=False)


def descend_map(flat: ModuleMap, rels, quotient, sect: Matrix) -> ModuleMap:
    """descend_sparse for a dense flat map, dense relation vectors rels and
    a dense section sect."""
    rels = [[(k, a) for k, a in enumerate(rel) if a] for rel in rels]
    return ModuleMap(quotient, flat.dst, descend_sparse(
        flat.mat.sparse_cols(), rels, sect.sparse_cols(), flat.dst, quotient), validate=False)


def descend(data, flat: ModuleMap) -> ModuleMap:
    """descend_cols for a dense flat map."""
    return ModuleMap(data.module, flat.dst,
                     descend_cols(data, flat.mat.sparse_cols(), flat.dst), validate=False)


def dense_lift(data, phi: ModuleMap) -> Matrix:
    """The flat lift sect @ phi.mat of phi into data.TR.module, dense and
    unreduced, entry by entry: the dense form of ``BTensor.lift``."""
    R = data.alg.R
    out = Matrix.zeros(R, data.TR.module.rank, phi.src.rank)
    for q, col in enumerate(phi.mat.sparse_cols()):
        for r, c in col:
            for t, s in data.sect_cols[r]:
                out.data[t][q] = R.add(out.data[t][q], R.mul(s, c))
    return out


def deltahat(C) -> Matrix:
    """The dense flat lift of a coalgebra's delta into C.cc.TR."""
    return dense_lift(C.cc, C.delta)


def rhohat(Mc) -> Matrix:
    """The dense flat lift of a comodule's rho into Mc.cm.TR."""
    return dense_lift(Mc.cm, Mc.rho)


def bmat_to_rmat(alg, M: Matrix) -> Matrix:
    """The B-matrix M as a dense R-matrix: alg.bmat_cols written out."""
    return Matrix.from_sparse(alg.R, alg.bmat_cols(M), M.rows * alg.fb)


class DenseModuleMap:
    """A morphism src -> dst given by mat (dst.rank x src.rank), entries
    reduced mod p^{e_j^dst}, with the valuation condition checked row by
    row unless validate is False."""

    def __init__(self, src, dst, mat: Matrix, validate: bool = True):
        if src.ring != dst.ring or mat.ring != src.ring:
            raise RingMismatch("map pieces over different rings")
        if mat.rows != dst.rank or mat.cols != src.rank:
            raise ValueError("matrix is %dx%d, expected %dx%d"
                             % (mat.rows, mat.cols, dst.rank, src.rank))
        ring = src.ring
        n = ring.n
        if not (src.is_free() and dst.is_free()):
            red, val = ring.reduce_exp, ring.val
            data = []
            for j in range(dst.rank):
                ej = dst.exps[j]
                row = [red(a, ej) for a in mat.data[j]] if ej < n else list(mat.data[j])
                if validate:
                    for i, a in enumerate(row):
                        need = ej - src.exps[i]
                        if need > 0 and val(a) < need:
                            raise NotWellDefined(
                                "entry (%d,%d) has valuation %d < %d"
                                % (j, i, val(a), need))
                data.append(row)
            mat = Matrix(ring, data, dst.rank, src.rank)
        self.src, self.dst, self.mat = src, dst, mat

    def apply(self, v) -> tuple[int, ...]:
        return self.dst.reduce(self.mat.apply(list(v)))

    def __matmul__(self, other: "DenseModuleMap") -> "DenseModuleMap":
        if other.dst != self.src:
            raise ValueError("not composable")
        return DenseModuleMap(other.src, self.dst, self.mat @ other.mat, validate=False)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __eq__(self, other):
        return (isinstance(other, DenseModuleMap) and self.src == other.src
                and self.dst == other.dst and self.mat == other.mat)

    def __hash__(self):
        return hash((self.src, self.dst, self.mat))


def torsion_matrix(M) -> Matrix:
    """torsion_cols as a dense matrix."""
    return Matrix.from_sparse(M.ring, torsion_cols(M), M.rank)


def inverse(A: Matrix) -> Matrix:
    """The inverse of A; DimensionMismatch when A is not invertible."""
    if A.rows == A.cols:
        sols = solve_columns(A.ring, A.sparse_cols(), A.rows,
                             Matrix.identity(A.ring, A.rows).data)
        if None not in sols:
            return Matrix.from_cols(A.ring, sols, A.rows)
    raise DimensionMismatch("matrix is not invertible")


def dense_kernel(A: Matrix) -> Matrix:
    """linalg.kernel of A, its sparse columns written out as a dense matrix
    with A.cols rows."""
    return Matrix.from_sparse(A.ring, kernel(A.ring, A.sparse_cols(), A.rows), A.cols)


def inject(sd, t: int, v) -> tuple[int, ...]:
    """The element v of summand t of the direct sum sd, as an element of
    the sum."""
    out = [0] * sd.module.rank
    for i, a in enumerate(v):
        out[sd.place[(t, i)]] = a
    return tuple(out)
