"""Reference for ``linalg.kernel``: the kernel as it was read before
`Span.tail_rows`, off every dense Howell row of the graph, keeping those
with zero A-part.  Kept only to be tested against."""

from __future__ import annotations

from tannaka_forge.linalg import Matrix, _graph


def kernel(A: Matrix) -> Matrix:
    """Columns generate {v : A v = 0} as an R-module: the graph's Howell rows
    with zero A-part.  By the Howell property they span every graph element
    (0, v), and they depend only on A."""
    m = A.rows
    gens = [r[m:] for r in _graph(A.ring, A.sparse_cols(), m).rows if not any(r[:m])]
    return Matrix.from_cols(A.ring, gens, A.cols)
