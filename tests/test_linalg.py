import itertools
import random

import pytest

from tannaka_forge import linalg
from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import (Matrix, smith, kernel, solve, solve_columns,
                                  is_invertible, howell, Span, DimensionMismatch)
from tannaka_forge.modules import module_from_presentation
import kernel_reference
from dense_tensor import dense_kernel, inverse
from recognition_reference import span_membership
from smith_reference import (densify, reference_smith, smith_certificate,
                             smith_kernel, smith_solve_columns, smith_inverse)
from test_native_kernels import rand_elem, rand_rows


def rand_matrix(rng, R, rows, cols):
    return Matrix(R, [[rng.randrange(R.size) for _ in range(cols)]
                      for _ in range(rows)], rows, cols)


def same_as_reference(A):
    """smith(A) satisfies its certificate and has the reference's U, U^-1,
    invariants and column swaps; returns the reference, with its D and
    V^-1."""
    sf, ref = smith(A), reference_smith(A)
    smith_certificate(A, sf)
    sf = densify(A.ring, sf)
    assert (sf.U, sf.u_inv, sf.invariants, sf.perm) == \
        (ref.U, ref.u_inv, ref.invariants, ref.perm)
    return ref


def test_smith_identity(Z8):
    ref = same_as_reference(Matrix.identity(Z8, 3))
    assert ref.invariants == (0, 0, 0)
    assert ref.D == Matrix.identity(Z8, 3)


def test_smith_single_entry(Z8):
    ref = same_as_reference(Matrix.from_rows(Z8, [[2]]))
    assert ref.invariants == (1,)
    assert ref.D.data == [[2]]


def test_smith_spec_example(Z8):
    A = Matrix.from_rows(Z8, [[2, 4], [6, 4]])
    ref = same_as_reference(A)
    assert ref.invariants == (1, 3)
    assert ref.D.data[0][0] == 2 and ref.D.data[1][1] == 0
    assert ref.u_inv @ A @ ref.v_inv == ref.D
    # |coker| = |R/p| * |R/p^3| = 2 * 8 = 16, confirmed by enumeration
    count = 0
    span = set()
    for x, y in itertools.product(range(8), repeat=2):
        v = tuple(A.apply([x, y]))
        span.add(v)
    assert 64 // len(span) == 16


def test_smith_random_udv():
    rng = random.Random(42)
    for R in (ring_make(2, 3, 1), ring_make(2, 1, 2), ring_make(2, 2, 2)):
        for _ in range(250):
            A = rand_matrix(rng, R, rng.randint(0, 6), rng.randint(0, 6))
            sf = same_as_reference(A)
            assert sf.u_inv @ A @ sf.v_inv == sf.D
            assert sf.U @ sf.u_inv == Matrix.identity(R, A.rows)
            assert is_invertible(sf.u_inv) and is_invertible(sf.v_inv)
            assert list(sf.invariants) == sorted(sf.invariants)
            m = min(A.rows, A.cols)
            for i in range(m):
                for j in range(m):
                    if i != j:
                        assert sf.D.data[i][j] == 0
                # the diagonal is a pure power of p
                a = sf.invariants[i]
                assert sf.D.data[i][i] == R.p_elem(a) or \
                    (a == R.n and sf.D.data[i][i] == 0)


SMITH_RINGS = [(2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 64, 1),
               (2, 3, 3), (2, 1, 1), (2, 2, 1), (3, 64, 7)]


def any_density(rng, R):
    """A 0-8 x 0-8 matrix whose entries are nonzero with a probability
    drawn for the matrix, and which may have an all-zero row and column."""
    r, c, d = rng.randint(0, 8), rng.randint(0, 8), rng.random()
    rows = [[rand_elem(rng, R) if rng.random() < d else 0 for _ in range(c)]
            for _ in range(r)]
    if r and rng.random() < 0.25:
        rows[rng.randrange(r)] = [0] * c
    if c and rng.random() < 0.25:
        j = rng.randrange(c)
        for row in rows:
            row[j] = 0
    return Matrix(R, rows, r, c)


@pytest.mark.parametrize("pnf", SMITH_RINGS, ids=[
    "Z8", "Z9", "F4", "GR(4,2)", "GR(8,2)", "Z2^64", "GR(8,3)", "F2", "Z4",
    "GR(3^64,7)"])
def test_smith_matches_reference(pnf):
    # per ring, 300 seeded matrices (0-6 x 0-6) whose entries are zeros,
    # random elements (mostly units) and multiples of p^k, then 150 of any
    # density; over GR(3^64,7), where every unit pivot costs an inverse of
    # about 0.1 s, 4 and 8
    R = ring_make(*pnf)
    rng = random.Random(sum(pnf) * 131 + pnf[0])
    few = pnf == (3, 64, 7)
    swapped = 0
    for _ in range(4 if few else 300):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        A = Matrix(R, rand_rows(rng, R, r, c), r, c)
        same_as_reference(A)
        swapped += smith(A).perm != tuple(range(c))
    for _ in range(8 if few else 150):
        A = any_density(rng, R)
        same_as_reference(A)
        swapped += smith(A).perm != tuple(range(A.cols))
    assert swapped     # the column swaps are exercised


def test_smith_builds_no_matrix(monkeypatch):
    # U and U^-1 are kept as sparse columns and rows: a seeded 60 x 60
    # matrix with 5% nonzeros is reduced without constructing a Matrix
    R = ring_make(2, 2, 2)
    rng = random.Random(60)
    A = Matrix(R, [[rand_elem(rng, R) if rng.random() < 0.05 else 0
                    for _ in range(60)] for _ in range(60)], 60, 60)
    built, init = [], Matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Matrix, "__init__", counted)
        smith(A)
    assert not built
    same_as_reference(A)


def test_smith_deterministic(Z8):
    A = Matrix.from_rows(Z8, [[2, 4], [6, 4]])
    s1, s2 = smith(A), smith(A)
    assert s1 == s2


def test_kernel_spec_example(Z8):
    A = Matrix.from_rows(Z8, [[2]])
    K = dense_kernel(A)
    assert K.cols == 1 and K.col(0) == [4]


def test_kernel_cokernel_vs_enumeration():
    rng = random.Random(9)
    for R in (ring_make(2, 2, 1), ring_make(2, 1, 2), ring_make(3, 1, 1)):
        assert R.size <= 16
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            A = rand_matrix(rng, R, rows, cols)
            brute = {v for v in itertools.product(range(R.size), repeat=cols)
                     if not any(A.apply(list(v)))}
            K = dense_kernel(A)
            spanned = set()
            for coeffs in itertools.product(range(R.size), repeat=K.cols):
                spanned.add(tuple(K.apply(list(coeffs))) if K.cols
                            else (0,) * cols)
            assert brute == spanned
            # cokernel size from invariants equals the enumeration count
            img = {tuple(A.apply(list(v)))
                   for v in itertools.product(range(R.size), repeat=cols)}
            exps = module_from_presentation(A).module.exps
            size = 1
            for e in exps:
                size *= R.p ** (e * R.f)
            assert size * len(img) == R.size ** rows


def test_solve_iff_in_span():
    rng = random.Random(31)
    for R in (ring_make(2, 2, 1), ring_make(2, 1, 2)):
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            A = rand_matrix(rng, R, rows, cols)
            img = {tuple(A.apply(list(v)))
                   for v in itertools.product(range(R.size), repeat=cols)}
            for b in itertools.product(range(R.size), repeat=rows):
                x = solve(A, list(b))
                assert (x is not None) == (b in img)
                if x is not None:
                    assert tuple(A.apply(x)) == b


def test_solve_identity(Z8):
    assert solve(Matrix.identity(Z8, 3), [1, 2, 3]) == [1, 2, 3]


def test_solve_shape_mismatch(Z8):
    with pytest.raises(DimensionMismatch):
        solve(Matrix.identity(Z8, 2), [1, 2, 3])


def test_is_invertible_unit(Z8):
    assert is_invertible(Matrix.from_rows(Z8, [[3]]))
    assert not is_invertible(Matrix.from_rows(Z8, [[2]]))
    A = Matrix.from_rows(Z8, [[1, 2], [3, 4]])
    if is_invertible(A):
        assert A @ inverse(A) == Matrix.identity(Z8, 2)


def test_howell_is_canonical():
    rng = random.Random(77)
    for R in (ring_make(2, 3, 1), ring_make(2, 1, 2), ring_make(2, 2, 2)):
        for _ in range(80):
            w = rng.randint(1, 4)
            gens = [[rng.randrange(R.size) for _ in range(w)]
                    for _ in range(rng.randint(0, 3))]
            h1 = howell(R, gens, w)
            g2 = [list(g) for g in gens]
            rng.shuffle(g2)
            for _ in range(4):
                if len(g2) >= 2:
                    i, j = rng.sample(range(len(g2)), 2)
                    c = rng.randrange(R.size)
                    g2[i] = [R.add(a, R.mul(c, b)) for a, b in zip(g2[i], g2[j])]
                if g2:
                    g2.append([R.mul(R.p_elem(1), a) for a in g2[0]])
            assert howell(R, g2, w) == h1


def test_howell_spans_same_submodule(Z4):
    rng = random.Random(13)
    for _ in range(30):
        w = 3
        gens = [[rng.randrange(4) for _ in range(w)] for _ in range(2)]
        rows = howell(Z4, gens, w)
        def span_of(rws):
            out = set()
            for coeffs in itertools.product(range(4), repeat=len(rws)):
                acc = [0] * w
                for c, r in zip(coeffs, rws):
                    for k in range(w):
                        acc[k] = Z4.add(acc[k], Z4.mul(c, r[k]))
                out.add(tuple(acc))
            return out
        assert span_of(gens) == span_of(rows)


def test_span_membership(Z8):
    gens = [[2, 0], [0, 4]]
    assert span_membership(Z8, gens, [4, 4]) is not None
    assert span_membership(Z8, gens, [1, 0]) is None
    assert span_membership(Z8, [], [0, 0]) == []
    assert span_membership(Z8, [], [1, 0]) is None


def test_span_contains_agrees_with_span_membership():
    # Howell reduction against a Smith solve, on targets inside the span
    # (random combinations), outside it (a unit in column 0, where every
    # generator has an entry in pR), and drawn at random
    rng = random.Random(404)
    seen = {True: 0, False: 0}
    for R in (ring_make(2, 1, 1), ring_make(2, 3, 1), ring_make(3, 2, 1),
              ring_make(2, 1, 2), ring_make(2, 2, 2)):
        p = R.p_elem(1) if R.n > 1 else 0
        for _ in range(120):
            w = rng.randint(1, 6)
            gens = [[rng.randrange(R.size) for _ in range(w)]
                    for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.5:
                for g in gens:
                    g[0] = R.mul(p, g[0])
            span = Span(R, gens, w)
            for _ in range(6):
                comb = [0] * w
                for g in gens:
                    c = rng.randrange(R.size)
                    comb = [R.add(a, R.mul(c, b)) for a, b in zip(comb, g)]
                assert span.contains(comb)
                assert span_membership(R, gens, comb) is not None
                if all(R.val(g[0]) > 0 for g in gens if g[0]):
                    out = [R.add(comb[0], R.one)] + comb[1:]
                    assert not span.contains(out)
                    assert span_membership(R, gens, out) is None
                    seen[False] += 1
                target = [rng.randrange(R.size) for _ in range(w)]
                got = span.contains(target)
                assert got == (span_membership(R, gens, target) is not None)
                seen[got] += 1
    assert seen[True] and seen[False]


def test_span_contains_howell_tail(Z4):
    # 2 * [2, 1] = [0, 2]: only the re-inserted tail row of the Howell form
    # has its pivot in column 1
    span = Span(Z4, [[2, 1]], 2)
    assert span.rows == [[2, 1], [0, 2]]
    assert span.contains([0, 2])
    assert not span.contains([0, 1])
    with pytest.raises(DimensionMismatch):
        span.contains([0, 2, 0])


# F2, Z/4, Z/8, Z/9, F4, GR(4,2) and GR(8,2)
GRAPH_RINGS = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2),
               (2, 3, 2)]


def graph_cases(seed, per_ring):
    """Seeded matrices over GRAPH_RINGS with 0 to 5 rows and columns, a
    third of them square; entries are zero with probability 0.3, and half
    the matrices have one row multiplied by p, so that kernels, failed
    solves and non-unit pivots all occur."""
    rng = random.Random(seed)
    for pnf in GRAPH_RINGS:
        R = ring_make(*pnf)
        for t in range(per_ring):
            rows = rng.randint(0, 5)
            cols = rows if t % 3 == 0 else rng.randint(0, 5)
            A = Matrix(R, [[rng.randrange(R.size) if rng.random() < 0.7 else 0
                            for _ in range(cols)] for _ in range(rows)], rows, cols)
            if rows and t % 2:
                i = rng.randrange(rows)
                A.data[i] = [R.mul(R.p_elem(1), a) for a in A.data[i]]
            yield rng, A


def _inverse_or_none(inv, A):
    try:
        return inv(A)
    except DimensionMismatch:
        return None


def test_graph_solves_match_smith_reference():
    # kernels, solves and inverses from the Howell form of the graph
    # [A^T | I] against the Smith path they replaced
    seen = {"zero-rows": 0, "zero-cols": 0, "kernel": 0, "unsolvable": 0,
            "invertible": 0, "singular": 0}
    for rng, A in graph_cases(21, 170):
        R, rows, cols = A.ring, A.rows, A.cols
        K, K_ref = dense_kernel(A), smith_kernel(A)
        assert K.rows == cols
        for j in range(K.cols):
            assert not any(A.apply(K.col(j)))
        ref_span = Span(R, [K_ref.col(j) for j in range(K_ref.cols)], cols)
        assert howell(R, [K.col(j) for j in range(K.cols)], cols) == ref_span.rows
        targets = [A.apply([rng.randrange(R.size) for _ in range(cols)])
                   for _ in range(2)]
        targets += [[rng.randrange(R.size) for _ in range(rows)] for _ in range(2)]
        for x, x_ref, b in zip(solve_columns(R, A.sparse_cols(), rows, targets),
                               smith_solve_columns(A, targets), targets):
            assert (x is None) == (x_ref is None)
            if x is not None:
                assert A.apply(x) == b
                assert ref_span.contains([R.sub(a, c) for a, c in zip(x, x_ref)])
            seen["unsolvable"] += x is None
        inv = _inverse_or_none(inverse, A)
        assert inv == _inverse_or_none(smith_inverse, A)
        assert is_invertible(A) == (inv is not None)
        seen["zero-rows"] += rows == 0
        seen["zero-cols"] += cols == 0
        seen["kernel"] += bool(ref_span.rows)
        seen["invertible" if inv is not None else "singular"] += rows == cols
    assert all(seen.values()), seen


def test_span_reduce_is_a_normal_form():
    # on the graph spans of graph_cases: reduce(v) is zero exactly on the
    # span (decided by a Smith solve), is the same on v and v + s for every
    # span element s, and is its own normal form
    seen = {True: 0, False: 0}
    for rng, A in graph_cases(22, 30):
        R, width = A.ring, A.rows + A.cols
        graph = linalg._graph(R, A.sparse_cols(), A.rows)
        gens = [A.col(j) + [1 if k == j else 0 for k in range(A.cols)]
                for j in range(A.cols)]
        for _ in range(4):
            v = [rng.randrange(R.size) for _ in range(width)]
            s = [0] * width
            for g in gens:
                c = rng.randrange(R.size)
                s = [R.add(a, R.mul(c, b)) for a, b in zip(s, g)]
            red = graph.reduce(v)
            inside = not any(red)
            assert inside == graph.contains(v) == (span_membership(R, gens, v) is not None)
            assert graph.reduce([R.add(a, b) for a, b in zip(v, s)]) == red
            assert graph.reduce(red) == red
            assert not any(graph.reduce(s))
            seen[inside] += 1
    assert seen[True] and seen[False]


def test_kernels_solves_and_inverses_run_no_smith(monkeypatch, Z8):
    def no_smith(A):
        raise AssertionError("smith called")

    monkeypatch.setattr(linalg, "smith", no_smith)
    A = Matrix.from_rows(Z8, [[1, 2], [3, 4]])
    assert len(kernel(Z8, A.sparse_cols(), A.rows)) == 1
    assert solve_columns(Z8, A.sparse_cols(), A.rows, [[1, 3], [0, 1]])[0] == [1, 0]
    assert is_invertible(Matrix.from_rows(Z8, [[1, 2], [3, 5]]))
    assert inverse(Matrix.from_rows(Z8, [[3]])) == Matrix.from_rows(Z8, [[3]])


def test_kernel_matches_full_graph_reference():
    # kernel reduces and writes only the graph's Howell rows with pivot
    # column >= A.rows; the reference writes every row and keeps those
    # with zero A-part
    rng = random.Random(31)
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 64)):
        R = ring_make(p, n, 1)
        nonzero = 0
        for _ in range(60):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            A = Matrix(R, rand_rows(rng, R, rows, cols), rows, cols)
            K = dense_kernel(A)
            assert K == kernel_reference.kernel(A)
            nonzero += K.cols > 0
        assert nonzero
