"""The Z/p^n fast paths of the matrix kernels, against ring-method loops.

Over R = Z/p^n (f = 1) the kernels Matrix.__matmul__, modules.sparse_image
and Span.reduce sum plain int products and reduce mod q once per entry, and
linalg.howell and smith's row and column updates make one int addmul
(x + c * a) % q per term.  Each is compared here with the same computation
through R.add and R.mul: an explicit loop where the kernel is short, and
otherwise the kernel itself on a copy of R whose native_q is None and whose
addmul goes through R.add and R.mul, so that it takes its ring-method
branch (and, for howell, the dense reference).  The rings are Z/8 and Z/9 and the two whose q is far above a
machine word, Z/2^64 and Z/3^64.  The untabled Witt rings GR(2^64,12) and
GR(3^64,7) are checked element by element against polynomial arithmetic
mod h.
"""

import copy
import random

import pytest

from tannaka_forge.linalg import Matrix, Span, howell, smith
from tannaka_forge.modules import FinModule, sparse_image
from tannaka_forge.rings import NonUnitError, _poly_mod, _poly_mul, ring_make

from howell_reference import dense_howell
from smith_reference import densify, reference_smith, smith_certificate

NATIVE = [(2, 3), (3, 2), (2, 64), (3, 64)]
IDS = ["Z/%d^%d" % pn for pn in NATIVE]


def generic(R):
    """R with its kernels' fast path off: the same ring, native_q None and
    addmul through the ring's add and mul."""
    G = copy.copy(R)
    G.native_q = None
    G.addmul = lambda x, c, a: R.add(x, R.mul(c, a))
    return G


def rand_elem(rng, R):
    """Zero, a random element, or a random multiple of p^k, k in 1..n-1."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 3 and R.n > 1:
        return R.mul(R.p_elem(rng.randrange(1, R.n)), rng.randrange(R.size))
    return rng.randrange(R.size)


def rand_rows(rng, R, rows, cols):
    return [[rand_elem(rng, R) for _ in range(cols)] for _ in range(rows)]


def ring_matmul(R, A, B):
    out = [[0] * len(B[0]) if B else [] for _ in A]
    for i, row in enumerate(A):
        for j in range(len(out[i])):
            acc = 0
            for k, a in enumerate(row):
                acc = R.add(acc, R.mul(a, B[k][j]))
            out[i][j] = acc
    return out


@pytest.mark.parametrize("pn", NATIVE, ids=IDS)
def test_matmul_matches_ring_loop(pn):
    R = ring_make(pn[0], pn[1], 1)
    G = generic(R)
    rng = random.Random(pn[1] * 31 + pn[0])
    for _ in range(80):
        r, k, c = (rng.randint(0, 5) for _ in range(3))
        A, B = rand_rows(rng, R, r, k), rand_rows(rng, R, k, c)
        ref = ring_matmul(R, A, B) if k else [[0] * c for _ in range(r)]
        assert (Matrix(R, A, r, k) @ Matrix(R, B, k, c)).data == ref
        assert (Matrix(G, A, r, k) @ Matrix(G, B, k, c)).data == ref


@pytest.mark.parametrize("pn", NATIVE, ids=IDS)
def test_sparse_image_matches_ring_loop(pn):
    R = ring_make(pn[0], pn[1], 1)
    rng = random.Random(pn[1] * 37 + pn[0])
    reduced = 0
    for _ in range(120):
        src, dst = rng.randint(1, 6), rng.randint(1, 6)
        M = FinModule(R, sorted((rng.randint(1, R.n) for _ in range(dst)),
                                reverse=True))
        cols = [[(r, a) for r in range(dst) if (a := rand_elem(rng, R))]
                for _ in range(src)]
        vec = [(k, c) for k in range(src) if (c := rand_elem(rng, R))]
        acc = [0] * dst
        for k, c in vec:
            for r, a in cols[k]:
                acc[r] = R.add(acc[r], R.mul(c, a))
        ref = [(r, v) for r, v in enumerate(M.reduce(acc)) if v]
        out = sparse_image(vec, cols, M)
        assert out == ref
        reduced += sum(1 for r, v in enumerate(acc) if v and not M.reduce(acc)[r])
    assert reduced  # some entries vanish only in the torsion quotient


@pytest.mark.parametrize("pn", NATIVE, ids=IDS)
def test_howell_and_span_reduce_match_ring_methods(pn):
    R = ring_make(pn[0], pn[1], 1)
    G = generic(R)
    rng = random.Random(pn[1] * 41 + pn[0])
    nonunit = 0
    for _ in range(60):
        rows, width = rng.randint(0, 6), rng.randint(1, 6)
        data = rand_rows(rng, R, rows, width)
        if rows and rng.random() < 0.5:
            # a combination of the rows, so that one insertion reduces to 0
            cs = [rand_elem(rng, R) for _ in data]
            data.append([0] * width)
            for c, row in zip(cs, data):
                data[-1] = [R.add(x, R.mul(c, y)) for x, y in zip(data[-1], row)]
        H = howell(R, data, width)
        assert H == howell(G, data, width) == dense_howell(R, data, width)
        nonunit += sum(1 for row in H if R.val(next(e for e in row if e)))
        S, SG = Span(R, data, width), Span(G, data, width)
        for _ in range(6):
            v = [rand_elem(rng, R) for _ in range(width)]
            assert S.reduce(v) == SG.reduce(v)
            inside = [0] * width
            for row in data:
                c = rand_elem(rng, R)
                inside = [R.add(x, R.mul(c, y)) for x, y in zip(inside, row)]
            assert not any(S.reduce(inside)) and not any(SG.reduce(inside))
            moved = [R.add(x, y) for x, y in zip(v, inside)]
            assert S.reduce(moved) == S.reduce(v)
    if R.n > 1:
        assert nonunit  # pivots p^a with a > 0 occur


@pytest.mark.parametrize("pn", NATIVE, ids=IDS)
def test_smith_matches_ring_methods(pn):
    R = ring_make(pn[0], pn[1], 1)
    G = generic(R)
    rng = random.Random(pn[1] * 43 + pn[0])
    for _ in range(60):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        data = rand_rows(rng, R, r, c)
        A = Matrix(R, data, r, c)
        sf, ref = smith(A), smith(Matrix(G, [row[:] for row in data], r, c))
        assert sf.invariants == ref.invariants and sf.perm == ref.perm
        smith_certificate(A, sf)
        sf, ref = densify(R, sf), densify(G, ref)
        for name in ("U", "u_inv"):
            assert getattr(sf, name).data == getattr(ref, name).data, name
        old = reference_smith(A)
        assert (sf.U, sf.u_inv, sf.invariants) == (old.U, old.u_inv, old.invariants)


def poly_reference_mul(R, a, b):
    prod = _poly_mul(list(R.coeffs(a)), list(R.coeffs(b)), R.q)
    rem = _poly_mod(prod, list(R.h), R.q) if len(prod) > R.f else prod
    return R.from_coeffs(rem + [0] * (R.f - len(rem)))


def coeff_val(R, a):
    vals = [R.n]
    for c in R.coeffs(a):
        if c:
            v = 0
            while c % R.p == 0:
                c //= R.p
                v += 1
            vals.append(v)
    return min(vals)


@pytest.mark.parametrize("pnf", [(2, 64, 1), (3, 64, 1), (2, 64, 12), (3, 64, 7)],
                         ids=lambda t: "GR(%d^%d,%d)" % t)
def test_large_ring_elements_match_polynomial_arithmetic(pnf):
    R = ring_make(*pnf)
    q = R.q
    rng = random.Random(pnf[0] * 100 + pnf[2])
    els = [0, 1, R.x, R.p_elem(1), R.p_elem(R.n - 1)] + \
        [rand_elem(rng, R) for _ in range(19)]
    units = 0
    for a in els:
        ca = R.coeffs(a)
        assert R.from_coeffs(ca) == a
        assert R.neg(a) == R.from_coeffs([-c for c in ca])
        assert R.val(a) == coeff_val(R, a)
        if R.val(a) == 0:
            units += 1
            assert R.mul(a, R.inv(a)) == 1
        else:
            with pytest.raises(NonUnitError):
                R.inv(a)
        # sigma(a) = a^p mod p, and sigma^f = id
        assert R.val(R.sub(R.frobenius(a), R.pow(a, R.p))) >= 1
        b = a
        for _ in range(R.f):
            b = R.frobenius(b)
        assert b == a
        for b in els:
            cb = R.coeffs(b)
            assert R.add(a, b) == R.from_coeffs([x + y for x, y in zip(ca, cb)])
            assert R.sub(a, b) == R.from_coeffs([x - y for x, y in zip(ca, cb)])
            assert R.mul(a, b) == poly_reference_mul(R, a, b)
            assert R.addmul(a, b, els[-1]) == R.add(a, poly_reference_mul(R, b, els[-1]))
        for b in els[:8]:
            assert R.frobenius(R.mul(a, b)) == R.mul(R.frobenius(a), R.frobenius(b))
            assert R.frobenius(R.add(a, b)) == R.add(R.frobenius(a), R.frobenius(b))
        if R.f == 1:
            assert R.reduce_exp(a, 5) == a % R.p**5
            assert R.divide_p_power(R.mul(a, R.p_elem(3)), 3) == a % R.p**(R.n - 3)
    assert 0 < units < len(els)
    assert all(0 <= e < q for a in els for e in R.coeffs(a))
