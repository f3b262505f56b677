import random

import pytest

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix, is_invertible
from tannaka_forge.textio import (ParseError, parse_ring, parse_elem,
                                  parse_matrix, format_matrix, parse_module,
                                  parse_algebra, parse_diagram,
                                  format_diagram, parse_mf_objects_spec,
                                  parse_mf_file, parse_reconstruct_input,
                                  format_reconstruct_input)
from tannaka_forge.modules import FinModule
from tannaka_forge.tannaka import coend
from tannaka_forge.mf import is_mf_fl, mf_hom


def test_parse_ring_literals():
    R = parse_ring("GR(2^3,1)")
    assert (R.p, R.n, R.f) == (2, 3, 1)
    R = parse_ring("GR(2,2)")
    assert (R.p, R.n, R.f) == (2, 1, 2)
    with pytest.raises(ParseError):
        parse_ring("GF(4)")
    with pytest.raises(ParseError):
        parse_ring("GR(4^1,1)")   # 4 is not prime


def test_elem_roundtrip(GR42, Z8):
    for R in (GR42, Z8, ring_make(3, 1, 2)):
        for a in R.elements():
            assert parse_elem(R.format_elem(a), R) == a
    assert parse_elem("3*x+3", GR42) == GR42.from_coeffs((3, 3))
    assert parse_elem("x^1+x", GR42) == GR42.from_coeffs((0, 2))
    assert parse_elem("-1", Z8) == 7
    with pytest.raises(ParseError):
        parse_elem("x^5", GR42)
    with pytest.raises(ParseError):
        parse_elem("y+1", GR42)


def test_matrix_roundtrip(GR42):
    M = Matrix(GR42, [[GR42.x, 3], [0, GR42.from_coeffs((3, 3))]], 2, 2)
    assert parse_matrix(format_matrix(M), GR42) == M
    with pytest.raises(ParseError):
        parse_matrix("[[1,2],[3]]", GR42)
    with pytest.raises(ParseError):
        parse_matrix("1,2", GR42)


def format_module(M):
    return "mod(%s) over %s" % (",".join(map(str, M.exps)), M.ring.literal())


def test_module_roundtrip(Z8):
    M = FinModule(Z8, (3, 2, 1))
    assert parse_module(format_module(M)) == M
    assert parse_module("mod() over GR(2^3,1)").is_zero()
    # unsorted exponent lists are tolerated and canonicalized
    assert parse_module("mod(1,3) over GR(2^3,1)").exps == (3, 1)


def test_parse_algebra():
    alg = parse_algebra("alg R=GR(2^2,1) B=GR(2^2,2)")
    assert alg.fb == 2
    with pytest.raises(ParseError):
        parse_algebra("alg R=GR(2^2,2) B=GR(2^2,2)")   # R must have f = 1
    with pytest.raises(ParseError):
        parse_algebra("alg R=GR(2^1,1) B=GR(3^1,1)")   # mismatched p


def test_diagram_roundtrip():
    text = """
# a grouplike pair
alg R=GR(2^1,1) B=GR(2^1,1)
object G0 rank 1
object G1 rank 1
hom G0 G0 = [[[1]]]
hom G1 G1 = [[[1]]]
"""
    D = parse_diagram(text)
    assert D.nobj() == 2 and D.is_closed()
    CR = coend(D)
    assert CR.coalgebra.carrier.rank == 2
    # round trip through the printer
    D2 = parse_diagram(format_diagram(D))
    assert [o.rank for o in D2.objects] == [o.rank for o in D.objects]
    assert all(D2.homs[p] == D.homs[p] for p in D.homs)


def test_diagram_parse_errors_carry_lines():
    with pytest.raises(ParseError) as exc:
        parse_diagram("alg R=GR(2^1,1) B=GR(2^1,1)\nobject A rank x\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_diagram("alg R=GR(2^1,1) B=GR(2^1,1)\nhom A B = [[[1]]]\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_diagram("object A rank 1\nhom A A = [[[1]]]\n")


def test_reconstruct_roundtrip(alg_f2):
    from tannaka_forge.suite import grouplike_coalgebra, grouplike_line
    C = grouplike_coalgebra(alg_f2, 2)
    fam = [grouplike_line(C, 0), grouplike_line(C, 1)]
    text = format_reconstruct_input(C, fam)
    C2, fam2 = parse_reconstruct_input(text)
    assert C2 == C and fam2 == fam


def test_reconstruct_inline_braces(alg_f2):
    text = """alg R=GR(2^1,1) B=GR(2^1,1)
coalgebra { carrier = mod(1)
  left = [[1]]
  right = [[1]]
  delta = [[1]]
  counit = [[1]] }
comodule M0 { carrier = mod(1)
  action = [[1]]
  rho = [[1]] }
"""
    C, fam = parse_reconstruct_input(text)
    assert C.carrier.rank == 1 and len(fam) == 1


def test_reconstruct_parse_errors():
    with pytest.raises(ParseError):
        parse_reconstruct_input("alg R=GR(2^1,1) B=GR(2^1,1)\n")
    bad = """alg R=GR(2^1,1) B=GR(2^1,1)
coalgebra {
  carrier = mod(1)
  left = [[1]]
  right = [[1]]
  delta = [[1],[1]]
  counit = [[1]]
}
comodule M {
  carrier = mod(1)
  action = [[1]]
  rho = [[1]]
}
"""
    with pytest.raises(ParseError):
        parse_reconstruct_input(bad)   # delta lift has the wrong shape


def test_mf_objects_spec():
    W = ring_make(2, 1, 1)
    objs = parse_mf_objects_spec("M(0),M(1),M(0)+M(1)", W)
    assert len(objs) == 3
    assert objs[2].M.rank == 2
    with pytest.raises(ParseError):
        parse_mf_objects_spec("N(0)", W)


def test_mf_file_roundtrip():
    text = """
mf over GR(2^2,1) {
  M = mod(2)
  fil 0 = [[1]]
  fil 1 = [[1]]
  phi 0 = [[2]]
  phi 1 = [[1]]
}
"""
    objs = parse_mf_file(text)
    assert len(objs) == 1
    X = objs[0]
    assert X.lo == 0 and X.hi == 1 and is_mf_fl(X)
    K, _, _ = mf_hom(X, X)
    assert K.exps == (2,)


def test_mf_file_with_semicolons():
    text = "mf over GR(2^1,1) { M = mod(1); fil 0 = [[1]]; phi 0 = [[1]]; }"
    objs = parse_mf_file(text)
    assert is_mf_fl(objs[0])


def test_mf_file_phi_is_semilinear_on_abstract_generators():
    # phi given on listed generators g_j as P . sigma(g_j): on the abstract
    # generators of Fil^0 it must be P . sigma(incl), which needs the sigma
    # twist of the (non prime-field) coefficients
    rng = random.Random(8)
    for W in (ring_make(2, 1, 2), ring_make(2, 2, 2)):
        for _ in range(6):
            G, P = _random_invertible(rng, W, 2), _random_invertible(rng, W, 2)
            extra = Matrix(W, [[rng.randrange(W.size)] for _ in range(2)], 2, 1)
            gmat = G.hstack(extra)
            pmat = P @ _sigma(W, gmat)
            text = "mf over %s { M = mod(%d,%d); fil 0 = %s; phi 0 = %s; }" % (
                W.literal(), W.n, W.n, format_matrix(gmat), format_matrix(pmat))
            X = parse_mf_file(text)[0]
            assert X.phi[0].mat == P @ _sigma(W, X.fil[0].mat)


def _sigma(W, mat):
    return Matrix(W, [[W.frobenius(a) for a in row] for row in mat.data],
                  mat.rows, mat.cols)


def _random_invertible(rng, W, k):
    while True:
        A = Matrix(W, [[rng.randrange(W.size) for _ in range(k)]
                       for _ in range(k)], k, k)
        if is_invertible(A):
            return A


def test_mf_file_illformed_phi():
    # phi values on listed generators that cannot come from a module map
    text = """
mf over GR(2^2,1) {
  M = mod(2)
  fil 0 = [[1]]
  fil 1 = [[2]]
  phi 0 = [[1]]
  phi 1 = [[1]]
}
"""
    with pytest.raises((ParseError, Exception)):
        parse_mf_file(text)
