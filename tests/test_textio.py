import hashlib
import random

import pytest

from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix
from tannaka_forge.textio import (ParseError, parse_ring, parse_elem,
                                  parse_matrix, format_matrix, parse_module,
                                  parse_algebra, parse_diagram,
                                  format_diagram, parse_mf_objects_spec,
                                  parse_reconstruct_input,
                                  format_reconstruct_input)
from tannaka_forge.modules import FinModule
from tannaka_forge.algebra import AlgebraSpec, free_bmodule
from tannaka_forge.coalgebra import cofree
from tannaka_forge.suite import (grouplike_coalgebra, grouplike_line,
                                 comatrix_coalgebra, comatrix_standard_comodule,
                                 trivial_coalgebra, trivial_full_hom_diagram,
                                 random_diagram)
from tannaka_forge.tannaka import coend, lift_coaction

from test_closure_spin import SEVEN_RINGS


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
    assert D.nobj() == 2 and D.closure_violation() is None
    CR = coend(D)
    assert CR.coalgebra.carrier.rank == 2
    # round trip through the printer
    D2 = parse_diagram(format_diagram(D))
    assert [o.rank for o in D2.objects] == [o.rank for o in D.objects]
    assert all(D2.homs[p] == D.homs[p] for p in D.homs)


def test_parsed_hom_lists_read_back_entry_for_entry():
    # the seven rings: a diagram keeps its hom lists as flat rows, and homs
    # writes them back as the parsed matrices, entry for entry and in input
    # order, zero matrices and repeats included, on every pair; objects of
    # rank 0 take no hom line.  format_diagram prints the parsed text again
    rng = random.Random(4646)
    for t in SEVEN_RINGS:
        alg = AlgebraSpec.make(*t)
        B = alg.B
        for _ in range(8):
            ranks = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
            lines = [alg.literal()] + ["object A%d rank %d" % kr for kr in enumerate(ranks)]
            want = {}
            for k, rk in enumerate(ranks):
                for l, rl in enumerate(ranks):
                    mats = [Matrix(B, [[rng.choice((0, rng.randrange(B.size)))
                                        for _ in range(rk)] for _ in range(rl)], rl, rk)
                            for _ in range(rng.randint(0, 3) if rk and rl else 0)]
                    mats += mats[:rng.randint(0, 1)]
                    if mats:
                        lines.append("hom A%d A%d = [%s]" % (
                            k, l, ",".join(format_matrix(M) for M in mats)))
                    want[(k, l)] = mats
            text = "\n".join(lines) + "\n"
            D = parse_diagram(text)
            assert D.homs == want, t
            assert format_diagram(D) == text, t


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


# sha256 of format_reconstruct_input on each case of _format_cases, in
# order, recorded while BTensor still held dense projection and section
# matrices; the lifts delta and rho are read off the section
FORMAT_DIGESTS = [
    "e31dffb6b9d9ade62d1b0cc15f71617c2e64bc6d31dde9011637b0e93ba967b3",
    "0d6809961688ee633f0cd1809af31bf27d12583445198813efaa7a5e4a7bc259",
    "52948bfd2e7c7c4fc8b44714e97df1e93d4c35576878a57f02b0acd4c30b9cae",
    "941d72ccf022f5eaca68efdbf4dcbae0c3dca9c04d72d15168c3df0c01a74506",
    "c8299c4a0bc4e14db544fcb60b79913facef8b4e80753ae70b89c37e2dc79003",
    "3d5766113accfdf951b4c7d976cee428579de9b1fa2f21131a430303700c90a6",
    "f32f8d0b9ef2a1ad6d32b60c06cf33c3c0e03a583053afcb70c2a08ea7a7dbe7",
    "a884bc50457f5a9579a3b7167f7485b8ed3df568a124aaec0c33c756b3a6d862",
    "ed328444b58094293c0748c1cd28c1e3f197a114e67453c023ba4d79e053dffb",
    "6614778cd1061ea0f2f2b6b41552135fc9fac98058944f600792a6069f77099e",
]


def _format_cases():
    """Suite coalgebras with comodule families over F2 and Z/4 (grouplike,
    comatrix), F4 and GR(4,2) (trivial with a cofree comodule, the
    full-endo coend with its lifted family), a GR(4,2) coend whose left and
    right actions differ, and a Z/8 coend with a torsion summand."""
    for pnf in ((2, 1, 1), (2, 2, 1)):
        alg = AlgebraSpec.make(*pnf)
        C = grouplike_coalgebra(alg, 2)
        yield C, [grouplike_line(C, i) for i in range(2)]
        C = comatrix_coalgebra(alg, 2)
        yield C, [comatrix_standard_comodule(C, 2)]
    for pnf in ((2, 1, 2), (2, 2, 2)):
        alg = AlgebraSpec.make(*pnf)
        C = trivial_coalgebra(alg)
        yield C, [cofree(C, free_bmodule(alg, 1))]
        CR = coend(trivial_full_hom_diagram(alg))
        yield CR.coalgebra, lift_coaction(CR)
    CR = coend(random_diagram(random.Random(2), AlgebraSpec.make(2, 2, 2),
                              max_obj=2, max_rank=2)[0])
    assert CR.coalgebra.bi.left != CR.coalgebra.bi.right
    yield CR.coalgebra, lift_coaction(CR)
    CR = coend(random_diagram(random.Random(0), AlgebraSpec.make(2, 3, 1),
                              max_obj=2, max_rank=2)[0])
    assert not CR.coalgebra.carrier.is_free()
    yield CR.coalgebra, lift_coaction(CR)


def test_reconstruct_format_is_pinned():
    digests = []
    for C, fam in _format_cases():
        text = format_reconstruct_input(C, fam)
        C2, fam2 = parse_reconstruct_input(text)
        assert C2 == C and fam2 == fam
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == FORMAT_DIGESTS


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
