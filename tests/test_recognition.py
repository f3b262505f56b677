"""The colimit probes against the reference searches, their caps, and the
linear algebra recognition runs on."""

import json
import random

import pytest

from tannaka_forge import linalg, modules
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.cli import main
from tannaka_forge.linalg import Matrix
from tannaka_forge.mf import mf_to_diagram
from tannaka_forge.rings import ring_make
from tannaka_forge.suite import random_diagram
from tannaka_forge import tannaka
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, cofiltered_check,
                                   hom_closure, recognition_check,
                                   rigid_colimit_probes)
from tannaka_forge.textio import format_diagram, parse_mf_objects_spec

import recognition_reference as ref

# Z/4, Z/8, F4, GR(4,2) and F3 in turn
RINGS = [(2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1)]


def _draws(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        alg = AlgebraSpec.make(*RINGS[i % len(RINGS)])
        yield random_diagram(rng, alg, max_obj=3, max_rank=2)[0]


def _span_size(D, k, l):
    R = D.alg.R
    anns = [R.n - R.val(next(v for v in r if v)) for r in D.span_rows(k, l)]
    return R.p ** (R.f * sum(anns))


def _capped(D):
    """Would the probe caps (96 probes, two generators per pushout leg)
    drop a probe of D?"""
    coeqs = sum(1 + len(mats) - i for mats in D.homs.values()
                for i in range(len(mats)))
    pushouts = sum(len(D.homs[(c, k)][:2]) * len(D.homs[(c, l)][:2])
                   for (c, k) in D.homs for l in range(D.nobj()))
    return coeqs + pushouts > 96 or any(len(m) > 2 for m in D.homs.values())


def test_colimit_probes_match_reference():
    # at a budget no smaller than any product of two hom spans into one
    # object, every enumeration of the reference but its pushout kernel
    # sweep finishes, and that one says "inconclusive" when it does not
    compared = 0
    for D in _draws(1, 30):
        n = D.nobj()
        budget = max(_span_size(D, k, t) * _span_size(D, l, t)
                     for k in range(n) for l in range(n) for t in range(n))
        if budget > 256:
            continue
        want, want_probes = ref.rigid_colimit_probes(D, budget)
        if any(p["verdict"] == "inconclusive" for p in want_probes):
            continue
        got, probes = rigid_colimit_probes(D, budget)
        assert probes == want_probes
        if want.status == "verified" and _capped(D):
            assert got.status == "inconclusive"
            assert got.reason.startswith("probed ")
        else:
            assert got == want
        compared += 1
    assert compared >= 12


def test_shared_probe_outcomes_match_reference():
    # the sweep keeps one outcome per legs and condition, up to the order of
    # a pushout's legs; on these Z/4 draws a pushout and the one with its
    # legs swapped but its generators in place have different outcomes, and
    # the sweep matches the reference, which searches every probe afresh
    for seed in (19, 34):
        D = random_diagram(random.Random(seed), AlgebraSpec.make(2, 2, 1),
                           max_obj=3, max_rank=2)[0]
        for budget in (256, 1024):
            assert rigid_colimit_probes(D, budget) == ref.rigid_colimit_probes(D, budget)


def test_probes_the_reference_leaves_inconclusive():
    # at budget 64 the reference gives up on pushouts whose cocones it
    # cannot enumerate; the exact check answers them as the reference does
    # once its budget lets it finish
    resolved = 0
    for D in _draws(8, 10):
        _, probes = rigid_colimit_probes(D, 64)
        _, ref_probes = ref.rigid_colimit_probes(D, 64)
        assert len(probes) == len(ref_probes)
        todo = [j for j, (p, q) in enumerate(zip(probes, ref_probes))
                if q["verdict"] == "inconclusive" and p["verdict"] != "inconclusive"]
        for p, q in zip(probes, ref_probes):
            if q["verdict"] != "inconclusive":
                assert p == q
        if not todo:
            continue
        _, finished = ref.rigid_colimit_probes(D, 512)
        for j in todo:
            assert finished[j]["verdict"] != "inconclusive"
            assert probes[j] == finished[j]
            resolved += 1
    assert resolved >= 50


def test_probe_caps_downgrade_verified():
    # over F8 every probe of {A, Z} with hom(A, A) = F8 has a universal
    # cocone, but hom(A, A) has three generators, so the pushout probes
    # take 2 x 2 of the 3 x 3 generator pairs
    alg = AlgebraSpec.make(2, 1, 3)
    B = alg.B
    gens = [Matrix.from_rows(B, [[B.pow(B.x, i)]]) for i in range(3)]
    D = hom_closure(DiagramCategory(alg, [DiagObject("A", 1), DiagObject("Z", 0)],
                                    {(0, 0): gens}))
    assert len(D.homs[(0, 0)]) == 3
    v, probes = rigid_colimit_probes(D)
    assert all(p["verdict"] == "verified" for p in probes)
    assert (v.status, v.reason) == ("inconclusive", "probed 13 of 18 colimit probes")
    assert ref.rigid_colimit_probes(D)[0].status == "verified"

    def full(n, zero):
        """n rank-1 objects with every hom F8, and a rank-0 object if zero."""
        objs = [DiagObject("A%d" % i, 1) for i in range(n)] + [DiagObject("Z", 0)] * zero
        return hom_closure(DiagramCategory(alg, objs, {(i, j): gens for i in range(n)
                                                       for j in range(n)}))
    # past the cap of 96 probes
    D = full(3, True)
    v, probes = rigid_colimit_probes(D)
    assert len(probes) == 96
    assert all(p["verdict"] == "verified" for p in probes)
    assert (v.status, v.reason) == ("inconclusive", "probed 96 of 324 colimit probes")
    assert ref.rigid_colimit_probes(D)[0].status == "verified"
    # a refutation stands whatever the caps dropped: the coequalizer of 1
    # and 0 on a rank-1 object has the zero fiber, and without Z no object
    # of D has it
    v, probes = rigid_colimit_probes(full(4, False))
    assert len(probes) == 96
    assert v.status == "refuted" and v.reason == ""


def test_recognition_runs_no_smith_solve(monkeypatch):
    calls = []
    solve_columns = linalg.solve_columns

    def counted(ring, cols, rows, targets):
        calls.append(rows)
        return solve_columns(ring, cols, rows, targets)

    monkeypatch.setattr(linalg, "solve_columns", counted)
    monkeypatch.setattr(modules, "solve_columns", counted)
    W = ring_make(2, 2, 1)
    D = mf_to_diagram(parse_mf_objects_spec("M(0),M(1),M(0)+M(1)", W))
    calls.clear()
    recognition_check(D)
    assert calls == []


def test_cofiltered_check_matches_reference(monkeypatch):
    # the memoised search against the one that builds a Span per question,
    # on draws over Z/4, F3, F4 and GR(4,2): the same verdict and witness,
    # from fewer spans
    built = {"new": 0, "ref": 0}

    def counting(side, cls):
        def span(*args):
            built[side] += 1
            return cls(*args)
        return span

    monkeypatch.setattr(tannaka, "Span", counting("new", linalg.Span))
    monkeypatch.setattr(ref, "Span", counting("ref", linalg.Span))
    rng = random.Random(3)
    seen = set()
    for i in range(24):
        alg = AlgebraSpec.make(*[(2, 2, 1), (3, 1, 1), (2, 1, 2), (2, 2, 2)][i % 4])
        D = random_diagram(rng, alg, max_obj=3, max_rank=2)[0]
        got = cofiltered_check(D, 128)
        assert got == ref.cofiltered_check(D, 128)
        seen.add(got.status if got.status != "refuted" else got.witness["kind"])
    assert seen == {"verified", "inconclusive", "no-cone", "no-equalizer"}
    assert 2 * built["new"] < built["ref"], built


def _pair_cost(D):
    """Element pairs times the largest hom span: about what the reference
    cofilteredness search enumerates."""
    fibers = sum(D.alg.B.size ** obj.rank for obj in D.objects)
    n = D.nobj()
    return fibers ** 2 * max(D.span(k, l).size() for k in range(n) for l in range(n))


def _leg_product(D):
    """The largest product of two hom spans into one object: the most
    candidates the reference colimit search filters for one tip."""
    n = D.nobj()
    return max(_span_size(D, k, t) * _span_size(D, l, t)
               for k in range(n) for l in range(n) for t in range(n))


def test_recognition_matches_enumerating_searches(monkeypatch):
    # the searches on cocone modules, reachable sets and buckets against
    # the ones that filter products of leg spans and unflatten a span per
    # element pair: the same verdicts, witnesses and probe lists; the
    # references run where they finish in about a second
    seen = set()
    for seed in (1, 4):
        for D in _draws(seed, 10):
            fibers = sum(D.alg.B.size ** obj.rank for obj in D.objects)
            for budget in (64, 1024, 4096):
                got = tannaka.reflects_isos_check(D, budget)
                assert got == ref.sweep_reflects_isos_check(D, budget)
                seen.add("iso-" + got.status)
                if _pair_cost(D) <= 40000 or fibers ** 2 > budget * 16:
                    got = cofiltered_check(D, budget)
                    assert got == ref.memo_cofiltered_check(D, budget)
                    seen.add(got.witness["kind"] if got.status == "refuted"
                             else got.status)
                if _leg_product(D) <= 256:
                    got = rigid_colimit_probes(D, budget)
                    with monkeypatch.context() as mp:
                        mp.setattr(tannaka, "_find_colimit", ref.product_find_colimit)
                        assert got == rigid_colimit_probes(D, budget)
                    seen.update("probe-" + p["verdict"] for p in got[1])
    assert seen >= {"inconclusive", "no-cone", "no-equalizer", "verified",
                    "iso-refuted", "iso-inconclusive", "probe-refuted",
                    "probe-inconclusive", "probe-verified"}, seen


def test_tip_skip_matches_cocone_search(monkeypatch):
    # skipping tips whose hom spans and cocone modules differ in size, or
    # whose rank is not the fiber colimit's, against the search that
    # enumerates every tip's cocones: the same verdicts and probe lists,
    # with fewer universality tests, and fewer candidates, each tested for
    # an invertible fiber comparison on a square matrix
    universal = {"calls": 0}
    candidates, shapes = {"calls": 0}, set()

    def is_invertible(A):
        candidates["calls"] += 1
        shapes.add((A.rows, A.cols))
        return linalg.is_invertible(A)

    def counted(is_universal):
        def call(*args):
            universal["calls"] += 1
            return is_universal(*args)
        return call

    monkeypatch.setattr(tannaka, "_is_universal", counted(tannaka._is_universal))
    monkeypatch.setattr(ref, "containment_is_universal",
                        counted(ref.containment_is_universal))
    monkeypatch.setattr(tannaka, "is_invertible", is_invertible)
    tested = {"new": 0, "ref": 0}
    seen = set()
    for seed in (1, 4):
        for D in _draws(seed, 10):
            for budget in (64, 1024):
                universal["calls"] = 0
                got = rigid_colimit_probes(D, budget)
                tested["new"] += universal["calls"]
                universal["calls"] = 0
                with monkeypatch.context() as mp:
                    mp.setattr(tannaka, "_find_colimit", ref.cocone_find_colimit)
                    assert got == rigid_colimit_probes(D, budget)
                tested["ref"] += universal["calls"]
                seen.update(p["verdict"] for p in got[1])
    assert seen >= {"refuted", "inconclusive", "verified"}, seen
    assert 2 * tested["new"] < tested["ref"], tested
    assert 4 * candidates["calls"] < tested["ref"], (candidates, tested)
    assert all(r == c for r, c in shapes), shapes


def test_universal_cocone_whose_fiber_comparison_fails():
    # over F2, with A -> C the inclusion e1 and C -> T the rank-1 map q,
    # every cocone of the diagram on [C] under e1 also kills e3, so q is
    # universal; but coker(e1) = F2^2 -> fiber(T) = F2^2 has rank 1, so the
    # coequalizer probe of (e1, 0) is refuted, as in the reference search
    alg = AlgebraSpec.make(2, 1, 1)
    e1 = Matrix.from_rows(alg.B, [[1], [0], [0]])
    q = Matrix.from_rows(alg.B, [[0, 1, 0], [0, 0, 0]])
    D = hom_closure(DiagramCategory(
        alg, [DiagObject("A", 1), DiagObject("C", 3), DiagObject("T", 2)],
        {(0, 1): [e1], (1, 2): [q]}))
    sizes = [into.size() for into in ref.cocones(D, [1], e1)]
    assert tannaka._is_universal(D, sizes, 2, [q])
    got = rigid_colimit_probes(D)
    assert got[1][2] == {"kind": "coeq", "pair": (0, 1), "verdict": "refuted"}
    assert got == ref.rigid_colimit_probes(D)


def _probe_shapes(D):
    """(legs, cond) of every coequalizer and pushout shape the colimit
    sweep would probe, before its caps."""
    B = D.alg.B
    for (k, l), mats in sorted(D.homs.items()):
        for i, F in enumerate(mats):
            for G in [Matrix.zeros(B, D.objects[l].rank, D.objects[k].rank)] + mats[i:]:
                yield [l], F - G
    for (c, k) in sorted(D.homs):
        for l in range(D.nobj()):
            for F in D.homs[(c, k)][:2]:
                for G in D.homs[(c, l)][:2]:
                    yield [k, l], F.vstack(-G)


def test_universality_by_counting_matches_factoring():
    # on a closed diagram every S q is a cocone, so once every cocone
    # factors through q the factoring map is onto, and equal sizes make it
    # one to one: the counting predicate against the kernel it replaced, on
    # every candidate cocone into every tip of every probe shape
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for i in range(16):
        # Z/4, Z/8, F4 and GR(4,2) in turn
        D = random_diagram(rng, AlgebraSpec.make(*RINGS[i % 4]),
                           max_obj=3, max_rank=2)[0]
        for legs, cond in _probe_shapes(D):
            cocones = ref.cocones(D, legs, cond)
            sizes = [into.size() for into in cocones]
            for t, into in enumerate(cocones):
                if into.size() > 32:
                    continue
                for qs in ref.cocone_candidates(D, legs, into, t):
                    got = tannaka._is_universal(D, sizes, t, qs)
                    assert got == ref.factoring_is_universal(D, cocones, t, qs)
                    seen[got] += 1
    assert seen[True] >= 10 and seen[False] >= 100, seen


def _mf_triple(p, n, f):
    W = ring_make(p, n, f)
    return mf_to_diagram(parse_mf_objects_spec("M(0),M(1),M(0)+M(1)", W))


@pytest.mark.parametrize("pnf", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1),
                                 (2, 1, 2), (2, 2, 2)],
                         ids=["Z2", "Z4", "Z8", "Z9", "F4", "GR42"])
def test_mf_triples_match_reference_searches(monkeypatch, pnf):
    # the closed MF diagrams of M(0), M(1), M(0)+M(1): the same cofiltered
    # verdict as the search that unflattens a span per element pair, and
    # the same probe list as the search that builds every cocone module
    # and tests universality before the fiber comparison
    D = _mf_triple(*pnf)
    assert cofiltered_check(D) == ref.memo_cofiltered_check(D)
    got = rigid_colimit_probes(D)
    with monkeypatch.context() as mp:
        mp.setattr(tannaka, "_find_colimit", ref.cocone_find_colimit)
        assert got == rigid_colimit_probes(D)
    assert {"verified", "refuted"} <= {p["verdict"] for p in got[1]}


# recognize --budget 1024 on the draws of bench/recognize_budget.py (seed 5,
# Z/4, Z/8, F4, GR(4,2) and F3 in turn), all but 08, 18 and 23, which run
# out of budget there: every one exits 1 with these report digests
BUDGET_DRAW_DIGESTS = {
    0: "cd23a889345648888a5eca9da7c2735957168a80d6103462858cc42dd9d0f010",
    1: "653100de6ccc339980d7eb917882389719983a305bb4d091a8e47a4fedd833eb",
    2: "22847cab93e01146f755e36092cf5cff06fc7fe293868c0e8188233c88b33e99",
    3: "820104d100f7478d40db7d8a293b9a6f78265d8b3c6c856ab3916f26fb89d449",
    4: "73b7fbfeef67a5901a5cb04b85e92c2915b2cb9f0340c2f48c1aac99c4443729",
    5: "617ff67b85625eddf9e0bb68c3c1d5a64a1587f48477bce83aed4ea8f84d0cee",
    6: "653100de6ccc339980d7eb917882389719983a305bb4d091a8e47a4fedd833eb",
    7: "0088651e0e0a91c8f6b8c965d838302fd0535cd2f585948f18756c5a79e2a440",
    9: "519e08dace9ae5faf9b1017201969cf48437ade03c3b07286c705347a2c40920",
    10: "382002676bbb66fad7e84254857cbbb5cc1a52aa68797e77d54fdba6b0c05ed7",
    11: "15ef6562cd19180c7e578ef3841fb72093f60cc7b7f5ccfe75863df54166da58",
    12: "9680e79c08b2cff2d56a2ef2886da202c38eb5a90ddb2d73087d4df9e17fcaea",
    13: "e607ed4b2132ec61a322e3638346ac689f6af0c7186893512f72edff12e07773",
    14: "66a865c9cfb135cfac8d26fe3c5086d3c545ba88ee7ea89995c0061f70e759cd",
    15: "12e5970fb06d4d1f6249616127e5a13e83a570b5b927e3e899f8056835381f86",
    16: "083dfdd1d198129b86b0bff3f4c14aed70b1fb4b2f3642c78950cc0fa3a95cb9",
    17: "3ed5c0756cbaa1018394c761b3c2ec9d6d932260ef471d919df2f9fa96beaec7",
    19: "2481f5996c40ff2d573b3aaee9cc977ade4ad9ececadb6e1d9b5975eebc58d48",
    20: "6f7ece8f2346451440d3a91cdd899bd7320684fbbfae9176ef4e1e1af2ca3121",
    21: "a08928c5ac55b3d60de7e375f1a21200ccf381fa22c4ca72de5ec7419f9ba96d",
    22: "f87ca570a19917b69093fbc58ffbf91f991ffc99634ac579a449defc172f4cdd",
    24: "60d102b492db4d2dfef7b02f3fe67cd17f8926ab6bc62c9b929915936e7594d9",
    25: "4f068d94162024fe425d6c19efa07da92666a5ba7440ef364ab2ff5e3bfe6287",
    26: "653100de6ccc339980d7eb917882389719983a305bb4d091a8e47a4fedd833eb",
    27: "60e7736cc2d9ee5d52bbd71eb7029a08f64a38a5d013a9a8ac304aed915b33ae",
    28: "0b3a1a7561fdac6b40ecbb5f40c75e9cced00ab5742b31b9db85594c336bbbb2",
    29: "596e0b0b6ec368d752f05b2d9df32b0698cf2ecca660b1d3a118bf1964cf6e63",
}


def test_recognize_budget_draws_are_pinned(tmp_path, capsys):
    rng = random.Random(5)
    got = {}
    for i in range(30):
        alg = AlgebraSpec.make(*[(2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1)][i % 5])
        D = random_diagram(rng, alg, max_obj=3, max_rank=2)[0]
        if i not in BUDGET_DRAW_DIGESTS:
            continue
        path = tmp_path / ("draw-%02d.diagram" % i)
        path.write_text(format_diagram(D))
        code = main(["recognize", "--budget", "1024", str(path)])
        got[i] = (code, json.loads(capsys.readouterr().out)["report_digest"])
    assert got == {i: (1, "sha256:" + d) for i, d in BUDGET_DRAW_DIGESTS.items()}


def test_z8_triple_recognition_counts(monkeypatch):
    # one recognition_check of the Z/8 MF triple: each equalizer span is
    # built once per source, f - g and object, and cocones are counted
    # without a kernel per object, so it builds at most 2,000 Spans (7,057
    # with a span per source and question and a kernel per object and
    # probe); the fiber comparison is an invertibility test, so the colimit
    # probes never call is_isomorphism, and tips of another rank than the
    # fiber colimit are skipped, so every matrix it tests is square
    D = _mf_triple(2, 3, 1)
    want = recognition_check(D)
    calls = {"Span": 0, "is_isomorphism": 0}
    shapes = set()

    class Counted(linalg.Span):
        __slots__ = ()

        def __init__(self, *args):
            calls["Span"] += 1
            super().__init__(*args)

    def is_isomorphism(g):
        calls["is_isomorphism"] += 1
        return modules.is_isomorphism(g)

    def is_invertible(A):
        shapes.add((A.rows, A.cols))
        return linalg.is_invertible(A)

    for mod in (linalg, modules, tannaka):
        monkeypatch.setattr(mod, "Span", Counted, raising=False)
    monkeypatch.setattr(tannaka, "is_isomorphism", is_isomorphism, raising=False)
    monkeypatch.setattr(tannaka, "is_invertible", is_invertible)
    assert recognition_check(D) == want
    assert calls["Span"] <= 2000 and calls["is_isomorphism"] == 0, calls
    assert shapes and all(r == c for r, c in shapes), shapes
