"""The colimit probes against the reference searches, their caps, and the
linear algebra recognition runs on."""

import random

from tannaka_forge import linalg, modules
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix
from tannaka_forge.mf import mf_to_diagram
from tannaka_forge.rings import ring_make
from tannaka_forge.suite import random_diagram
from tannaka_forge import tannaka
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, cofiltered_check,
                                   hom_closure, recognition_check,
                                   rigid_colimit_probes)
from tannaka_forge.textio import parse_mf_objects_spec

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
    # past the cap of 96 probes
    one = Matrix.identity(B, 1)
    v, probes = rigid_colimit_probes(D, extra_probes=[("coeq", 0, 0, one, one)] * 90)
    assert len(probes) == 96
    assert all(p["verdict"] == "verified" for p in probes)
    assert (v.status, v.reason) == ("inconclusive", "probed 96 of 108 colimit probes")
    # a refutation stands whatever the caps dropped: the pushout of
    # A <- Z -> A has a fiber of rank 2, and no object of D has one
    empty = Matrix.zeros(B, 1, 0)
    v, _ = rigid_colimit_probes(D, extra_probes=[("pushout", 1, 0, 0, empty, empty)])
    assert v.status == "refuted" and v.reason == ""


def test_recognition_runs_no_smith_solve(monkeypatch):
    calls = []
    solve_columns = linalg.solve_columns

    def counted(A, targets):
        calls.append(A.rows)
        return solve_columns(A, targets)

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
    # skipping tips whose hom spans and cocone modules differ in size
    # against the search that enumerates every tip's cocones: the same
    # verdicts and probe lists, with fewer universality tests
    universal = {"calls": 0}
    is_universal = tannaka._is_universal

    def counted(*args):
        universal["calls"] += 1
        return is_universal(*args)

    monkeypatch.setattr(tannaka, "_is_universal", counted)
    monkeypatch.setattr(ref, "_is_universal", counted)
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
            cocones = tannaka._cocones(D, legs, cond)
            for t, into in enumerate(cocones):
                if into.size() > 32:
                    continue
                for qs in ref.cocone_candidates(D, legs, into, t):
                    got = tannaka._is_universal(D, cocones, t, qs)
                    assert got == ref.factoring_is_universal(D, cocones, t, qs)
                    seen[got] += 1
    assert seen[True] >= 10 and seen[False] >= 100, seen
