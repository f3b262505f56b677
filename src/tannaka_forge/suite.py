"""Built-in example objects and the verification suite.

Everything here is deterministic: fixed rings, fixed generator orders, and
seeded randomness, so suite transcripts are comparable across runs.
"""

from __future__ import annotations

import itertools
import random
import time

from .rings import ring_make
from .linalg import Matrix, smith
from .modules import FinModule, ModuleMap, is_isomorphism, EnumerationBudget
from .algebra import (AlgebraSpec, BBBimodule, free_bmodule,
                      regular_bimodule, tensor_bimodules, tensor_bim_bmodule)
from .coalgebra import (Coalgebra, Comodule, coalgebra_check, comodule_check,
                        comodule_hom, cofree, is_cauchy, enumerate_subcomodules,
                        subcomodule_as_comodule, AxiomError)
from .tannaka import (DiagObject, DiagramCategory, hom_closure, coend,
                      coend_relation_rows, lift_coaction,
                      morphisms_are_comodule_maps, unit_fully_faithful_check,
                      counit_map, flatness_check, recognition_check,
                      recheck_iso_witness, recheck_cone_witness)
from .mf import tate_object, mf_direct_sum, mf_to_diagram


# ---------------------------------------------------------------------------
# standard coalgebras
# ---------------------------------------------------------------------------

def trivial_coalgebra(alg: AlgebraSpec) -> Coalgebra:
    """C = B with the unit-isomorphism comultiplication."""
    bi = regular_bimodule(alg)
    cc = tensor_bimodules(alg, bi, bi)
    cols = [cc.pure_sum([([(k, 1)], [(0, 1)])]) for k in range(bi.carrier.rank)]
    delta = ModuleMap(bi.carrier, cc.module, cols)
    counit = ModuleMap.identity(bi.carrier)
    return coalgebra_check(cc, delta, counit)


def grouplike_coalgebra(alg: AlgebraSpec, g: int) -> Coalgebra:
    """Basis g_0..g_{g-1} with delta(g_i) = g_i (x) g_i, eps(g_i) = 1.
    Requires B = R."""
    if alg.fb != 1:
        raise ValueError("grouplike example is defined over B = R")
    car = FinModule.free(alg.R, g)
    ident = ModuleMap.identity(car)
    bi = BBBimodule(alg, car, ident, ident)
    cc = tensor_bimodules(alg, bi, bi)
    cols = [cc.pure_sum([([(i, 1)], [(i, 1)])]) for i in range(g)]
    delta = ModuleMap(car, cc.module, cols)
    counit = ModuleMap(car, FinModule.free(alg.R, 1),
                       Matrix(alg.R, [[1] * g], 1, g))
    return coalgebra_check(cc, delta, counit)


def comatrix_coalgebra(alg: AlgebraSpec, r: int) -> Coalgebra:
    """Dual of the r x r matrix algebra: delta(c_ij) = sum_k c_ik (x) c_kj,
    eps(c_ij) = delta_ij, with c_ij at position i*r + j."""
    if alg.fb != 1:
        raise ValueError("comatrix example is defined over B = R")
    car = FinModule.free(alg.R, r * r)
    ident = ModuleMap.identity(car)
    bi = BBBimodule(alg, car, ident, ident)
    cc = tensor_bimodules(alg, bi, bi)
    cols = [cc.pure_sum(([(i * r + k, 1)], [(k * r + j, 1)]) for k in range(r))
            for i in range(r) for j in range(r)]
    delta = ModuleMap(car, cc.module, cols)
    # eps(c_ij) = 1 exactly on the diagonal, the c_ii at i * r + i
    counit = ModuleMap(car, FinModule.free(alg.R, 1),
                       [[] if k % (r + 1) else [(0, 1)] for k in range(r * r)])
    return coalgebra_check(cc, delta, counit)


def grouplike_line(C: Coalgebra, i: int) -> Comodule:
    """The rank-one comodule with rho(m) = g_i (x) m."""
    alg = C.alg
    line = free_bmodule(alg, 1)
    cm = tensor_bim_bmodule(alg, C.bi, line)
    col = cm.pure_sum([([(i, 1)], [(0, 1)])])
    rho = ModuleMap(line.carrier, cm.module, [col])
    return comodule_check(C, cm, rho)


def comatrix_standard_comodule(C: Coalgebra, r: int) -> Comodule:
    """rho(e_j) = sum_i c_ji (x) e_i, the coaction the comatrix
    comultiplication makes coassociative."""
    alg = C.alg
    std = free_bmodule(alg, r)
    cm = tensor_bim_bmodule(alg, C.bi, std)
    cols = [cm.pure_sum(([(j * r + i, 1)], [(i, 1)]) for i in range(r)) for j in range(r)]
    rho = ModuleMap(std.carrier, cm.module, cols)
    return comodule_check(C, cm, rho)


# ---------------------------------------------------------------------------
# standard diagrams
# ---------------------------------------------------------------------------

def trivial_full_hom_diagram(alg: AlgebraSpec) -> DiagramCategory:
    """One object, fiber B, hom the full endomorphism module B (spanned
    over R by the powers of x)."""
    gens = [Matrix.from_rows(alg.B, [[xk]]) for xk in alg.xpows]
    D = DiagramCategory(alg, [DiagObject("A", 1)], {(0, 0): gens})
    return hom_closure(D)


def grouplike_diagram(alg: AlgebraSpec, g: int) -> DiagramCategory:
    objs = [DiagObject("G%d" % i, 1) for i in range(g)]
    homs = {(i, i): [Matrix.identity(alg.B, 1)] for i in range(g)}
    return hom_closure(DiagramCategory(alg, objs, homs))


def comatrix_diagram(alg: AlgebraSpec, r: int) -> DiagramCategory:
    D = DiagramCategory(alg, [DiagObject("A", r)],
                        {(0, 0): [Matrix.identity(alg.B, r)]})
    return hom_closure(D)


def mf_family_diagram(p: int, n: int, f: int, twists=(0, 1), with_sum=False):
    W = ring_make(p, n, f)
    objs = [tate_object(W, k) for k in twists]
    if with_sum:
        objs.append(mf_direct_sum(objs[0], objs[1]))
    return mf_to_diagram(objs), objs


def random_diagram(rng: random.Random, alg: AlgebraSpec, max_obj=3, max_rank=2):
    """A random generator family plus its closure; returns (closed diagram,
    raw generator triples)."""
    B = alg.B
    nobj = rng.randint(1, max_obj)
    objs = [DiagObject("A%d" % i, rng.randint(1, max_rank)) for i in range(nobj)]
    gens = {}
    gen_list = []
    for k in range(nobj):
        for l in range(nobj):
            mats = []
            for _ in range(rng.randint(0, 2)):
                M = Matrix(B, [[rng.randrange(B.size) for _ in range(objs[k].rank)]
                               for _ in range(objs[l].rank)],
                           objs[l].rank, objs[k].rank)
                mats.append(M)
                gen_list.append((k, l, M))
            gens[(k, l)] = mats
    return hom_closure(DiagramCategory(alg, objs, gens)), gen_list


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def reconstruction_probe(C: Coalgebra, budget: int = 4096) -> dict:
    """Desk-scale echo of the enough-Cauchy-comodules hypothesis: take every
    Cauchy subcomodule of the cofree comodule on B and ask whether nu onto C
    is surjective.  Reported, not asserted."""
    alg = C.alg
    CF = cofree(C, free_bmodule(alg, 1))
    subs = enumerate_subcomodules(CF, budget)
    family = []
    for size, gens, _ in subs:
        if size == 1:
            continue
        sc = subcomodule_as_comodule(CF, [tuple(g) for g in gens])
        if sc is None:
            continue
        if is_cauchy(sc):
            family.append(sc)
    if not family:
        return {"family_size": 0, "surjective": False,
                "note": "no nonzero Cauchy subcomodules"}
    res = counit_map(C, family)
    return {"family_size": len(family), "surjective": res.surjective,
            "injective": res.injective, "iso": res.iso,
            "coalgebra_morphism": res.coalgebra_morphism}


def essential_surjectivity_probe(CR, rank: int = 1, budget: int = 4096) -> dict:
    """Enumerate every comodule structure on the free module of the given
    rank and check each is isomorphic to a lifted one.  Only run when the
    search space fits the budget."""
    alg = CR.diagram.alg
    L = CR.coalgebra
    fiber = free_bmodule(alg, rank)
    cm = tensor_bim_bmodule(alg, L.bi, fiber)
    n_cols = fiber.carrier.rank
    space = cm.module.cardinality() ** n_cols
    if space > budget:
        return {"verdict": "inconclusive", "reason": "search space %d" % space}
    lifted = lift_coaction(CR)
    lifted_same_rank = [N for N in lifted if N.carrier.rank == fiber.carrier.rank]
    found = []
    outside = []
    for cols in itertools.product(list(cm.module.elements(None)), repeat=n_cols):
        mat = Matrix.from_cols(alg.R, [list(c) for c in cols], cm.module.rank)
        try:
            rho = ModuleMap(fiber.carrier, cm.module, mat)
            N = comodule_check(L, cm, rho)
        except (AxiomError, ValueError):
            continue
        found.append(N)
        if not any(_comodules_isomorphic(N, M, budget) for M in lifted_same_rank):
            outside.append(N)
    return {"verdict": "verified" if not outside else "refuted",
            "comodules_found": len(found), "outside_image": len(outside)}


def _comodules_isomorphic(N: Comodule, M: Comodule, budget: int) -> bool:
    if N.carrier.exps != M.carrier.exps:
        return False
    K, basis = comodule_hom(N, M)
    if K.cardinality() > budget:
        raise EnumerationBudget("comodule hom has %d elements, budget %d"
                                % (K.cardinality(), budget))
    reps = [range(N.carrier.ring.p ** e) for e in K.exps]
    for coeffs in itertools.product(*reps):
        g = None
        for c, b in zip(coeffs, basis):
            t = b.scale(c)
            g = t if g is None else g + t
        if g is not None and is_isomorphism(g):
            return True
    return N.carrier.rank == 0


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

def _expect(status: str, want: str, what=None):
    """Assert a verdict; one that ran out of budget makes the check
    inconclusive instead of failed."""
    if status == "inconclusive":
        raise EnumerationBudget("verdict inconclusive, expected %s%s"
                                % (want, " (%s)" % (what,) if what else ""))
    assert status == want, what


def _check(results, name, fn):
    """One suite check: fail on an error, inconclusive out of budget."""
    t0 = time.monotonic()
    try:
        detail = fn()
        status = "pass"
        if isinstance(detail, dict) and detail.get("status"):
            status = detail["status"]
    except AssertionError as e:
        detail = {"error": str(e) or "assertion failed"}
        status = "fail"
    except EnumerationBudget as e:
        detail = {"error": "EnumerationBudget: %s" % e}
        status = "inconclusive"
    except MemoryError:
        raise       # no verdict on the check; the CLI exits 2
    except Exception as e:  # pragma: no cover - surfaced in the report
        detail = {"error": "%s: %s" % (type(e).__name__, e)}
        status = "fail"
    results.append({"name": name, "status": status,
                    "seconds": round(time.monotonic() - t0, 4),
                    "detail": detail if isinstance(detail, dict) else {}})


def standard_coend_cases():
    """The diagrams the acceptance suite runs coend axioms on."""
    cases = []
    for p, f in ((2, 1), (3, 1)):
        alg = AlgebraSpec.make(p, 1, f)
        cases.append(("trivial-F%d" % p, trivial_full_hom_diagram(alg)))
        for g in (1, 2, 3):
            cases.append(("grouplike-F%d-g%d" % (p, g), grouplike_diagram(alg, g)))
        for r in (1, 2, 3):
            cases.append(("comatrix-F%d-r%d" % (p, r), comatrix_diagram(alg, r)))
    cases.append(("full-endo-GR(4,2)",
                  trivial_full_hom_diagram(AlgebraSpec.make(2, 2, 2))))
    D, _ = mf_family_diagram(2, 1, 1, (0, 1))
    cases.append(("mf-F2-M0-M1", D))
    D, _ = mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)
    cases.append(("mf-F2-M0-M1-sum", D))
    return cases


def run_suite(budget: int = 4096) -> list[dict]:
    """Every example and property family of the built-in suite; one verdict
    per named check."""
    results: list[dict] = []

    def ring_checks():
        Z8 = ring_make(2, 3, 1)
        F4 = ring_make(2, 1, 2)
        GR42 = ring_make(2, 2, 2)
        assert Z8.h == (7, 1) and Z8.inv(3) == 3 and Z8.val(0) == 3  # h = x - 1
        assert F4.modulus_str() == "x^2+x+1"
        assert GR42.modulus_str() == "x^2+x+1"
        assert F4.frobenius(F4.x) == F4.from_coeffs((1, 1))
        assert GR42.frobenius(GR42.x) == GR42.from_coeffs((3, 3))
        two_x = GR42.from_coeffs((0, 2))
        assert not GR42.is_unit(two_x) and GR42.val(two_x) == 1
        for R in (Z8, F4, GR42):
            for a in R.elements():
                assert R.frobenius(R.frobenius(a)) == a if R.f == 2 else True
                assert (R.val(R.sub(R.frobenius(a), R.pow(a, R.p))) >= 1
                        or R.frobenius(a) == R.pow(a, R.p))
                assert R.from_coeffs(R.coeffs(a)) == a
                assert R.is_unit(a) == any(R.mul(a, b) == 1 for b in R.elements())
        return {"rings": ["Z/8", "F_4", "GR(4,2)"]}

    _check(results, "rings/examples-and-enumeration", ring_checks)

    def smith_checks():
        rng = random.Random(101)
        count = 0
        for R in (ring_make(2, 3, 1), ring_make(2, 1, 2), ring_make(2, 2, 2)):
            for _ in range(1000):
                r = rng.randint(0, 6)
                c = rng.randint(0, 6)
                A = Matrix(R, [[rng.randrange(R.size) for _ in range(c)]
                               for _ in range(r)], r, c)
                sf = smith(A)
                # U from its sparse columns, and U^-1 from its sparse rows:
                # written as columns, they give its transpose
                U = Matrix.from_sparse(R, sf.U, r)
                u_inv = Matrix.from_cols(R, Matrix.from_sparse(R, sf.u_inv, r).data, r)
                # U^-1 A, its columns in perm order, is upper triangular
                # with row i divisible by its diagonal p^(a_i), which column
                # operations alone then diagonalise
                a = list(sf.invariants) + [R.n] * (r - len(sf.invariants))
                for i, row in enumerate((u_inv @ A).data):
                    row = [row[j] for j in sf.perm]
                    assert not any(row[:i]) and all(R.val(e) >= a[i] for e in row[i:])
                    assert a[i] == R.n or row[i] == R.p_elem(a[i])
                assert sorted(sf.perm) == list(range(c))
                assert U @ u_inv == Matrix.identity(R, r)
                assert list(sf.invariants) == sorted(sf.invariants)
                count += 1
        return {"matrices": count}

    _check(results, "linalg/smith-random", smith_checks)

    def coend_axiom_checks():
        out = {}
        for name, D in standard_coend_cases():
            CR = coend(D)   # coalgebra_check runs inside
            out[name] = list(CR.coalgebra.carrier.exps)
        return out

    _check(results, "coend/axioms-suite", coend_axiom_checks)

    def unit_lift_checks():
        for name, D in standard_coend_cases():
            CR = coend(D)
            lifted = lift_coaction(CR)
            assert morphisms_are_comodule_maps(CR, lifted), name
        return {}

    _check(results, "coend/unit-lift-suite", unit_lift_checks)

    def comatrix_reconstruction():
        out = {}
        for p in (2, 3):
            alg = AlgebraSpec.make(p, 1, 1)
            for r in (1, 2, 3):
                D = comatrix_diagram(alg, r)
                CR = coend(D)
                assert CR.coalgebra.carrier.rank == r * r
                C = comatrix_coalgebra(alg, r)
                std = comatrix_standard_comodule(C, r)
                res = counit_map(C, [std])
                assert res.iso and res.coalgebra_morphism, (p, r)
                out["p%d-r%d" % (p, r)] = "iso"
        return out

    _check(results, "reconstruction/comatrix", comatrix_reconstruction)

    def grouplike_reconstruction():
        alg = AlgebraSpec.make(2, 1, 1)
        for g in (1, 2, 3):
            C = grouplike_coalgebra(alg, g)
            fam = [grouplike_line(C, i) for i in range(g)]
            res = counit_map(C, fam)
            assert res.iso and res.coalgebra_morphism, g
        return {}

    _check(results, "reconstruction/grouplike", grouplike_reconstruction)

    def generator_robustness():
        rng = random.Random(2024)
        algs = [AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(2, 1, 2),
                AlgebraSpec.make(2, 2, 1)]
        full = rows = 0
        for trial in range(60):
            alg = algs[trial % 3]
            D, gen_list = random_diagram(rng, alg)
            N, r_full = coend_relation_rows(D)
            _, r_sub = coend_relation_rows(D, morphisms=gen_list)
            assert r_full == r_sub, trial
            rows += 1
            limit = 12 if alg.fb == 1 else 8
            if N <= limit:
                CR_f = coend(D, check=False)
                CR_s = coend(D, morphisms=gen_list, check=False)
                assert CR_f.coalgebra.carrier.exps == CR_s.coalgebra.carrier.exps
                assert CR_f.classmap == CR_s.classmap
                assert CR_f.coalgebra.delta == CR_s.coalgebra.delta
                assert CR_f.coalgebra.counit == CR_s.coalgebra.counit
                full += 1
        assert rows >= 50 and full >= 30
        return {"diagrams": rows, "full_presentations": full}

    _check(results, "coend/generator-robustness", generator_robustness)

    def mf_pipeline():
        D, objs = mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)
        CR = coend(D)
        assert flatness_check(CR.coalgebra)
        lifted = lift_coaction(CR)
        verd = unit_fully_faithful_check(CR, lifted)
        assert len(verd) == 9 and all(v[0] == "equal" for v in verd.values())
        probe = essential_surjectivity_probe(CR, rank=1, budget=budget)
        _expect(probe["verdict"], "verified", probe)
        return {"L": list(CR.coalgebra.carrier.exps), "probe": probe}

    _check(results, "mf/fully-faithful-family", mf_pipeline)

    def recognition_soundness():
        alg = AlgebraSpec.make(2, 1, 1)
        D = trivial_full_hom_diagram(alg)
        rep = recognition_check(D, budget)
        _expect(rep.reflects_isos.status, "verified")
        _expect(rep.cofiltered.status, "verified")
        Dbad = DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                               {(0, 0): [Matrix.identity(alg.B, 1)],
                                (1, 1): [Matrix.identity(alg.B, 1)],
                                (0, 1): [Matrix.identity(alg.B, 1)]})
        rep2 = recognition_check(Dbad, budget)
        _expect(rep2.reflects_isos.status, "refuted")
        w = rep2.reflects_isos.witness
        assert recheck_iso_witness(Dbad, w["pair"][0], w["pair"][1], w["matrix"])
        Dg = grouplike_diagram(alg, 2)
        rep3 = recognition_check(Dg, budget)
        _expect(rep3.cofiltered.status, "refuted")
        assert recheck_cone_witness(Dg, rep3.cofiltered.witness["first"],
                                    rep3.cofiltered.witness["second"])
        return {}

    _check(results, "recognition/soundness", recognition_soundness)

    def reconstruction_probes():
        out = {}
        alg = AlgebraSpec.make(2, 1, 1)
        for name, C in (("trivial", trivial_coalgebra(alg)),
                        ("grouplike-2", grouplike_coalgebra(alg, 2)),
                        ("comatrix-2", comatrix_coalgebra(alg, 2))):
            rep = reconstruction_probe(C, budget)
            out[name] = rep
            assert rep["surjective"], name   # field case: hypothesis holds
        return out

    _check(results, "reconstruction/enough-cauchy-probe", reconstruction_probes)

    return results
