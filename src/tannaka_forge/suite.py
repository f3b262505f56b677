"""Built-in example objects and the verification suite.

The examples are the standard coalgebras, comodules and diagrams, which
the benchmark and the tests build their inputs from.  `run_suite` runs
only the product's own computations on them: the coend and its axioms,
the unit lift and its full faithfulness, comatrix and grouplike
reconstruction, the filtered-module family, and the recognition verdicts.
The enumeration oracles and reference checks that test these computations
are tests, not suite checks.

Everything here is deterministic: fixed rings, fixed generator orders, and
seeded randomness, so suite transcripts are comparable across runs.
"""

from __future__ import annotations

import random
import time

from .rings import ring_make
from .linalg import Matrix
from .modules import FinModule, ModuleMap, EnumerationBudget
from .algebra import (AlgebraSpec, BBBimodule, free_bmodule,
                      regular_bimodule, tensor_bimodules, tensor_bim_bmodule)
from .coalgebra import Coalgebra, Comodule, coalgebra_check, comodule_check
from .tannaka import (DiagObject, DiagramCategory, hom_closure, coend,
                      lift_coaction, unit_fully_faithful_check, counit_map,
                      flatness_check, recognition_check)
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
# the suite runner
# ---------------------------------------------------------------------------

def _expect(status: str, want: str):
    """Assert a verdict; one that ran out of budget makes the check
    inconclusive instead of failed."""
    if status == "inconclusive":
        raise EnumerationBudget("verdict inconclusive, expected %s" % want)
    assert status == want


def _check(results, name, fn):
    """One suite check: fail on an error, inconclusive out of budget."""
    t0 = time.monotonic()
    try:
        detail = fn()
        status = "pass"
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
                    "detail": detail})


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
    """The product's computations on the built-in examples; one verdict
    per named check.  Only the recognition verdicts read the budget."""
    results: list[dict] = []

    def coend_axiom_checks():
        out = {}
        for name, D in standard_coend_cases():
            CR = coend(D)   # coalgebra_check runs inside
            out[name] = list(CR.coalgebra.carrier.exps)
        return out

    _check(results, "coend/axioms-suite", coend_axiom_checks)

    def unit_lift_checks():
        # lift_coaction checks each lifted comodule; the unit check raises
        # UnitLiftError when a hom span is not inside the comodule homs
        for _, D in standard_coend_cases():
            CR = coend(D)
            unit_fully_faithful_check(CR, lift_coaction(CR))
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

    def mf_pipeline():
        D, _ = mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)
        CR = coend(D)
        assert flatness_check(CR.coalgebra)
        verd = unit_fully_faithful_check(CR, lift_coaction(CR))
        assert len(verd) == 9 and all(v[0] == "equal" for v in verd.values())
        return {"L": list(CR.coalgebra.carrier.exps)}

    _check(results, "mf/fully-faithful-family", mf_pipeline)

    def recognition_soundness():
        alg = AlgebraSpec.make(2, 1, 1)
        rep = recognition_check(trivial_full_hom_diagram(alg), budget)
        _expect(rep.reflects_isos.status, "verified")
        _expect(rep.cofiltered.status, "verified")
        Dbad = DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                               {(0, 0): [Matrix.identity(alg.B, 1)],
                                (1, 1): [Matrix.identity(alg.B, 1)],
                                (0, 1): [Matrix.identity(alg.B, 1)]})
        _expect(recognition_check(Dbad, budget).reflects_isos.status, "refuted")
        rep3 = recognition_check(grouplike_diagram(alg, 2), budget)
        _expect(rep3.cofiltered.status, "refuted")
        return {}

    _check(results, "recognition/soundness", recognition_soundness)

    return results
