"""The CLI pipeline as it ran on the whole closed diagram, before it was
split by connected components: one coend, one lift and one unit check
that solves the comodule homs of every pair of objects.  Kept only to be
tested against."""

from tannaka_forge.cli import _unit_verdicts_json
from tannaka_forge.coalgebra import AxiomError
from tannaka_forge.tannaka import (hom_closure, coend, lift_coaction,
                                   unit_fully_faithful_check, counit_map,
                                   counit_from_coend, flatness_check,
                                   recognition_check)
from oracle_reference import morphisms_are_comodule_maps


def run_pipeline(D, budget: int, with_recognition: bool) -> tuple[list, dict]:
    """The shared diagram pipeline: closure, coend, unit lift, flatness,
    optional recognition.  Returns (checks, results)."""
    checks, results = [], {}
    D = hom_closure(D)
    try:
        CR = coend(D)
        checks.append({"name": "coend-axioms", "status": "pass"})
    except AxiomError as e:
        checks.append({"name": "coend-axioms", "status": "fail",
                       "detail": str(e)})
        return checks, results
    results["coend"] = {"rank": CR.coalgebra.carrier.rank,
                        "exps": list(CR.coalgebra.carrier.exps)}
    lifted = lift_coaction(CR)
    ok = morphisms_are_comodule_maps(CR, lifted)
    checks.append({"name": "unit-lift", "status": "pass" if ok else "fail"})
    verd = unit_fully_faithful_check(CR, lifted)
    results["unit"] = _unit_verdicts_json(D, verd)
    alleq = all(v[0] == "equal" for v in verd.values())
    checks.append({"name": "unit-fully-faithful",
                   "status": "pass" if alleq else "fail"})
    flat = flatness_check(CR.coalgebra)
    results["flat"] = flat
    checks.append({"name": "flatness", "status": "pass" if flat else "fail"})
    # reconstruction echo: nu from the lifted family back onto L.  When
    # every unit verdict is "equal", the family's diagram is D itself (each
    # lifted fiber is already in standard form and each comodule-hom span
    # is D's), so its closure and coend are D and CR, already checked.
    # The size gate is kept only so that report digests stay unchanged;
    # lifting it (ROADMAP, the echo at every rung) changes them.
    if sum(m * m for m in CR.block_dims) <= 12:
        res = counit_from_coend(CR.coalgebra, lifted, CR) if alleq else \
            counit_map(CR.coalgebra, lifted)
        results["counit"] = {"injective": res.injective,
                             "surjective": res.surjective, "iso": res.iso}
        checks.append({"name": "counit-self-reconstruction",
                       "status": "pass" if res.iso else "fail"})
    else:
        results["counit"] = {"skipped": "diagram too large for the echo"}
    if with_recognition:
        rep = recognition_check(D, budget)
        results["recognition"] = rep.as_dict()
    return checks, results
