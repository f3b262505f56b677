"""tannaka-forge: command-line front end.

    tannaka-forge coend [--budget N] [--json PATH] FILE
    tannaka-forge reconstruct [--budget N] [--json PATH] FILE
    tannaka-forge recognize [--budget N] [--json PATH] FILE
    tannaka-forge mf demo --p P --n N --f F --objects SPEC [--budget N] [--json PATH]
    tannaka-forge verify-suite [--budget N] [--json PATH]

Exit codes: 0 all requested checks pass/verified; 1 a check failed or was
refuted; 2 input or parse error, or out of memory; 3 no failures but at
least one verdict was inconclusive (budget exhaustion).

Reports are deterministic for identical inputs: verdicts are sorted by
stable keys and the report digest is computed over the canonical JSON with
the timing section removed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .algebra import AlgebraSpec
from .rings import ring_make
from .textio import (ParseError, parse_diagram, parse_reconstruct_input,
                     parse_mf_objects_spec, format_matrix)
from .tannaka import (hom_closure, coend, lift_coaction, unit_fully_faithful_check,
                      counit_map, counit_from_coend, flatness_check,
                      recognition_check, DiagramNotClosed, CoendTooLarge,
                      UnitLiftError)
from .coalgebra import AxiomError
from .mf import mf_to_diagram, MFError
from .suite import run_suite


SCHEMA = 1


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _finish_report(report: dict, t0: float, json_path: str | None,
                   timings: dict | None = None) -> int:
    report["timings"] = {"total_s": round(time.monotonic() - t0, 4),
                         **(timings or {})}
    body = {k: v for k, v in report.items() if k not in ("timings", "report_digest")}
    report["report_digest"] = _digest(_canonical_json(body).encode())
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    statuses = [c["status"] for c in report.get("checks", [])]
    if any(s in ("fail", "refuted") for s in statuses):
        return 1
    if any(s == "inconclusive" for s in statuses):
        return 3
    return 0


def _base_report(command: str, input_bytes: bytes, budget: int) -> dict:
    return {"schema": SCHEMA, "command": command,
            "input_digest": _digest(input_bytes), "budget": budget,
            "checks": []}


def _read_input(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _alg_info(alg: AlgebraSpec) -> dict:
    return {"algebra": alg.literal(),
            "modulus": alg.B.modulus_str()}


def _unit_verdicts_json(D, verdicts):
    out = {}
    for (k, l), v in sorted(verdicts.items()):
        key = "%s->%s" % (D.objects[k].name, D.objects[l].name)
        out[key] = v[0] if v[0] == "equal" else \
            {"verdict": v[0], "witness": format_matrix(v[1])}
    return out


def _run_pipeline(D, budget: int, with_recognition: bool) -> tuple[list, dict]:
    """The shared diagram pipeline: closure, then coend, unit lift, unit
    check, flatness and the counit echo once per connected component of
    the closed diagram, then optional recognition on the whole diagram.
    Returns (checks, results).

    A relation of F in span(k, l) touches only T_k and T_l, so the coend
    is the direct sum of the components' coends, and each object's
    coaction lands in its own component's summand.  A comodule map between
    components is then zero on both sides of its equation, hence zero: its
    unit verdict is "equal" with no solve.  The reported rank, exponents,
    verdicts and flags are those of the whole diagram."""
    checks, results = [], {}
    D = hom_closure(D)
    n = D.nobj()
    verdicts = {(k, l): ("equal",) for k in range(n) for l in range(n)}
    exps, flat, echoes = [], True, []
    # the echo gate reads the whole diagram; it is kept only so that report
    # digests stay unchanged, and lifting it (ROADMAP, the echo at every
    # rung) changes them
    echo = sum((obj.rank * D.alg.fb) ** 2 for obj in D.objects) <= 12
    for ks in D.components():
        try:
            CR = coend(D.restrict(ks))
        except AxiomError as e:
            checks.append({"name": "coend-axioms", "status": "fail",
                           "detail": str(e)})
            return checks, results
        L = CR.coalgebra
        exps += L.carrier.exps
        lifted = lift_coaction(CR)
        try:
            verd = unit_fully_faithful_check(CR, lifted)
        except UnitLiftError as e:
            checks.append({"name": "unit-lift", "status": "fail",
                           "detail": str(e)})
            return checks, results
        verdicts.update({(ks[a], ks[b]): v for (a, b), v in verd.items()})
        flat = flatness_check(L) and flat
        # reconstruction echo: nu from the lifted family back onto L_c.
        # When every verdict of the component is "equal", the family's
        # diagram is the component itself (each lifted fiber is already in
        # standard form and each comodule-hom span is the component's), so
        # its closure and coend are the component's and CR, already checked
        if echo:
            alleq = all(v[0] == "equal" for v in verd.values())
            echoes.append(counit_from_coend(L, lifted, CR) if alleq else
                          counit_map(L, lifted))
    checks.append({"name": "coend-axioms", "status": "pass"})
    results["coend"] = {"rank": len(exps), "exps": sorted(exps, reverse=True)}
    # every morphism is a comodule map of the lifted coactions: the unit
    # check raises when a diagram span leaves the comodule homs
    checks.append({"name": "unit-lift", "status": "pass"})
    results["unit"] = _unit_verdicts_json(D, verdicts)
    alleq = all(v[0] == "equal" for v in verdicts.values())
    checks.append({"name": "unit-fully-faithful",
                   "status": "pass" if alleq else "fail"})
    results["flat"] = flat
    checks.append({"name": "flatness", "status": "pass" if flat else "fail"})
    if echo:
        flags = {name: all(getattr(res, name) for res in echoes)
                 for name in ("injective", "surjective", "iso")}
        results["counit"] = flags
        checks.append({"name": "counit-self-reconstruction",
                       "status": "pass" if flags["iso"] else "fail"})
    else:
        results["counit"] = {"skipped": "diagram too large for the echo"}
    if with_recognition:
        rep = recognition_check(D, budget)
        results["recognition"] = rep.as_dict()
    return checks, results


def cmd_coend(args) -> int:
    t0 = time.monotonic()
    text = _read_input(args.file)
    report = _base_report("coend", text.encode(), args.budget)
    try:
        D = parse_diagram(text)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    report.update(_alg_info(D.alg))
    checks, results = _run_pipeline(D, args.budget, with_recognition=False)
    report["checks"] = checks
    report["results"] = results
    return _finish_report(report, t0, args.json)


def cmd_reconstruct(args) -> int:
    t0 = time.monotonic()
    text = _read_input(args.file)
    report = _base_report("reconstruct", text.encode(), args.budget)
    try:
        C, family = parse_reconstruct_input(text)
    except (ParseError, AxiomError, ValueError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    report.update(_alg_info(C.alg))
    try:
        res = counit_map(C, family)
    except ValueError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    report["results"] = {
        "counit": {"injective": res.injective, "surjective": res.surjective,
                   "iso": res.iso},
        "coalgebra_morphism": res.coalgebra_morphism,
        "coend": {"rank": res.coend_result.coalgebra.carrier.rank,
                  "exps": list(res.coend_result.coalgebra.carrier.exps)},
    }
    report["checks"] = [
        {"name": "nu-coalgebra-morphism",
         "status": "pass" if res.coalgebra_morphism else "fail"},
        {"name": "nu-isomorphism", "status": "pass" if res.iso else "fail"},
    ]
    return _finish_report(report, t0, args.json)


def cmd_recognize(args) -> int:
    t0 = time.monotonic()
    text = _read_input(args.file)
    report = _base_report("recognize", text.encode(), args.budget)
    try:
        D = parse_diagram(text)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    report.update(_alg_info(D.alg))
    try:
        rep = recognition_check(D, args.budget)
    except DiagramNotClosed as e:
        print("input error: diagram is not composition-closed: %s" % e,
              file=sys.stderr)
        return 2
    report["results"] = {"recognition": rep.as_dict()}
    report["checks"] = [
        {"name": "reflects-isomorphisms", "status": rep.reflects_isos.status},
        {"name": "elements-cofiltered", "status": rep.cofiltered.status},
        {"name": "rigid-colimits", "status": rep.rigid_colimits.status},
    ]
    return _finish_report(report, t0, args.json)


def cmd_mf_demo(args) -> int:
    t0 = time.monotonic()
    key = "p=%d n=%d f=%d objects=%s" % (args.p, args.n, args.f, args.objects)
    report = _base_report("mf demo", key.encode(), args.budget)
    try:
        W = ring_make(args.p, args.n, args.f)
        objects = parse_mf_objects_spec(args.objects, W)
        D = mf_to_diagram(objects)
    except (ParseError, MFError, ValueError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    report.update(_alg_info(D.alg))
    checks, results = _run_pipeline(D, args.budget, with_recognition=True)
    # cofilteredness refuted/inconclusive is expected for MF truncations:
    # surfaced in results, not scored as a failing check
    report["checks"] = checks
    report["results"] = results
    report["notes"] = ["recognition verdicts are informational for MF "
                       "truncations; el(omega) cofilteredness is expected "
                       "to be refuted or inconclusive at finite level"]
    return _finish_report(report, t0, args.json)


def cmd_verify_suite(args) -> int:
    t0 = time.monotonic()
    report = _base_report("verify-suite", b"builtin-suite", args.budget)
    results = run_suite(args.budget)
    report["checks"] = [{"name": r["name"], "status": r["status"],
                         "detail": r.get("detail", {})} for r in results]
    return _finish_report(report, t0, args.json, {
        "seconds_per_check": {r["name"]: r["seconds"] for r in results}})


def _budget(text: str) -> int:
    if not text.lstrip("-").isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "budget must be an integer of at least 1, got %r" % text)
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it, and every in-process `main` call reuses it."""
    ap = argparse.ArgumentParser(
        prog="tannaka-forge",
        description="exact coend-coalgebra engine over finite chain rings")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        p.add_argument("--budget", type=_budget, default=4096,
                       help="enumeration cap for brute-force checks")
        p.add_argument("--json", metavar="PATH",
                       help="also write the report to PATH")
        if with_file:
            p.add_argument("file", help="input file")

    p = sub.add_parser("coend", help="coend coalgebra of a diagram file")
    common(p)
    p.set_defaults(fn=cmd_coend)
    p = sub.add_parser("reconstruct",
                       help="counit comparison for a coalgebra + comodule family")
    common(p)
    p.set_defaults(fn=cmd_reconstruct)
    p = sub.add_parser("recognize", help="recognition conditions for a diagram")
    common(p)
    p.set_defaults(fn=cmd_recognize)
    pmf = sub.add_parser("mf", help="filtered F-module pipelines")
    mfsub = pmf.add_subparsers(dest="mf_command", required=True)
    p = mfsub.add_parser("demo", help="run the full pipeline on Tate-style objects")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--objects", required=True,
                   help="e.g. M(0),M(1),M(0)+M(1)")
    common(p, with_file=False)
    p.set_defaults(fn=cmd_mf_demo)
    p = sub.add_parser("verify-suite", help="run the product's checks on the "
                       "built-in examples")
    common(p, with_file=False)
    p.set_defaults(fn=cmd_verify_suite)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError,     # an unreadable file or path
            CoendTooLarge) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        # running out of memory is no verdict on the input
        print("input error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
