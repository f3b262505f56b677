"""Benchmark inputs, ops and the correctness oracle.

Three workloads, each with a different dominant layer:

* ``verify-field`` -- a fixed ladder of CLI runs over B = R (f_B = 1), where
  the time goes into the coalgebra axiom checks;
* ``verify-witt`` -- a fixed ladder of CLI runs over B = GR(p^n, f), f >= 2,
  where the tensor over B is a true quotient and Smith forms dominate;
* ``spans`` -- seeded random diagrams over GR(4,2) through the public API
  (parse -> hom_closure -> coend(check=False)), where the closure checks
  dominate and no axiom check runs.

Ladder inputs are generated by the engine's own ``suite`` and ``textio``
modules and written as files that each CLI op reads, as a user's call
would.  ``spans`` draws are written out too; their op starts from the
diagram text.  The ladders are fixed; ``--seed`` sets the order of every
pass and, for ``spans``, the matrix entries of every draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field


DEFAULT_SEED = 3

# Passes are sized from --seconds with these per-pass costs, measured on the
# seed commit (2-core Intel Xeon VM, Python 3.11).  Every run of one
# workload at one --seconds does the same ops, so parent and change time the
# same work and the latency percentiles see the same sample count.
NOMINAL_PASS_S = {"verify-field": 9.0, "verify-witt": 10.0, "spans": 15.0}

# the spans pool: a fixed sample of draw shapes from the distribution below
SPANS_SHAPE_SEED = 7
SPANS_POOL = 30


@dataclass
class Op:
    """One benchmark op.  ``argv`` is a CLI invocation (file names relative
    to the work directory); ``text`` is a diagram for the API pipeline."""
    label: str
    argv: list[str] | None = None
    text: str | None = None
    facts: dict = field(default_factory=dict)


def load_engine() -> dict:
    """Import (or re-import) the engine from scratch and return its modules."""
    for name in [n for n in sys.modules if n == "tannaka_forge"
                 or n.startswith("tannaka_forge.")]:
        del sys.modules[name]
    mods = {}
    for name in ("rings", "linalg", "algebra", "coalgebra", "tannaka", "mf",
                 "textio", "suite", "cli"):
        mods[name] = importlib.import_module("tannaka_forge." + name)
    return mods


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _write(workdir, name, text):
    with open(os.path.join(workdir, name), "w") as fh:
        fh.write(text)
    return name


def _mf_argv(p, n, f, objects):
    return ["mf", "demo", "--p", str(p), "--n", str(n), "--f", str(f),
            "--objects", objects]


def verify_field_ops(E, workdir) -> list[Op]:
    suite, fmt = E["suite"], E["textio"]
    F2 = E["algebra"].AlgebraSpec.make(2, 1, 1)
    F3 = E["algebra"].AlgebraSpec.make(3, 1, 1)
    ops = []
    for label, alg, D, rank in (
            ("coend/comatrix-F2-r3", F2, suite.comatrix_diagram(F2, 3), 9),
            ("coend/comatrix-F3-r3", F3, suite.comatrix_diagram(F3, 3), 9),
            ("coend/grouplike-F2-g12", F2, suite.grouplike_diagram(F2, 12), 12),
            ("coend/comatrix-F2-r4", F2, suite.comatrix_diagram(F2, 4), 16)):
        name = _write(workdir, label.split("/")[1] + ".diagram", fmt.format_diagram(D))
        ops.append(Op(label, ["coend", name],
                      facts={"rank": rank, "exps": [1] * rank, "echo": rank <= 12}))
    C = suite.comatrix_coalgebra(F2, 3)
    text = fmt.format_reconstruct_input(C, [suite.comatrix_standard_comodule(C, 3)])
    ops.append(Op("reconstruct/comatrix-F2-r3",
                  ["reconstruct", _write(workdir, "comatrix-F2-r3.reconstruct", text)],
                  facts={"rank": 9, "exps": [1] * 9}))
    C = suite.grouplike_coalgebra(F2, 8)
    text = fmt.format_reconstruct_input(C, [suite.grouplike_line(C, i) for i in range(8)])
    ops.append(Op("reconstruct/grouplike-F2-g8",
                  ["reconstruct", _write(workdir, "grouplike-F2-g8.reconstruct", text)],
                  facts={"rank": 8, "exps": [1] * 8}))
    for n in (1, 2):
        ops.append(Op("mf-demo/p2-n%d-f1-sum" % n,
                      _mf_argv(2, n, 1, "M(0),M(1),M(0)+M(1)"), facts={"echo": True}))
    return ops


def verify_witt_ops(E, workdir) -> list[Op]:
    suite, fmt, algebra = E["suite"], E["textio"], E["algebra"]
    # mf demo over F9 (about 3 s) is left out to keep three passes of the
    # ladder inside the run budget; GR(4,2) exercises the same MF path
    ops = [Op("mf-demo/GR(4,2)", _mf_argv(2, 2, 2, "M(0),M(1)"), facts={"echo": True})]
    for p, n, f in ((2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 1, 8)):
        text = ("alg R=GR(%d^%d,1) B=GR(%d^%d,%d)\nobject A rank 1\n"
                "hom A A = [[[1]],[[x]]]\n" % (p, n, p, n, f))
        name = _write(workdir, "full-endo-%d-%d-%d.diagram" % (p, n, f), text)
        # End_B(B) = B, so L is the R-dual of B: free of rank f over Z/p^n
        ops.append(Op("coend/full-endo-GR(%d^%d,%d)" % (p, n, f), ["coend", name],
                      facts={"rank": f, "exps": [n] * f, "echo": f <= 3}))
    alg = algebra.AlgebraSpec.make(2, 2, 2)
    C = suite.trivial_coalgebra(alg)
    family = [E["coalgebra"].cofree(C, algebra.free_bmodule(alg, 1))]
    text = fmt.format_reconstruct_input(C, family)
    ops.append(Op("reconstruct/trivial-GR(4,2)-cofree",
                  ["reconstruct", _write(workdir, "trivial-GR42.reconstruct", text)],
                  facts={"rank": 2, "exps": [2, 2]}))
    return ops


def spans_shapes(count: int = SPANS_POOL):
    """Draw shapes: 1-4 objects of rank 1-3 and 0, 1, 1 or 2 generators
    (equally likely) per ordered pair.  The shapes are a fixed sample so
    that the cost of a pass does not swing with --seed; the seed draws the
    matrix entries."""
    rng = random.Random(SPANS_SHAPE_SEED)
    shapes = []
    for _ in range(count):
        ranks = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        counts = [[rng.choice((0, 1, 1, 2)) for _ in ranks] for _ in ranks]
        shapes.append((ranks, counts))
    return shapes


def spans_ops(E, seed: int, count: int = SPANS_POOL) -> list[Op]:
    alg = E["algebra"].AlgebraSpec.make(2, 2, 2)
    B, Matrix = alg.B, E["linalg"].Matrix
    fmt_mat = E["textio"].format_matrix
    rng = random.Random(seed)
    ops = []
    for i, (ranks, counts) in enumerate(spans_shapes(count)):
        lines = [alg.literal()] + ["object A%d rank %d" % (k, r)
                                   for k, r in enumerate(ranks)]
        for k, rk in enumerate(ranks):
            for l, rl in enumerate(ranks):
                mats = [Matrix(B, [[rng.randrange(B.size) for _ in range(rk)]
                                   for _ in range(rl)], rl, rk)
                        for _ in range(counts[k][l])]
                if mats:
                    lines.append("hom A%d A%d = [%s]" % (
                        k, l, ",".join(fmt_mat(M) for M in mats)))
        ops.append(Op("spans/draw-%02d" % i, text="\n".join(lines) + "\n"))
    return ops


def make_ops(E, workload: str, seed: int, workdir: str) -> list[Op]:
    if workload == "verify-field":
        return verify_field_ops(E, workdir)
    if workload == "verify-witt":
        return verify_witt_ops(E, workdir)
    if workload == "spans":
        ops = spans_ops(E, seed)
        for op in ops:
            _write(workdir, op.label.split("/")[1] + ".diagram", op.text)
        return ops
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------

def run_cli(main, argv, workdir):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    args = [a if not a.endswith((".diagram", ".reconstruct")) else
            os.path.join(workdir, a) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf


def run_spans(E, text):
    """The spans op: parse -> hom_closure -> coend(check=False)."""
    D_raw = E["textio"].parse_diagram(text)
    D = E["tannaka"].hom_closure(D_raw)
    return D_raw, D, E["tannaka"].coend(D, check=False)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def coend_digest(CR) -> str:
    """Digest of the canonical coend output: carrier, class map, delta and
    counit, entry for entry."""
    L = CR.coalgebra
    body = json.dumps([list(L.carrier.exps), CR.classmap.data, L.delta.mat.data,
                       L.counit.mat.data], separators=(",", ":"))
    return "sha256:" + hashlib.sha256(body.encode()).hexdigest()


def check_cli(op: Op, code, buf, expected: dict) -> tuple[list[str], str | None]:
    """Problems with one CLI op's result, and its report digest."""
    try:
        rep = json.loads(buf.getvalue())
    except ValueError:
        return ["exit %s with no JSON report" % code], None
    digest = rep.get("report_digest")
    problems = []
    want = expected.get(op.label)
    if want is None:
        problems.append("no recorded digest")
    else:
        if code != want["exit"]:
            problems.append("exit %s, recorded %s" % (code, want["exit"]))
        if digest != want["digest"]:
            problems.append("digest %s, recorded %s" % (digest, want["digest"]))
    bad = [c["name"] for c in rep.get("checks", []) if c["status"] != "pass"]
    if bad:
        problems.append("checks not passing: %s" % ",".join(bad))
    res = rep.get("results", {})
    L = res.get("coend", {})
    if "rank" in op.facts and L.get("rank") != op.facts["rank"]:
        problems.append("L rank %s, expected %s" % (L.get("rank"), op.facts["rank"]))
    if "exps" in op.facts and L.get("exps") != op.facts["exps"]:
        problems.append("L exps %s, expected %s" % (L.get("exps"), op.facts["exps"]))
    counit = res.get("counit", {})
    if op.argv[0] == "reconstruct":
        if not (counit.get("iso") and res.get("coalgebra_morphism")):
            problems.append("reconstruction is not an iso coalgebra morphism")
    elif op.facts.get("echo") and counit.get("iso") is not True:
        problems.append("counit echo is not an iso")
    elif not op.facts.get("echo", True) and "skipped" not in counit:
        problems.append("counit echo ran on a diagram it should skip")
    if op.argv[0] in ("coend", "mf") and res.get("flat") is not True:
        problems.append("L is not flat")
    return problems, digest


def check_spans(E, op: Op, result, expected: dict, seed: int):
    """Problems with one spans op: the relations from the raw generators
    must equal those of the closed diagram (any seed); on the default seed
    the canonical output must match the recorded one."""
    D_raw, D, CR = result
    tannaka = E["tannaka"]
    raw = [(k, l, F) for (k, l), mats in sorted(D_raw.homs.items()) for F in mats]
    problems = []
    if tannaka.coend_relation_rows(D, morphisms=raw) != tannaka.coend_relation_rows(D):
        problems.append("relations from the raw generators differ from the closure's")
    digest = coend_digest(CR)
    if seed == DEFAULT_SEED:
        want = expected.get("spans-seed-%d" % DEFAULT_SEED, {}).get(op.label)
        if digest != want:
            problems.append("coend digest %s, recorded %s" % (digest, want))
    return problems, digest
