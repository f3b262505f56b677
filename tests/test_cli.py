import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tannaka_forge
from tannaka_forge import coalgebra, tannaka
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.cli import main
from tannaka_forge.coalgebra import comodule_hom_span
from tannaka_forge.linalg import Matrix, Span
from tannaka_forge.modules import EnumerationBudget
from tannaka_forge.rings import ring_make
from tannaka_forge.tannaka import DiagObject, DiagramCategory
from tannaka_forge.suite import grouplike_diagram
from tannaka_forge.textio import format_diagram


GROUPLIKE = """alg R=GR(2^1,1) B=GR(2^1,1)
object G0 rank 1
object G1 rank 1
hom G0 G0 = [[[1]]]
hom G1 G1 = [[[1]]]
"""

FULLHOM = """alg R=GR(2^1,1) B=GR(2^1,1)
object A rank 1
hom A A = [[[1]]]
"""

RECONSTRUCT = """alg R=GR(2^1,1) B=GR(2^1,1)
coalgebra {
  carrier = mod(1,1)
  left = [[1,0],[0,1]]
  right = [[1,0],[0,1]]
  delta = [[1,0],[0,0],[0,0],[0,1]]
  counit = [[1,1]]
}
comodule M0 {
  carrier = mod(1)
  action = [[1]]
  rho = [[1],[0]]
}
comodule M1 {
  carrier = mod(1)
  action = [[1]]
  rho = [[0],[1]]
}
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_coend_command(tmp_path, capsys):
    f = tmp_path / "grouplike.diagram"
    f.write_text(GROUPLIKE)
    code, rep = run(capsys, ["coend", str(f)])
    assert code == 0
    assert rep["schema"] == 1
    assert rep["results"]["coend"]["rank"] == 2
    assert rep["results"]["flat"] is True
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_coend_json_output(tmp_path, capsys):
    f = tmp_path / "g.diagram"
    f.write_text(GROUPLIKE)
    out = tmp_path / "report.json"
    code, rep = run(capsys, ["coend", "--json", str(out), str(f)])
    assert code == 0
    written = json.loads(out.read_text())
    assert written == rep


def test_report_digest_stable(tmp_path, capsys):
    f = tmp_path / "g.diagram"
    f.write_text(GROUPLIKE)
    _, rep1 = run(capsys, ["coend", str(f)])
    _, rep2 = run(capsys, ["coend", str(f)])
    assert rep1["report_digest"] == rep2["report_digest"]
    assert rep1["input_digest"] == rep2["input_digest"]
    # verify-suite keeps its per-check seconds under timings, outside the
    # digested body
    _, rep1 = run(capsys, ["verify-suite"])
    _, rep2 = run(capsys, ["verify-suite"])
    assert "seconds_per_check" in rep1["timings"]
    assert rep1["report_digest"] == rep2["report_digest"]


def test_reconstruct_command(tmp_path, capsys):
    f = tmp_path / "grouplike.coalg"
    f.write_text(RECONSTRUCT)
    code, rep = run(capsys, ["reconstruct", str(f)])
    assert code == 0
    assert rep["results"]["counit"]["iso"] is True
    assert rep["results"]["coalgebra_morphism"] is True


def test_reconstruct_ill_defined_delta_lift_is_input_error(tmp_path, capsys):
    # over Z/4 the carrier Z/4 + Z/2 has C (x) C = Z/4 + (Z/2)^3; the delta
    # lift sends the Z/2 generator to a unit in the Z/4 coordinate, which
    # is no module map, and the parser's ModuleMap refuses it
    f = tmp_path / "ill_defined.coalg"
    f.write_text("""alg R=GR(2^2,1) B=GR(2^2,1)
coalgebra {
  carrier = mod(2,1)
  left = [[1,0],[0,1]]
  right = [[1,0],[0,1]]
  delta = [[1,1],[0,0],[0,0],[0,0]]
  counit = [[1,0]]
}
comodule M0 {
  carrier = mod(2)
  action = [[1]]
  rho = [[1],[0]]
}
""")
    assert main(["reconstruct", str(f)]) == 2
    err = capsys.readouterr().err
    assert "entry (0,1) has valuation 0 < 1" in err


# counital, B-linear and not coassociative: over F2 the grouplike
# coalgebra on g0, g1, g2 with u (x) u added to delta(g2), u = g0 + g1; over
# GR(4,2) the grouplike B^3 with x^k u (x) u added to delta(x^k e_2),
# u = e_0 - e_1.  eps(u) = 0 keeps both counit laws, so only
# coassociativity fails, at generator 2 (F2) and 4 (e_2 over GR(4,2))
NOT_COASSOC_F2 = """alg R=GR(2^1,1) B=GR(2^1,1)
coalgebra {
  carrier = mod(1,1,1)
  left = [[1,0,0],[0,1,0],[0,0,1]]
  right = [[1,0,0],[0,1,0],[0,0,1]]
  delta = [[1,0,1],[0,0,1],[0,0,0],[0,0,1],[0,1,1],[0,0,0],[0,0,0],[0,0,0],[0,0,1]]
  counit = [[1,1,1]]
}
comodule M0 {
  carrier = mod(1)
  action = [[1]]
  rho = [[1],[0],[0]]
}
comodule M1 {
  carrier = mod(1)
  action = [[1]]
  rho = [[0],[1],[0]]
}
comodule M2 {
  carrier = mod(1)
  action = [[1]]
  rho = [[0],[0],[1]]
}
"""

NOT_COASSOC_GR42 = """alg R=GR(2^2,1) B=GR(2^2,2)
coalgebra {
  carrier = mod(2,2,2,2,2,2)
  left = [[0,3,0,0,0,0],[1,3,0,0,0,0],[0,0,0,3,0,0],[0,0,1,3,0,0],[0,0,0,0,0,3],[0,0,0,0,1,3]]
  right = [[0,3,0,0,0,0],[1,3,0,0,0,0],[0,0,0,3,0,0],[0,0,1,3,0,0],[0,0,0,0,0,3],[0,0,0,0,1,3]]
  delta = [[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[3,1,0,0,3,1],[3,0,0,0,3,0],[0,0,0,0,1,3],[0,0,0,0,1,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,1,3],[0,0,0,0,1,0],[0,0,3,1,3,1],[0,0,3,0,3,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,3,1],[0,0,0,0,3,0]]
  counit = [[1,0,1,0,1,0],[0,1,0,1,0,1]]
}
comodule M0 {
  carrier = mod(2,2)
  action = [[0,3],[1,3]]
  rho = [[1,0],[0,0],[0,1],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]]
}
comodule M1 {
  carrier = mod(2,2)
  action = [[0,3],[1,3]]
  rho = [[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,1],[0,0],[0,0],[0,0],[0,0],[0,0]]
}
comodule M2 {
  carrier = mod(2,2)
  action = [[0,3],[1,3]]
  rho = [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,1],[0,0]]
}
"""


@pytest.mark.parametrize("text, witness", [(NOT_COASSOC_F2, 2), (NOT_COASSOC_GR42, 4)],
                         ids=["F2", "GR(4,2)"])
def test_reconstruct_names_the_coassociativity_witness(text, witness, tmp_path, capsys):
    f = tmp_path / "not_coassoc.coalg"
    f.write_text(text)
    assert main(["reconstruct", str(f)]) == 2
    err = capsys.readouterr().err
    assert "input error: Coassoc (witness generator %d)" % witness in err, err


def test_reconstruct_partial_family_fails(tmp_path, capsys):
    partial = RECONSTRUCT.split("comodule M1")[0]
    f = tmp_path / "partial.coalg"
    f.write_text(partial)
    code, rep = run(capsys, ["reconstruct", str(f)])
    assert code == 1
    assert rep["results"]["counit"]["surjective"] is False


def test_recognize_verified(tmp_path, capsys):
    f = tmp_path / "full.diagram"
    f.write_text(FULLHOM)
    code, rep = run(capsys, ["recognize", str(f)])
    # i) and ii) verified; iii) probes include an honestly refuted
    # coequalizer-with-zero, so the exit code reports a failed check
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert statuses["reflects-isomorphisms"] == "verified"
    assert statuses["elements-cofiltered"] == "verified"


def test_recognize_refuted_exit_code(tmp_path, capsys):
    text = """alg R=GR(2^1,1) B=GR(2^1,1)
object A rank 1
object B rank 1
hom A A = [[[1]]]
hom B B = [[[1]]]
hom A B = [[[1]]]
"""
    f = tmp_path / "bad.diagram"
    f.write_text(text)
    code, rep = run(capsys, ["recognize", str(f)])
    assert code == 1
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert statuses["reflects-isomorphisms"] == "refuted"
    # the report carries a standalone-recheckable witness
    assert "witness" in rep["results"]["recognition"]["reflects_isos"]


def test_recognize_inconclusive_exit_code(tmp_path, capsys):
    # the zero object keeps the colimit probes satisfiable, while the rank-3
    # fiber blows past the enumeration budget for the cofilteredness check
    text = """alg R=GR(2^1,1) B=GR(2^1,1)
object A rank 3
object Z rank 0
hom A A = [[[1,0,0],[0,1,0],[0,0,1]]]
"""
    f = tmp_path / "big.diagram"
    f.write_text(text)
    code, rep = run(capsys, ["recognize", "--budget", "2", str(f)])
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert statuses["elements-cofiltered"] == "inconclusive"
    assert code == 3   # inconclusive is distinct from failure


def test_recognize_not_closed_is_input_error(tmp_path, capsys):
    text = """alg R=GR(2^1,1) B=GR(2^1,1)
object A rank 1
"""
    f = tmp_path / "open.diagram"
    f.write_text(text)
    code = main(["recognize", str(f)])
    assert code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.diagram"
    f.write_text("object A rank one\n")
    code = main(["coend", str(f)])
    assert code == 2
    assert main(["coend", str(tmp_path / "missing.diagram")]) == 2


@pytest.mark.parametrize("command", ["coend", "reconstruct", "recognize"])
def test_unreadable_input_is_input_error(tmp_path, capsys, command):
    # a directory and a file that is not UTF-8 text are input errors (exit
    # 2, one line on stderr), not tracebacks
    binary = tmp_path / "random.bin"
    binary.write_bytes(bytes([0xff, 0xfe, 0x80, 0xc7, 0x00, 0x9f]))
    for path in (tmp_path, binary):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert "Traceback" not in captured.err


def test_mf_demo_command(capsys):
    code, rep = run(capsys, ["mf", "demo", "--p", "2", "--n", "1", "--f", "1",
                             "--objects", "M(0),M(1)"])
    assert code == 0
    assert rep["results"]["coend"]["rank"] == 2
    assert rep["results"]["flat"] is True
    assert all(v == "equal" for v in rep["results"]["unit"].values())
    # recognition is informational here: cofilteredness refuted is expected
    assert rep["results"]["recognition"]["cofiltered"]["status"] in \
        ("refuted", "inconclusive")


def test_mf_demo_with_sum(capsys):
    code, rep = run(capsys, ["mf", "demo", "--p", "2", "--n", "1", "--f", "1",
                             "--objects", "M(0),M(1),M(0)+M(1)"])
    assert code == 0
    assert len(rep["results"]["unit"]) == 9


def test_mf_demo_bad_spec(capsys):
    assert main(["mf", "demo", "--p", "2", "--n", "1", "--f", "1",
                 "--objects", "Q(0)"]) == 2
    assert main(["mf", "demo", "--p", "4", "--n", "1", "--f", "1",
                 "--objects", "M(0)"]) == 2


@pytest.mark.parametrize("argv, limit", [
    (["coend", "alg R=GR(2^1,1) B=GR(2^1,40)\nobject A rank 1\n"],
     "MAX_RESIDUE_FIELD"),
    (["coend", "alg R=GR(2^1,1) B=GR(2^1,1)\nobject A rank 100000\n"],
     "MAX_T_RANK"),
    (["mf", "demo", "--p", "2", "--n", "1", "--f", "40", "--objects", "M(0),M(1)"],
     "MAX_RESIDUE_FIELD"),
    (["mf", "demo", "--p", "2", "--n", "65", "--f", "1", "--objects", "M(0)"],
     "MAX_N"),
    # the comatrix diagram of rank 9 over F2: L has rank 81, C (x)_B C 6561
    (["coend", "alg R=GR(2^1,1) B=GR(2^1,1)\nobject A rank 9\n"],
     "MAX_L_RANK"),
    # refused before any object is built, not after every mf_hom pair
    (["mf", "demo", "--p", "2", "--n", "1", "--f", "1",
      "--objects", ",".join(["M(0)"] * 300)], "MAX_T_RANK"),
    (["mf", "demo", "--p", "2", "--n", "1", "--f", "1",
      "--objects", "M(0),M(100000)"], "MAX_TWIST"),
])
def test_unbounded_inputs_are_refused_up_front(tmp_path, argv, limit):
    # without their limits these inputs run for minutes and exhaust memory,
    # so they run in a child process capped at 1 GB of address space
    if argv[0] == "coend":
        f = tmp_path / "big.diagram"
        f.write_text(argv[1])
        argv = ["coend", str(f)]
    out, seconds = _capped_cli(argv)
    assert seconds < 1.0
    assert out.returncode == 2
    assert limit in out.stderr and "Traceback" not in out.stderr


def _capped_cli(argv, cap_bytes=1 << 30):
    """Run the CLI in a child process capped at cap_bytes (1 GB) of address
    space; returns (completed process, wall seconds)."""
    src = str(Path(tannaka_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "tannaka_forge.cli"] + argv,
                         env=env, preexec_fn=cap, capture_output=True,
                         text=True, timeout=60)
    return out, time.monotonic() - t0


def test_l_rank_limit_is_per_component(tmp_path):
    # 65 grouplike objects: L has rank 65 in all, above MAX_L_RANK = 64,
    # but it is built as 65 components of rank 1
    f = tmp_path / "g65.diagram"
    f.write_text(format_diagram(grouplike_diagram(AlgebraSpec.make(2, 1, 1), 65)))
    out, _ = _capped_cli(["coend", str(f)])
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert rep["results"]["coend"] == {"rank": 65, "exps": [1] * 65}


def test_out_of_memory_is_an_input_error(tmp_path):
    # one rank-4 object over GR(4,2) with only its identity: L has rank 64,
    # at MAX_L_RANK, and its run does not fit in 60 MB of address space;
    # running out is no refutation, so the exit code is 2, not 1
    f = tmp_path / "gr42r4.diagram"
    f.write_text(format_diagram(DiagramCategory(
        AlgebraSpec.make(2, 2, 2), [DiagObject("A", 4)],
        {(0, 0): [Matrix.identity(ring_make(2, 2, 2), 4)]})))
    out, _ = _capped_cli(["coend", str(f)], cap_bytes=60 << 20)
    assert out.returncode == 2, out.stderr
    assert "input error: out of memory" in out.stderr
    assert "Traceback" not in out.stderr


def test_unit_check_solves_only_pairs_inside_a_component(count_calls, tmp_path,
                                                         capsys):
    # grouplike g = 32: 32 one-object components, so one comodule-hom span
    # each instead of 32 * 32; the 992 pairs across components are "equal",
    # and no pair needs comodule_hom for a witness
    f = tmp_path / "g32.diagram"
    f.write_text(format_diagram(grouplike_diagram(AlgebraSpec.make(2, 1, 1), 32)))
    calls = count_calls((coalgebra, "comodule_hom_span"), (coalgebra, "comodule_hom"))
    code, rep = run(capsys, ["coend", str(f)])
    assert code == 0 and calls == {"comodule_hom_span": 32, "comodule_hom": 0}
    unit = rep["results"]["unit"]
    assert len(unit) == 32 * 32 and set(unit.values()) == {"equal"}


def test_unit_lift_failure_is_a_failed_check(monkeypatch, tmp_path, capsys):
    # with every comodule-hom span forced to zero, the diagram's identity
    # leaves it: the unit check's RuntimeError becomes a failed unit-lift
    # check in an exit-1 report, not a traceback
    def zero_span(Mc, Nc, charts=None):
        span = comodule_hom_span(Mc, Nc, charts)
        return Span(span.ring, [], span.width)

    monkeypatch.setattr(tannaka, "comodule_hom_span", zero_span)
    f = tmp_path / "g.diagram"
    f.write_text(GROUPLIKE)
    out = tmp_path / "report.json"
    code, rep = run(capsys, ["coend", "--json", str(out), str(f)])
    assert code == 1
    assert json.loads(out.read_text()) == rep
    assert rep["report_digest"].startswith("sha256:")
    failed = [c for c in rep["checks"] if c["status"] != "pass"]
    assert failed == [{"name": "unit-lift", "status": "fail",
                       "detail": "internal error: diagram morphism is not a "
                                 "comodule map"}]


def test_unit_lift_catches_only_its_own_error(monkeypatch, tmp_path, capsys):
    # any other RuntimeError raised under the unit check (a budget, a
    # recursion limit) is no refutation and is not reported as unit-lift
    def failing_span(Mc, Nc, charts=None):
        raise EnumerationBudget("budget exhausted")

    monkeypatch.setattr(tannaka, "comodule_hom_span", failing_span)
    f = tmp_path / "g.diagram"
    f.write_text(GROUPLIKE)
    with pytest.raises(EnumerationBudget):
        main(["coend", str(f)])


def test_verify_suite_command(capsys):
    # on a fresh checkout, everything passes and the exit code is zero
    code, rep = run(capsys, ["verify-suite"])
    assert code == 0
    assert rep["command"] == "verify-suite"
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert len(rep["checks"]) >= 10


def test_json_roundtrip_schema(tmp_path, capsys):
    f = tmp_path / "g.diagram"
    f.write_text(GROUPLIKE)
    _, rep = run(capsys, ["coend", str(f)])
    # canonical JSON round trip
    assert json.loads(json.dumps(rep)) == rep
    assert rep["schema"] == 1
    assert rep["input_digest"].startswith("sha256:")


def test_verify_suite_budget_exhaustion_is_inconclusive(capsys):
    # out of budget, the suite reports inconclusive checks and exit 3,
    # never a failure; at the default budget every check passes
    code, rep = run(capsys, ["verify-suite", "--budget", "1"])
    statuses = [c["status"] for c in rep["checks"]]
    assert "fail" not in statuses and "inconclusive" in statuses
    assert code == 3
    code, rep = run(capsys, ["verify-suite"])
    assert code == 0


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["coend", "in.diagram"], ["reconstruct", "in.coalg"],
    ["recognize", "in.diagram"],
    ["mf", "demo", "--p", "2", "--n", "1", "--f", "1", "--objects", "M(0)"],
    ["verify-suite"]])
def test_budget_below_one_is_rejected(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be an integer of at least 1" in captured.err
