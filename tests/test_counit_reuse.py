"""The counit echo of the CLI pipeline reads the coend the pipeline already
checked when every unit verdict is "equal", and gives the CounitResult that
`counit_map` computes from scratch."""

import io
from contextlib import redirect_stdout

from tannaka_forge import coalgebra, tannaka
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.cli import main
from tannaka_forge.linalg import Matrix
from tannaka_forge.suite import (comatrix_diagram, grouplike_diagram,
                                 mf_family_diagram, standard_coend_cases)
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, coend,
                                   counit_from_coend, counit_map, hom_closure,
                                   lift_coaction, unit_fully_faithful_check)
from tannaka_forge.textio import format_diagram


def _echo_diagrams():
    """Every suite coend case, and every diagram whose CLI run in the
    benchmark ladders takes the echo (the Sigma m_k^2 <= 12 gate)."""
    out = [D for _, D in standard_coend_cases()]
    F2, F3 = AlgebraSpec.make(2, 1, 1), AlgebraSpec.make(3, 1, 1)
    out += [comatrix_diagram(F2, 3), comatrix_diagram(F3, 3),
            grouplike_diagram(F2, 12),
            mf_family_diagram(2, 1, 1, (0, 1), with_sum=True)[0],
            mf_family_diagram(2, 2, 1, (0, 1), with_sum=True)[0],
            mf_family_diagram(2, 2, 2, (0, 1))[0]]
    for p, n, f in ((2, 2, 2), (2, 3, 2), (2, 2, 3)):
        alg = AlgebraSpec.make(p, n, f)
        B = alg.B
        out.append(DiagramCategory(alg, [DiagObject("A", 1)], {(0, 0): [
            Matrix.from_rows(B, [[1]]), Matrix.from_rows(B, [[B.x]])]}))
    return out


def _outputs(res):
    """The CounitResult entry for entry: nu, the flags, and the coend's
    carrier, class map, actions, delta and counit."""
    CR = res.coend_result
    L = CR.coalgebra
    return (res.nu, res.injective, res.surjective, res.iso,
            res.coalgebra_morphism, L.carrier.exps, CR.classmap, CR.sect,
            CR.rel_rows, L.bi.left, L.bi.right, L.delta, L.counit)


def test_reuse_path_matches_counit_map():
    for D in _echo_diagrams():
        assert sum((obj.rank * D.alg.fb) ** 2 for obj in D.objects) <= 12
        D = hom_closure(D)
        CR = coend(D)
        lifted = lift_coaction(CR)
        verdicts = unit_fully_faithful_check(CR, lifted)
        assert all(v[0] == "equal" for v in verdicts.values())
        got = counit_from_coend(CR.coalgebra, lifted, CR)
        assert got.coend_result is CR
        assert _outputs(got) == _outputs(counit_map(CR.coalgebra, lifted))
        assert got.iso and got.coalgebra_morphism


SOLVERS = ((tannaka, "coend"), (tannaka, "hom_closure"),
           (coalgebra, "comodule_hom_span"), (coalgebra, "comodule_hom"))


def _run_coend(tmp_path, D):
    path = tmp_path / "d.diagram"
    path.write_text(format_diagram(D))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["coend", str(path)])
    return code, buf.getvalue()


def test_echo_solves_nothing_when_every_verdict_is_equal(count_calls, tmp_path):
    # the only comodule homs solved are the unit check's, one span per pair
    # inside a component: three one-object components, one coend each; no
    # verdict needs a witness, so comodule_hom is never called
    D = grouplike_diagram(AlgebraSpec.make(2, 1, 1), 3)
    calls = count_calls(*SOLVERS)
    code, out = _run_coend(tmp_path, D)
    assert code == 0 and '"iso": true' in out
    assert calls == {"coend": 3, "hom_closure": 1, "comodule_hom_span": 3,
                     "comodule_hom": 0}


def test_echo_solves_again_when_a_verdict_is_strictly_smaller(count_calls, tmp_path):
    # A -> B with no way back: the comodule homs B -> A are larger than the
    # diagram's, so the echo runs counit_map on the lifted family: four
    # spans for the unit check and four for the echo, and one comodule_hom
    # for the witness of the strictly smaller pair
    alg = AlgebraSpec.make(2, 1, 1)
    one = Matrix.identity(alg.B, 1)
    D = DiagramCategory(alg, [DiagObject("A", 1), DiagObject("B", 1)],
                        {(0, 0): [one], (1, 1): [one], (0, 1): [one]})
    calls = count_calls(*SOLVERS)
    code, out = _run_coend(tmp_path, D)
    assert code == 1 and '"strictly-smaller"' in out and '"iso": true' in out
    assert calls == {"coend": 2, "hom_closure": 2, "comodule_hom_span": 8,
                     "comodule_hom": 1}
