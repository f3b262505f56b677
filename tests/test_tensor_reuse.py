"""Each coalgebra's C (x)_B C and each comodule's C (x)_B M is built once, by
the code that writes delta or rho into it; the axiom checks read that tensor
and build none, and refuse a tensor of the wrong factors."""

import io
from contextlib import redirect_stdout

import pytest

from tannaka_forge import algebra, linalg, modules
from tannaka_forge.algebra import (AlgebraSpec, free_bmodule, tensor_bimodules,
                                   tensor_bim_bmodule)
from tannaka_forge.cli import main
from tannaka_forge.coalgebra import (coalgebra_check, comodule_check, cofree,
                                     AxiomError)
from tannaka_forge.suite import (grouplike_coalgebra, grouplike_line,
                                 comatrix_diagram, trivial_full_hom_diagram,
                                 mf_family_diagram)
from tannaka_forge.tannaka import coend, lift_coaction

TENSORS = ("tensor_bimodules", "tensor_bim_bmodule")


@pytest.fixture
def tensor_calls(count_calls):
    """Counts of tensor_bimodules and tensor_bim_bmodule calls."""
    return count_calls(*((algebra, name) for name in TENSORS))


def _diagrams():
    return [comatrix_diagram(AlgebraSpec.make(2, 1, 1), 2),
            trivial_full_hom_diagram(AlgebraSpec.make(2, 2, 2)),
            mf_family_diagram(2, 2, 2, (0, 1))[0]]


def test_checked_coend_builds_one_tensor_square(tensor_calls):
    for D in _diagrams():
        tensor_calls.update(dict.fromkeys(TENSORS, 0))
        CR = coend(D)
        assert tensor_calls == {"tensor_bimodules": 1, "tensor_bim_bmodule": 0}
        assert CR.coalgebra.cc.factors == (CR.coalgebra.bi, CR.coalgebra.bi)


def test_lift_coaction_builds_one_tensor_per_fiber_rank(tensor_calls):
    # the MF diagram has two objects of rank 1, whose fibers share one
    # L (x)_B B, and each is still checked by comodule_check
    ranks = []
    for D in _diagrams():
        CR = coend(D)
        tensor_calls.update(dict.fromkeys(TENSORS, 0))
        lifted = lift_coaction(CR)
        ranks.append([obj.rank for obj in D.objects])
        assert tensor_calls == {"tensor_bimodules": 0,
                                "tensor_bim_bmodule": len(set(ranks[-1]))}
        assert all(Mc.cm.factors[0] == CR.coalgebra.bi for Mc in lifted)
        assert [Mc.carrier.rank // D.alg.fb for Mc in lifted] == ranks[-1]
        assert all(comodule_check(CR.coalgebra, Mc.cm, Mc.rho) == Mc for Mc in lifted)
    assert [1, 1] in ranks


def test_checks_build_no_tensor(tensor_calls):
    for D in _diagrams():
        CR = coend(D)
        C = CR.coalgebra
        comods = lift_coaction(CR) + [cofree(C, free_bmodule(D.alg, 1))]
        tensor_calls.update(dict.fromkeys(TENSORS, 0))
        assert coalgebra_check(C.cc, C.delta, C.counit) == C
        for Mc in comods:
            assert comodule_check(C, Mc.cm, Mc.rho) == Mc
        assert tensor_calls == dict.fromkeys(TENSORS, 0)


def test_mf_demo_tensor_calls(tensor_calls):
    # closure, coend, unit lift and the counit echo on GR(4,2) {M(0),M(1)},
    # two one-object components: one tensor square per component's coend
    # and one C (x)_B M per object; the echo reads the pipeline's coends
    # and lifted comodules and builds none
    with redirect_stdout(io.StringIO()):
        assert main(["mf", "demo", "--p", "2", "--n", "2", "--f", "2",
                     "--objects", "M(0),M(1)"]) == 0
    assert tensor_calls == {"tensor_bimodules": 2, "tensor_bim_bmodule": 2}


def test_coalgebra_check_refuses_other_tensor(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    other = grouplike_coalgebra(alg_f2, 3)
    line = free_bmodule(alg_f2, 1)
    for cc in (tensor_bimodules(alg_f2, C.bi, other.bi),
               tensor_bim_bmodule(alg_f2, C.bi, line)):
        with pytest.raises(ValueError, match="tensor square") as exc:
            coalgebra_check(cc, C.delta, C.counit)
        assert not isinstance(exc.value, AxiomError)
    # the tensor square of another bimodule: delta does not map into it
    with pytest.raises(ValueError, match="delta must map") as exc:
        coalgebra_check(other.cc, C.delta, C.counit)
    assert not isinstance(exc.value, AxiomError)


def test_comodule_check_refuses_other_coalgebra(alg_f2):
    C = grouplike_coalgebra(alg_f2, 2)
    other = grouplike_coalgebra(alg_f2, 3)
    Mc = grouplike_line(C, 0)
    cm = tensor_bim_bmodule(alg_f2, other.bi, Mc.module)
    with pytest.raises(ValueError, match="over the coalgebra") as exc:
        comodule_check(C, cm, Mc.rho)
    assert not isinstance(exc.value, AxiomError)


def test_witt_coalgebra_check_presents_nothing(monkeypatch):
    # the full-endo coend over GR(4,4) is B-free: the check reads cc and
    # builds its nest in B-coordinates, so it computes no Smith form
    C = coend(trivial_full_hom_diagram(AlgebraSpec.make(2, 2, 4))).coalgebra
    rows = []
    smith = linalg.smith

    def counted_smith(A):
        rows.append(A.rows)
        return smith(A)

    monkeypatch.setattr(linalg, "smith", counted_smith)
    monkeypatch.setattr(modules, "smith", counted_smith)
    assert coalgebra_check(C.cc, C.delta, C.counit) == C
    assert rows == []
