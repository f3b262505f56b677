"""The unit check on comodule_hom_span against the unit check that solved
the full comodule hom of every pair (hom_reference): equal verdicts and
witnesses, and, pair by pair, the span of comodule_hom_span equal to the
span of the flattened reference basis, Howell row for Howell row."""

import itertools
import random

import pytest

from tannaka_forge import modules
from tannaka_forge.algebra import AlgebraSpec, BModule, free_bmodule
from tannaka_forge.linalg import Matrix, Span
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.coalgebra import cofree, comodule_hom_span
from tannaka_forge.suite import (comatrix_coalgebra, comatrix_standard_comodule,
                                 grouplike_coalgebra, grouplike_diagram,
                                 grouplike_line, mf_family_diagram, random_diagram,
                                 standard_coend_cases, trivial_coalgebra)
from tannaka_forge.tannaka import (_flatten_bmat, coend, counit_map, hom_closure,
                                   lift_coaction, unit_fully_faithful_check)

from hom_reference import ref_comodule_hom, ref_unit_fully_faithful_check
from test_counit_reuse import _echo_diagrams

# GR(4,2), Z/8, F9, F4 and GR(8,2)
RANDOM_RINGS = [(2, 2, 2), (2, 3, 1), (3, 1, 2), (2, 1, 2), (2, 3, 2)]


def _diagrams():
    out = [D for _, D in standard_coend_cases()] + _echo_diagrams()
    out += [mf_family_diagram(2, 2, f, (0, 1), with_sum=True)[0] for f in (2, 3)]
    for pnf in RANDOM_RINGS:
        alg = AlgebraSpec.make(*pnf)
        out += [random_diagram(random.Random(seed), alg)[0] for seed in range(30)]
    return out


def test_unit_check_matches_reference():
    counts = {"equal": 0, "strictly-smaller": 0, "torsion": 0}
    for D in _diagrams():
        # the coalgebra axioms are tested elsewhere; lift_coaction still
        # checks every coaction it returns
        CR = coend(hom_closure(D), check=False)
        lifted = lift_coaction(CR)
        alg, n = D.alg, len(lifted)
        bases = {}
        for (k, Mc), (l, Nc) in itertools.product(enumerate(lifted), repeat=2):
            bases[(k, l)] = ref_comodule_hom(Mc, Nc)[1]
            want = Span(alg.R, [_flatten_bmat(alg, alg.rmat_to_bmat(g))
                                for g in bases[(k, l)]],
                        Mc.carrier.rank * Nc.carrier.rank // alg.fb)
            assert comodule_hom_span(Mc, Nc).rows == want.rows
            counts["torsion"] += not Nc.cm.module.is_free()
        verdicts = unit_fully_faithful_check(CR, lifted)
        assert verdicts == ref_unit_fully_faithful_check(CR, bases)
        assert len(verdicts) == n * n
        for v in verdicts.values():
            counts[v[0]] += 1
    # both verdicts occur, and some targets C (x)_B N carry torsion
    assert all(counts.values()), counts


def test_hom_span_refuses_a_nonstandard_carrier():
    # over GR(4,2) the carriers must be free_bmodule(r): a torsion carrier,
    # and a free one whose x-action is written in the swapped basis (x, 1),
    # are refused on either side
    alg = AlgebraSpec.make(2, 2, 2)
    C = trivial_coalgebra(alg)
    free, torsion = FinModule.free(alg.R, 2), FinModule(alg.R, (1, 1))
    swap = Matrix.from_rows(alg.R, [[0, 1], [1, 0]])
    std = cofree(C, free_bmodule(alg, 1))
    assert std.bmat_rank == 1 and comodule_hom_span(std, std).size() == 16
    X = Matrix.from_sparse(alg.R, alg.x_cols(1), alg.fb)
    for car, act in ((free, swap @ X @ swap), (torsion, X)):
        bad = cofree(C, BModule(alg, car, ModuleMap(car, car, act)))
        assert bad.bmat_rank is None
        for Mc, Nc in ((std, bad), (bad, std)):
            with pytest.raises(ValueError, match="not a standard free B-module"):
                comodule_hom_span(Mc, Nc)


def test_each_chart_is_built_once_per_call(count_calls):
    # every pair of the g = 8 grouplike family solves in one chart,
    # Hom_R(R, C (x)_B N) with N a line: the unit check and counit_map each
    # build it once, not once per pair, and a second call builds its own
    F2 = AlgebraSpec.make(2, 1, 1)
    CR = coend(hom_closure(grouplike_diagram(F2, 8)))
    lifted = lift_coaction(CR)
    C = grouplike_coalgebra(F2, 8)
    family = [grouplike_line(C, i) for i in range(8)]
    counts = count_calls((modules, "hom_module"))
    verdicts = unit_fully_faithful_check(CR, lifted)
    assert counts["hom_module"] == 1 and set(verdicts.values()) == {("equal",)}
    assert unit_fully_faithful_check(CR, lifted) == verdicts
    assert counts["hom_module"] == 2
    assert counit_map(C, family).iso and counts["hom_module"] == 3


def test_shared_charts_give_the_spans_of_fresh_ones():
    # a family with two carriers and two targets C (x)_B N: four distinct
    # charts, each kept once, and every span equal to the one solved in a
    # chart of its own
    C = comatrix_coalgebra(AlgebraSpec.make(2, 2, 1), 2)
    family = [comatrix_standard_comodule(C, 2), cofree(C, free_bmodule(C.alg, 1))]
    charts = {}
    for Mc, Nc in itertools.product(family, repeat=2):
        assert comodule_hom_span(Mc, Nc, charts).rows == comodule_hom_span(Mc, Nc).rows
    assert len(charts) == 4
