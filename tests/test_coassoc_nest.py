"""Coassociativity at f_B >= 2 on the nest alone: `_coassoc_witness` sums
the flat Sweedler sums per generator and projects into the nest that
`nest_tensor` returns only the flat pairs whose difference is nonzero, each
pair of the nest they reach once; it builds the nest only when such a pair
is left, so a passing check builds none and descends nothing.  It is compared, witness for witness, with
the dense reference on the nested Smith quotient and on the flat one-Smith
quotient (tests/coassoc_reference.py); a map those refuse to descend is
refused by the public check as not B-linear.  The flat layouts, the
projected pairs and the dense lifts it no longer builds are counted."""

import random

import pytest

from tannaka_forge import algebra, cli, coalgebra, modules, tannaka, textio
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap
from tannaka_forge.algebra import (AlgebraSpec, BModule, BTensor, FreeNest,
                                   free_bmodule, nest_tensor)
from tannaka_forge.coalgebra import (AxiomError, _coassoc_witness, coalgebra_check,
                                     comodule_check, cofree)
from tannaka_forge.suite import (comatrix_coalgebra, comatrix_standard_comodule,
                                 grouplike_coalgebra, grouplike_line,
                                 random_diagram, trivial_coalgebra)
from tannaka_forge.tannaka import coend, hom_closure, lift_coaction

from coassoc_reference import (dense_coassoc_witness, flat_triple_tensor,
                               quotient_triple_tensor)
from dense_tensor import deltahat, pure, rhohat
from test_coassoc import (_b_grouplike, _counit_kernel, _not_coassociative,
                          _perturbed_delta, _perturbed_rho)

# F4, GR(4,2), GR(8,2), GR(4,3), F16
WITT_ALGS = [(2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 1, 4)]

GR42_RANK3 = """alg R=GR(2^2,1) B=GR(2^2,2)
object A rank 3
hom A A = [[[1,0,0],[0,1,0],[0,0,1]]]
"""


def _torsion_bmodule(alg):
    """B/p, a B-module that is not free when n >= 2."""
    car = FinModule(alg.R, (1,) * alg.fb)
    return BModule(alg, car, ModuleMap(car, car, alg.x_cols(1)))


def _outcome(fn):
    """The witness, or the type and text of the error."""
    try:
        return fn()
    except ValueError as e:
        return (type(e), str(e))


def _not_b_linear(C):
    """delta plus c_0 (x) c_last at generator 0 only: not B-linear, so it
    does not descend through C (x)_B C."""
    cc, car = C.cc, C.carrier
    cols = [list(C.delta.apply(car.gen(i))) for i in range(car.rank)]
    cols[0] = list(cc.module.add(cols[0], pure(cc, car.gen(0), car.gen(car.rank - 1))))
    return ModuleMap(car, cc.module, Matrix.from_cols(C.alg.R, cols, cc.module.rank))


class _Comparison:
    """The three comparisons for one coalgebra C and one Z (C itself, or a
    comodule's module): the nest, the nested Smith quotient and the flat
    one-Smith quotient are built once and reused for every map."""

    def __init__(self, C, Z_car, Z_left):
        alg, bi = C.alg, C.bi
        self.cc, self.zact = C.cc, Z_left
        self.nest = nest_tensor(alg, C.cc, Z_car, Z_left)
        self.references = (
            quotient_triple_tensor(alg, C.cc, Z_car, Z_left),
            flat_triple_tensor(alg, bi.carrier, bi.right, bi.carrier, bi.left,
                               bi.right, Z_car, Z_left))

    def outcomes(self, dh, src, hat, phi, check):
        """The one comparison's witness and the references', when the
        references descend both sides; else the code check raises."""
        refs = [_outcome(lambda: dense_coassoc_witness(t3, dh, src, hat, phi))
                for t3 in self.references]
        if isinstance(refs[0], tuple):
            assert refs[0] == refs[1] and "does not descend" in refs[0][1], refs
            with pytest.raises(AxiomError) as e:
                check()
            return e.value.code
        return [_coassoc_witness(self.cc, dh, src, hat, self.zact)] + refs


def test_nest_witness_matches_dense_references():
    rng = random.Random(3719)
    checks = witnesses = errors = torsion = 0
    kinds = set()

    def agree(comparison, dh, src, hat, phi, check):
        nonlocal checks, witnesses, errors
        got = comparison.outcomes(dh, src, hat, phi, check)
        if isinstance(got, str):
            # a map that is not B-linear never reaches the comparison
            assert got in ("NotBimoduleMap", "NotModuleMap"), got
            errors += 1
            return got
        assert got[0] == got[1] == got[2], got
        checks += 1
        witnesses += got[0] is not None
        return got[0]

    for a in WITT_ALGS:
        alg = AlgebraSpec.make(*a)
        coalgebras = [trivial_coalgebra(alg), _b_grouplike(alg, 2)]
        if a == (2, 2, 2):
            # a coend whose left and right B-actions differ
            coalgebras.append(coend(random_diagram(
                random.Random(1), alg, max_obj=2, max_rank=2)[0]).coalgebra)
        for C in coalgebras:
            cc, car = C.cc, C.carrier
            comparison = _Comparison(C, car, C.bi.left)
            kinds.add("free" if isinstance(comparison.nest, FreeNest) else "quotient")
            dcols = C.delta.mat.sparse_cols()
            assert agree(comparison, C.deltahat_cols, cc, C.deltahat_cols,
                         dcols, lambda: None) is None
            same_actions = C.bi.left == C.bi.right
            for trial in range(16 if same_actions else 4):
                delta = _not_b_linear(C) if trial % 4 == 3 else \
                    _perturbed_delta(rng, C, counital=trial % 4 != 2)
                hat = cc.lift(delta)
                agree(comparison, hat, cc, hat, delta.mat.sparse_cols(),
                      lambda: coalgebra_check(cc, delta, C.counit))
            if not same_actions:
                continue
            ker = _counit_kernel(C)
            for M in (free_bmodule(alg, 1), _torsion_bmodule(alg)):
                Mc = cofree(C, M)
                torsion += not Mc.carrier.is_free()
                comparison = _Comparison(C, Mc.carrier, Mc.module.act)
                kinds.add("free" if isinstance(comparison.nest, FreeNest)
                          else "quotient")
                assert agree(comparison, C.deltahat_cols, Mc.cm, Mc.rhohat_cols,
                             Mc.rho.mat.sparse_cols(), lambda: None) is None
                for _ in range(20):
                    rho = _perturbed_rho(rng, Mc, ker)
                    agree(comparison, C.deltahat_cols, Mc.cm, Mc.cm.lift(rho),
                          rho.mat.sparse_cols(),
                          lambda: comodule_check(C, Mc.cm, rho))
    assert checks >= 500 and witnesses >= 100, (checks, witnesses)
    assert errors and torsion and kinds == {"free", "quotient"}, \
        (errors, torsion, kinds)


def _coalgebras_and_comodules():
    """Coalgebras and comodules over f_B = 1 and f_B >= 2, with torsion."""
    out = []
    for a in ((2, 1, 1), (2, 2, 1)):
        alg = AlgebraSpec.make(*a)
        C = grouplike_coalgebra(alg, 3)
        out.append((C, [grouplike_line(C, i) for i in range(3)]))
        C = comatrix_coalgebra(alg, 2)
        out.append((C, [comatrix_standard_comodule(C, 2)]))
    for a in ((2, 2, 2), (2, 3, 2), (2, 1, 2)):
        alg = AlgebraSpec.make(*a)
        C = _b_grouplike(alg, 2)
        out.append((C, [cofree(C, free_bmodule(alg, 1)),
                        cofree(C, _torsion_bmodule(alg))]))
        CR = coend(random_diagram(random.Random(2), alg, max_obj=2,
                                  max_rank=2)[0])
        out.append((CR.coalgebra, lift_coaction(CR)))
    return out


def test_sparse_lift_is_the_dense_lift(monkeypatch):
    # BTensor.lift writes the columns of sect @ phi.mat, unreduced, and
    # builds no Matrix on the way
    cases = _coalgebras_and_comodules()
    built = []
    init = Matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted)
    lifts = [(C.cc.lift(C.delta), [Mc.cm.lift(Mc.rho) for Mc in comods])
             for C, comods in cases]
    assert not built, len(built)
    monkeypatch.undo()
    for (C, comods), (dlift, rlifts) in zip(cases, lifts):
        assert dlift == C.deltahat_cols == deltahat(C).sparse_cols()
        for Mc, rlift in zip(comods, rlifts):
            assert rlift == Mc.rhohat_cols == rhohat(Mc).sparse_cols()
    assert any(not Mc.carrier.is_free() for _, comods in cases for Mc in comods)


def _gr42_rank3_coalgebra():
    CR = coend(hom_closure(textio.parse_diagram(GR42_RANK3)), check=False)
    C = CR.coalgebra
    assert (C.carrier.rank, C.cc.module.rank, C.cc.TR.module.rank) == \
        (36, 648, 1296)
    return C


def test_gr42_rank3_check_lays_out_no_flat_triple_tensor(monkeypatch):
    # L has rank 36 and C (x)_B C rank 648: the flat triple tensor has
    # rank 1,296 * 36 = 46,656, and the nest's own flat tensor rank
    # 648 * 36 = 23,328, both of which the check once laid out.  On a
    # delta that is not coassociative, the one check that builds the
    # nest, the largest layout left is the nest itself, of rank 11,664
    C = _gr42_rank3_coalgebra()
    delta = _not_coassociative(C)
    sizes = []
    tensor_with_data, layout = modules.tensor_with_data, modules.canonical_layout

    def counted_tensor(M, N):
        sizes.append(M.rank * N.rank)
        return tensor_with_data(M, N)

    def counted_layout(ring, entries):
        entries = list(entries)
        sizes.append(len(entries))
        return layout(ring, entries)

    for mod in (modules, algebra):
        monkeypatch.setattr(mod, "canonical_layout", counted_layout)
    monkeypatch.setattr(algebra, "tensor_with_data", counted_tensor)
    with pytest.raises(AxiomError, match="Coassoc"):
        coalgebra_check(C.cc, delta, C.counit)
    assert max(sizes) == C.cc.module.rank * C.carrier.rank // C.alg.fb == 11664, \
        max(sizes)


def test_gr42_rank3_check_projects_only_the_pairs_it_touches(monkeypatch):
    # the nest's flat tensor has 648 * 36 = 23,328 pairs (q, k), and the
    # check once projected every one, then the 10,368 its Sweedler sums
    # reach.  On the coend's delta the two sums agree as flat vectors, so
    # no pair is projected.  Then delta + (k (x) k x) delta, k the bimodule
    # map left - right action and x the left one: a bimodule map killed by
    # eps on either side, so only coassociativity fails, and some pairs are
    # projected, each once
    C = _gr42_rank3_coalgebra()
    delta = _not_coassociative(C)
    projected = []
    project_pair = FreeNest.project_pair

    def counted(self, q, k):
        projected.append((q, k))
        return project_pair(self, q, k)

    monkeypatch.setattr(FreeNest, "project_pair", counted)
    coalgebra_check(C.cc, C.delta, C.counit)
    assert projected == []
    with pytest.raises(AxiomError, match="Coassoc"):
        coalgebra_check(C.cc, delta, C.counit)
    assert 0 < len(projected) == len(set(projected)) < 23328, len(projected)


def test_a_passing_check_descends_nothing_and_builds_no_nest(monkeypatch):
    # the checked coend of the GR(4,2) rank-3 identity and its lifted
    # coaction: no check descends a map (descend_sparse, which every
    # descent calls) or builds a nest; the tensors they are written in are
    # built outside the checks, and their outer actions are descended
    # there.  The delta of _not_coassociative builds exactly one nest
    descents, nests, inside = [], [], [0]
    descend, nest_tensor_ = modules.descend_sparse, coalgebra.nest_tensor

    def counted_descend(*args):
        descents.append(inside[0])
        return descend(*args)

    def counted_nest(*args):
        nests.append(inside[0])
        return nest_tensor_(*args)

    def inside_check(check):
        def run(*args):
            inside[0] += 1
            try:
                return check(*args)
            finally:
                inside[0] -= 1
        return run

    for mod in (modules, algebra, tannaka):
        monkeypatch.setattr(mod, "descend_sparse", counted_descend)
    monkeypatch.setattr(coalgebra, "nest_tensor", counted_nest)
    for mod in (coalgebra, tannaka):
        for name in ("coalgebra_check", "comodule_check"):
            monkeypatch.setattr(mod, name, inside_check(getattr(coalgebra, name)))
    CR = coend(hom_closure(textio.parse_diagram(GR42_RANK3)))
    lifted = lift_coaction(CR)
    assert CR.coalgebra.carrier.rank == 36 and len(lifted) == 1
    # the counters are live: the coend descends its maps out of T, and
    # its tensors' outer actions are descended, all outside the checks
    assert descents and not any(descents) and nests == []
    C = CR.coalgebra
    with pytest.raises(AxiomError, match="Coassoc"):
        coalgebra.coalgebra_check(C.cc, _not_coassociative(C), C.counit)
    assert nests == [1]


def test_mf_triple_lifts_each_comodule_once(monkeypatch, capsys):
    # the GR(4,2) MF triple lifts three comodules; each lift of rho is
    # computed once, where it was rebuilt at every read (12 in all).  The
    # two fibers of one rank share their tensor, so a lift is keyed by its
    # tensor and its rho
    lifted = []
    lift = BTensor.lift

    def counted(self, phi):
        if self.factors and isinstance(self.factors[1], BModule):
            lifted.append((id(self), id(phi)))
        return lift(self, phi)

    monkeypatch.setattr(BTensor, "lift", counted)
    code = cli.main(["mf", "demo", "--p", "2", "--n", "2", "--f", "2",
                     "--objects", "M(0),M(1),M(0)+M(1)"])
    capsys.readouterr()
    assert code == 0
    assert len(lifted) == len(set(lifted)) == 3, lifted
