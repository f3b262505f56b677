import itertools
import json

import pytest

from tannaka_forge import cli
from tannaka_forge import mf as mf_module
from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix
from tannaka_forge.modules import FinModule, ModuleMap, factor_through, is_surjective
from tannaka_forge.mf import (mf_make, mbar, is_mf_fl, mf_hom, mf_direct_sum,
                              mf_to_diagram, tate_object, MFError,
                              SemilinearMap, _extend_window)
from tannaka_forge.tannaka import (coend, lift_coaction, flatness_check,
                                   unit_fully_faithful_check)
from oracle_reference import morphisms_are_comodule_maps


def mf_hom_oracle(X, Y):
    """Brute-force enumeration of MF morphisms, as canonical matrices."""
    W = X.W
    out = set()
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    filX, phiX = _extend_window(X, lo, hi)
    filY, phiY = _extend_window(Y, lo, hi)
    for entries in itertools.product(range(W.size), repeat=X.M.rank * Y.M.rank):
        mat = Matrix(W, [list(entries[r * X.M.rank:(r + 1) * X.M.rank])
                         for r in range(Y.M.rank)], Y.M.rank, X.M.rank)
        try:
            g = ModuleMap(X.M, Y.M, mat)
        except Exception:
            continue
        ok = True
        for i in range(lo, hi + 1):
            gi = factor_through(filY[i], g @ filX[i])
            if gi is None:
                ok = False
                break
            lhs = phiY[i].after_linear(gi)
            rhs = ModuleMap(phiX[i].src, Y.M, g.mat @ phiX[i].linear.mat)
            if lhs.linear.mat != rhs.mat:
                ok = False
                break
        if ok:
            out.add(g.mat)
    return out


def solver_span(X, Y):
    W = X.W
    K, basis, alg = mf_hom(X, Y)
    span = set()
    for coeffs in itertools.product(*[range(alg.R.p ** e) for e in K.exps]):
        acc = Matrix.zeros(W, Y.M.rank, X.M.rank)
        for c, b in zip(coeffs, basis):
            acc = acc + b.mat.scale(W.from_int(c))
        span.add(ModuleMap(X.M, Y.M, acc).mat)
    return span, K


def test_tate_objects_valid():
    for (p, n, f) in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1)):
        W = ring_make(p, n, f)
        for k in (0, 1, 2):
            X = tate_object(W, k)
            assert X.M.is_free() and is_mf_fl(X)
            mb = mbar(X)
            assert mb.Mbar.length() == X.M.length()


def test_span_failure():
    W = ring_make(2, 1, 1)
    M = FinModule.free(W, 1)
    with pytest.raises(MFError) as exc:
        mf_make(W, M, 0, 0, {0: ModuleMap.identity(M)},
                {0: Matrix.zeros(W, 1, 1)})
    assert exc.value.code == "SpanFails"


def test_fl_false_when_phibar_zero():
    W = ring_make(2, 1, 1)
    M = FinModule.free(W, 1)
    X = mf_make(W, M, 0, 0, {0: ModuleMap.identity(M)},
                {0: Matrix.zeros(W, 1, 1)}, require_span=False)
    assert not is_mf_fl(X)
    assert not is_surjective(mbar(X).phibar.linear)


def test_phibar_surjective_iff_iso():
    # decided independently and compared, across the suite objects
    W2 = ring_make(2, 2, 1)
    cases = [tate_object(W2, 0), tate_object(W2, 1),
             mf_direct_sum(tate_object(W2, 0), tate_object(W2, 1))]
    M = FinModule.free(W2, 1)
    cases.append(mf_make(W2, M, 0, 0, {0: ModuleMap.identity(M)},
                         {0: Matrix.from_rows(W2, [[2]])}, require_span=False))
    for X in cases:
        assert is_surjective(mbar(X).phibar.linear) == is_mf_fl(X)


def test_mbar_tate_trace():
    # M(0) over F_2: single slot, phibar the identity
    W = ring_make(2, 1, 1)
    mb = mbar(tate_object(W, 0))
    assert mb.Mbar.exps == (1,) and mb.phibar.linear.mat.data == [[1]]
    # M(1): two slots glued by [x]_0 = [p x]_1 = 0 over W_1
    mb = mbar(tate_object(W, 1))
    assert mb.Mbar.exps == (1,)


def test_mbar_z4_window():
    # valid W_2-object with Fil^1 = M and phi^1 = id: phibar iso
    W = ring_make(2, 2, 1)
    M = FinModule.free(W, 1)
    ident = ModuleMap.identity(M)
    X = mf_make(W, M, 0, 1, {0: ident, 1: ident},
                {0: Matrix.from_rows(W, [[2]]), 1: Matrix.from_rows(W, [[1]])})
    mb = mbar(X)
    assert mb.Mbar.length() == M.length() == 2
    assert is_mf_fl(X)
    # slot maps satisfy the gluing relation kappa_0(x) = kappa_1(p x)
    for v in M.elements():
        lhs = mb.slotmaps[0].apply(v)
        rhs = mb.slotmaps[1].apply(M.scale(2, v))
        assert lhs == rhs


def test_phi_illformed_rejected():
    # the inclusion 2M -> M with phi "2 |-> 1" is not a module map
    W = ring_make(2, 2, 1)
    M = FinModule.free(W, 1)
    ident = ModuleMap.identity(M)
    F1 = FinModule(W, (1,))
    incl = ModuleMap(F1, M, Matrix.from_rows(W, [[2]]))
    with pytest.raises(MFError) as exc:
        mf_make(W, M, 0, 1, {0: ident, 1: incl},
                {0: Matrix.from_rows(W, [[1]]), 1: Matrix.from_rows(W, [[1]])})
    assert exc.value.code == "PhiIncompatible"


def test_phi_restriction_identity_checked():
    W = ring_make(2, 2, 1)
    M = FinModule.free(W, 1)
    ident = ModuleMap.identity(M)
    with pytest.raises(MFError) as exc:
        mf_make(W, M, 0, 1, {0: ident, 1: ident},
                {0: Matrix.from_rows(W, [[1]]), 1: Matrix.from_rows(W, [[1]])})
    assert exc.value.code == "PhiIncompatible"


def test_window_violations():
    W = ring_make(2, 1, 1)
    M = FinModule.free(W, 1)
    with pytest.raises(MFError) as exc:
        mf_make(W, M, 0, 1, {0: ModuleMap.identity(M)},
                {0: Matrix.identity(W, 1)})
    assert exc.value.code == "WindowViolation"
    # Fil^lo must be all of M
    F1 = FinModule(W, (1,)) if W.n > 1 else FinModule.zero(W)
    zero = FinModule.zero(W)
    with pytest.raises(MFError) as exc:
        mf_make(W, M, 0, 0, {0: ModuleMap.zero(zero, M)},
                {0: Matrix.zeros(W, 1, 0)})
    assert exc.value.code == "WindowViolation"


def test_not_decreasing_detected():
    # Fil^1 strictly bigger than Fil^0 is impossible since Fil^lo = M; a
    # genuine failure needs lo < i: Fil^1 not inside Fil^0 cannot happen, so
    # test Fil^2 not inside Fil^1
    W = ring_make(2, 2, 1)
    M = FinModule.free(W, 2)
    ident = ModuleMap.identity(M)
    line1 = FinModule.free(W, 1)
    inc1 = ModuleMap(line1, M, Matrix.from_rows(W, [[1], [0]]))
    inc2 = ModuleMap(line1, M, Matrix.from_rows(W, [[0], [1]]))
    with pytest.raises(MFError) as exc:
        mf_make(W, M, 0, 2, {0: ident, 1: inc1, 2: inc2},
                {0: Matrix.zeros(W, 2, 2), 1: Matrix.zeros(W, 2, 1),
                 2: Matrix.zeros(W, 2, 1)}, require_span=False)
    assert exc.value.code == "NotDecreasing"


def test_mf_hom_examples_f2():
    W = ring_make(2, 1, 1)
    M0, M1 = tate_object(W, 0), tate_object(W, 1)
    K, basis, _ = mf_hom(M0, M0)
    assert K.exps == (1,) and basis[0].mat.data == [[1]]
    K, _, _ = mf_hom(M0, M1)
    assert K.is_zero()
    K, _, _ = mf_hom(M1, M0)
    assert K.is_zero()


def test_mf_hom_vs_oracle():
    for (p, n, f) in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1)):
        W = ring_make(p, n, f)
        objs = [tate_object(W, 0), tate_object(W, 1)]
        if W.size ** 4 <= 4096:
            objs.append(mf_direct_sum(objs[0], objs[1]))
        for X in objs:
            for Y in objs:
                if W.size ** (X.M.rank * Y.M.rank) > 4096:
                    continue
                span, K = solver_span(X, Y)
                oracle = mf_hom_oracle(X, Y)
                assert span == oracle, (p, n, f, X.M, Y.M)


def test_mf_hom_vs_oracle_torsion_carrier():
    # M = W/p over W = GR(4,2): the R-carrier has torsion, so the solver's
    # R-matrices are canonical mod p and must still read back as W-linear
    W = ring_make(2, 2, 2)
    M = FinModule(W, (1,))
    X = mf_make(W, M, 0, 0, {0: ModuleMap.identity(M)},
                {0: Matrix.identity(W, 1)})
    span, K = solver_span(X, X)
    assert not K.is_zero()
    assert span == mf_hom_oracle(X, X)
    # M = W + W/p over W = Z/4: the unknowns Hom(M, M) and Hom(Fil^0, Fil^0)
    # both have exponents (2, 1, 1, 1), so their direct sum interleaves them
    W = ring_make(2, 2, 1)
    M = FinModule(W, (2, 1))
    X = mf_make(W, M, 0, 0, {0: ModuleMap.identity(M)},
                {0: Matrix.identity(W, 2)})
    span, K = solver_span(X, X)
    assert len(span) == 32 and span == mf_hom_oracle(X, X)


def test_mf_hom_rank_doubles():
    W = ring_make(2, 1, 1)
    M0 = tate_object(W, 0)
    S = mf_direct_sum(M0, M0)
    K1, _, _ = mf_hom(M0, M0)
    K2, _, _ = mf_hom(M0, S)
    assert K2.length() == 2 * K1.length()


def test_mf_hom_closed_under_composition():
    W = ring_make(2, 2, 1)
    objs = [tate_object(W, 0), tate_object(W, 1)]
    for X in objs:
        for Y in objs:
            for Z in objs:
                _, bxy, alg = mf_hom(X, Y)
                _, byz, _ = mf_hom(Y, Z)
                span, _ = solver_span(X, Z)
                for f in bxy:
                    for g in byz:
                        assert ModuleMap(X.M, Z.M, (g @ f).mat).mat in span


def test_mf_direct_sum_window_harmonization():
    W = ring_make(2, 2, 1)
    X = tate_object(W, 0)
    Y = tate_object(W, 2)
    S = mf_direct_sum(X, Y)
    assert S.lo == 0 and S.hi == 2
    assert S.M.is_free() and is_mf_fl(S)
    assert mbar(S).Mbar.length() == S.M.length()


def test_mf_to_diagram_refuses_hom_bases_that_are_not_closed(monkeypatch):
    # the raw bases are closed exactly when each hom span of their closure
    # is no larger; cut to its first member, the basis of End(M0) is still
    # the identity, and that of End(M0 + M0) no longer spans the identity
    W = ring_make(2, 1, 1)
    M0 = tate_object(W, 0)
    real = mf_module.mf_hom

    def first_only(X, Y):
        K, basis, alg = real(X, Y)
        return K, basis[:1], alg

    monkeypatch.setattr(mf_module, "mf_hom", first_only)
    assert len(mf_to_diagram([M0]).homs[(0, 0)]) == 1
    with pytest.raises(RuntimeError, match="not composition-closed"):
        mf_to_diagram([M0, mf_direct_sum(M0, M0)])


def test_mf_to_diagram_examples():
    W = ring_make(2, 1, 1)
    M0, M1 = tate_object(W, 0), tate_object(W, 1)
    D = mf_to_diagram([M0])
    assert D.objects[0].rank == 1
    assert len(D.homs[(0, 0)]) == 1
    D = mf_to_diagram([M0, M1])
    assert D.homs[(0, 1)] == [] and D.homs[(1, 0)] == []
    CR = coend(D)
    assert CR.coalgebra.carrier.rank == 2   # grouplike-shaped
    D = mf_to_diagram([M0, mf_direct_sum(M0, M0)])
    assert D.closure_violation() is None
    # injections and projections are present in the hom spans
    inj = Matrix.from_rows(W, [[1], [0]])
    assert D.hom_contains(0, 1, inj)
    proj = Matrix.from_rows(W, [[1, 0]])
    assert D.hom_contains(1, 0, proj)


def test_mf_to_diagram_rejects_non_proj():
    W = ring_make(2, 2, 1)
    M = FinModule(W, (1,))
    X = mf_make(W, M, 0, 0, {0: ModuleMap.identity(M)},
                {0: Matrix.identity(W, 1)})
    assert is_mf_fl(X) and not X.M.is_free()
    with pytest.raises(MFError):
        mf_to_diagram([X])


def test_end_to_end_family(alg_f2):
    W = ring_make(2, 1, 1)
    M0, M1 = tate_object(W, 0), tate_object(W, 1)
    fam = [M0, M1, mf_direct_sum(M0, M1)]
    D = mf_to_diagram(fam)
    CR = coend(D)
    assert flatness_check(CR.coalgebra)
    lifted = lift_coaction(CR)
    assert morphisms_are_comodule_maps(CR, lifted)
    verd = unit_fully_faithful_check(CR, lifted)
    assert len(verd) == 9 and all(v[0] == "equal" for v in verd.values())


def test_gr42_family():
    W = ring_make(2, 2, 2)
    fam = [tate_object(W, 0), tate_object(W, 1)]
    D = mf_to_diagram(fam)
    CR = coend(D)
    assert flatness_check(CR.coalgebra)
    verd = unit_fully_faithful_check(CR)
    assert all(v[0] == "equal" for v in verd.values())


@pytest.mark.parametrize("pnf, digest", [
    ((2, 2, 3),
     "sha256:a8cd60ff49dddf527273bd845d9133beefa3cec7459dd9c54021a88d1c125828"),
    ((2, 3, 2),
     "sha256:9f9b64fdf3c9cda66a556b4c3bac45ca66cb6c5126752ecabdb4be2aa6a03a43"),
])
def test_mf_demo_witt_digests(capsys, pnf, digest):
    # GR(4,3) and GR(8,2): the digests the checks gave when the nested triple
    # tensor was always a Smith quotient
    p, n, f = pnf
    code = cli.main(["mf", "demo", "--p", str(p), "--n", str(n), "--f", str(f),
                     "--objects", "M(0),M(1)"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["report_digest"] == digest


def test_semilinear_composition_twist():
    W = ring_make(2, 2, 2)
    M = FinModule.free(W, 1)
    s = SemilinearMap(ModuleMap(M, M, Matrix.from_rows(W, [[W.x]])))
    # apply: v -> x * sigma(v)
    v = (W.x,)
    assert s.apply(v) == (W.mul(W.x, W.frobenius(W.x)),)
