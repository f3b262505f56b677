"""The solve/submodule spine of `modules` (syzygies, submodule, solve_in and
linalg.solve_columns) against a per-column reference: one Smith solve per
target against A | torsion_matrix(M) (`smith_reference`), which shares no
code with the spine's Howell solver.  A solution is not unique, so the two
must agree on which targets are solvable, and differ by an element of the
reference kernel.  The per-column reference `ref_syzygies` reads its kernel
off linalg.kernel, as syzygies does, so both are also compared, as spans,
with the Smith kernel."""

import random

import pytest

from tannaka_forge import algebra, linalg, mf, modules, tannaka
from tannaka_forge.rings import ring_make
from tannaka_forge.linalg import Matrix, Span, solve_columns
from tannaka_forge.modules import (FinModule, ModuleMap, module_from_presentation,
                                   syzygies, submodule, solve_in,
                                   map_kernel, factor_through, sub_canonical)
from tannaka_forge.algebra import AlgebraSpec, free_bmodule
from tannaka_forge.coalgebra import cofree
from tannaka_forge.tannaka import (coend, coend_relation_rows, counit_map, hom_closure,
                                   lift_coaction)
from tannaka_forge.mf import mf_direct_sum, mf_to_diagram, tate_object
from tannaka_forge.textio import parse_diagram
from tannaka_forge.suite import (comatrix_coalgebra, comatrix_standard_comodule,
                                 grouplike_coalgebra, grouplike_line,
                                 grouplike_diagram, comatrix_diagram,
                                 trivial_coalgebra)
from smith_reference import densify, smith_kernel, smith_solve as ref_solve
from dense_tensor import dense_kernel, torsion_matrix

RINGS = [(2, 1, 1), (2, 3, 1), (2, 2, 2)]    # F2, Z/8, GR(4,2)


def ref_solve_in(M, A, targets):
    aug = A.hstack(torsion_matrix(M))
    out = []
    for t in targets:
        x = ref_solve(aug, list(t))
        out.append(None if x is None else x[:A.cols])
    return out


def ref_kernel_span(M, A):
    """The span of {x : A x = 0 in M}, read off the reference kernel.  The per-column reference `ref_syzygies` reads its kernel
off linalg.kernel, as syzygies does, so both are also compared, as spans,
with the Smith kernel."""
    K = smith_kernel(A.hstack(torsion_matrix(M)))
    return Span(M.ring, [K.col(j)[:A.cols] for j in range(K.cols)], A.cols)


def assert_same_solutions(got, want, span):
    """got and want solve the same targets, and differ by elements of span."""
    assert [x is None for x in got] == [y is None for y in want]
    sub = span.ring.sub
    for x, y in zip(got, want):
        if x is not None:
            assert span.contains([sub(a, b) for a, b in zip(x, y)])


def ref_syzygies(M, A):
    K = dense_kernel(A.hstack(torsion_matrix(M)))
    return Matrix(M.ring, [K.data[i][:] for i in range(A.cols)], A.cols, K.cols)


def ref_submodule(M, A):
    pres = densify(M.ring, module_from_presentation(ref_syzygies(M, A)))
    return pres.module, ModuleMap(pres.module, M, A @ pres.sect)


def ref_map_kernel(g):
    X = ref_syzygies(g.dst, g.mat)
    K2 = dense_kernel(X.hstack(torsion_matrix(g.src)))
    rel = Matrix(g.src.ring, [K2.data[i][:] for i in range(X.cols)], X.cols, K2.cols)
    pres = densify(g.src.ring, module_from_presentation(rel))
    return pres.module, ModuleMap(pres.module, g.src, X @ pres.sect)


def ref_map_image(g):
    pres = densify(g.dst.ring, module_from_presentation(ref_syzygies(g.dst, g.mat)))
    return pres.module, ModuleMap(pres.module, g.dst, g.mat @ pres.sect)


def rand_module(rng, R, max_rank=3):
    exps = sorted((rng.randint(1, R.n) for _ in range(rng.randint(0, max_rank))),
                  reverse=True)
    return FinModule(R, exps)


def rand_matrix(rng, R, rows, cols):
    return Matrix(R, [[rng.randrange(R.size) for _ in range(cols)]
                      for _ in range(rows)], rows, cols)


def rand_map(rng, src, dst):
    R = src.ring
    mat = Matrix.zeros(R, dst.rank, src.rank)
    for j, d in enumerate(dst.exps):
        for i, e in enumerate(src.exps):
            need = max(0, d - e)
            a = rng.randrange(R.size)
            mat.data[j][i] = 0 if need >= R.n else R.mul(a, R.p_elem(need))
    return ModuleMap(src, dst, mat)


def cases(seed, count):
    """Seeded (M, A, targets) over F2, Z/8 and GR(4,2): torsion carriers,
    zero-rank carriers and zero-column A included; targets inside the span
    (random combinations) and drawn at random."""
    rng = random.Random(seed)
    out = []
    for pnf in RINGS:
        R = ring_make(*pnf)
        for t in range(count):
            M = rand_module(rng, R)
            k = 0 if t % 7 == 0 else rng.randint(0, 4)
            A = rand_matrix(rng, R, M.rank, k)
            targets = []
            for _ in range(3):
                combo = A.apply([rng.randrange(R.size) for _ in range(k)])
                targets.append(M.reduce(combo))
                targets.append(tuple(rng.randrange(R.size) for _ in range(M.rank)))
            out.append((M, A, targets))
    return out


def test_spine_cases_cover_edges():
    seen = set()
    for M, A, _ in cases(11, 30):
        seen.add(("zero-rank", M.rank == 0))
        seen.add(("zero-cols", A.cols == 0))
        seen.add(("torsion", not M.is_free()))
    assert seen >= {("zero-rank", True), ("zero-cols", True), ("torsion", True),
                    ("zero-rank", False), ("zero-cols", False), ("torsion", False)}


def test_solve_in_matches_per_column_solve():
    found = {True: 0, False: 0}
    for M, A, targets in cases(11, 30):
        got = solve_in(M, A.sparse_cols(), targets)
        assert_same_solutions(got, ref_solve_in(M, A, targets), ref_kernel_span(M, A))
        for x, t in zip(got, targets):
            found[x is not None] += 1
            if x is not None:
                assert M.reduce(A.apply(x)) == M.reduce(t)
    assert found[True] and found[False]


def test_solve_columns_matches_solve():
    rng = random.Random(5)
    for pnf in RINGS:
        R = ring_make(*pnf)
        for _ in range(40):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            A = rand_matrix(rng, R, rows, cols)
            targets = [A.apply([rng.randrange(R.size) for _ in range(cols)])
                       for _ in range(2)]
            targets += [[rng.randrange(R.size) for _ in range(rows)] for _ in range(2)]
            got = solve_columns(R, A.sparse_cols(), rows, targets)
            K = smith_kernel(A)
            assert_same_solutions(got, [ref_solve(A, list(b)) for b in targets],
                                  Span(R, [K.col(j) for j in range(K.cols)], cols))
            for x, b in zip(got, targets):
                assert x is None or A.apply(x) == list(b)
            assert solve_columns(R, A.sparse_cols(), rows, []) == []
    with pytest.raises(linalg.DimensionMismatch):
        solve_columns(R, Matrix.identity(R, 2).sparse_cols(), 2, [[1, 2, 3]])


def test_syzygies_and_submodule_match_reference():
    for M, A, _ in cases(12, 30):
        syz_new = Matrix.from_sparse(M.ring, syzygies(M, A.sparse_cols()), A.cols)
        assert syz_new == ref_syzygies(M, A)
        # ref_syzygies shares linalg.kernel with syzygies, so both are also
        # compared, as spans, with the Smith kernel
        want = ref_kernel_span(M, A).rows
        for syz in (syz_new, ref_syzygies(M, A)):
            assert Span(M.ring, [syz.col(j) for j in range(syz.cols)], A.cols).rows == want
        S, incl = submodule(M, A.sparse_cols())
        S_ref, incl_ref = ref_submodule(M, A)
        assert S.exps == S_ref.exps
        assert incl.mat == incl_ref.mat
        # every column of A lies in the image of incl
        cols = [M.reduce(A.col(j)) for j in range(A.cols)]
        assert None not in solve_in(M, incl.cols, cols)


def test_map_kernel_and_image_match_reference():
    rng = random.Random(13)
    for pnf in RINGS:
        R = ring_make(*pnf)
        for _ in range(30):
            g = rand_map(rng, rand_module(rng, R), rand_module(rng, R))
            for (K, incl), (K_ref, incl_ref) in (
                    (map_kernel(g), ref_map_kernel(g)),
                    (submodule(g.dst, g.cols), ref_map_image(g))):
                assert K.exps == K_ref.exps
                assert incl.mat == incl_ref.mat
            # the kernel is {x : g x = 0 in dst}, read off the Smith kernel
            incl = map_kernel(g)[1].mat
            assert sub_canonical(g.src, [incl.col(j) for j in range(incl.cols)]) == \
                sub_canonical(g.src, ref_kernel_span(g.dst, g.mat).rows)


def test_factor_through_is_one_elimination(monkeypatch):
    W = ring_make(2, 2, 2)
    X = mf_direct_sum(mf_direct_sum(tate_object(W, 1), tate_object(W, 1)),
                      tate_object(W, 2))
    incl, other = X.fil[0], X.fil[1]
    assert other.src.rank >= 3      # one solve per generator would be 3+
    calls = []

    def counted(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(linalg, "Span", counted("Span", linalg.Span))
    monkeypatch.setattr(linalg, "smith", counted("smith", linalg.smith))
    g = factor_through(incl, other)
    assert calls == ["Span"]
    assert g is not None and incl @ g == other


def ref_section_of_projection(proj, module):
    """A section of proj by one solve per generator of the coend carrier:
    the reference for the section the coend keeps."""
    aug = proj.hstack(torsion_matrix(module))
    cols = [ref_solve(aug, list(module.gen(k)))[:proj.cols]
            for k in range(module.rank)]
    return Matrix.from_cols(proj.ring, cols, proj.cols)


def _counit_fixtures():
    alg_f2 = AlgebraSpec.make(2, 1, 1)
    out = []
    for alg in (alg_f2, AlgebraSpec.make(3, 1, 1)):
        for r in (1, 2):
            C = comatrix_coalgebra(alg, r)
            out.append((C, [comatrix_standard_comodule(C, r)]))
    for g in (1, 2, 3):
        C = grouplike_coalgebra(alg_f2, g)
        out.append((C, [grouplike_line(C, i) for i in range(g)]))
    alg = AlgebraSpec.make(2, 2, 2)
    C = trivial_coalgebra(alg)
    out.append((C, [cofree(C, free_bmodule(alg, 1))]))
    C = grouplike_coalgebra(alg_f2, 2)
    out.append((C, [grouplike_line(C, 0)]))
    for D in (grouplike_diagram(alg_f2, 2), comatrix_diagram(alg_f2, 2)):
        CR = coend(D)
        out.append((CR.coalgebra, lift_coaction(CR)))
    return out


def test_counit_nu_matches_old_section(monkeypatch):
    real_coend = tannaka.coend
    differ = 0

    def coend_with_old_section(D, *args, **kwargs):
        nonlocal differ
        CR = real_coend(D, *args, **kwargs)
        old = ref_section_of_projection(CR.classmap, CR.coalgebra.carrier)
        differ += old != Matrix.from_sparse(old.ring, CR.sect, old.rows)
        CR.sect = old.sparse_cols()
        return CR

    for C, fam in _counit_fixtures():
        res = counit_map(C, fam)
        CR = res.coend_result
        L = CR.coalgebra.carrier
        assert CR.rel_rows == coend_relation_rows(CR.diagram)[1]
        sect = Matrix.from_sparse(L.ring, CR.sect, CR.classmap.cols)
        for k in range(L.rank):
            assert L.reduce(CR.classmap.apply(sect.col(k))) == L.gen(k)
        with monkeypatch.context() as mp:
            mp.setattr(tannaka, "coend", coend_with_old_section)
            ref = counit_map(C, fam)
        assert ref.nu == res.nu
        assert (ref.iso, ref.coalgebra_morphism) == (res.iso, res.coalgebra_morphism)
    # the test is live: on some fixture the two sections really differ
    assert differ


def test_each_presentation_writes_one_dense_matrix(monkeypatch):
    # the spine passes sparse columns from end to end: no dense matrix is
    # stacked onto another, and each presentation_with_torsion writes its
    # relations and the torsion columns into one Matrix, the one Smith
    # reads; Matrix.__init__ counts every Matrix built, zeros among them
    def no_hstack(self, other):
        raise AssertionError("Matrix.hstack called")

    built = [0]
    init = Matrix.__init__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    per_call = []
    present = modules.presentation_with_torsion

    def counted(M, cols):
        before = built[0]
        pres = present(M, cols)
        per_call.append(built[0] - before)
        return pres

    torsion = hom_closure(parse_diagram(
        "alg R=GR(2^2,1) B=GR(2^2,2)\nobject A0 rank 1\nobject A1 rank 1\n"
        "hom A0 A1 = [[[2]]]\n"))
    Z4 = grouplike_coalgebra(AlgebraSpec.make(2, 2, 1), 4)
    W = ring_make(2, 2, 2)
    runs = {
        "GR(4,2) rank-2 identity": lambda: coend(
            comatrix_diagram(AlgebraSpec.make(2, 2, 2), 2), check=True),
        "torsion coend": lambda: coend(torsion, check=True),
        "Z/4 grouplike counit": lambda: counit_map(Z4, [grouplike_line(Z4, 0),
                                                        grouplike_line(Z4, 1)]),
        "GR(4,2) MF diagram": lambda: mf_to_diagram([tate_object(W, 0), tate_object(W, 1)]),
    }
    monkeypatch.setattr(Matrix, "hstack", no_hstack)
    monkeypatch.setattr(Matrix, "__init__", counted_init)
    for mod in (modules, algebra, tannaka, mf):
        monkeypatch.setattr(mod, "presentation_with_torsion", counted, raising=False)
    for name, run in runs.items():
        per_call.clear()
        run()
        assert per_call and set(per_call) == {1}, (name, per_call)
