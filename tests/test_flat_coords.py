"""Hom sets in flat R-coordinates: the closure composes flat vectors and the
coend reads its relations off them, so neither writes a B-matrix hom list
nor multiplies B-matrices.  The flat maps are checked against the B-matrix
products and R-matrices they replace."""

import random

from tannaka_forge import tannaka, textio
from tannaka_forge.algebra import AlgebraSpec
from tannaka_forge.linalg import Matrix, Span, howell
from tannaka_forge.modules import FinModule, sparse_image
from tannaka_forge.rings import TABLE_LIMIT
from tannaka_forge.tannaka import (DiagObject, DiagramCategory, _compose_cols,
                                   _flatten_bmat, coend, hom_closure)

import coend_reference as cref
import howell_reference as ref
from test_coend_maps import _dense_relation_columns
from test_howell import spans_draws  # noqa: F401  (a fixture)

# F2, Z/4, Z/9, F4, GR(4,2), GR(8,2), GR(4,3), F16 and GR(3^64,2), whose
# arithmetic is computed per call, not tabled
RINGS = ((2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3),
         (2, 1, 4), (3, 64, 2))


def _random_bmat(rng, alg, rows, cols):
    """Entries random, zero or x^(f_B - 1), so that products x^alpha x^gamma
    with alpha + gamma >= f_B come up."""
    B = alg.B
    pick = (lambda: rng.randrange(B.size), lambda: 0, lambda: alg.xpows[-1])
    return Matrix(B, [[rng.choice(pick)() for _ in range(cols)] for _ in range(rows)],
                  rows, cols)


def _bmat_cols_by_products(alg, F):
    """The R-matrix of F as sparse columns, entry by entry over B: column
    s f_B + gamma holds the coefficients of F[t][s] x^gamma."""
    B, fb = alg.B, alg.fb
    return [[(t * fb + d, c) for t in range(F.rows)
             for d, c in enumerate(B.coeffs(B.mul(F.data[t][s], alg.xpows[gamma]))) if c]
            for s in range(F.cols) for gamma in range(fb)]


def test_structure_constants_are_the_products_of_powers_of_x():
    for t in RINGS:
        alg = AlgebraSpec.make(*t)
        B, fb = alg.B, alg.fb
        for a in range(fb):
            assert {(b, d): c for b, d, c in alg.xmul[a]} == \
                {(b, d): c for b in range(fb)
                 for d, c in enumerate(B.coeffs(B.mul(alg.xpows[a], alg.xpows[b]))) if c}, (t, a)
    assert AlgebraSpec.make(3, 64, 2).B.size > TABLE_LIMIT


def test_flat_maps_match_bmatrix_products_and_rmatrices():
    rng = random.Random(42)
    for t in RINGS:
        alg = AlgebraSpec.make(*t)
        fb, wrapped = alg.fb, 0
        for _ in range(25):
            # ranks up to 3, 2 over F16, for T of rank at most MAX_T_RANK
            rk, rl, rm = (rng.randint(0, 3 if fb < 4 else 2) for _ in range(3))
            F, g = _random_bmat(rng, alg, rl, rk), _random_bmat(rng, alg, rm, rl)
            flat = _flatten_bmat(alg, F)
            wrapped += fb > 1 and any(c and i % fb == fb - 1 for i, c in enumerate(flat))
            # composition with g on the flat coordinates of Hom(k, l)
            free = FinModule.free(alg.R, rm * rk * fb)
            got = sparse_image([(i, c) for i, c in enumerate(flat) if c],
                               _compose_cols(alg.bmat_cols(g), fb, rk), free)
            assert dict(got) == {i: c for i, c in enumerate(_flatten_bmat(alg, g @ F)) if c}, t
            # the R-matrix of F from the dense and the sparse flat form
            cols = _bmat_cols_by_products(alg, F)
            assert alg.flat_cols(enumerate(flat), rk) == cols == alg.bmat_cols(F), t
            assert alg.flat_cols({i: c for i, c in enumerate(flat) if c}.items(), rk) == cols, t
            # F and F^T in the relation stream, xi F computed over B
            D = DiagramCategory(alg, [DiagObject("A", rk), DiagObject("C", rl)], {})
            assert _dense_relation_columns(D, [(0, 1, F)]) == \
                cref.relation_columns(D, [(0, 1, F)]), t
        assert wrapped or fb == 1, t


def test_span_sparse_rows_are_the_howell_rows():
    rng = random.Random(7)
    for t in RINGS[:8]:
        alg = AlgebraSpec.make(*t)
        for _ in range(10):
            w = rng.randint(0, 6)
            sp = Span(alg.R, [[rng.randrange(alg.R.size) * rng.randint(0, 1)
                               for _ in range(w)] for _ in range(rng.randint(0, 5))], w)
            sparse = [[row.get(j, 0) for j in range(w)] for row in sp.tail_rows(0, sparse=True)]
            assert sparse == sp.rows, t


def test_spans_pipeline_writes_no_hom_list_and_multiplies_no_bmatrix(monkeypatch, spans_draws):
    # parse -> hom_closure -> coend(check=False) on the 30 seed-3 draws
    unflattened, products = [0], [0]
    unflatten, matmul = tannaka._unflatten_bmat, Matrix.__matmul__

    def counted_unflatten(*args):
        unflattened[0] += 1
        return unflatten(*args)

    def counted_matmul(G, F):
        products[0] += G.ring == B
        return matmul(G, F)

    B = spans_draws[0].alg.B
    texts = [textio.format_diagram(D) for D in spans_draws]
    monkeypatch.setattr(tannaka, "_unflatten_bmat", counted_unflatten)
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    closed = []
    for text in texts:
        D = hom_closure(textio.parse_diagram(text))
        coend(D, check=False)
        closed.append(D)
    monkeypatch.undo()
    assert (unflattened[0], products[0]) == (0, 0)
    for D, raw in zip(closed, spans_draws):
        want = ref.hom_closure(raw)
        assert {kl: [F.data for F in mats] for kl, mats in D.homs.items()} == \
            {kl: [F.data for F in mats] for kl, mats in want.homs.items()}


def test_restrict_keeps_written_hom_lists_and_leaves_unwritten_ones(monkeypatch, spans_draws):
    # draw 9: four objects of ranks 3, 2, 3, 3, one or two generators on
    # most pairs; its raw hom lists are generators, not Howell rows
    raw = spans_draws[9]
    ks = [2, 0, 3]
    pairs = [((a, b), (k, l)) for a, k in enumerate(ks) for b, l in enumerate(ks)]
    sub = raw.restrict(ks)
    assert all(sub.flat(*ab) is raw.flat(*kl) for ab, kl in pairs)
    assert all(sub.homs[ab] == raw.homs[kl] for ab, kl in pairs)
    closed = hom_closure(raw)
    sub = closed.restrict(ks)
    assert sub._homs is None and closed._homs is None and not sub._flat
    # components reads the spans' pivots: no dense row and no hom list is written
    assert closed.components() == [[0, 1, 2, 3]] and closed._homs is None
    assert not closed._flat and all(sp._rows is None for sp in closed._spans.values())
    assert all(sub.homs[ab] == closed.homs[kl] for ab, kl in pairs)
    # once written, the B-matrix hom lists are not read: the generators
    # closed records (sub records none) are flat rows, and no B-matrix is
    # flattened.  The draw is one full block, whose relations `coend`
    # takes from the counit's kernel, reading no family member, so the
    # families are read here as `coend` reads them for members outside a
    # block
    flattened = [0]
    flatten = tannaka._flatten_bmat

    def counted_flatten(*args):
        flattened[0] += 1
        return flatten(*args)

    def rel_rows(D):
        N, _, _, cols = tannaka._relation_columns(D, D.gens)
        return howell(D.alg.R, cols, N)

    assert closed.full_blocks() == [[0, 1, 2, 3]]
    want = [rel_rows(D) for D in (closed, sub)]
    monkeypatch.setattr(tannaka, "_flatten_bmat", counted_flatten)
    got = [rel_rows(D) for D in (closed, closed.restrict(ks))]
    assert [coend(D, check=False).rel_rows for D in (closed, sub)] == want
    monkeypatch.undo()
    assert sub.gens is None and flattened[0] == 0 and got == want
