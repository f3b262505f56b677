"""The base algebra B = GR(p^n, f_B) over R = Z/p^n, and its bimodules.

B is free of rank f_B over R with basis 1, x, ..., x^{f_B - 1}, so a (left or
right) B-module structure on an R-module is exactly an R-linear endomorphism
X (the action of the generator x) with h(X) = 0; a B-B-bimodule carries two
commuting such actions.  This keeps every carrier inside the canonical
FinModule world while the two actions stay genuinely distinct, which is what
B-B-coalgebras need: B tensor_R B is not B.  A B-matrix becomes an R-matrix
in one place, AlgebraSpec.flat_cols, which writes it as sparse columns from
its flat R-coordinates: bmat_cols reads a B-matrix through it, and the
closure and the coend's relations read flat rows.

Tensor over B is the cokernel of the middle-relation map

    x (x) y  |->  (x . b) (x) y - x (x) (b . y)      (b = the generator)

on the R-tensor product.  The quotient is presented exactly and held by a
BTensor in one form, sparse columns (its projection, section, relations
and outer actions), as are its elements (BTensor.pure_sum).  A map out of
it is f (x) g pushed through the target's projection and descended by
modules.descend_sparse, and a map into it is lifted back through the
section (BTensor.lift); only the Smith presentation of a quotient writes
its relations out densely.  When f_B = 1, B is R and x = 1 (ring_make's
modulus is x - 1), so every B-action is the identity and tensor over B is
tensor over R: BTensor.over_r decides this once, and then no outer action
is induced, no map projected or lifted.  A counit contraction is a flat map
at every f_B, never descended.  A triple tensor over B is needed only where
a coassociativity check at f_B >= 2 finds a flat difference, and only as
its nest (X tensor_B Y) tensor_B Z on the computed
X tensor_B Y (right exactness): X^{(+)s} in B-coordinates when Z is free
over B with s generators (FreeNest), else a binary tensor as above.

Free-vs-not over B is decided by re-expressing a carrier as a B-module and
running the chain-ring normal form over B itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import RingSpec, ring_make
from .linalg import Matrix
from .modules import (FinModule, ModuleMap, TensorData, tensor_with_data,
                      syzygies, presentation_with_torsion, factor_through,
                      RingMismatch, tensor_cols, sparse_image, descend_sparse,
                      canonical_layout)


class NonCommutingActions(ValueError):
    pass


class ModulusViolation(ValueError):
    pass


class AlgebraSpec:
    """R = Z/p^n together with B = GR(p^n, f_B); R embeds as the constant
    coefficients, and B is free of rank f_B over R."""

    def __init__(self, R: RingSpec, B: RingSpec):
        if R.f != 1:
            raise ValueError("enrichment base must have f = 1")
        if (R.p, R.n) != (B.p, B.n):
            raise ValueError("R and B must share p and n")
        self.R = R
        self.B = B
        self.fb = B.f
        self.xpows = tuple(B.pow(B.x, k) for k in range(B.f))  # x^0..x^{f_B-1}
        # xmul[alpha]: (gamma, d, c) with c the x^d coefficient of x^alpha x^gamma, if nonzero
        xe = [B.coeffs(B.pow(B.x, e)) for e in range(2 * B.f - 1)]
        self.xmul = tuple(tuple((g, d, c) for g in range(B.f)
                                for d, c in enumerate(xe[a + g]) if c) for a in range(B.f))
        self._x_cols: dict[int, list] = {}

    @classmethod
    def make(cls, p: int, n: int, f: int) -> "AlgebraSpec":
        return cls(ring_make(p, n, 1), ring_make(p, n, f))

    def literal(self) -> str:
        return "alg R=%s B=%s" % (self.R.literal(), self.B.literal())

    def __repr__(self):
        return self.literal()

    def __eq__(self, other):
        return isinstance(other, AlgebraSpec) and self.R == other.R and self.B == other.B

    def __hash__(self):
        return hash((self.R, self.B))

    # -- B <-> R conversions ----------------------------------------------

    def bmat_cols(self, M: Matrix) -> list[list[tuple[int, int]]]:
        """A B-matrix as an R-matrix on the underlying free R-modules
        (coordinate s*f_B + gamma of B^r is x^gamma e_s), as sparse
        columns: column s*f_B + gamma is the coefficients of M[t][s] x^gamma
        over the rows t, in increasing row order."""
        if M.ring != self.B:
            raise RingMismatch("expected a matrix over B")
        return self.flat_cols(enumerate(self.bvec_to_rvec(b for row in M.data for b in row)),
                              M.cols)

    def flat_cols(self, flat, cols: int) -> list[list[tuple[int, int]]]:
        """bmat_cols of the M with cols columns whose flat R-coordinates are
        the (index, entry) pairs flat, one per index: c at (t cols + s) f_B +
        alpha adds c x^(alpha + gamma), by the structure constants xmul, to
        column s f_B + gamma, in M[t][s] x^gamma.  The sums are keyed by
        their row-major position, so that one sort orders every column."""
        fb, q, xmul, n = self.fb, self.R.q, self.xmul, cols * self.fb
        acc = {}
        for i, c in flat:
            if c:
                ts, alpha = divmod(i, fb)
                t, s = divmod(ts, cols)
                base = t * fb * n + s * fb
                for gamma, d, x in xmul[alpha]:
                    k = base + d * n + gamma
                    acc[k] = acc.get(k, 0) + c * x
        out = [[] for _ in range(n)]
        for k in sorted(acc):
            if r := acc[k] % q:
                j, col = divmod(k, n)
                out[col].append((j, r))
        return out

    def x_cols(self, r: int) -> list[list[tuple[int, int]]]:
        """The sparse columns of multiplication by x on B^r, built once per
        rank and shared, so not to be changed."""
        X = self._x_cols.get(r)
        if X is None:
            X = self._x_cols[r] = self.bmat_cols(Matrix.identity(self.B, r).scale(self.B.x))
        return X

    def dual_functional(self, r: int, w: int) -> list[list[tuple[int, int]]]:
        """The sparse columns of the R-matrix (f_B x r f_B) of the dual-basis
        functional xi_w = x^beta e_t^dual : B^r -> B, for R-coordinate
        w = t f_B + beta of the dual, which is also its flat coordinate."""
        return self.flat_cols([(w, 1)], r)

    def rmat_to_bmat(self, g: ModuleMap) -> Matrix:
        """Inverse of bmat_cols on a map g between R-carriers of B-modules;
        g must commute with the x-action (checked by re-expansion, reduced
        into g.dst so that torsion there cannot make a B-linear map fail)."""
        B, fb, M = self.B, self.fb, g.mat
        rows, cols = g.dst.rank // fb, g.src.rank // fb
        out = Matrix.zeros(B, rows, cols)
        for t in range(rows):
            for s in range(cols):
                coeffs = [M.data[t * fb + d][s * fb] for d in range(fb)]
                out.data[t][s] = B.from_coeffs(coeffs)
        if ModuleMap(g.src, g.dst, self.bmat_cols(out), validate=False) != g:
            raise ValueError("matrix is not B-linear")
        return out

    def bvec_to_rvec(self, vec) -> tuple[int, ...]:
        out = []
        for b in vec:
            out.extend(self.B.coeffs(b))
        return tuple(out)

    def rvec_to_bvec(self, vec) -> tuple[int, ...]:
        fb = self.fb
        return tuple(self.B.from_coeffs(vec[s * fb:(s + 1) * fb])
                     for s in range(len(vec) // fb))


# ---------------------------------------------------------------------------
# one-sided modules and bimodules
# ---------------------------------------------------------------------------

def power_cols(cols, M: FinModule, k: int) -> list[list]:
    """The sparse columns of id, act, ..., act^(k-1) for the endomorphism
    act of M with sparse columns cols."""
    pows = [[[(m, 1)] for m in range(M.rank)]]
    for _ in range(k - 1):
        pows.append([sparse_image(col, cols, M) for col in pows[-1]])
    return pows


def poly_cols(pows, terms, dst: FinModule) -> list[list]:
    """The sparse columns of sum_k c_k act^k over the (k, c_k) pairs terms,
    from the power_cols pows of act: a polynomial in an x-action, such as
    the action of an element of B."""
    return [sparse_image(terms, [pw[m] for pw in pows], dst)
            for m in range(len(pows[0]))]


def _check_modulus(alg: AlgebraSpec, act: ModuleMap, which: str):
    """h(act) = 0 as a module map."""
    h = [(k, alg.R.from_int(c)) for k, c in enumerate(alg.B.h)]
    pows = power_cols(act.cols, act.dst, alg.fb + 1)
    if any(poly_cols(pows, h, act.dst)):
        raise ModulusViolation("%s action does not satisfy h(x) = 0" % which)


class BModule:
    """A left (equivalently one-sided) B-module: an R-carrier with the
    x-action."""

    def __init__(self, alg: AlgebraSpec, carrier: FinModule, act: ModuleMap,
                 check: bool = True):
        self.alg = alg
        self.carrier = carrier
        self.act = act
        if check:
            if act.src != carrier or act.dst != carrier:
                raise ValueError("action must be an endomorphism of the carrier")
            _check_modulus(alg, act, "module")

    def __eq__(self, other):
        return (isinstance(other, BModule) and self.alg == other.alg
                and self.carrier == other.carrier and self.act == other.act)

    def __hash__(self):
        return hash((self.alg, self.carrier, self.act))


class BBBimodule:
    """Commuting left and right B-actions on an R-carrier; R acts centrally
    because the carrier is an R-module."""

    def __init__(self, alg: AlgebraSpec, carrier: FinModule,
                 left: ModuleMap, right: ModuleMap, check: bool = True):
        self.alg = alg
        self.carrier = carrier
        self.left = left
        self.right = right
        if check:
            for act in (left, right):
                if act.src != carrier or act.dst != carrier:
                    raise ValueError("action must be an endomorphism of the carrier")
            _check_modulus(alg, left, "left")
            _check_modulus(alg, right, "right")
            if (left @ right) != (right @ left):
                raise NonCommutingActions("left and right actions do not commute")

    def __eq__(self, other):
        return (isinstance(other, BBBimodule) and self.alg == other.alg
                and self.carrier == other.carrier
                and self.left == other.left and self.right == other.right)

    def __hash__(self):
        return hash((self.alg, self.carrier, self.left, self.right))


def free_bmodule(alg: AlgebraSpec, r: int) -> BModule:
    """B^r as a left B-module on the R-carrier R^{r f_B}."""
    carrier = FinModule.free(alg.R, r * alg.fb)
    return BModule(alg, carrier,
                   ModuleMap(carrier, carrier, alg.x_cols(r), validate=False),
                   check=False)


def regular_bimodule(alg: AlgebraSpec) -> BBBimodule:
    """B as a B-B-bimodule (left and right actions coincide since B is
    commutative, but they are tracked separately)."""
    m = free_bmodule(alg, 1)
    return BBBimodule(alg, m.carrier, m.act, m.act, check=False)


# ---------------------------------------------------------------------------
# tensor over B
# ---------------------------------------------------------------------------

@dataclass
class BTensor:
    """X tensor_B Y as the canonical quotient module of the R-tensor TR,
    held once, as sparse (index, entry) columns: proj_cols[k] is generator k
    of TR.module in module, sect_cols[q] lifts generator q of module into
    TR.module (proj after sect is the identity), and rels are the middle
    relations over TR.module that descend_sparse checks maps on.  left and
    right are the outer x-actions, sparse columns module -> module.  factors
    is (X, Y) for tensor_bimodules and (X, M) for tensor_bim_bmodule; the
    nest of a triple tensor records none.  An element of module, such as a
    sum of pure tensors (pure_sum), is a sparse vector too: its nonzero
    (index, entry) pairs in increasing index order.  When f_B = 1 (over_r)
    module is TR.module, and proj_cols, sect_cols and the outer actions are
    unit columns, with no rels: project merges and reduces, descend_cols
    also checks, lift returns its input and induced_cols does not project."""
    alg: AlgebraSpec
    TR: TensorData
    module: FinModule
    proj_cols: list
    sect_cols: list
    rels: list
    left: list | None = None
    right: list | None = None
    factors: tuple | None = None

    @property
    def over_r(self) -> bool:                   # f_B = 1: B is R
        return self.alg.fb == 1

    def project(self, flat) -> list[list[tuple[int, int]]]:
        """The sparse vectors flat over TR.module, projected into module."""
        return [sparse_image(col, self.proj_cols, self.module) for col in flat]

    def project_pair(self, q: int, z: int) -> list[tuple[int, int]]:
        """The image in module of the flat generator (q, z) of TR.module."""
        return self.proj_cols[self.TR.pos[(q, z)]]

    def lift(self, phi: ModuleMap) -> list[list[tuple[int, int]]]:
        """The flat lift sect @ phi of phi into TR.module, as sparse
        columns, unreduced; over R phi's own columns, not to be changed."""
        if self.over_r:
            return phi.cols
        q = self.alg.R.q                    # R = Z/p^n: entries are ints
        out = []
        for col in phi.cols:
            acc: dict[int, int] = {}
            for r, c in col:
                for t, s in self.sect_cols[r]:
                    acc[t] = acc.get(t, 0) + s * c
            out.append([(t, acc[t] % q) for t in sorted(acc) if acc[t] % q])
        return out

    def outer(self, f: ModuleMap, g: ModuleMap) -> list:
        """The outer action f tensor_B g of module, f or g an x-action and
        the other the identity: over R the unit columns proj_cols."""
        return self.proj_cols if self.over_r else induced_cols(self, self, f, g)

    def pure_sum(self, pairs) -> list[tuple[int, int]]:
        """The sum of v (x) w over the (v, w) pairs of sparse vectors over
        TR.left and TR.right, as the sparse pairs of an element of module:
        the flat products a b at (i, j), projected."""
        pos = self.TR.pos
        return self.project([[(pos[(i, j)], a * b)
                              for v, w in pairs for i, a in v for j, b in w]])[0]


def _btensor_core(alg: AlgebraSpec, left_car: FinModule, x_right: ModuleMap,
                  right_car: FinModule, y_left: ModuleMap) -> BTensor:
    TR = tensor_with_data(left_car, right_car)
    N = TR.module.rank
    if alg.fb == 1:
        unit = [[(k, 1)] for k in range(N)]
        return BTensor(alg, TR, TR.module, unit, unit, [])
    # relation k = (i, j) is x_right(e_i) (x) e_j - e_i (x) y_left(e_j)
    sides = (tensor_cols(TR, x_right, ModuleMap.identity(right_car), TR)
             + tensor_cols(TR, ModuleMap.identity(left_car), y_left, TR))
    minus = alg.R.neg(1)
    rels = [sparse_image([(k, 1), (N + k, minus)], sides, TR.module)
            for k in range(N)]
    pres = presentation_with_torsion(TR.module, rels)
    return BTensor(alg, TR, pres.module, pres.proj, pres.sect, rels)


def descend_cols(data: BTensor, cols, dst: FinModule) -> list:
    """Factor the flat map TR.module -> dst with sparse columns cols through
    the quotient by descend_sparse, as sparse columns."""
    return descend_sparse(cols, data.rels, data.sect_cols, dst, data.module)


def induced_cols(data: BTensor, data2: BTensor, f: ModuleMap, g: ModuleMap) -> list:
    """f tensor_B g between two recorded tensors as sparse columns (f, g
    must be B-linear for the result to be canonical; descent is checked):
    f tensor g on data.TR, projected into data2 unless over R, descended."""
    flat = tensor_cols(data.TR, f, g, data2.TR)
    return descend_cols(data, flat if data2.over_r else data2.project(flat), data2.module)


def induced(data: BTensor, data2: BTensor, f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """induced_cols as a map."""
    return ModuleMap(data.module, data2.module, induced_cols(data, data2, f, g),
                     validate=False)


def tensor_bimodules(alg: AlgebraSpec, X: BBBimodule, Y: BBBimodule) -> BTensor:
    """X tensor_B Y with the outer actions installed."""
    data = _btensor_core(alg, X.carrier, X.right, Y.carrier, Y.left)
    data.factors = (X, Y)
    data.left = data.outer(X.left, ModuleMap.identity(Y.carrier))
    data.right = data.outer(ModuleMap.identity(X.carrier), Y.right)
    return data


def tensor_bim_bmodule(alg: AlgebraSpec, X: BBBimodule, M: BModule) -> BTensor:
    """X tensor_B M as a left B-module (left action from X)."""
    data = _btensor_core(alg, X.carrier, X.right, M.carrier, M.act)
    data.factors = (X, M)
    data.left = data.outer(X.left, ModuleMap.identity(M.carrier))
    return data


def btensor_bmodule(data: BTensor) -> BModule:
    return BModule(data.alg, data.module,
                   ModuleMap(data.module, data.module, data.left, validate=False),
                   check=False)


# ---------------------------------------------------------------------------
# the nest of a triple tensor (for coassociativity checks)
# ---------------------------------------------------------------------------

class FreeNest:
    """X tensor_B Z = X^{(+)s} for X = xy.module and Z free over B with basis
    z_1..z_s (form), in B-coordinates: summand (j, q) is x_q in block j.  No
    flat X tensor_R Z and no section is laid out: e_k = sum_j beta_kj z_j
    (column k of form.theta_inv), so project_pair(q, k), the image of
    x_q (x) e_k, is (x_q . beta_kj)_j, formed from the nonzeros of beta_k
    and the powers of xy.right."""

    def __init__(self, alg: AlgebraSpec, xy: BTensor, form: BForm):
        X, self.fb = xy.module, alg.fb
        self.module, self.at = canonical_layout(alg.R, (
            (e, (j, q)) for j in range(len(form.exps)) for q, e in enumerate(X.exps)))
        self.pows = power_cols(xy.right, X, alg.fb)     # pows[g][q] = right^g(x_q)
        self.beta = form.theta_inv.cols

    def project_pair(self, q: int, k: int) -> list[tuple[int, int]]:
        fb, at, pows = self.fb, self.at, self.pows
        # right^g(x_q) placed in block j, for each nonzero beta_k at j fb + g
        blocks = {jg: [(at[(jg // fb, q2)], a) for q2, a in pows[jg % fb][q]]
                  for jg, _ in self.beta[k]}
        return sparse_image(self.beta[k], blocks, self.module)


def triple_tensor(alg: AlgebraSpec, xy: BTensor, Z_car: FinModule,
                  Z_left: ModuleMap) -> BTensor:
    """The nest (X tensor_B Y) tensor_B Z, for f_B >= 2, as the quotient by
    the middle relations: the binary tensor of xy.module = X tensor_B Y,
    over xy's right action, with Z, over Z_left."""
    right = ModuleMap(xy.module, xy.module, xy.right, validate=False)
    return _btensor_core(alg, xy.module, right, Z_car, Z_left)


def nest_tensor(alg: AlgebraSpec, xy: BTensor, Z_car: FinModule,
                Z_left: ModuleMap) -> FreeNest | BTensor:
    """The nest (X tensor_B Y) tensor_B Z for the coassociativity check at
    f_B >= 2: a FreeNest when Z is free over B, else triple_tensor's."""
    form = as_b_module(alg, Z_car, Z_left)
    if form.is_free():
        return FreeNest(alg, xy, form)
    return triple_tensor(alg, xy, Z_car, Z_left)


# ---------------------------------------------------------------------------
# B-module structure recovery (freeness, bases)
# ---------------------------------------------------------------------------

@dataclass
class BForm:
    """A carrier-with-action re-expressed as a canonical B-module; when it
    is free of rank r, theta : R^{r f_B} -> carrier is the R-isomorphism
    sending x^g e_j to x^g times the j-th B-generator, and theta_inv is its
    inverse, both ModuleMaps."""
    exps: tuple[int, ...]           # over B; all equal n iff free
    theta: ModuleMap | None
    theta_inv: ModuleMap | None

    def is_free(self) -> bool:
        return bool(self.theta is not None)


def _standard_rank(alg: AlgebraSpec, carrier: FinModule, act: ModuleMap) -> int | None:
    """r if (carrier, act) is literally B^r in standard coordinates."""
    fb = alg.fb
    if not carrier.is_free() or carrier.rank % fb:
        return None
    r = carrier.rank // fb
    return r if act.cols == alg.x_cols(r) else None


def as_b_module(alg: AlgebraSpec, carrier: FinModule, act: ModuleMap) -> BForm:
    """Canonical B-module form of (carrier, x-action), via the chain-ring
    normal form over B itself."""
    B, fb = alg.B, alg.fb
    std = _standard_rank(alg, carrier, act)
    if std is not None:
        ident = ModuleMap.identity(carrier)
        return BForm((B.n,) * std, ident, ident)
    m = carrier.rank
    # Phi : B^m -> carrier, R-basis x^k e_i |-> act^k(gen_i)
    pows = power_cols(act.cols, carrier, fb)
    phi = [pows[k][i] for i in range(m) for k in range(fb)]
    # the relations of phi, reinterpreted over B
    relB = []
    for col in syzygies(carrier, phi):
        coeffs: dict[int, list[int]] = {}
        for i, a in col:
            coeffs.setdefault(i // fb, [0] * fb)[i % fb] = a
        relB.append([(s, B.from_coeffs(c)) for s, c in sorted(coeffs.items())])
    pres = presentation_with_torsion(FinModule.free(B, m), relB)
    exps = pres.module.exps
    theta = theta_inv = None
    if all(e == B.n for e in exps):
        tcols = []
        for col in pres.sect:
            # each B-generator inside the carrier, and its x-powers
            gen = sparse_image([(s * fb + d, c) for s, b in col
                                for d, c in enumerate(B.coeffs(b)) if c], phi, carrier)
            tcols += [sparse_image(gen, pw, carrier) for pw in pows]
        theta = ModuleMap(FinModule.free(alg.R, len(tcols)), carrier, tcols, validate=False)
        # an isomorphism of free modules of one rank factors the identity
        theta_inv = factor_through(theta, ModuleMap.identity(carrier))
    return BForm(exps, theta, theta_inv)


def is_b_free(alg: AlgebraSpec, carrier: FinModule, act: ModuleMap) -> bool:
    return all(e == alg.B.n for e in as_b_module(alg, carrier, act).exps)
