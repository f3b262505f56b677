"""Arithmetic in finite chain rings GR(p^n, f).

GR(p^n, f) is (Z/p^n)[x]/(h) for a basic irreducible h of degree f.  It covers
Z/p^n (f = 1, with the convention h = x - 1), the fields F_{p^f} (n = 1), and
the truncated Witt rings W_n(F_{p^f}) in general.  The ring is local with
maximal ideal (p); every element factors as unit * p^v.

Elements are plain ints: the coefficient vector (c_0, ..., c_{f-1}) in the
basis 1, x, ..., x^{f-1}, with 0 <= c_k < p^n, packs to sum(c_k * (p^n)**k).
All arithmetic goes through the owning RingSpec, so enumeration of the ring is
just range(spec.size) and element order is the packed-integer order.

The defining modulus h is chosen deterministically: the unique monic lift to
Z/p^n dividing x^{p^f - 1} - 1 of the lexicographically least monic degree-f
irreducible over F_p (comparing coefficient tuples from degree f-1 down to 0),
which is what makes normal forms reproducible across runs.  It is built as
the product of X - xi over the Teichmueller lifts xi of the roots.  So x is a
Teichmueller element and the Frobenius sends a(x) to a(x^p).  Reports always
print the chosen h.

Rings of at most TABLE_LIMIT elements keep full add/mul tables.  They are
filled by linearity (see RingSpec._build_tables): each entry is one or two
list lookups from an earlier entry, and only the size products a * x are
polynomial products, so a 256-element ring builds in a few hundredths of a
second.
"""

from __future__ import annotations

from functools import lru_cache


class NonUnitError(ArithmeticError):
    """Raised when inverting an element with positive valuation."""


# Ring ops are table-driven up to this size; beyond it they are computed
# per call (still exact, just slower).  The size^2-entry add and mul tables
# are filled by lookups from earlier rows, not by size^2 polynomial products.
TABLE_LIMIT = 256

# ring_make refuses larger rings before building anything: the modulus
# search tries up to p^f candidates and the final check divides
# x^(p^f - 1) - 1, so both take time exponential in f, and elements grow
# with n.
MAX_RESIDUE_FIELD = 4096    # p^f
MAX_N = 64


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z/m (coefficient lists, ascending degree)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _poly_trim(out)


def _poly_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % m
    return _poly_trim(out)


def _poly_mod(a, b, m):
    # b must have unit leading coefficient mod m
    lead_inv = pow(b[-1], -1, m)
    rem = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = (rem[len(b) + i - 1] * lead_inv) % m
        if c:
            for j, cb in enumerate(b):
                rem[i + j] = (rem[i + j] - c * cb) % m
    return _poly_trim(rem)


def _irreducible_mod_p(h: list[int], p: int) -> bool:
    """Brute-force irreducibility of a monic polynomial over F_p."""
    f = len(h) - 1
    if f <= 1:
        return f == 1
    # trial division by every monic polynomial of degree 1..f//2
    for d in range(1, f // 2 + 1):
        for idx in range(p**d):
            g = []
            t = idx
            for _ in range(d):
                g.append(t % p)
                t //= p
            g.append(1)
            if not _poly_mod(h, g, p):
                return False
    return True


def _lex_least_irreducible(p: int, f: int) -> list[int]:
    """Lexicographically least monic irreducible of degree f over F_p,
    comparing coefficient tuples (a_{f-1}, ..., a_0) from the top degree
    down; the low-order coefficient therefore varies fastest.  Over F_2
    this picks x^3+x+1 for f = 3."""
    for idx in range(p**f):
        coeffs = [0] * f
        t = idx
        for k in range(f):
            coeffs[k] = t % p
            t //= p
        h = coeffs + [1]
        if _irreducible_mod_p(h, p):
            return h
    raise RuntimeError("no irreducible of degree %d over F_%d" % (f, p))


def _teichmuller_modulus(hbar: list[int], p: int, n: int, f: int) -> list[int]:
    """The monic lift h of hbar to Z/p^n dividing x^{p^f - 1} - 1.

    S = (Z/p^n)[x]/(hbar), with hbar read over Z/p^n, is GR(p^n, f).  There
    n - 1 rounds of p^f-th powering take x to its Teichmueller lift xi, and
    h = prod_{i<f} (X - xi^{p^i}): its coefficients are fixed by the
    Frobenius of S, so they are constants of S.
    """
    q = p**n

    def mul(a, b):
        return _poly_mod(_poly_mul(a, b, q), hbar, q)

    def power(a, e):
        r = [1]
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    xi = [0, 1]
    for _ in range(n - 1):
        xi = power(xi, p**f)
    h = [[1]]  # coefficients in S, ascending in X
    for _ in range(f):
        neg = [(-c) % q for c in xi]
        h = [_poly_add(lo, mul(neg, hi), q) for lo, hi in zip([[]] + h, h + [[]])]
        xi = power(xi, p)
    if any(len(c) > 1 for c in h):
        raise RuntimeError("Teichmueller product has a non-constant coefficient")
    return [c[0] if c else 0 for c in h]


class RingSpec:
    """The chain ring GR(p^n, f) = (Z/p^n)[x]/(h) with its Frobenius.

    Immutable after construction; all operations are pure functions of the
    packed-int element encoding.
    """

    def __init__(self, p: int, n: int, f: int, h: tuple[int, ...]):
        self.p = p
        self.n = n
        self.f = f
        self.q = p**n
        self.size = self.q**f
        self.h = tuple(c % self.q for c in h)  # length f+1, monic
        assert len(self.h) == f + 1 and self.h[f] == 1
        self.zero = 0
        self.one = 1
        # x as an element: for f = 1 the class of x is h's root, 1.
        self.x = self.q if f > 1 else (-self.h[0]) % self.q
        # h divides x^(p^f - 1) - 1, so x is a Teichmueller element: the
        # Frobenius fixes Z/p^n and sends x to x^p
        self._sigma_x = self._pack(_poly_mod([0] * p + [1], list(self.h), self.q))
        # reduction of x^(f+j) mod h for j = 0..f-2, as coefficient tuples
        self._xpow_red: list[tuple[int, ...]] = []
        if f > 1:
            red0 = [(-c) % self.q for c in self.h[:f]]  # x^f mod h
            self._xpow_red.append(tuple(red0))
            for _ in range(f - 2):
                prev = self._xpow_red[-1]
                top = prev[f - 1]
                shifted = [0] + list(prev[: f - 1])
                if top:
                    shifted = [(shifted[k] + top * red0[k]) % self.q
                               for k in range(f)]
                self._xpow_red.append(tuple(shifted))
        self._tabled = self.size <= TABLE_LIMIT
        if self._tabled:
            self._build_tables()
        else:
            self._val_cache: dict[int, int] = {}

    # -- construction -----------------------------------------------------

    def _build_tables(self):
        """Fill the tables by linearity in the second argument.

        For b >= 1 let k be its lowest nonzero digit and b' = b - q^k, so
        b = b' + x^k with no carry.  Then add(a, b) raises digit k of
        add(a, b') by one mod q, and mul(a, b) = add(mul(a, b'), a * x^k):
        row b of each table is one lookup per entry from row b'.  And
        a * x^k = (a * x^(k-1)) * x, so the only polynomial products are
        the size products a * x (none when f = 1).  Both tables are
        symmetric, so row b also holds the entries (b, a).
        """
        size, q, f = self.size, self.q, self.f
        coeffs = [self._coeffs_raw(a) for a in range(size)]
        self._coeff_tab = coeffs
        # inc[k][s] is s with digit k raised by one mod q; xmul[k][a] = a * x^k
        inc, xmul = [], [range(size)]
        for k in range(f):
            qk = q**k
            inc.append([s - (q - 1) * qk if c[k] == q - 1 else s + qk
                        for s, c in enumerate(coeffs)])
        if f > 1:
            by_x = [self._mul_raw(a, self.x) for a in range(size)]
            for k in range(1, f):
                xmul.append([by_x[t] for t in xmul[k - 1]])
        lows = []  # (k, b') for b = 1, ..., size - 1
        for b in range(1, size):
            k = 0
            while coeffs[b][k] == 0:
                k += 1
            lows.append((k, b - q**k))
        add_rows = [list(range(size))]
        for k, prev in lows:
            step = inc[k]
            add_rows.append([step[s] for s in add_rows[prev]])
        mul_rows = [[0] * size]
        for k, prev in lows:
            mul_rows.append([add_rows[m][t] for m, t in zip(mul_rows[prev], xmul[k])])
        self._add_tab = [s for row in add_rows for s in row]
        self._mul_tab = [m for row in mul_rows for m in row]
        self._neg_tab = [self._pack([(-c) % q for c in coeffs[a]]) for a in range(size)]
        self._val_tab = [self._val_raw(a) for a in range(size)]
        self._inv_tab = [mul_rows[a].index(1) if v == 0 else 0
                         for a, v in enumerate(self._val_tab)]
        self._frob_tab = [self._frobenius_raw(a) for a in range(size)]

    # -- packing ----------------------------------------------------------

    def _pack(self, coeffs) -> int:
        a = 0
        for c in reversed(coeffs):
            a = a * self.q + c
        return a

    def _coeffs_raw(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.f):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{f-1}) of a, each in [0, p^n)."""
        return self._coeff_tab[a] if self._tabled else self._coeffs_raw(a)

    def from_coeffs(self, coeffs) -> int:
        return self._pack([c % self.q for c in coeffs])

    def from_int(self, c: int) -> int:
        """Image of the integer c under Z -> Z/p^n -> GR(p^n, f)."""
        return c % self.q

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._tabled:
            return self._add_tab[a * self.size + b]
        q = self.q
        ca, cb = self._coeffs_raw(a), self._coeffs_raw(b)
        return self._pack([(ca[k] + cb[k]) % q for k in range(self.f)])

    def neg(self, a: int) -> int:
        if self._tabled:
            return self._neg_tab[a]
        return self._pack([(-c) % self.q for c in self._coeffs_raw(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        q, f = self.q, self.f
        ca, cb = self._coeffs_raw(a), self._coeffs_raw(b)
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(ca):
            if x == 0:
                continue
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % q
        out = list(prod[:f])
        for j in range(f - 1):
            c = prod[f + j]
            if c:
                red = self._xpow_red[j]
                for k in range(f):
                    out[k] = (out[k] + c * red[k]) % q
        return self._pack(out)

    def mul(self, a: int, b: int) -> int:
        if self._tabled:
            return self._mul_tab[a * self.size + b]
        return self._mul_raw(a, b)

    def pow(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def _val_raw(self, a: int) -> int:
        if a == 0:
            return self.n
        v = self.n
        for c in self._coeffs_raw(a):
            if c == 0:
                continue
            w = 0
            while c % self.p == 0:
                c //= self.p
                w += 1
            v = min(v, w)
        return v

    def val(self, a: int) -> int:
        """p-adic valuation, in 0..n; val(0) = n by convention."""
        if self._tabled:
            return self._val_tab[a]
        if a not in self._val_cache:
            self._val_cache[a] = self._val_raw(a)
        return self._val_cache[a]

    def is_unit(self, a: int) -> bool:
        return self.val(a) == 0

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise NonUnitError("not a unit: %s in %s" % (self.format_elem(a), self))
        if self._tabled:
            return self._inv_tab[a]
        order = (self.p**self.f - 1) * self.p ** ((self.n - 1) * self.f)
        return self.pow(a, order - 1)

    def divide_p_power(self, a: int, k: int) -> int:
        """Exact division by p^k; requires val(a) >= k."""
        if k == 0:
            return a
        pk = self.p**k
        out = []
        for c in self.coeffs(a):
            if c % pk:
                raise ArithmeticError("inexact division by p^%d" % k)
            out.append(c // pk)
        return self._pack(out)

    def reduce_exp(self, a: int, e: int) -> int:
        """Canonical representative of a modulo p^e (coefficientwise)."""
        if e >= self.n:
            return a
        pe = self.p**e
        return self._pack([c % pe for c in self.coeffs(a)])

    def unit_part(self, a: int) -> int:
        """u with a = u * p^val(a) (u = 0 exactly when a = 0)."""
        return self.divide_p_power(a, self.val(a)) if a else 0

    # -- Frobenius --------------------------------------------------------

    def _frobenius_raw(self, a: int) -> int:
        # a evaluated at sigma(x) = x^p, by Horner
        out = 0
        for c in reversed(self._coeffs_raw(a)):
            out = self.add(self.mul(out, self._sigma_x), c)
        return out

    def frobenius(self, a: int) -> int:
        """The ring automorphism lifting c -> c^p on the residue field."""
        if self._tabled:
            return self._frob_tab[a]
        return self._frobenius_raw(a)

    # -- misc -------------------------------------------------------------

    def elements(self):
        return range(self.size)

    def units(self):
        return (a for a in range(self.size) if self.val(a) == 0)

    def p_elem(self, k: int = 1) -> int:
        return (self.p**k) % self.q

    # -- formatting -------------------------------------------------------

    def literal(self) -> str:
        return "GR(%d^%d,%d)" % (self.p, self.n, self.f)

    def modulus_str(self) -> str:
        return _poly_str(self.h)

    def format_elem(self, a: int) -> str:
        return _poly_str(self.coeffs(a))

    def __repr__(self):
        return self.literal()

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and (self.p, self.n, self.f, self.h) == (other.p, other.n, other.f, other.h))

    def __hash__(self):
        return hash((self.p, self.n, self.f, self.h))


def _poly_str(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("x" if c == 1 else "%d*x" % c)
        else:
            terms.append("x^%d" % k if c == 1 else "%d*x^%d" % (c, k))
    return "+".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def ring_make(p: int, n: int, f: int) -> RingSpec:
    """Construct GR(p^n, f) with the deterministic choice of modulus.

    For f = 1 the modulus is x - 1 by convention; otherwise it is the monic
    lift dividing x^{p^f - 1} - 1 of the lexicographically least degree-f
    irreducible over F_p, built as a product over Teichmueller roots.
    """
    if n < 1 or f < 1:
        raise ValueError("need n >= 1 and f >= 1")
    # p^f >= 2^f, so p^f is never computed for a huge f
    if f >= MAX_RESIDUE_FIELD.bit_length() or p ** f > MAX_RESIDUE_FIELD:
        raise ValueError("residue field of size %d^%d is above MAX_RESIDUE_FIELD "
                         "= %d" % (p, f, MAX_RESIDUE_FIELD))
    if n > MAX_N:
        raise ValueError("n = %d is above MAX_N = %d" % (n, MAX_N))
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    q = p**n
    if f == 1:
        h = ((-1) % q, 1)
        return RingSpec(p, n, f, h)
    hbar = _lex_least_irreducible(p, f)
    h = _teichmuller_modulus(hbar, p, n, f)
    spec = RingSpec(p, n, f, tuple(h))
    # h must divide x^{p^f - 1} - 1 over Z/p^n
    g = [0] * (p**f - 1 + 1)
    g[0] = (-1) % q
    g[-1] = 1
    if _poly_mod(g, list(spec.h), q):
        raise RuntimeError("internal error: Teichmueller modulus fails divisibility")
    return spec
