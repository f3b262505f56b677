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

Each RingSpec picks its arithmetic once, when it is built, and binds add,
sub, neg, mul, addmul (x + c * a), val, inv and frobenius to it:
  * Z/p^n (f = 1, any n): an element is an int mod q = p^n, and every
    operation is int arithmetic mod q (inv is pow(a, -1, q), the Frobenius
    the identity).  No tables are built, and the matrix product,
    Span.reduce and sparse_image sum plain int products there, reducing
    once per entry (RingSpec.native_q is q exactly then);
  * f >= 2 with at most TABLE_LIMIT elements: add and mul tables of size^2
    entries are allocated at construction and filled entry by entry on
    first use, each entry and its mirror by one digit sum or polynomial
    product; negatives, valuations, inverses and Frobenius values are kept
    the same way per element.  A 256-element ring builds in a few
    milliseconds;
  * f >= 2 above TABLE_LIMIT: every operation is computed per call on the
    coefficient vectors.
"""

from __future__ import annotations

from functools import lru_cache


class NonUnitError(ArithmeticError):
    """Raised when inverting an element with positive valuation."""


# Rings with f >= 2 keep add and mul tables up to this size, filled on first
# use; beyond it they compute per call (still exact, just slower).  Z/p^n
# never needs tables: its elements are ints mod p^n at every size.
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


def _memo(fn, size: int):
    """fn on range(size), each value computed on first use and kept."""
    tab = [None] * size

    def get(a):
        v = tab[a]
        if v is None:
            v = tab[a] = fn(a)
        return v
    return get


class RingSpec:
    """The chain ring GR(p^n, f) = (Z/p^n)[x]/(h) with its Frobenius.

    Immutable after construction; all operations are pure functions of the
    packed-int element encoding.  The constructor binds add, sub, neg, mul,
    addmul, val, inv, frobenius and coeffs to one of three arithmetics (see the
    module docstring), so no call chooses among them.
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
        # q when an element is its own residue mod q (f = 1): the matrix
        # product, Span.reduce and sparse_image then sum plain int products
        # and reduce once per entry
        self.native_q = self.q if f == 1 else None
        if f == 1:
            self._bind_native()
        elif self.size <= TABLE_LIMIT:
            self._bind_tables()
        else:
            self._bind_computed()

    # -- construction -----------------------------------------------------

    def _bind_native(self):
        """Z/p^n: every operation is int arithmetic mod q."""
        p, n, q = self.p, self.n, self.q
        pows = [p**e for e in range(n + 1)]

        def val(a):
            if not a:
                return n
            v = 0
            while not a % p:
                a //= p
                v += 1
            return v

        def inv(a):
            if not a % p:
                raise NonUnitError("not a unit: %d in %s" % (a, self))
            return pow(a, -1, q)

        def divide_p_power(a, k):
            if a % pows[k]:
                raise ArithmeticError("inexact division by p^%d" % k)
            return a // pows[k]

        self.add = lambda a, b: (a + b) % q
        self.sub = lambda a, b: (a - b) % q
        self.neg = lambda a: -a % q
        self.mul = lambda a, b: a * b % q
        self.addmul = lambda x, c, a: (x + c * a) % q
        self.val = val
        self.inv = inv
        self.frobenius = lambda a: a
        self.coeffs = lambda a: (a,)
        self.divide_p_power = divide_p_power
        self.reduce_exp = lambda a, e: a % pows[e] if e < n else a

    def _bind_tables(self):
        """At most TABLE_LIMIT elements: size^2-entry add and mul tables,
        allocated here and filled entry by entry on first use, each entry
        (and its mirror) by one digit sum or polynomial product; the
        per-element values are computed on first use too."""
        size, add_raw, mul_raw = self.size, self._add_raw, self._mul_raw
        add_tab = [None] * (size * size)
        mul_tab = [None] * (size * size)

        def add(a, b):
            s = add_tab[a * size + b]
            if s is None:
                s = add_tab[a * size + b] = add_tab[b * size + a] = add_raw(a, b)
            return s

        def mul(a, b):
            m = mul_tab[a * size + b]
            if m is None:
                m = mul_tab[a * size + b] = mul_tab[b * size + a] = mul_raw(a, b)
            return m

        self.add, self.mul = add, mul
        self.addmul = lambda x, c, a: add(x, mul(c, a))
        self.neg = neg = _memo(self._neg_raw, size)
        self.sub = lambda a, b: add(a, neg(b))
        self.val = _memo(self._val_raw, size)
        self._inv_unit = _memo(self._inv_raw, size)
        self.frobenius = _memo(self._frobenius_raw, size)
        self.coeffs = _memo(self._coeffs_raw, size)

    def _bind_computed(self):
        """Above TABLE_LIMIT: every operation on the coefficient vectors,
        valuations cached per element."""
        add, mul, neg = self._add_raw, self._mul_raw, self._neg_raw
        self.add, self.mul, self.neg = add, mul, neg
        self.addmul = lambda x, c, a: add(x, mul(c, a))
        self.sub = lambda a, b: add(a, neg(b))
        cache: dict[int, int] = {}

        def val(a):
            v = cache.get(a)
            if v is None:
                v = cache[a] = self._val_raw(a)
            return v

        self.val = val
        self._inv_unit = self._inv_raw
        self.frobenius = self._frobenius_raw
        self.coeffs = self._coeffs_raw

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

    def from_coeffs(self, coeffs) -> int:
        return self._pack([c % self.q for c in coeffs])

    def from_int(self, c: int) -> int:
        """Image of the integer c under Z -> Z/p^n -> GR(p^n, f)."""
        return c % self.q

    # -- arithmetic (f >= 2; Z/p^n binds its own in _bind_native) ---------
    #
    # coeffs(a): coefficient vector (c_0, ..., c_{f-1}), each in [0, p^n);
    # add, sub, neg, mul; val(a): p-adic valuation in 0..n, val(0) = n by
    # convention; inv(a) for a unit (NonUnitError otherwise); frobenius(a):
    # the ring automorphism lifting c -> c^p on the residue field.

    def _add_raw(self, a: int, b: int) -> int:
        q = self.q
        ca, cb = self._coeffs_raw(a), self._coeffs_raw(b)
        return self._pack([(ca[k] + cb[k]) % q for k in range(self.f)])

    def _neg_raw(self, a: int) -> int:
        return self._pack([(-c) % self.q for c in self._coeffs_raw(a)])

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

    def is_unit(self, a: int) -> bool:
        return self.val(a) == 0

    def _inv_raw(self, a: int) -> int:
        order = (self.p**self.f - 1) * self.p ** ((self.n - 1) * self.f)
        return self.pow(a, order - 1)

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise NonUnitError("not a unit: %s in %s" % (self.format_elem(a), self))
        return self._inv_unit(a)

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

    # -- misc -------------------------------------------------------------

    def elements(self):
        return range(self.size)

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
        return other is self or (isinstance(other, RingSpec)
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
