"""References for the ring modulus, the Frobenius and the ring tables.

``hensel_modulus`` is the linear Hensel lift that chose the modulus before it
was built as a product over Teichmueller roots: extended Euclid on the
coprime factorization of x^{p^f - 1} - 1 over F_p, then n - 1 lifting steps.
``teichmuller`` and ``digit_frobenius`` are the Frobenius by the
Teichmueller-digit expansion a = sum p^i tau_i, sigma acting digitwise.

``reference_tables`` is the per-pair table builder the tabled rings once
used: one polynomial product and one coefficientwise sum for every pair
a <= b, and the inverse found by scanning the row for 1.  It runs on an
untabled copy of the ring, so every product, power and Frobenius value comes
from the polynomial arithmetic and none from the arithmetic under test; its
Frobenius table is the digit expansion's.

Kept only to be tested against.
"""

from __future__ import annotations

from tannaka_forge import rings
from tannaka_forge.rings import RingSpec, _poly_add, _poly_mul, _poly_trim

def untabled_copy(R: RingSpec) -> RingSpec:
    """R built with no tables: every operation computed per call when f >= 2
    (Z/p^n keeps its int arithmetic, it has no tables)."""
    saved = rings.TABLE_LIMIT
    rings.TABLE_LIMIT = 0
    try:
        U = RingSpec(R.p, R.n, R.f, R.h)
    finally:
        rings.TABLE_LIMIT = saved
    assert U.f == 1 or computed_per_call(U)
    return U


def computed_per_call(R: RingSpec) -> bool:
    """Did R bind the per-call arithmetic (no tables, not Z/p^n)?"""
    return R.mul == R._mul_raw and R.add == R._add_raw


def reference_tables(R: RingSpec) -> dict[str, list]:
    """The values of R's operations, from the per-pair builder: "add" and
    "mul" at a * size + b, the rest ("neg", "val", "inv", 0 at a non-unit,
    "frobenius", "coeffs") at a."""
    U = untabled_copy(R)
    size, q, f = U.size, U.q, U.f
    coeffs = [U._coeffs_raw(a) for a in range(size)]
    add = [0] * (size * size)
    mul = [0] * (size * size)
    for a in range(size):
        ca = coeffs[a]
        base = a * size
        for b in range(a, size):
            s = U._pack([(ca[k] + coeffs[b][k]) % q for k in range(f)])
            m = U._mul_raw(a, b)
            add[base + b] = s
            add[b * size + a] = s
            mul[base + b] = m
            mul[b * size + a] = m
    val = [U._val_raw(a) for a in range(size)]
    inv = [0] * size
    for a in range(size):
        if val[a] == 0:
            for b in range(size):
                if mul[a * size + b] == 1:
                    inv[a] = b
                    break
    return {
        "add": add,
        "mul": mul,
        "neg": [U._pack([(-c) % q for c in coeffs[a]]) for a in range(size)],
        "val": val,
        "inv": inv,
        "frobenius": [digit_frobenius(U, a) for a in range(size)],
        "coeffs": coeffs,
    }


def _poly_scale(a, s, m):
    return _poly_trim([(c * s) % m for c in a])


def _poly_divmod(a, b, m):
    # b must have unit leading coefficient mod m
    lead_inv = pow(b[-1], -1, m)
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (rem[len(b) + i - 1] * lead_inv) % m
        if c == 0:
            continue
        quo[i] = c
        for j, cb in enumerate(b):
            rem[i + j] = (rem[i + j] - c * cb) % m
    return _poly_trim(quo), _poly_trim(rem)


def hensel_modulus(hbar: list[int], p: int, n: int, f: int) -> list[int]:
    """Lift hbar | x^{p^f - 1} - 1 over F_p to a divisor over Z/p^n.

    Linear Hensel steps on the coprime factorization x^{p^f-1} - 1 =
    hbar * kbar (mod p); the lift keeping both factors monic is unique.
    """
    deg_g = p**f - 1
    if n == 1:
        return list(hbar)

    def target(m):
        g = [0] * (deg_g + 1)
        g[0] = (-1) % m
        g[deg_g] = 1
        return g

    kbar, rem = _poly_divmod(target(p), hbar, p)
    if rem:
        raise RuntimeError("modulus does not divide x^(p^f-1)-1 over F_p")
    # Bezout: a*hbar + b*kbar = 1 over F_p, by extended Euclid.
    r0, r1 = list(hbar), list(kbar)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(q, s1, p), p - 1, p), p)
        t0, t1 = t1, _poly_add(t0, _poly_scale(_poly_mul(q, t1, p), p - 1, p), p)
    if len(r0) != 1:
        raise RuntimeError("factors not coprime mod p")
    c_inv = pow(r0[0], -1, p)
    a = _poly_scale(s0, c_inv, p)
    b = _poly_scale(t0, c_inv, p)

    h, k = list(hbar), list(kbar)
    for step in range(1, n):
        mod_next = p ** (step + 1)
        g = target(mod_next)
        hk = _poly_mul([c % mod_next for c in h], [c % mod_next for c in k], mod_next)
        diff = _poly_add(g, _poly_scale(hk, mod_next - 1, mod_next), mod_next)
        # diff = p^step * e with e defined mod p
        e = [(c // (p**step)) % p for c in diff]
        be = _poly_mul(b, e, p)
        q, u = _poly_divmod(be, hbar, p)
        v = _poly_add(_poly_mul(a, e, p), _poly_mul(kbar, q, p), p)
        h = _poly_add([c % mod_next for c in h],
                      [(p**step) * c % mod_next for c in u], mod_next)
        k = _poly_add([c % mod_next for c in k],
                      [(p**step) * c % mod_next for c in v], mod_next)
    if len(h) != f + 1 or h[-1] != 1:
        raise RuntimeError("Hensel lift lost monicity")
    return h


def teichmuller(R: RingSpec, a: int) -> int:
    """The Teichmueller representative: the p^f-th-power fixpoint
    congruent to a mod p (iterated p^f-th powering stabilizes)."""
    pf = R.p**R.f
    prev = a
    for _ in range(R.n + 1):
        nxt = R.pow(prev, pf)
        if nxt == prev:
            return prev
        prev = nxt
    raise RuntimeError("Teichmuller iteration failed to stabilize")


def digit_frobenius(R: RingSpec, a: int) -> int:
    """sigma(a) from the Teichmueller digits a = sum p^i tau_i, as
    sum p^i tau_i^p."""
    if R.f == 1:
        return a  # sigma^f = sigma = id
    out = 0
    cur = a
    for i in range(R.n):
        tau = teichmuller(R, cur)
        out = R.add(out, R.mul(R.from_int(R.p**i), R.pow(tau, R.p)))
        diff = R.sub(cur, tau)
        cur = R._pack([c // R.p for c in R._coeffs_raw(diff)])
    return out
