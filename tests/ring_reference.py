"""Reference for the ring tables.

``reference_tables`` is the per-pair builder ``RingSpec._build_tables`` used
before the tables were filled by linearity: one polynomial product and one
coefficientwise sum for every pair a <= b, and the inverse found by scanning
the row for 1.  It runs on an untabled copy of the ring, so every product,
power and Frobenius value comes from the polynomial arithmetic and none from
the tables under test.

Kept only to be tested against.
"""

from __future__ import annotations

from tannaka_forge import rings
from tannaka_forge.rings import RingSpec

TABLE_NAMES = ("_add_tab", "_mul_tab", "_neg_tab", "_val_tab", "_inv_tab",
               "_frob_tab", "_coeff_tab")


def untabled_copy(R: RingSpec) -> RingSpec:
    """R with every operation computed per call."""
    saved = rings.TABLE_LIMIT
    rings.TABLE_LIMIT = 0
    try:
        U = RingSpec(R.p, R.n, R.f, R.h)
    finally:
        rings.TABLE_LIMIT = saved
    assert not U._tabled
    return U


def reference_tables(R: RingSpec) -> dict[str, list]:
    """The tables of R, keyed by attribute name, from the per-pair builder."""
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
        "_add_tab": add,
        "_mul_tab": mul,
        "_neg_tab": [U._pack([(-c) % q for c in coeffs[a]]) for a in range(size)],
        "_val_tab": val,
        "_inv_tab": inv,
        "_frob_tab": [U._frobenius_raw(a) for a in range(size)],
        "_coeff_tab": coeffs,
    }
