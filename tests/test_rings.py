import random
import time
from collections import Counter

import pytest

from tannaka_forge.rings import (RingSpec, ring_make, NonUnitError, is_prime,
                                 _lex_least_irreducible)

from ring_reference import (computed_per_call, digit_frobenius, hensel_modulus,
                            reference_tables, teichmuller)


def test_ring_make_examples(Z8, F4, GR42):
    # (2,3,1): Z/8 with the f = 1 convention h = x - 1, sigma = id
    assert (Z8.p, Z8.n, Z8.f) == (2, 3, 1)
    assert Z8.h == (7, 1)
    assert all(Z8.frobenius(a) == a for a in Z8.elements())
    # (2,1,2): F_4 with the only irreducible quadratic over F_2
    assert F4.modulus_str() == "x^2+x+1"
    # (2,2,2): the lift of x^2+x+1 over Z/4 dividing x^3 - 1 is itself
    assert GR42.modulus_str() == "x^2+x+1"


def test_modulus_choice_is_lex_least():
    # coefficient tuples compared from the top degree down
    assert ring_make(2, 1, 3).modulus_str() == "x^3+x+1"
    assert ring_make(3, 1, 2).modulus_str() == "x^2+1"
    assert ring_make(2, 3, 2).modulus_str() == "x^2+x+1"


def test_modulus_is_basic_irreducible(F4, GR42):
    # h mod p irreducible is certified by exhaustive factor search
    for R in (F4, GR42, ring_make(3, 1, 2), ring_make(2, 1, 3)):
        hbar = [c % R.p for c in R.h]
        f = R.f
        for d in range(1, f // 2 + 1):
            for idx in range(R.p**d):
                g = []
                t = idx
                for _ in range(d):
                    g.append(t % R.p)
                    t //= R.p
                g.append(1)
                # trial division over F_p
                rem = list(hbar)
                for i in range(len(rem) - len(g), -1, -1):
                    c = rem[len(g) + i - 1] % R.p
                    if c:
                        for j, cg in enumerate(g):
                            rem[i + j] = (rem[i + j] - c * cg) % R.p
                while rem and rem[-1] == 0:
                    rem.pop()
                assert len(rem) >= 1, (R, g)


def test_h_divides_teichmuller_polynomial(GR42, F4):
    # h | x^{p^f - 1} - 1, so x is a Teichmueller element
    for R in (F4, GR42, ring_make(3, 2, 2)):
        assert R.pow(R.x, R.p**R.f - 1) == R.one


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        ring_make(4, 1, 1)
    with pytest.raises(ValueError):
        ring_make(2, 0, 1)


def test_inverse_example(Z8):
    assert Z8.inv(3) == 3  # 3*3 = 9 = 1 mod 8
    with pytest.raises(NonUnitError):
        Z8.inv(2)


def test_valuation_conventions(Z8, GR42):
    assert Z8.val(0) == 3
    assert GR42.val(0) == 2
    two_x = GR42.from_coeffs((0, 2))
    assert not GR42.is_unit(two_x)
    assert GR42.val(two_x) == 1
    # every element factors as unit * p^val
    for R in (Z8, GR42):
        for a in R.elements():
            u = R.unit_part(a)
            assert R.mul(u, R.p_elem(R.val(a))) == a or a == 0
            if a:
                assert R.is_unit(u)


def test_ring_axioms_full_enumeration(Z8, F4, GR42):
    # full associativity/distributivity/commutativity on |R| <= 4096
    for R in (Z8, F4, GR42):
        els = list(R.elements())
        for a in els:
            for b in els:
                assert R.mul(a, b) == R.mul(b, a)
                assert R.add(a, b) == R.add(b, a)
        sample = els if len(els) <= 8 else els[::3]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
                    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
                    assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))


def test_unit_iff_exhaustive_inverse(Z8, F4, GR42, Z4):
    for R in (Z8, F4, GR42, Z4):
        for a in R.elements():
            found = any(R.mul(a, b) == R.one for b in R.elements())
            assert found == R.is_unit(a)
            if found:
                assert R.mul(a, R.inv(a)) == R.one


def test_frobenius_examples(F4, GR42):
    # F_4: sigma(x) = x^2 = x + 1
    assert F4.frobenius(F4.x) == F4.from_coeffs((1, 1))
    # GR(4,2): sigma(x) = 3x + 3 and sigma^2 = id
    sx = GR42.frobenius(GR42.x)
    assert sx == GR42.from_coeffs((3, 3))
    assert GR42.frobenius(sx) == GR42.x


def test_frobenius_is_ring_automorphism(F4, GR42):
    for R in (F4, GR42, ring_make(3, 1, 2)):
        els = list(R.elements())
        for a in els:
            # sigma(a) = a^p mod p
            assert R.val(R.sub(R.frobenius(a), R.pow(a, R.p))) >= 1
            # sigma^f = id
            b = a
            for _ in range(R.f):
                b = R.frobenius(b)
            assert b == a
            for x in els:
                assert R.frobenius(R.add(a, x)) == R.add(R.frobenius(a), R.frobenius(x))
                assert R.frobenius(R.mul(a, x)) == R.mul(R.frobenius(a), R.frobenius(x))
        # sigma fixes the image of Z/p^n
        for c in range(R.q):
            assert R.frobenius(R.from_int(c)) == R.from_int(c)


def test_teichmuller_digits(GR42):
    # tau is a p^f-power fixpoint congruent to a mod p
    R = GR42
    for a in R.elements():
        t = teichmuller(R, a)
        assert R.pow(t, R.p**R.f) == t
        assert R.val(R.sub(a, t)) >= 1


def test_modulus_matches_hensel_reference():
    # every prime p and f >= 2 with p^f <= 256 at n = 1..4, and n = 64 for
    # p^f <= 16: the Teichmueller product is the Hensel lift
    cases = []
    for p in filter(is_prime, range(2, 17)):
        f = 2
        while p**f <= 256:
            cases += [(p, n, f) for n in (1, 2, 3, 4)]
            if p**f <= 16:
                cases.append((p, 64, f))
            f += 1
    assert len(cases) == 68
    for p, n, f in cases:
        hbar = _lex_least_irreducible(p, f)
        assert ring_make(p, n, f).h == tuple(hensel_modulus(hbar, p, n, f)), (p, n, f)


def test_large_witt_rings_build_fast():
    # both limits admit these rings; only the final divisibility check
    # works with a polynomial of degree p^f - 1
    for pnf in [(2, 64, 12), (3, 64, 7)]:
        ring_make.cache_clear()
        t0 = time.perf_counter()
        R = ring_make(*pnf)
        assert time.perf_counter() - t0 < 2.0, pnf
        assert R.pow(R.x, R.p**R.f - 1) == R.one


def test_coeff_roundtrip(Z8, F4, GR42):
    for R in (Z8, F4, GR42):
        for a in R.elements():
            assert R.from_coeffs(R.coeffs(a)) == a


def test_untabled_ring_agrees_with_tabled():
    # GR(2^5, 2) has 1024 elements, beyond the table limit; spot-check the
    # computed path against ring axioms and the Frobenius contract
    R = ring_make(2, 5, 2)
    assert computed_per_call(R)
    sample = [0, 1, R.x, R.from_coeffs((3, 7)), R.from_coeffs((31, 2)),
              R.from_coeffs((16, 16)), R.from_coeffs((5, 27))]
    for a in sample:
        for b in sample:
            assert R.mul(a, b) == R.mul(b, a)
            assert R.frobenius(R.mul(a, b)) == R.mul(R.frobenius(a), R.frobenius(b))
        if R.is_unit(a):
            assert R.mul(a, R.inv(a)) == R.one
        b = a
        for _ in range(R.f):
            b = R.frobenius(b)
        assert b == a
        assert R.frobenius(a) == digit_frobenius(R, a)
    # GR(3^4, 3) has 81^3 elements: sigma against the digit expansion
    S = ring_make(3, 4, 3)
    assert computed_per_call(S)
    rng = random.Random(7)
    for a in [0, 1, S.x] + [rng.randrange(S.size) for _ in range(200)]:
        assert S.frobenius(a) == digit_frobenius(S, a)


def test_element_formatting(GR42, Z8):
    assert GR42.format_elem(GR42.from_coeffs((3, 3))) == "3*x+3"
    assert Z8.format_elem(5) == "5"
    assert GR42.format_elem(0) == "0"
    assert GR42.literal() == "GR(2^2,2)"


def test_is_prime():
    assert [m for m in range(2, 30) if is_prime(m)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# Z/2, Z/8, Z/9, F4, GR(4,2), GR(2^3,2), GR(2^2,3), GR(3,4), GR(5,3) and the
# three 256-element rings GR(2^4,2), GR(2^2,4), GR(2,8)
REFERENCE_RINGS = [(2, 1, 1), (2, 3, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2),
                   (2, 3, 2), (2, 2, 3), (3, 1, 4), (5, 1, 3), (2, 4, 2),
                   (2, 2, 4), (2, 1, 8)]


@pytest.mark.parametrize("pnf", REFERENCE_RINGS, ids=lambda t: "GR(%d^%d,%d)" % t)
def test_tables_match_per_pair_reference(pnf):
    # every operation on every pair or element equals the per-pair builder's
    # table; a fresh ring is visited in a seeded random order, so the tables
    # of f >= 2 fill entry by entry in an order of no construction's making
    h = ring_make(*pnf).h
    R = RingSpec(*pnf, h)
    assert not computed_per_call(R) and (R.native_q is None) == (R.f > 1)
    ref = reference_tables(R)
    size = R.size
    rng = random.Random(size * R.f)
    pairs = [(a, b) for a in range(size) for b in range(size)]
    rng.shuffle(pairs)
    for a, b in pairs:
        k = a * size + b
        assert R.add(a, b) == ref["add"][k], (a, b)
        assert R.mul(a, b) == ref["mul"][k], (a, b)
        assert R.sub(a, b) == ref["add"][a * size + ref["neg"][b]], (a, b)
    for a in rng.sample(range(size), size):
        assert R.neg(a) == ref["neg"][a], a
        assert R.val(a) == ref["val"][a], a
        assert R.frobenius(a) == ref["frobenius"][a], a
        assert R.coeffs(a) == ref["coeffs"][a], a
        if ref["val"][a] == 0:
            assert R.inv(a) == ref["inv"][a], a
        else:
            with pytest.raises(NonUnitError):
                R.inv(a)


@pytest.mark.parametrize("pnf", [(2, 1, 8), (2, 2, 4)])
def test_table_build_polynomial_product_count(pnf, monkeypatch):
    # construction makes no polynomial product and no digit sum; after
    # every operation on every pair and element, each unordered pair has
    # been multiplied and added at most once (the per-pair builder made
    # size * (size + 1) / 2 = 32896 products at construction)
    h = ring_make(*pnf).h
    products, sums = Counter(), Counter()
    mul_raw, add_raw = RingSpec._mul_raw, RingSpec._add_raw

    def counting_mul(self, a, b):
        products[min(a, b), max(a, b)] += 1
        return mul_raw(self, a, b)

    def counting_add(self, a, b):
        sums[min(a, b), max(a, b)] += 1
        return add_raw(self, a, b)

    monkeypatch.setattr(RingSpec, "_mul_raw", counting_mul)
    monkeypatch.setattr(RingSpec, "_add_raw", counting_add)
    R = RingSpec(*pnf, h)
    assert not computed_per_call(R) and R.size == 256
    assert not products and not sums
    units = [a for a in R.elements() if R.val(a) == 0]
    assert len(units) == R.size - R.size // R.p**R.f
    for a in units:
        assert R.mul(a, R.inv(a)) == R.one
    for a in R.elements():
        R.frobenius(a)
        R.neg(a)
        for b in R.elements():
            R.add(a, b)
            R.sub(a, b)
            R.mul(a, b)
    assert len(products) == len(sums) == R.size * (R.size + 1) // 2
    assert set(products.values()) == set(sums.values()) == {1}
