import math
import random

import pytest

from hopfscaffold import (
    INF,
    LaurentPoly,
    padic_digits,
    res_mod,
)


def lp(text, p):
    return LaurentPoly.from_text(text, p)


class TestLaurentAdd:
    def test_coefficient_addition(self):
        assert lp("T + T^2", 3) + lp("T", 3) == lp("2*T + T^2", 3)

    def test_char_two_cancellation(self):
        assert (lp("T", 2) + lp("T", 2)).is_zero()

    def test_additive_identity(self):
        assert lp("T^-1", 5) + LaurentPoly.zero(5) == lp("T^-1", 5)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            lp("T", 2) + lp("T", 3)


class TestLaurentMul:
    def test_monomial_product(self):
        assert lp("T^-1", 5) * lp("T^4", 5) == lp("T^3", 5)

    def test_frobenius_squaring(self):
        assert lp("1 + T", 2) * lp("1 + T", 2) == lp("1 + T^2", 2)

    def test_annihilation(self):
        assert (lp("T^-2 + 3*T", 5) * LaurentPoly.zero(5)).is_zero()

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            lp("T", 2) * lp("T", 3)

    def test_integer_scaling_reduces(self):
        assert lp("2*T + T^3", 3) * 2 == lp("T + 2*T^3", 3)
        assert lp("2*T + T^3", 3) * -1 == lp("T + 2*T^3", 3)
        assert (lp("2*T + T^3", 3) * 6).is_zero()


class TestLaurentPow:
    @staticmethod
    def repeated(a, k):
        out = LaurentPoly.one(a.p)
        for _ in range(k):
            out = out * a
        return out

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_single_terms_match_repeated_multiplication(self, p):
        # (c*T^e)^k = (c^k mod p)*T^(ek): c^k wraps mod p, and e may be negative
        for c in range(1, p):
            for e in (-3, 0, 1, 4):
                a = LaurentPoly.monomial(p, e, c)
                for k in range(2 * p + 1):
                    assert a**k == self.repeated(a, k)
                    assert (a**k).terms == {e * k: pow(c, k, p)}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_multi_term_matches_repeated_multiplication(self, p):
        rng = random.Random(41 + p)
        cases = [lp("1 + T", p), lp("T^-1 + T^2", p), lp(f"{p - 1}*T^-2 + 1 + T^3", p)]
        cases += [LaurentPoly(p, [(rng.randint(-3, 4), rng.randint(1, p - 1)) for _ in range(3)]) for _ in range(6)]
        for a in cases:
            for k in range(2 * p + 1):
                assert a**k == self.repeated(a, k)
        assert lp("1 + T", p) ** p == lp(f"1 + T^{p}", p)  # Frobenius

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zeroth_power_is_one_and_zero_stays_zero(self, p):
        zero = LaurentPoly.zero(p)
        for a in (zero, lp("T^-2", p), lp("T^-1 + T^2", p)):
            assert a**0 == LaurentPoly.one(p)
        for k in (1, 2, 5):
            assert (zero**k).is_zero()

    def test_negative_power_raises(self):
        for a in (LaurentPoly.zero(3), lp("2*T^-1", 3), lp("1 + T", 3)):
            with pytest.raises(ValueError, match="negative powers"):
                a**-1


def test_public_constructors_reject_composite_modulus():
    for make in (LaurentPoly.zero, LaurentPoly.one, lambda p: LaurentPoly.monomial(p, 1)):
        with pytest.raises(ValueError):
            make(4)


class TestValuation:
    def test_min_exponent(self):
        assert lp("T^-1 + T^3", 2).valuation() == -1

    def test_zero_sentinel(self):
        assert LaurentPoly.zero(3).valuation() == INF

    def test_plain_monomial(self):
        assert lp("T^4", 7).valuation() == 4

    def test_additive_on_products(self):
        rng = random.Random(101)
        for p in (2, 3, 5):
            for _ in range(50):
                a = LaurentPoly(p, [(rng.randint(-5, 5), rng.randint(1, p - 1)) for _ in range(3)])
                b = LaurentPoly(p, [(rng.randint(-5, 5), rng.randint(1, p - 1)) for _ in range(3)])
                if a.is_zero() or b.is_zero():
                    continue
                assert (a * b).valuation() == a.valuation() + b.valuation()


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            a, b, c = (
                LaurentPoly(p, [(rng.randint(-4, 4), rng.randint(0, p - 1)) for _ in range(3)])
                for _ in range(3)
            )
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == LaurentPoly.zero(p)


def test_lucas_digit_identity():
    # C(i, p^s) mod p equals the s-th base-p digit of i
    for p in (2, 3, 5):
        n = 4
        for i in range(p**n):
            digits = padic_digits(i, p, n)
            for s in range(n):
                if p**s <= i:
                    assert math.comb(i, p**s) % p == digits[s]
                else:
                    assert digits[s] == 0


class TestPadicDigits:
    def test_basic(self):
        assert tuple(padic_digits(3, 2, 2)) == (1, 1)

    def test_zero(self):
        assert tuple(padic_digits(0, 3, 3)) == (0, 0, 0)

    def test_all_max(self):
        for p, n in ((2, 2), (3, 2), (2, 4)):
            assert tuple(padic_digits(p**n - 1, p, n)) == (p - 1,) * n

    def test_reconstruction(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rng.choice((2, 3, 5))
            n = rng.randint(1, 4)
            i = rng.randrange(p**n)
            assert sum(d * p**s for s, d in enumerate(padic_digits(i, p, n))) == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            padic_digits(4, 2, 2)
        with pytest.raises(ValueError):
            padic_digits(-1, 2, 2)

    def test_plain_tuple_with_checked_base(self):
        assert type(padic_digits(5, 3, 2)) is tuple
        with pytest.raises(ValueError):
            padic_digits(1, 4, 2)


class TestResMod:
    def test_positive(self):
        assert res_mod(6, 4) == 2

    def test_multiple(self):
        assert res_mod(-4, 4) == 0

    def test_negative(self):
        assert res_mod(-3, 4) == 1

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            res_mod(3, 0)


class TestTextFormat:
    def test_canonical_examples(self):
        assert lp("T^-1 + 2*T^3", 3).to_text() == "T^-1 + 2*T^3"
        assert lp("2 + T", 3).to_text() == "2 + T"
        assert LaurentPoly.zero(5).to_text() == "0"
        assert LaurentPoly.one(5).to_text() == "1"

    def test_exponent_one_omitted(self):
        assert LaurentPoly.monomial(3, 1, 2).to_text() == "2*T"

    def test_roundtrip_randomized(self):
        rng = random.Random(17)
        for _ in range(60):
            p = rng.choice((2, 3, 5))
            a = LaurentPoly(p, [(rng.randint(-6, 6), rng.randint(0, p - 1)) for _ in range(4)])
            assert LaurentPoly.from_text(a.to_text(), p) == a

    def test_reduces_large_coefficients(self):
        assert lp("5*T", 3) == lp("2*T", 3)

    def test_rejects_non_ascii_digits(self):
        # Arabic-Indic three and superscript two are Unicode digits, not digits of the format
        for text in ("T^٣", "T^-٣", "٣*T", "٣", "²", "1 + ²"):
            with pytest.raises(ValueError, match="malformed Laurent polynomial term"):
                lp(text, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            lp("T**2", 3)
        with pytest.raises(ValueError):
            lp("q + 1", 3)
