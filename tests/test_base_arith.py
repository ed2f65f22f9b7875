import math
import random

import pytest

from hopfscaffold import (
    INF,
    LaurentPoly,
    PrimeFieldScalar,
    binomial_mod_p,
    inverse_mod_p,
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


def test_exact_div_inverts_multiplication():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        a = LaurentPoly(p, [(rng.randint(-4, 4), rng.randint(0, p - 1)) for _ in range(3)])
        b = LaurentPoly(p, [(rng.randint(-4, 4), rng.randint(0, p - 1)) for _ in range(3)])
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_rejects_series_quotients():
    with pytest.raises(ValueError):
        LaurentPoly.one(2).exact_div(lp("1 + T", 2))
    with pytest.raises(ZeroDivisionError):
        lp("T", 2).exact_div(LaurentPoly.zero(2))


class TestInverseModP:
    def test_small(self):
        assert inverse_mod_p(2, 5) == PrimeFieldScalar(3, 5)

    def test_wilson(self):
        # (p-1)! is its own inverse companion: inverse equals p-1
        for p in (2, 3, 5, 7, 11):
            fact = 1
            for k in range(2, p):
                fact = fact * k % p
            assert inverse_mod_p(fact, p) == PrimeFieldScalar(p - 1, p)

    def test_identity(self):
        assert inverse_mod_p(1, 7) == PrimeFieldScalar(1, 7)

    def test_exhaustive_small_primes(self):
        for p in (2, 3, 5, 7):
            for m in range(1, p):
                assert inverse_mod_p(m, p).value * m % p == 1

    def test_rejects_multiple_of_p(self):
        with pytest.raises(ValueError):
            inverse_mod_p(10, 5)


class TestBinomialModP:
    def test_small(self):
        assert binomial_mod_p(3, 1, 2) == PrimeFieldScalar(1, 2)

    def test_against_exact_integer_binomial(self):
        # frozen spec value first: C(6,3) = 20 = 2 mod 3
        assert binomial_mod_p(6, 3, 3) == PrimeFieldScalar(2, 3)
        for p, bound in ((2, 2**4), (3, 3**4), (5, 5**3)):
            for i in range(bound):
                for k in range(i + 1):
                    assert binomial_mod_p(i, k, p).value == math.comb(i, k) % p

    def test_prime_power_diagonal(self):
        for p in (2, 3, 5):
            for s in range(4):
                assert binomial_mod_p(p**s, p**s, p).value == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_mod_p(3, 4, 2)
        with pytest.raises(ValueError):
            binomial_mod_p(3, -1, 2)


def test_lucas_digit_identity():
    # C(i, p^s) mod p equals the s-th base-p digit of i
    for p in (2, 3, 5):
        n = 4
        for i in range(p**n):
            digits = padic_digits(i, p, n)
            for s in range(n):
                if p**s <= i:
                    assert binomial_mod_p(i, p**s, p).value == digits[s]
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
            assert padic_digits(i, p, n).value() == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            padic_digits(4, 2, 2)
        with pytest.raises(ValueError):
            padic_digits(-1, 2, 2)


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


class TestScalar:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrimeFieldScalar(5, 5)
        with pytest.raises(ValueError):
            PrimeFieldScalar(0, 4)

    def test_arithmetic(self):
        a, b = PrimeFieldScalar(3, 5), PrimeFieldScalar(4, 5)
        assert a + b == PrimeFieldScalar(2, 5)
        assert a * b == PrimeFieldScalar(2, 5)
        assert -a == PrimeFieldScalar(2, 5)
        assert a.inverse() * a == PrimeFieldScalar(1, 5)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            PrimeFieldScalar(0, 3).inverse()


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

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            lp("T**2", 3)
        with pytest.raises(ValueError):
            lp("q + 1", 3)
