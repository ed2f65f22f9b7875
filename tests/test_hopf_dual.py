import math
import random
import threading

import pytest

from hopfscaffold import (
    DualElement,
    HElement,
    HopfParams,
    LaurentPoly,
    dual_basis_rank,
    dual_eval,
    dual_from_text,
    dual_mult,
    dual_to_text,
    delta_power,
    padic_digits,
    z_monomial,
)

from oracles import rand_laurent


def hp(p, n, r, f_text):
    return HopfParams(p, n, r, LaurentPoly.from_text(f_text, p))


def z_power(j, m, params):
    acc = DualElement.one(params)
    gen = DualElement.z_basis(j, params)
    for _ in range(m):
        acc = dual_mult(acc, gen, params)
    return acc


class TestDualEval:
    def test_dual_basis_pairing(self):
        params = hp(2, 2, 1, "T^4")
        assert dual_eval(DualElement.z_basis(3, params), HElement.t_power(3, params)) == LaurentPoly.one(2)
        assert dual_eval(DualElement.z_basis(3, params), HElement.t_power(2, params)).is_zero()

    def test_linearity(self):
        params = hp(2, 2, 1, "T^4")
        z = DualElement.z_basis(1, params) + DualElement.z_basis(2, params, params.f)
        assert dual_eval(z, HElement.t_power(2, params)) == params.f


class TestDualMult:
    def test_scaled_powers_collapse_to_factorials(self):
        # z_{p^s}^m = m! z_{m p^s} for s <= r, m <= p - 1
        for p, n, r, f_text in ((2, 2, 1, "T^4"), (3, 2, 1, "T^3"), (2, 3, 2, "T^5")):
            params = hp(p, n, r, f_text)
            for s in range(r + 1):
                for m in range(1, p):
                    expected = DualElement.z_basis(m * p**s, params, math.factorial(m) % p)
                    assert z_power(p**s, m, params) == expected

    def test_pth_power_vanishes_below_twist_level(self):
        for p, n, r, f_text in ((2, 3, 2, "T^5"), (3, 3, 2, "T^3")):
            params = hp(p, n, r, f_text)
            for s in range(r):
                assert z_power(p**s, p, params).is_zero()

    def test_pth_power_survives_at_twist_level(self):
        # z_{p^s}^p pairs to f^{p^{s-r}} against t^{p^{s-r}} when s >= r
        for p, n, r, f_text in ((2, 2, 1, "T^4"), (3, 2, 1, "T^3"), (2, 4, 2, "T^3")):
            params = hp(p, n, r, f_text)
            for s in range(r, n):
                power = z_power(p**s, p, params)
                assert not power.is_zero()
                for i in range(n):
                    got = dual_eval(power, HElement.t_power(p**i, params))
                    if i == s - r:
                        assert got == params.f ** (p ** (s - r))
                    else:
                        assert got.is_zero()

    def test_p_squared_power_vanishes(self):
        for p, n, r, f_text in ((2, 2, 1, "T^4"), (3, 2, 1, "T^3"), (2, 4, 2, "T^3")):
            params = hp(p, n, r, f_text)
            for s in range(r, n):
                assert z_power(p**s, p * p, params).is_zero()

    def test_prime_power_pairing_table(self):
        # z_{p^s}^j(t^{m p^s}) = m! delta_{j,m} for 1 <= j, m <= p - 1
        for p, n, r, f_text in ((3, 2, 1, "T^3"), (3, 3, 2, "T^3")):
            params = hp(p, n, r, f_text)
            for s in range(n):
                for j in range(1, p):
                    power = z_power(p**s, j, params)
                    for m in range(1, p):
                        got = dual_eval(power, HElement.t_power(m * p**s, params))
                        expected = (
                            LaurentPoly.constant(p, math.factorial(m) % p)
                            if j == m
                            else LaurentPoly.zero(p)
                        )
                        assert got == expected

    def test_commutative_and_associative_exhaustive_small(self):
        params = hp(2, 2, 1, "T^4")
        basis = [DualElement.z_basis(j, params) for j in range(4)]
        for a in basis:
            for b in basis:
                assert dual_mult(a, b, params) == dual_mult(b, a, params)
                for c in basis:
                    assert dual_mult(dual_mult(a, b, params), c, params) == dual_mult(
                        a, dual_mult(b, c, params), params
                    )

    def test_commutative_randomized(self):
        rng = random.Random(11)
        params = hp(3, 2, 1, "T^3")
        for _ in range(10):
            a = DualElement([rand_laurent(rng, 3, -2, 3, 2) for _ in range(9)])
            b = DualElement([rand_laurent(rng, 3, -2, 3, 2) for _ in range(9)])
            assert dual_mult(a, b, params) == dual_mult(b, a, params)

    def test_identity_element(self):
        rng = random.Random(19)
        params = hp(2, 3, 2, "T^5")
        a = DualElement([rand_laurent(rng, 2, -2, 3, 2) for _ in range(8)])
        assert dual_mult(DualElement.one(params), a, params) == a


class TestZMonomial:
    def test_zero_digits_is_identity(self):
        params = hp(2, 2, 1, "T^4")
        assert z_monomial((0, 0), params) == DualElement.one(params)

    def test_unit_digit_vectors_are_generators(self):
        params = hp(3, 2, 1, "T^3")
        assert z_monomial((1, 0), params) == DualElement.z_basis(1, params)
        assert z_monomial((0, 1), params) == DualElement.z_basis(3, params)

    def test_against_structure_constants(self):
        # z_1 * z_2 evaluated on t^i is the (1, 2) entry of the i-th power
        params = hp(2, 2, 1, "T^4")
        mono = z_monomial((1, 1), params)
        for i in range(4):
            assert dual_eval(mono, HElement.t_power(i, params)) == delta_power(i, params).entry(1, 2)

    def test_accepts_padic_digits(self):
        params = hp(2, 2, 1, "T^4")
        assert z_monomial(padic_digits(3, 2, 2), params) == z_monomial((1, 1), params)

    def test_rejects_bad_digits(self):
        params = hp(2, 2, 1, "T^4")
        with pytest.raises(ValueError):
            z_monomial((2, 0), params)
        with pytest.raises(ValueError):
            z_monomial((1,), params)


class TestBasisRank:
    @pytest.mark.parametrize(
        "p,n,r,f_text,expected",
        [(2, 2, 1, "T^4", 4), (3, 2, 1, "T^3", 9), (2, 3, 2, "T^5", 8)],
    )
    def test_full_rank(self, p, n, r, f_text, expected):
        assert dual_basis_rank(hp(p, n, r, f_text)) == expected

    def test_full_rank_nonmonomial_f(self):
        assert dual_basis_rank(hp(2, 2, 1, "T^3 + T^4")) == 4


def test_warm_cache_then_multiply_threaded():
    params = hp(3, 2, 1, "T^5")
    results = [None] * 6

    def worker(k):
        a = DualElement.z_basis(1 + (k % 3), params)
        results[k] = dual_mult(a, a, params)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == results[3]
    assert results[1] == results[4]


class TestTextFormat:
    def test_basis_vector(self):
        params = hp(2, 2, 1, "T^4")
        assert dual_to_text(DualElement.z_basis(1, params)) == "z_1"
        assert dual_from_text("z_1", params) == DualElement.z_basis(1, params)

    def test_coefficient_terms(self):
        params = hp(2, 2, 1, "T^4")
        z = DualElement.z_basis(1, params) + DualElement.z_basis(2, params, LaurentPoly.monomial(2, 4))
        text = dual_to_text(z)
        assert text == "z_1 + (T^4)*z_2"
        assert dual_from_text(text, params) == z

    def test_roundtrip_randomized(self):
        rng = random.Random(47)
        params = hp(3, 2, 1, "T^3")
        for _ in range(25):
            z = DualElement([rand_laurent(rng, 3, -3, 4, 2) for _ in range(9)])
            assert dual_from_text(dual_to_text(z), params) == z

    def test_rejects_out_of_range_index(self):
        params = hp(2, 2, 1, "T^4")
        with pytest.raises(ValueError):
            dual_from_text("z_4", params)

    def test_rejects_garbage(self):
        params = hp(2, 2, 1, "T^4")
        for text in ("w_1", "(T*z_1", "(T))*z_1"):
            with pytest.raises(ValueError):
                dual_from_text(text, params)
