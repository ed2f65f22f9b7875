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
    z_monomials,
)
from hopfscaffold import hopf_dual
from hopfscaffold.base_arith import CoeffVector
from hopfscaffold.hopf_dual import _certified_rank, _fraction_free_rank, _rank_mod_t, trie_step
from hopfscaffold.hopf_primal import DigitKernel

from oracles import rand_laurent, tensor_power_by_expansion


def hp(p, n, r, f_text):
    return HopfParams(p, n, r, LaurentPoly.from_text(f_text, p))


def poly(p, text):
    return LaurentPoly.from_text(text, p)


def sparse(rows):
    """Dense rows of Laurent polynomials as the maps {column: nonzero entry} that _rank_mod_t reads."""
    return [{k: c for k, c in enumerate(row) if not c.is_zero()} for row in rows]


def vectors(rows):
    return [CoeffVector(row) for row in rows]


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

    @pytest.mark.parametrize("p,n,r", [(3, 2, 1), (2, 4, 2), (3, 3, 2)])
    def test_matches_expansion_oracle(self, p, n, r):
        # the z_i coefficient of a*b is sum_{u,v} a_u b_v Delta(t^i)[u, v],
        # with Delta(t^i) from the multinomial expansion
        params = hp(p, n, r, "T^3 + T^5")
        pn = params.degree
        deltas = [tensor_power_by_expansion(i, params) for i in range(pn)]
        rng = random.Random(pn)

        def sparse(lo=0):
            z = DualElement.zero(params)
            for _ in range(rng.randint(1, 3)):
                z = z + DualElement.z_basis(rng.randrange(lo, pn), params, rand_laurent(rng, p, -2, 3, 2))
            return z

        zero = DualElement.zero(params)
        cases = [(sparse(), sparse()) for _ in range(6)]
        cases += [(sparse(), sparse(pn - 3)), (sparse(pn - 3), sparse()), (zero, sparse()), (sparse(), zero)]
        # reads the twist term of Delta(t^{p^{n-r-1}}), a Frobenius power of f when n > r + 1
        top = p ** (n - 1)
        cases.append((DualElement.z_basis(top, params), DualElement.z_basis(top * (p - 1), params)))
        for a, b in cases:
            expected = []
            for delta in deltas:
                total = LaurentPoly.zero(p)
                for u, cu in a.nonzero_items():
                    for v, cv in b.nonzero_items():
                        total = total + cu * cv * delta.get((u, v), LaurentPoly.zero(p))
                expected.append(total)
            assert dual_mult(a, b, params) == DualElement(expected)

    @pytest.mark.parametrize("p,n,r", [(2, 4, 2), (3, 3, 2)])
    def test_delta_terms_reach_their_index(self, p, n, r):
        # dual_mult skips every i above max(a) + max(b): no term u (x) t^v of
        # Delta(t^i) has u + v < i
        params = hp(p, n, r, "T^3 + T^5")
        kernel = DigitKernel(params, LaurentPoly.zero(p))
        for i in range(params.degree):
            image = kernel.image(i)
            assert image
            assert all(u + v >= i for u, v in image)

    def test_rejects_operands_of_another_degree(self):
        params8, params16 = hp(2, 3, 2, "T^5"), hp(2, 4, 2, "T^5")
        z1, z9 = DualElement.z_basis(1, params8), DualElement.z_basis(9, params16)
        with pytest.raises(ValueError):
            dual_mult(z1, z9, params8)
        with pytest.raises(ValueError):
            dual_mult(z9, z9, params8)


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
            assert dual_eval(mono, HElement.t_power(i, params)) == delta_power(i, params).get(
                (1, 2), LaurentPoly.zero(2)
            )

    def test_accepts_padic_digits(self):
        params = hp(2, 2, 1, "T^4")
        assert z_monomial(padic_digits(3, 2, 2), params) == z_monomial((1, 1), params)

    def test_rejects_bad_digits(self):
        params = hp(2, 2, 1, "T^4")
        with pytest.raises(ValueError):
            z_monomial((2, 0), params)
        with pytest.raises(ValueError):
            z_monomial((1,), params)

    def test_trie_step(self):
        assert trie_step(1, 2) == (0, 0)
        assert trie_step(6, 2) == (4, 1)
        assert trie_step(5, 3) == (4, 0)
        assert trie_step(18, 3) == (9, 2)
        assert trie_step(9, 3) == (0, 2)
        with pytest.raises(ValueError):
            trie_step(0, 3)

    @pytest.mark.parametrize("p,n,r,f_text", [(2, 4, 2, "T^3"), (3, 3, 2, "T^4")])
    def test_trie_rows_match_z_monomial(self, p, n, r, f_text):
        params = hp(p, n, r, f_text)
        monos = z_monomials(params)
        assert len(monos) == p**n
        for j, mono in enumerate(monos):
            assert mono == z_monomial(padic_digits(j, p, n), params)


class TestBasisRank:
    @pytest.mark.parametrize(
        "p,n,r,f_text,expected",
        [(2, 2, 1, "T^4", 4), (3, 2, 1, "T^3", 9), (2, 3, 2, "T^5", 8), (2, 5, 3, "T^4", 32)],
    )
    def test_full_rank(self, p, n, r, f_text, expected):
        assert dual_basis_rank(hp(p, n, r, f_text)) == expected

    def test_full_rank_nonmonomial_f(self):
        assert dual_basis_rank(hp(2, 2, 1, "T^3 + T^4")) == 4

    @pytest.mark.parametrize(
        "p,n,r,f_text",
        [(2, 2, 1, "T^4"), (3, 2, 1, "T^3"), (2, 3, 2, "T^5"), (2, 5, 3, "T^4"), (2, 2, 1, "T^3 + T^4")],
    )
    def test_rank_mod_t_agrees_with_bareiss(self, p, n, r, f_text):
        params = hp(p, n, r, f_text)
        rows = [list(z_monomial(padic_digits(j, p, n), params).coeffs) for j in range(p**n)]
        assert _rank_mod_t(sparse(rows), p) == _fraction_free_rank(rows, p) == p**n

    @pytest.mark.parametrize("f_text,rank_mod_t,bareiss_calls", [("T^-3", 14, 1), ("T^3", 16, 0)])
    def test_bareiss_runs_exactly_when_rank_mod_t_falls_short(
        self, monkeypatch, f_text, rank_mod_t, bareiss_calls
    ):
        params = hp(2, 4, 2, f_text)
        rows = [dict(mono.nonzero_items()) for mono in z_monomials(params)]
        assert _rank_mod_t(rows, 2) == rank_mod_t
        calls = []

        def counted(rows, p):
            calls.append(len(rows))
            return _fraction_free_rank(rows, p)

        monkeypatch.setattr(hopf_dual, "_fraction_free_rank", counted)
        assert dual_basis_rank(params) == 16
        assert len(calls) == bareiss_calls

    @pytest.mark.parametrize(
        "p,n,r,f_text,rank_mod_t",
        [(2, 5, 3, "T^-3", 28), (3, 3, 2, "T^3", 27), (3, 3, 2, "T^-2", 27), (3, 4, 2, "T^3", 81), (5, 2, 1, "T^3", 25)],
    )
    def test_sparse_rank_mod_t_pins(self, p, n, r, f_text, rank_mod_t):
        # mod-T ranks recorded from the dense elimination; the rank over K stays full either way
        params = hp(p, n, r, f_text)
        assert _rank_mod_t([dict(mono.nonzero_items()) for mono in z_monomials(params)], p) == rank_mod_t
        assert dual_basis_rank(params) == p**n

    def test_rows_shift_by_least_valuation(self):
        # either sign of shift: row 1 reads [1, 0] mod T, row 2 reads [0, 1]
        rows = [[poly(2, "T^2"), poly(2, "T^3")], [poly(2, "T^-1"), poly(2, "T^-2 + 1")]]
        assert _rank_mod_t(sparse(rows), 2) == 2

    def test_singular_mod_t_but_full_rank(self):
        rows = [[poly(2, "1"), poly(2, "T")], [poly(2, "1"), poly(2, "T + T^2")]]
        assert _rank_mod_t(sparse(rows), 2) == 1
        assert _certified_rank(vectors(rows), 2) == _fraction_free_rank(rows, 2) == 2

    def test_rank_deficient_matrices(self):
        rows = [
            [poly(3, "1"), poly(3, "T"), poly(3, "T^2")],
            [poly(3, "T"), poly(3, "T^2"), poly(3, "T^3")],
            [poly(3, "1"), poly(3, "0"), poly(3, "2")],
        ]
        assert _certified_rank(vectors(rows), 3) == 2
        rows = [[poly(3, "0"), poly(3, "0")], [poly(3, "T^-1"), poly(3, "1 + T")]]
        assert _rank_mod_t(sparse(rows), 3) == _certified_rank(vectors(rows), 3) == 1


def test_concurrent_dual_mult_agrees():
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
