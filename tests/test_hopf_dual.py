import hashlib
import math
import random
import threading

import pytest

from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HElement,
    HopfParams,
    LaurentPoly,
    LElement,
    dual_basis_rank,
    dual_eval,
    dual_from_text,
    dual_mult,
    dual_to_text,
    delta_power,
    monomial_images,
    padic_digits,
    z_monomial,
    z_monomials,
)
from hopfscaffold import hopf_dual
from hopfscaffold.hopf_dual import trie_step
from hopfscaffold.hopf_primal import DigitKernel

from oracles import rand_laurent, tensor_power_by_expansion, z_monomials_by_expansion


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

    def test_rejects_an_element_of_another_space(self):
        # x and t^3 have the p and degree of z_3, but live in L and in H
        params = hp(2, 2, 1, "T^4")
        z, t = DualElement.z_basis(3, params), HElement.t_power(3, params)
        x = LElement.x_power(3, ExtensionParams.monogenic(2, 2, 1))
        for a, b in ((z, x), (t, t), (x, t)):
            with pytest.raises(ValueError, match="incompatible elements"):
                dual_eval(a, b)

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

    @pytest.mark.parametrize("p,n,r", [(2, 4, 2), (3, 3, 2), (3, 4, 3), (5, 3, 2)])
    def test_delta_terms_reach_their_index(self, p, n, r):
        # dual_mult reads only i = u + v - (p^{r+1} - 1) m with 0 <= m <= v // p^r: every term
        # u (x) t^v of Delta(t^i), from the multinomial expansion, has u + v - i of that form
        params = hp(p, n, r, "T^3 + T^5")
        step = p ** (r + 1) - 1
        for i in range(params.degree):
            image = tensor_power_by_expansion(i, params)
            assert image
            for u, v in image:
                m, rest = divmod(u + v - i, step)
                assert rest == 0 and 0 <= m <= v // p**r, (i, u, v)

    def test_forms_kernel_images_only_for_reachable_indices(self, monkeypatch):
        # at (3,5,3,T^3) the z-monomial rows once formed 29,645 kernel images, 29,338 of them empty;
        # reading i for every m < p^{n-r} took 491 kernel reads there and 135,695 at (2,13,7,T^3)
        formed = []
        real_terms = DigitKernel.terms

        def spy(self, i):
            formed.append(i)
            return real_terms(self, i)

        monkeypatch.setattr(DigitKernel, "terms", spy)
        assert dual_basis_rank(hp(3, 5, 3, "T^3")) == 243
        # each of the 242 products reads at least one image, so the spy sees every product
        assert 242 <= len(formed) <= 354
        formed.clear()
        assert dual_basis_rank(hp(2, 13, 7, "T^3")) == 8192
        assert 8191 <= len(formed) <= 30072

    def test_builds_one_kernel_per_generator(self, monkeypatch):
        # one kernel per generator z_{3^s}, reading t = 3^s, for all 242 products
        # of the basis rank and for all 242 actions of the certificate's walk
        read = []
        real_init = DigitKernel.__init__

        def spy(self, hopf, beta, t_read):
            read.append(sorted(t_read))
            real_init(self, hopf, beta, t_read)

        monkeypatch.setattr(DigitKernel, "__init__", spy)
        params = hp(3, 5, 3, "T^3")
        assert dual_basis_rank(params) == 243
        assert read == [[3**s] for s in range(5)]
        read.clear()
        ext = ExtensionParams.monogenic(3, 5, 1)
        assert len(monomial_images(LElement.x_power(242, ext), ext, params)) == 243
        assert read == [[3**s] for s in range(5)]

    def test_rejects_operands_of_another_degree(self):
        params8, params16 = hp(2, 3, 2, "T^5"), hp(2, 4, 2, "T^5")
        z1, z9 = DualElement.z_basis(1, params8), DualElement.z_basis(9, params16)
        x = LElement.x_power(1, ExtensionParams.monogenic(2, 3, 1))  # p and degree of params8
        for a, b in ((z1, z9), (z9, z9), (x, z1), (z1, x)):
            with pytest.raises(ValueError, match="dual element does not belong to the dual algebra"):
                dual_mult(a, b, params8)


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

    @pytest.mark.parametrize("p,n,r,f_text", [(2, 4, 2, "T^3 + T^5"), (3, 3, 2, "T^-2 + 2*T"), (5, 2, 1, "T^3")])
    def test_rows_match_the_expansion_oracle(self, monkeypatch, p, n, r, f_text):
        params = hp(p, n, r, f_text)
        rows = [dict(mono.nonzero_items()) for mono in z_monomials(params)]

        def refuse(self, *args):
            raise AssertionError("the oracle built a DigitKernel")

        monkeypatch.setattr(DigitKernel, "__init__", refuse)
        assert rows == z_monomials_by_expansion(params)

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
        [
            (2, 2, 1, "T^4", 4),
            (3, 2, 1, "T^3", 9),
            (2, 3, 2, "T^5", 8),
            (2, 5, 3, "T^4", 32),
            (2, 4, 2, "T^-3", 16),
            (2, 4, 2, "T^3", 16),
            (2, 5, 3, "T^-3", 32),
            (3, 3, 2, "T^3", 27),
            (3, 3, 2, "T^-2", 27),
            (3, 4, 2, "T^3", 81),
            (5, 2, 1, "T^3", 25),
            (2, 6, 3, "T^-7 + T", 64),
        ],
    )
    def test_full_rank(self, p, n, r, f_text, expected):
        assert dual_basis_rank(hp(p, n, r, f_text)) == expected

    def test_full_rank_nonmonomial_f(self):
        assert dual_basis_rank(hp(2, 2, 1, "T^3 + T^4")) == 4

    @pytest.mark.parametrize(
        "p,n,r,f_text",
        [
            (2, 4, 2, "T^-3"),
            (2, 5, 3, "T^-3"),
            (3, 3, 2, "T^-2"),
            (3, 4, 2, "T^3"),
            (5, 2, 1, "T^3"),
            (2, 2, 1, "T^3 + T^4"),
            (3, 4, 3, "2*T^-5 + T"),
            (5, 3, 2, "T^-1 + 3*T^2"),
        ],
    )
    def test_rows_are_lower_triangular_with_factorial_diagonal(self, p, n, r, f_text):
        # the shape dual_basis_rank reads: row j ends at z_j, with coefficient prod_s j_s! mod p
        for j, mono in enumerate(z_monomials(hp(p, n, r, f_text))):
            top, lead = list(mono.nonzero_items())[-1]
            assert top == j
            assert lead == LaurentPoly.constant(p, math.prod(map(math.factorial, padic_digits(j, p, n))) % p)

    @pytest.mark.parametrize(
        "p,n,r,digest",
        [
            pytest.param(3, 5, 3, "10d9d1dcd39908ac77bc98703b56ff7bd876557a1ee42ed93b35505a35247008", id="3-5-3"),
            pytest.param(7, 4, 2, "0df1abf3f616d846aa0d084e6054beba2c7ffe31ab38a3b68a3c7252c696cb21", id="7-4-2"),
            pytest.param(97, 2, 1, "c7c809ac4b80a9894729afca34d0455a886ad0bd1dd14d689c32cb50e64483a5", id="97-2-1"),
        ],
    )
    def test_z_monomial_rows_pinned(self, p, n, r, digest):
        # SHA-256 of the z-monomial rows in text, one per line, at f = T^3; 3-5-3 recorded before
        # dual_mult tried only the indices reachable from its operands, 7-4-2 and 97-2-1 before
        # it bounded m by v // p^r
        out = "".join(dual_to_text(mono) + "\n" for mono in z_monomials(hp(p, n, r, "T^3")))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_each_row_term_costs_one_laurent_product(self, monkeypatch):
        # at (3, 5, 3) the walk reads 306 row terms, each one product with a factor formed once per
        # (v, m, c) of its generator step: 17 factors, and 3 twist scalars c * f^m at two products
        # each (two products per row term made 626)
        params = hp(3, 5, 3, "T^3")
        real, calls = LaurentPoly.__mul__, []

        def counting(self, other):
            calls.append(None)
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        z_monomials(params)
        assert len(calls) == 306 + 17 + 2 * 3

    @pytest.mark.parametrize("fault", ["swap rows", "drop lead term"])
    def test_rejects_rows_off_the_triangular_shape(self, monkeypatch, fault):
        params = hp(2, 4, 2, "T^-3")
        monos = z_monomials(params)
        if fault == "swap rows":
            monos[5], monos[6] = monos[6], monos[5]
        else:
            terms = dict(monos[5].nonzero_items())
            del terms[5]
            monos[5] = DualElement._from_terms(2, 16, terms)
        monkeypatch.setattr(hopf_dual, "z_monomials", lambda hopf: monos)
        with pytest.raises(AssertionError, match="row 5 "):
            dual_basis_rank(params)


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

    def test_rejects_non_ascii_digits(self):
        params = hp(2, 2, 1, "T^4")
        for text in ("z_٠", "z_١", "(T)*z_٣", "(²)*z_1"):
            with pytest.raises(ValueError, match="malformed"):
                dual_from_text(text, params)

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
        for text in ("w_1", "(T*z_1", "(T))*z_1", "()*z_1", "z_1 + ()*z_2"):
            with pytest.raises(ValueError):
                dual_from_text(text, params)
