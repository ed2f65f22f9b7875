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
    antipode,
    counit,
    delta_power,
    h_mul,
)
from hopfscaffold.hopf_primal import DigitKernel

from oracles import (
    antipode_convolution_defect,
    coassociativity_sides,
    expansion_terms,
    expansion_terms_by_binomials,
    image_by_expansion,
    tensor_power_by_expansion,
    tensor_product,
)

AXIOM_RANGE = [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 2)]


def hp(p, n, r, f_text="T^3"):
    return HopfParams(p, n, r, LaurentPoly.from_text(f_text, p))


def unit(p):
    """1 (x) 1 as a sparse map."""
    return {(0, 0): LaurentPoly.one(p)}


def entry(d, a, b, p):
    """The t^a (x) t^b coefficient of a sparse map."""
    return d.get((a, b), LaurentPoly.zero(p))


class TestParams:
    @pytest.mark.parametrize("p,n,r", [(2, 2, 0), (2, 2, 2), (2, 4, 1), (3, 3, 3)])
    def test_rejects_bad_r(self, p, n, r):
        with pytest.raises(ValueError):
            hp(p, n, r)

    def test_rejects_zero_f(self):
        with pytest.raises(ValueError):
            HopfParams(2, 2, 1, LaurentPoly.zero(2))


class TestDeltaT:
    def test_p2_entries(self):
        params = hp(2, 2, 1, "T^4")
        d = delta_power(1, params)
        one = LaurentPoly.one(2)
        assert entry(d, 1, 0, params.p) == one and entry(d, 0, 1, params.p) == one
        assert entry(d, 2, 2, params.p) == params.f
        assert len(d) == 3

    def test_p3_twist_coefficients(self):
        # 1/(1!*2!) = 1/2 = 2 in F_3, at both symmetric slots
        params = hp(3, 2, 1)
        d = delta_power(1, params)
        expected = params.f * 2
        assert entry(d, 3, 6, params.p) == expected
        assert entry(d, 6, 3, params.p) == expected

    def test_counit_compatibility(self):
        # contracting either leg with the counit returns the generator
        params = hp(3, 2, 1)
        d = delta_power(1, params)
        pn = params.degree
        left = [entry(d, 0, b, params.p) for b in range(pn)]
        right = [entry(d, a, 0, params.p) for a in range(pn)]
        t = HElement.t_power(1, params)
        assert HElement(left) == t
        assert HElement(right) == t


class TestTensorMul:
    # the product of H (x) H is DigitKernel.mul with beta = 0, reading every t-exponent, on integer
    # terms {(b, m): c} standing for c * f^m * t^a (x) t^b in the image of t^i, where
    # a = i - b + (p^(r+1) - 1) m; the schoolbook product of oracles.tensor_product checks it on the
    # Laurent maps the terms stand for
    @staticmethod
    def kernel(params):
        return DigitKernel(params, LaurentPoly.zero(params.p), range(params.degree))

    @staticmethod
    def laurent(terms, i, params):
        """The {(a, b): coefficient} map of integer kernel terms of the image of t^i, a < p^n."""
        acc, step = {}, params.p ** (params.r + 1) - 1
        for (b, m), c in terms.items():
            assert 0 < c < params.p
            a = i - b + step * m
            if a < params.degree:
                acc[(a, b)] = acc.get((a, b), LaurentPoly.zero(params.p)) + params.f**m * c
        return {key: c for key, c in acc.items() if not c.is_zero()}

    def test_unit(self):
        params = hp(2, 2, 1)
        gen = {(0, 0): 1, (1, 0): 1, (2, 1): 1}  # Delta(t) at p = 2: t (x) 1, 1 (x) t, f t^2 (x) t^2
        assert self.kernel(params).mul({(0, 0): 1}, gen) == gen
        d = delta_power(1, params)
        assert self.laurent(gen, 1, params) == d == tensor_product(unit(2), d, params.degree)

    def test_simple_tensor_product(self):
        params = hp(2, 2, 1)
        one = LaurentPoly.one(2)
        t_left, t_right = {(0, 0): 1}, {(1, 0): 1}  # t (x) 1 and 1 (x) t, each in the image of t^1
        product = self.kernel(params).mul(t_left, t_right)
        assert product == {(1, 0): 1} and self.laurent(product, 2, params) == {(1, 1): one}
        assert tensor_product({(1, 0): one}, {(0, 1): one}, params.degree) == {(1, 1): one}

    def test_kernel_product_drops_exponents_at_or_above_degree(self):
        # a t-exponent at or above p^n lies above every read t, so mul drops it; an A-exponent there
        # folds through beta = 0, so terms(i) drops it from the product mul keeps
        params = hp(2, 2, 1)
        one, kernel = LaurentPoly.one(2), self.kernel(params)
        assert kernel.mul({(2, 0): 1}, {(2, 0): 1}) == {}  # (1 (x) t^2)^2 = 1 (x) t^4
        assert tensor_product({(0, 2): one}, {(0, 2): one}, params.degree) == {}
        four = kernel.mul({(0, 0): 1}, {(0, 0): 1})  # t^3 (x) 1 times t (x) 1 = t^4 (x) 1
        assert four == {(0, 0): 1} and self.laurent(four, 4, params) == {}
        assert tensor_product({(3, 0): one}, {(1, 0): one}, params.degree) == {}
        # Delta(t^3) = Delta(t^2) Delta(t) holds f t^4 (x) t^2, which folds once at beta != 0
        folded = DigitKernel(params, LaurentPoly.from_text("T^-1", 2), range(params.degree)).terms(3)
        assert (0, 2, 1, 1) in folded
        assert kernel.terms(3) == {key: c for key, c in folded.items() if not key[3]}
        assert self.laurent(kernel.images[3], 3, params) == kernel.image(3) == delta_power(3, params)

    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_products_of_generator_images_reduce_mod_p(self, p, n, r):
        # Delta(t)^2 and Delta(t)^3 as integer terms: coefficients add exponents of f, multiply
        # residues, reduce mod p (at p = 2 the cross terms 2 t (x) t vanish) and drop zeros
        params = hp(p, n, r, "T^-1 + T^2")
        kernel = self.kernel(params)
        gen = kernel._power(0, 1)
        square = kernel.mul(gen, gen)
        cube = kernel.mul(square, gen)
        d1 = delta_power(1, params)
        assert self.laurent(gen, 1, params) == d1
        assert self.laurent(square, 2, params) == tensor_product(d1, d1, params.degree) == delta_power(2, params)
        assert self.laurent(cube, 3, params) == delta_power(3, params)

    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_nilpotency(self, p, n, r):
        # delta is an algebra map and t^{p^n} = 0, so delta(t)^{p^n} = 0
        params = hp(p, n, r)
        power = delta_power(p**n - 1, params)
        assert tensor_product(power, delta_power(1, params), params.degree) == {}

    def test_algebra_map_property(self):
        params = hp(3, 2, 1)
        for i in range(4):
            for j in range(4):
                if i + j < params.degree:
                    assert tensor_product(
                        delta_power(i, params), delta_power(j, params), params.degree
                    ) == delta_power(i + j, params)


class TestDeltaPower:
    def test_zeroth_power_is_unit(self):
        params = hp(2, 2, 1)
        assert delta_power(0, params) == unit(2)

    def test_first_power(self):
        # t(x)1 + 1(x)t + f * sum_l t^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!), written out
        for p, n, r in AXIOM_RANGE:
            params = hp(p, n, r)
            one = LaurentPoly.one(p)
            expected = {(1, 0): one, (0, 1): one}
            for ell in range(1, p):
                inv = pow(math.factorial(ell) * math.factorial(p - ell), -1, p)
                expected[(p**r * ell, p**r * (p - ell))] = params.f * inv
            assert delta_power(1, params) == expected

    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_high_prime_powers_are_primitive(self, p, n, r):
        # for s + r >= n the twist dies under truncation
        params = hp(p, n, r)
        one = LaurentPoly.one(p)
        for s in range(max(0, n - r), n):
            assert delta_power(p**s, params) == {(p**s, 0): one, (0, p**s): one}

    def test_images_hold_nonzero_terms_only_and_are_fresh(self):
        params = hp(3, 2, 1, "T^6")
        for i in range(params.degree):
            d = delta_power(i, params)
            assert all(not c.is_zero() for c in d.values())
            d.clear()
            assert delta_power(i, params) == tensor_power_by_expansion(i, params)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delta_power(4, hp(2, 2, 1))

    @pytest.mark.parametrize("p,n,r", [(2, 2, 1), (3, 2, 1), (2, 3, 2)])
    def test_matches_multinomial_expansion(self, p, n, r):
        # differential test against the closed-form expansion, non-monomial f
        params = hp(p, n, r, "T^3 + T^5")
        for i in range(params.degree):
            assert delta_power(i, params) == tensor_power_by_expansion(i, params)

    @pytest.mark.parametrize(
        "p,n,r,samples", [(3, 3, 2, (0, 5, 11, 26)), (2, 4, 2, (0, 7, 15)), (2, 5, 3, (0, 9, 22, 31))]
    )
    def test_matches_multinomial_expansion_sampled(self, p, n, r, samples):
        params = hp(p, n, r, "T^4")
        for i in samples:
            assert delta_power(i, params) == tensor_power_by_expansion(i, params)

    def test_concurrent_calls_agree(self):
        params = hp(3, 2, 1, "T^6")
        results = [None] * 8

        def worker(k):
            results[k] = delta_power(8, params)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(rimage == results[0] for rimage in results)


class TestReadPrune:
    @pytest.mark.parametrize(
        "p,n,r,t_read",
        [
            (2, 5, 3, {3, 12}),
            (2, 6, 3, {5, 32, 40}),
            (3, 4, 2, {9, 28, 40}),
            (3, 4, 3, {27}),
            (5, 2, 1, {7}),
        ],
    )
    def test_partial_products_keep_read_residues_to_the_next_digit_place(self, monkeypatch, p, n, r, t_read):
        # the product through a digit of i keeps only terms agreeing with read t-exponents modulo
        # p^(place of the next nonzero digit of i), p^n after the last digit, and no term above
        # the largest read t of its class
        params = hp(p, n, r, "T^3 + T^5")
        beta = LaurentPoly.from_text("T^-1 + T^2", p)
        real_mul = DigitKernel.mul
        products = []

        def spy(self, a, b, level=0):
            products.append(real_mul(self, a, b, level))
            return products[-1]

        formed = 0
        for i in range(params.degree):
            kernel = DigitKernel(params, beta, t_read)  # fresh, so image(i) forms its own products
            for s in range(n):
                if p**s <= kernel.tmax:
                    kernel._power(s, p - 1)  # every digit power, so the spied products are partial products
            monkeypatch.setattr(DigitKernel, "mul", spy)
            products.clear()
            kernel.image(i)
            monkeypatch.setattr(DigitKernel, "mul", real_mul)
            low = i % kernel.low
            places = [s for s in range(n) if low // p**s % p]
            assert 1 <= len(products) <= max(len(places), 1)
            for product, place in zip(products, places[1:] + [n]):
                m = p**place
                top = {}
                for e in t_read:
                    top[e % m] = max(e, top.get(e % m, e))
                assert all(t % m in top and t <= top[t % m] for t, _ in product)
            formed += sum(map(len, products))
        assert formed  # kept partial terms were checked


# (p, n, r, f, beta, t_read): multi-term f and beta, beta = 0 among them; None reads every t
KERNEL_PIN_CASES = [
    (2, 4, 2, "T^-1 + T^2", "T^-3 + 1 + T", None),
    (2, 5, 3, "T^3 + T^5", "0", {3, 12, 17, 30}),
    (2, 6, 3, "T^-2 + T", "T^-1 + T^2", {5, 32, 40, 63}),
    (3, 3, 2, "2*T^-1 + T^2", "T^-2 + 2*T", None),
    (3, 3, 2, "T + 2*T^4", "0", None),
    (3, 4, 2, "T + 2*T^4", "T^-1 + T^2", {9, 28, 40, 80}),
    (5, 2, 1, "2*T^-1 + T^2", "T^-1 + 3*T", None),
    (5, 3, 2, "T^3 + 4*T^5", "0", {7, 30, 62, 124}),
    (5, 3, 2, "2*T^-1 + T^2", "4*T^-1 + T^3", None),
]


class TestKernelImages:
    def test_images_are_pinned(self):
        # SHA-256 of every image(i), each term as "p n r i u t coeff", recorded when the kernel
        # multiplied LaurentPoly coefficients term by term
        digest = hashlib.sha256()
        for p, n, r, f, beta, t_read in KERNEL_PIN_CASES:
            params = hp(p, n, r, f)
            kernel = DigitKernel(params, LaurentPoly.from_text(beta, p), range(p**n) if t_read is None else t_read)
            for i in range(p**n):
                for (u, t), c in sorted(kernel.image(i).items()):
                    digest.update(f"{p} {n} {r} {i} {u} {t} {c}\n".encode())
        assert digest.hexdigest() == "e32733471cc233748b277ae2fc92d11b3ac025494e140bb33dd291dcd52eedbb"

    @pytest.mark.parametrize(
        "p,n,r,f,beta",
        [(2, 4, 2, "T^-2", "T^-1"), (3, 4, 2, "T^-2", "T^-1"), (2, 5, 3, "T^-2 + T", "T^-1"), (5, 2, 1, "T^-2", "T^-1")],
    )
    def test_no_two_terms_share_an_exponent_pair(self, monkeypatch, p, n, r, f, beta):
        # f = beta^2 here, so c f^m beta^k and c' f^(m+1) beta^(k-2) would cancel if they met on one
        # (u, t); they never do: products are keyed by (t, m), and u + k p^n = i - t + (p^(r+1) - 1) m
        # with m p^r <= t < p^n fixes m on each (u, t).  So no image holds a zero coefficient.
        params = hp(p, n, r, f)
        kernel = DigitKernel(params, LaurentPoly.from_text(beta, p), range(params.degree))
        formed, real = [], DigitKernel.mul

        def spy(self, *args):
            formed.append(real(self, *args))
            return formed[-1]

        monkeypatch.setattr(DigitKernel, "mul", spy)
        for i in range(params.degree):
            terms = kernel.terms(i)
            assert len({(u, t) for u, t, _, _ in terms}) == len(terms)
            assert all(m * p**r <= t for _, t, m, _ in terms)
            image = kernel.image(i)
            assert all(not c.is_zero() for c in image.values())
            assert image == image_by_expansion(i, params, kernel.beta)
        assert formed
        for terms in formed:
            assert all(0 < c < p for c in terms.values())

    @pytest.mark.parametrize("beta", ["0", "4*T^-1 + T^3"])
    def test_matches_expansion_at_p5_for_every_power(self, beta):
        params = hp(5, 3, 2, "2*T^-1 + T^2")
        beta = LaurentPoly.from_text(beta, 5)
        kernel = DigitKernel(params, beta, range(params.degree))
        for i in range(params.degree):
            expected = image_by_expansion(i, params, beta)
            assert kernel.image(i) == expected
            if beta.is_zero():
                assert delta_power(i, params) == expected


def _low_read_sets(p, n):
    """Read sets whose largest t lies below p^s, for each s = 0 ... n: single exponents and mixes."""
    sets = [{0}, {1}]
    for s in range(1, n + 1):
        top = p**s - 1
        sets += [{p ** (s - 1)}, {top}, {0, p ** (s - 1), top}, set(range(1, top + 1, max(1, top // 3)))]
    return [set(t) for t in dict.fromkeys(frozenset(t) for t in sets)]


# (p, n, r, f) with beta = 0, T^-b for b = 1 and a multi-term beta
SHIFT_CASES = [(2, 4, 2, "T^-1 + T^2"), (3, 3, 2, "2*T^-1 + T^2"), (5, 2, 1, "T^3 + 4*T^5")]
SHIFT_BETAS = ["0", "T^-1", "T^-3 + 2 + T"]


class TestHighPlaceShift:
    # a digit of i at a place p^q above every read t keeps only u^{d p^q} (x) 1 of its factor, so
    # terms(i) is terms(i mod p^S) with the A-leg shifted, p^S the least power of p above the
    # largest read t; a shifted exponent at or above p^n folds once, or vanishes at beta = 0
    @staticmethod
    def laurent(terms, params, beta):
        """The {(u, t): coefficient} map of integer kernel terms, each c * f^m * beta^k formed here."""
        assert len({(u, t) for u, t, _, _ in terms}) == len(terms)
        return {(u, t): params.f**m * beta**k * c for (u, t, m, k), c in terms.items()}

    @pytest.mark.parametrize("beta_text", SHIFT_BETAS)
    def test_terms_match_the_expansion_on_the_read_set(self, beta_text):
        over_pn = 0  # shifted low-image terms reaching p^n: they fold, or vanish at beta = 0
        for p, n, r, f in SHIFT_CASES:
            params, beta = hp(p, n, r, f), LaurentPoly.from_text(beta_text, p)
            full = [image_by_expansion(i, params, beta) for i in range(params.degree)]
            for t_read in _low_read_sets(p, n):
                kernel = DigitKernel(params, beta, t_read)
                low = next((p**s for s in range(n) if p**s > max(t_read)), p**n)
                for i in range(params.degree):
                    expected = {(u, t): c for (u, t), c in full[i].items() if t in t_read}
                    assert self.laurent(kernel.terms(i), params, beta) == expected, (p, n, t_read, i)
                    over_pn += sum(u + i - i % low >= p**n for u, t in full[i % low] if t in t_read)
        # only (2,4,2) shifts a twist term, which alone can pass p^n: n = r + 1 at the other two
        assert over_pn > 0

    @pytest.mark.parametrize("p,n,r,f", SHIFT_CASES)
    @pytest.mark.parametrize("beta", SHIFT_BETAS)
    def test_kept_low_images_do_not_depend_on_call_order(self, p, n, r, f, beta):
        params, beta = hp(p, n, r, f), LaurentPoly.from_text(beta, p)
        order = list(range(params.degree)) * 2
        random.Random(f"{p}{n}{beta}").shuffle(order)
        for t_read in _low_read_sets(p, n):
            kept = DigitKernel(params, beta, t_read)
            for i in order:
                assert kept.terms(i) == DigitKernel(params, beta, t_read).terms(i), (t_read, i)


class TestExpansionOracle:
    @pytest.mark.parametrize("p,r,top", [(2, 1, 64), (2, 3, 64), (3, 2, 81), (5, 2, 27)])
    def test_digit_wise_expansion_matches_binomial_enumeration(self, p, r, top):
        # every i below p^4 (p^2 at p = 5, where the binomial enumeration slows sharply with i)
        def summed(terms):
            acc = {}
            for a, b, c, fpow in terms:
                acc[(a, b, fpow)] = (acc.get((a, b, fpow), 0) + c) % p
            return {key: c for key, c in acc.items() if c}

        for i in range(top):
            digit_wise = list(expansion_terms(i, p, r))
            assert all(0 < c < p for _, _, c, _ in digit_wise)
            assert summed(digit_wise) == summed(expansion_terms_by_binomials(i, p, r))


class TestCounit:
    def test_kills_generator(self):
        params = hp(2, 2, 1)
        assert counit(HElement.t_power(1, params)).is_zero()

    def test_fixes_constants(self):
        params = hp(2, 2, 1)
        assert counit(HElement.t_power(0, params)) == LaurentPoly.one(2)

    def test_projects_constant_coefficient(self):
        params = hp(3, 2, 1)
        c = LaurentPoly.from_text("2*T^-1", 3)
        element = HElement.t_power(0, params, c) + HElement.t_power(2, params)
        assert counit(element) == c


class TestAntipode:
    def test_negates_generator(self):
        params = hp(3, 2, 1)
        assert antipode(HElement.t_power(1, params)) == HElement.t_power(1, params, 3 - 1)

    def test_fixes_identity(self):
        params = hp(3, 2, 1)
        assert antipode(HElement.t_power(0, params)) == HElement.t_power(0, params)

    def test_char_two_fixes_squares(self):
        params = hp(2, 2, 1)
        assert antipode(HElement.t_power(2, params)) == HElement.t_power(2, params)

    def test_is_involution(self):
        params = hp(3, 2, 1)
        rng = random.Random(3)
        element = HElement(
            [LaurentPoly(3, [(rng.randint(-2, 4), rng.randint(0, 2))]) for _ in range(9)]
        )
        assert antipode(antipode(element)) == element


class TestHopfAxioms:
    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_coassociativity_on_generator(self, p, n, r):
        left, right = coassociativity_sides(hp(p, n, r, "T^5"))
        assert left == right

    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_counit_axiom_on_all_powers(self, p, n, r):
        params = hp(p, n, r)
        for i in range(params.degree):
            d = delta_power(i, params)
            left = HElement([entry(d, 0, b, params.p) for b in range(params.degree)])
            right = HElement([entry(d, a, 0, params.p) for a in range(params.degree)])
            assert left == HElement.t_power(i, params)
            assert right == HElement.t_power(i, params)

    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_antipode_convolution_on_generator(self, p, n, r):
        assert antipode_convolution_defect(hp(p, n, r, "T^5")).is_zero()

    def test_antipode_defect_outside_range_is_recorded(self):
        # FINDING: for p = 2 and n > r + 1 the substitution t -> -t is the
        # identity, and the convolution of the antipode against the
        # comultiplication leaves the twist term f * t^{2^{r+1}} standing.
        # The map is kept as stated; this test documents the defect.
        params = hp(2, 4, 2, "T^3")
        defect = antipode_convolution_defect(params)
        assert not defect.is_zero()
        assert defect == HElement.t_power(8, params, params.f)


def test_h_mul_truncates():
    params = hp(2, 2, 1)
    t3 = HElement.t_power(3, params)
    assert h_mul(t3, HElement.t_power(1, params)).is_zero()
    assert h_mul(t3, HElement.t_power(0, params)) == t3


def test_h_mul_refuses_an_element_of_another_degree():
    # h_mul and l_mul share one fold product, which checks both operands, and
    # their class: z_1 of the dual algebra has the p and degree of t^3
    t3, t7 = HElement.t_power(3, hp(2, 2, 1)), HElement.t_power(7, hp(2, 3, 2))
    z1 = DualElement.z_basis(1, hp(2, 2, 1))
    for a, b in ((t3, t7), (t7, t3), (z1, z1), (t3, z1), (z1, t3)):
        with pytest.raises(ValueError, match="incompatible elements"):
            h_mul(a, b)


def test_counit_and_antipode_refuse_an_element_of_another_space():
    # x of L and z_1 of the dual algebra have the p and degree of t at (2, 2, 1): the class decides
    hopf, ext = hp(2, 2, 1), ExtensionParams.monogenic(2, 2, 1)
    for h in (LElement.x_power(1, ext), DualElement.z_basis(1, hopf)):
        with pytest.raises(ValueError, match="antipode needs an element of the Hopf algebra"):
            antipode(h)
    with pytest.raises(ValueError, match="counit needs an element of the Hopf algebra"):
        counit(LElement.one(ext))
