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
    # the product of H (x) H read through the kernel with beta = 0 and every t-exponent read: its kept
    # images are integer terms {(b, m): c} standing for c * f^m * t^a (x) t^b in the image of t^i,
    # where a = i - b + (p^(r+1) - 1) m; the schoolbook product of oracles.tensor_product checks them
    # on the Laurent maps the terms stand for
    @staticmethod
    def kernel(params):
        return DigitKernel(params, LaurentPoly.zero(params.p), range(params.degree))

    @staticmethod
    def kept(kernel, i):
        """The kept integer terms {(b, m): c} of the image of t^i, i < p^n."""
        kernel.terms(i)
        return kernel.images[i]

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
        kernel = self.kernel(params)
        assert self.kept(kernel, 0) == {(0, 0): 1}  # 1 (x) 1
        gen = {(0, 0): 1, (1, 0): 1, (2, 1): 1}  # Delta(t) at p = 2: t (x) 1, 1 (x) t, f t^2 (x) t^2
        assert self.kept(kernel, 1) == gen
        d = delta_power(1, params)
        assert self.laurent(gen, 1, params) == d == tensor_product(unit(2), d, params.degree)

    def test_simple_tensor_product(self):
        # (t (x) 1 + 1 (x) t)^2 = t^2 (x) 1 + 2 t (x) t + 1 (x) t^2 below the twist: the cross term is
        # 2 t (x) t at p = 3, read off the plain counts b = 1 of digit 0, and vanishes at p = 2
        one = LaurentPoly.one(2)
        assert tensor_product({(1, 0): one}, {(0, 1): one}, 4) == {(1, 1): one}
        for p, cross in ((2, None), (3, 2)):
            params = hp(p, 3, 2)
            kernel = self.kernel(params)
            assert self.kept(kernel, 2).get((1, 0)) == cross
            d1 = delta_power(1, params)
            assert self.laurent(self.kept(kernel, 2), 2, params) == tensor_product(d1, d1, params.degree)

    def test_kernel_product_drops_exponents_at_or_above_degree(self):
        # no read t reaches p^n, so no kept term does; an A-exponent at or above p^n folds through
        # beta, and at beta = 0 its scalar c * f^m * beta^k is 0, so image(i) and delta_power drop it
        params = hp(2, 2, 1)
        kernel = self.kernel(params)
        assert tensor_product(delta_power(2, params), delta_power(2, params), params.degree) == {}  # t^4 = 0
        for i in range(params.degree):
            assert all(0 <= t < params.degree for t, _ in self.kept(kernel, i))
            assert all(u < params.degree and t < params.degree for u, t, _, _ in kernel.terms(i))
        # Delta(t^3) = Delta(t^2) Delta(t) holds f t^4 (x) t^2, which folds once: its integer term is read
        # whatever beta is, and its scalar is f * beta, kept at beta = T^-1 and 0 in H
        folded = DigitKernel(params, LaurentPoly.from_text("T^-1", 2), range(params.degree))
        assert kernel.terms(3) == folded.terms(3) and kernel.terms(3)[(0, 2, 1, 1)] == 1
        assert folded.image(3)[(0, 2)] == params.f * folded.beta
        assert kernel.scalar(2, 1, 1, 1).is_zero() and (0, 2) not in kernel.image(3)
        assert self.laurent(kernel.images[3], 3, params) == kernel.image(3) == delta_power(3, params)

    @pytest.mark.parametrize("p,n,r", AXIOM_RANGE)
    def test_products_of_generator_images_reduce_mod_p(self, p, n, r):
        # Delta(t)^2 and Delta(t)^3 as kept integer terms: walks that meet on one (t, m) add mod p
        # (at p = 2 the cross terms 2 t (x) t vanish), zeros are dropped, and each matches the
        # schoolbook product of the lower images
        params = hp(p, n, r, "T^-1 + T^2")
        kernel = self.kernel(params)
        gen, square, cube = (self.kept(kernel, i) for i in (1, 2, 3))
        d1 = delta_power(1, params)
        assert self.laurent(gen, 1, params) == d1
        d2 = self.laurent(square, 2, params)
        assert d2 == tensor_product(d1, d1, params.degree) == delta_power(2, params)
        assert self.laurent(cube, 3, params) == tensor_product(d2, d1, params.degree) == delta_power(3, params)

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


class TestReadWalk:
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
    def test_walk_keeps_only_read_terms(self, p, n, r, t_read):
        # each read t is walked on its own digits, so a kept image holds terms on read t only, each
        # coefficient in [1, p), and terms(i) is the image read at every t restricted to t_read
        params = hp(p, n, r, "T^3 + T^5")
        beta = LaurentPoly.from_text("T^-1 + T^2", p)
        full = DigitKernel(params, beta, range(params.degree))
        kernel = DigitKernel(params, beta, t_read)
        kept = 0
        for i in range(params.degree):
            terms = kernel.terms(i)
            assert terms == {key: c for key, c in full.terms(i).items() if key[1] in t_read}, i
            low = kernel.images[i % kernel.low]
            assert all(t in t_read and 0 < c < p for (t, _), c in low.items())
            kept += len(low)
        assert kept  # some read t is reached


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
    def test_no_two_terms_share_an_exponent_pair(self, p, n, r, f, beta):
        # f = beta^2 here, so c f^m beta^k and c' f^(m+1) beta^(k-2) would cancel if they met on one
        # (u, t); they never do: kept images are keyed by (t, m), and u + k p^n = i - t + (p^(r+1) - 1) m
        # with m p^r <= t < p^n fixes m on each (u, t).  So no image holds a zero coefficient.
        params = hp(p, n, r, f)
        kernel = DigitKernel(params, LaurentPoly.from_text(beta, p), range(params.degree))
        for i in range(params.degree):
            terms = kernel.terms(i)
            assert len({(u, t) for u, t, _, _ in terms}) == len(terms)
            assert all(m * p**r <= t and 0 < c < p for (_, t, m, _), c in terms.items())
            image = kernel.image(i)
            assert all(not c.is_zero() for c in image.values())
            assert image == image_by_expansion(i, params, kernel.beta)
        assert all(0 < c < p for kept in kernel.images.values() for c in kept.values())

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


    @pytest.mark.parametrize(
        "p,samples", [(7, (6, 27, 41, 45, 48)), (11, (6, 28, 50, 60, 72))]
    )
    @pytest.mark.parametrize("beta", ["0", "T^-1 + 2*T^2"])
    def test_matches_the_lucas_expansion_at_large_digits(self, p, samples, beta):
        # (p, 2, 1) at digits up to p - 1 (up to 6 at p = 11, where the expansion oracle slows),
        # each image read at every t
        params = hp(p, 2, 1, "2*T^-1 + T^3")
        beta = LaurentPoly.from_text(beta, p)
        kernel = DigitKernel(params, beta, range(params.degree))
        for i in samples:
            assert kernel.image(i) == image_by_expansion(i, params, beta), i


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
    # largest read t; a shifted exponent at or above p^n folds once, and at beta = 0 its scalar
    # c * f^m * beta^k is 0, which image(i) drops
    @staticmethod
    def laurent(terms, params, beta):
        """The {(u, t): nonzero coefficient} map of integer kernel terms, each c * f^m * beta^k formed here."""
        assert len({(u, t) for u, t, _, _ in terms}) == len(terms)
        scalars = {(u, t): params.f**m * beta**k * c for (u, t, m, k), c in terms.items()}
        return {key: c for key, c in scalars.items() if not c.is_zero()}

    @pytest.mark.parametrize("beta_text", SHIFT_BETAS)
    def test_terms_match_the_expansion_on_the_read_set(self, beta_text):
        over_pn = 0  # shifted low-image terms reaching p^n: they fold, to 0 at beta = 0
        for p, n, r, f in SHIFT_CASES:
            params, beta = hp(p, n, r, f), LaurentPoly.from_text(beta_text, p)
            full = [image_by_expansion(i, params, beta) for i in range(params.degree)]
            for t_read in _low_read_sets(p, n):
                kernel = DigitKernel(params, beta, t_read)
                low = next((p**s for s in range(n) if p**s > max(t_read)), p**n)
                for i in range(params.degree):
                    expected = {(u, t): c for (u, t), c in full[i].items() if t in t_read}
                    image = kernel.image(i)
                    assert self.laurent(kernel.terms(i), params, beta) == image == expected, (p, n, t_read, i)
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


class TestReadWeights:
    @pytest.mark.parametrize("p,n,r,f", SHIFT_CASES, ids=["p2", "p3", "p5"])
    @pytest.mark.parametrize("beta", ["0", "T^-1 + T^2"])
    def test_a_plain_read_set_reads_as_the_map_weighing_it_by_one(self, p, n, r, f, beta):
        # the kernel weighs a plain read set by 1 at construction, so it holds one kind of read set;
        # a weight w_t scales every scalar on t^t, so weighing each t by T^-1 scales the image
        params, beta = hp(p, n, r, f), LaurentPoly.from_text(beta, p)
        one, w = LaurentPoly.one(p), LaurentPoly.monomial(p, -1)
        for t_read in (range(params.degree), (1, p, params.degree - 1)):
            plain, weighted = DigitKernel(params, beta, t_read), DigitKernel(params, beta, dict.fromkeys(t_read, one))
            scaled = DigitKernel(params, beta, dict.fromkeys(t_read, w))
            for i in range(params.degree):
                assert plain.terms(i) == weighted.terms(i) == scaled.terms(i), (t_read, i)
                image = plain.image(i)
                assert image == weighted.image(i), (t_read, i)
                assert scaled.image(i) == {key: w * c for key, c in image.items()}, (t_read, i)


class TestTwistWeights:
    def test_closed_form_matches_the_factorial_definition_below_100(self):
        # the kernel takes w_l = (-1)^l / l mod p (Wilson); the twist defines w_l = 1/(l!(p-l)!)
        for p in (q for q in range(2, 100) if all(q % d for d in range(2, q))):
            kernel = DigitKernel(hp(p, 2, 1), LaurentPoly.zero(p), range(p**2))  # W reaches p - 1
            want = sorted((p - ell, pow(math.factorial(ell) * math.factorial(p - ell), -1, p)) for ell in range(1, p))
            assert kernel._twist_power(1) == want, p


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
