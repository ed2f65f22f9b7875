import hashlib
import math
import random

import pytest

from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HElement,
    HopfParams,
    LaurentPoly,
    LElement,
    act,
    act_fast,
    dual_mult,
    l_mul,
    l_valuation,
    lambda_element,
    lelement_to_text,
    monomial_images,
    padic_digits,
    scaffold_context,
    tolerance,
    verify_scaffold,
    z_monomial,
)
from hopfscaffold.hopf_dual import trie_step

from oracles import acceptance_tuples, coaction_by_expansion, dense, rand_laurent, rand_lelement, standard_pair


def _certificate_rung(p, n, r, b, v):
    # the perfbench certificate rungs: beta = T^-b, f = T^v
    return ExtensionParams.monogenic(p, n, b), HopfParams(p, n, r, LaurentPoly.monomial(p, v))


CERTIFICATE_RUNGS = {
    "R16": _certificate_rung(2, 4, 2, 1, 3),
    "R27": _certificate_rung(3, 3, 2, 2, 4),
    "R32": _certificate_rung(2, 5, 3, 3, 4),
}


# (p, n, r, b, f, beta) with v_K(beta) = -b: multi-term f and beta, and single terms with coefficient 3 and 2
GENERAL_F_BETA = [(3, 3, 2, 1, "T^4 + 2*T^6", "T^-1 + T^2"), (5, 2, 1, 1, "3*T^2", "2*T^-1")]


def general_pair(p, n, r, b, f, beta):
    ext = ExtensionParams(p, n, b, LaurentPoly.from_text(beta, p))
    return ext, HopfParams(p, n, r, LaurentPoly.from_text(f, p))


def coaction(y, ext, hopf):
    """The coaction image of y as its t-components: z_k pairs with t^k as the Kronecker delta."""
    return [act(DualElement.z_basis(k, hopf), y, ext, hopf) for k in range(ext.degree)]


@pytest.fixture
def pair221():
    ext = ExtensionParams.monogenic(2, 2, 1)
    return ext, HopfParams(2, 2, 1, LaurentPoly.monomial(2, 4))


class TestCoaction:
    def test_fixes_scalars(self, pair221):
        ext, hopf = pair221
        image = coaction(LElement.one(ext), ext, hopf)
        assert image[0] == LElement.one(ext)
        assert all(c.is_zero() for c in image[1:])

    def test_generator_components(self, pair221):
        ext, hopf = pair221
        image = coaction(LElement.x_power(1, ext), ext, hopf)
        assert image[0] == LElement.x_power(1, ext)
        assert image[1] == LElement.one(ext)
        assert image[2] == LElement.x_power(2, ext, hopf.f)
        assert image[3].is_zero()

    def test_generator_components_p3(self):
        ext = ExtensionParams.monogenic(3, 2, 1)
        hopf = HopfParams(3, 2, 1, LaurentPoly.monomial(3, 3))
        image = coaction(LElement.x_power(1, ext), ext, hopf)
        # twist components are f/(l!(p-l)!) x^{3l} at t^{3(p-l)}, 1/2 = 2 in F_3
        assert image[3] == LElement.x_power(6, ext, hopf.f * 2)
        assert image[6] == LElement.x_power(3, ext, hopf.f * 2)

    def test_square_of_generator_frozen(self, pair221):
        # char 2 squaring: components x^2 at t^0 and 1 at t^2 (the tensor
        # twist of the square dies under t^4 = 0)
        ext, hopf = pair221
        image = coaction(l_mul(LElement.x_power(1, ext), LElement.x_power(1, ext), ext), ext, hopf)
        assert image[0] == LElement.x_power(2, ext)
        assert image[1].is_zero()
        assert image[2] == LElement.one(ext)
        assert image[3].is_zero()

    # (2,4,2,1) and (2,5,3,3) keep twist terms of the image of x^{p^s} for
    # s = 1 (r + 1 < n), so they reach the Frobenius-scaled coefficients
    @pytest.mark.parametrize(
        "p,n,r,b", [(2, 2, 1, 1), (3, 2, 1, 2), (2, 3, 2, 3), (2, 4, 2, 1), (2, 5, 3, 3), (3, 3, 2, 2)]
    )
    def test_matches_expansion_oracle(self, p, n, r, b):
        ext, hopf = standard_pair(p, n, r, b)
        for i in range(ext.degree):
            expected = coaction_by_expansion(i, ext, hopf)
            got = coaction(LElement.x_power(i, ext), ext, hopf)
            assert got == expected

    def test_is_algebra_map(self):
        rng = random.Random(53)
        ext, hopf = standard_pair(2, 2, 1, 1)
        pn = ext.degree
        for _ in range(8):
            y, z = rand_lelement(rng, ext), rand_lelement(rng, ext)
            left = coaction(l_mul(y, z, ext), ext, hopf)
            ay, az = coaction(y, ext, hopf), coaction(z, ext, hopf)
            for k in range(pn):
                total = LElement.zero(ext)
                for k1 in range(k + 1):
                    total = total + l_mul(ay[k1], az[k - k1], ext)
                assert left[k] == total

    @pytest.mark.parametrize("p,n,r,b", [(2, 4, 2, 1), (2, 5, 3, 3), (3, 4, 2, 1)])
    def test_frobenius_twist_terms_present(self, p, n, r, b):
        # x^p (x) 1 + 1 (x) t^p + twist terms at t^{p^{r+1}(p-l)} with f^p
        ext, hopf = standard_pair(p, n, r, b)
        image = coaction(LElement.x_power(p, ext), ext, hopf)
        assert image == coaction_by_expansion(p, ext, hopf)
        q = p ** (r + 1)
        for ell in range(1, p):
            twist = image[q * (p - ell)]
            assert dense(twist)[q * ell].valuation() == p * hopf.f.valuation()

    @pytest.mark.parametrize("p,n,r,b", [(2, 4, 2, 1), (2, 5, 3, 3), (3, 3, 2, 2)])
    def test_act_matches_expansion_oracle(self, p, n, r, b):
        self.check_act_against_expansion(*standard_pair(p, n, r, b))

    @pytest.mark.parametrize("p,n,r,b,f,beta", GENERAL_F_BETA)
    def test_act_matches_expansion_oracle_for_general_f_and_beta(self, p, n, r, b, f, beta):
        # f and beta with several terms, or one term whose coefficient is not 1
        self.check_act_against_expansion(*general_pair(p, n, r, b, f, beta))

    def test_act_stream_is_pinned(self):
        # SHA-256 of 240 seeded act(z, y) outputs, 120 per GENERAL_F_BETA case, z with 1-3 and y with
        # 1-4 terms carrying random Laurent coefficients; recorded when every act call built all n
        # generator rows of its digit kernel and raised f and beta by repeated squaring
        digest = hashlib.sha256()
        for case in GENERAL_F_BETA:
            ext, hopf = general_pair(*case)
            rng = random.Random(f"act-stream:{case}")
            for _ in range(120):
                z = DualElement.zero(hopf)
                for k in rng.sample(range(ext.degree), rng.randint(1, 3)):
                    z = z + DualElement.z_basis(k, hopf, rand_laurent(rng, ext.p, -2, 3, 2))
                y = LElement.zero(ext)
                for i in rng.sample(range(ext.degree), rng.randint(1, 4)):
                    y = y + LElement.x_power(i, ext, rand_laurent(rng, ext.p, -2, 3, 2))
                digest.update(f"{case} {lelement_to_text(act(z, y, ext, hopf))}\n".encode())
        assert digest.hexdigest() == "efeb37431740ff5c5e8e2d9d5b67b2ca258563f2addf39b9e7052932eb889072"

    @staticmethod
    def check_act_against_expansion(ext, hopf):
        # act(z, y) = sum_k z_k sum_i y_i [t^k] coaction(x^i)
        rng = random.Random(73)
        p, pn = ext.p, ext.degree
        oracle = {}
        for _ in range(6):
            z = DualElement.zero(hopf)
            for k in rng.sample(range(pn), 3):
                z = z + DualElement.z_basis(k, hopf, rand_laurent(rng, p))
            y = LElement.zero(ext)
            for i in rng.sample(range(pn), 3):
                y = y + LElement.x_power(i, ext, rand_laurent(rng, p))
            expected = LElement.zero(ext)
            for k, zk in z.nonzero_items():
                for i, yi in y.nonzero_items():
                    if i not in oracle:
                        oracle[i] = coaction_by_expansion(i, ext, hopf)
                    expected = expected + oracle[i][k].scale(zk * yi)
            assert act(z, y, ext, hopf) == expected

    def test_rejects_foreign_field_element(self):
        ext, hopf = standard_pair(2, 4, 2, 1)
        z = DualElement.z_basis(1, hopf)
        too_long = LElement.x_power(20, ExtensionParams.monogenic(2, 5, 1))
        too_short = LElement.x_power(3, ExtensionParams.monogenic(2, 3, 1))
        wrong_prime = LElement([LaurentPoly.one(3)] * 16)
        wrong_space = HElement.t_power(3, hopf)  # p and degree of ext, but an element of H
        for y in (too_long, too_short, wrong_prime, wrong_space):
            with pytest.raises(ValueError):
                act(z, y, ext, hopf)
            with pytest.raises(ValueError):
                coaction(y, ext, hopf)
        with pytest.raises(ValueError, match="dual element does not belong to the dual algebra"):
            act(wrong_space, LElement.one(ext), ext, hopf)


class TestAct:
    def test_z1_on_cube(self, pair221):
        ext, hopf = pair221
        got = act(DualElement.z_basis(1, hopf), LElement.x_power(3, ext), ext, hopf)
        assert got == LElement.x_power(2, ext)
        assert l_valuation(got, ext) == -2

    def test_z2_on_cube_frozen(self, pair221):
        # closed form: digit * x + (-3) f x^4 = x + f*beta = x + T^3
        ext, hopf = pair221
        got = act(DualElement.z_basis(2, hopf), LElement.x_power(3, ext), ext, hopf)
        expected = LElement.x_power(1, ext) + LElement.scalar(LaurentPoly.monomial(2, 3), ext)
        assert got == expected

    def test_generators_kill_constants(self):
        for p, n, r, b in acceptance_tuples():
            ext, hopf = standard_pair(p, n, r, b)
            for s in range(n):
                z = DualElement.z_basis(p**s, hopf)
                assert act(z, LElement.one(ext), ext, hopf).is_zero()

    def test_large_p_twist_coefficients(self):
        # z_{p(p-l)} reads the twist term f x^{p l} (x) t^{p(p-l)} / (l!(p-l)!) of the coaction of x, r = 1
        p = 97
        ext, hopf = ExtensionParams.monogenic(p, 2, 1), HopfParams(p, 2, 1, LaurentPoly.monomial(p, 3))
        for ell in range(1, p):
            coeff = hopf.f * pow(math.factorial(ell) * math.factorial(p - ell), -1, p)
            got = act(DualElement.z_basis(p * (p - ell), hopf), LElement.x_power(1, ext), ext, hopf)
            assert got == LElement.x_power(p * ell, ext, coeff), ell

    def test_z0_acts_as_identity(self, pair221):
        rng = random.Random(59)
        ext, hopf = pair221
        for _ in range(10):
            y = rand_lelement(rng, ext)
            assert act(DualElement.z_basis(0, hopf), y, ext, hopf) == y

    def test_linearity_in_dual_argument(self, pair221):
        ext, hopf = pair221
        y = LElement.x_power(3, ext)
        z = DualElement.z_basis(1, hopf) + DualElement.z_basis(2, hopf, hopf.f)
        expected = act(DualElement.z_basis(1, hopf), y, ext, hopf) + act(
            DualElement.z_basis(2, hopf), y, ext, hopf
        ).scale(hopf.f)
        assert act(z, y, ext, hopf) == expected

    def test_composition_matches_dual_product(self):
        # (ab)y = a(by) for dense random a and b, at (3,2,1,1) and the certificate rungs
        rng = random.Random(61)
        for ext, hopf in [standard_pair(3, 2, 1, 1), *CERTIFICATE_RUNGS.values()]:
            p, pn = ext.p, ext.degree
            for _ in range(8):
                a, b = (
                    DualElement([LaurentPoly(p, [(rng.randint(-1, 3), rng.randint(0, p - 1))]) for _ in range(pn)])
                    for _ in range(2)
                )
                y = rand_lelement(rng, ext)
                assert act(dual_mult(a, b, hopf), y, ext, hopf) == act(a, act(b, y, ext, hopf), ext, hopf)

    @pytest.mark.parametrize("rung", sorted(CERTIFICATE_RUNGS))
    def test_composition_on_trie_pairs(self, rung):
        # the pairs monomial_images relies on: a = z_{p^s}, b = the digit-(j - p^s)
        # z-monomial, with a b = b a the digit-j monomial (built here by z_monomial)
        rng = random.Random(71)
        ext, hopf = CERTIFICATE_RUNGS[rung]
        p, n = ext.p, ext.n
        y = rand_lelement(rng, ext)
        for j in range(1, ext.degree):
            parent, s = trie_step(j, p)
            a = DualElement.z_basis(p**s, hopf)
            b = z_monomial(padic_digits(parent, p, n), hopf)
            ab = dual_mult(a, b, hopf)
            assert ab == dual_mult(b, a, hopf) == z_monomial(padic_digits(j, p, n), hopf)
            assert act(ab, y, ext, hopf) == act(a, act(b, y, ext, hopf), ext, hopf)

    @pytest.mark.parametrize("rung", ["R16", "R27"])
    def test_monomial_images_match_direct_action(self, rung):
        ext, hopf = CERTIFICATE_RUNGS[rung]
        rng = random.Random(73)
        ctx = scaffold_context(ext, hopf)
        for y in (lambda_element(ext.b, ctx), rand_lelement(rng, ext)):
            images = monomial_images(y, ext, hopf)
            assert len(images) == ext.degree
            for j, image in enumerate(images):
                assert image == act(z_monomial(padic_digits(j, ext.p, ext.n), hopf), y, ext, hopf)

    def test_each_kernel_term_costs_one_laurent_product(self, monkeypatch):
        # at R81 = (3, 4, 2, 1, 3) the walk reads 174 kernel terms, each one product of y's coefficient
        # with a scalar w_t * c formed once per (t, m, k, c) of its generator step: 17 scalars, 9 of
        # them twist or fold terms at two more products each (a t-table per x-monomial made 345)
        ext, hopf = _certificate_rung(3, 4, 2, 1, 3)
        rho = lambda_element(ext.b, scaffold_context(ext, hopf))
        real, calls = LaurentPoly.__mul__, []

        def counting(self, other):
            calls.append(None)
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        monomial_images(rho, ext, hopf)
        assert len(calls) == 174 + 17 + 2 * 9

    def test_measuring_property(self):
        # z_j(y y') = sum_{i <= j} z_{j-i}(y) z_i(y')
        rng = random.Random(67)
        for p in (2, 3):
            ext, hopf = standard_pair(p, 2, 1, 1)
            pn = ext.degree
            for _ in range(5):
                y, yp = rand_lelement(rng, ext), rand_lelement(rng, ext)
                prod = l_mul(y, yp, ext)
                for j in range(pn):
                    left = act(DualElement.z_basis(j, hopf), prod, ext, hopf)
                    right = LElement.zero(ext)
                    for i in range(j + 1):
                        right = right + l_mul(
                            act(DualElement.z_basis(j - i, hopf), y, ext, hopf),
                            act(DualElement.z_basis(i, hopf), yp, ext, hopf),
                            ext,
                        )
                    assert left == right


class TestActFast:
    def test_low_level_digit_shift(self):
        ext, hopf = standard_pair(2, 2, 1, 1)
        assert act_fast(0, 3, ext, hopf) == LElement.x_power(2, ext)

    def test_vanishes_below_generator_level(self):
        ext, hopf = standard_pair(2, 3, 2, 1)
        for s in range(hopf.r):
            for i in range(2**s):
                assert act_fast(s, i, ext, hopf).is_zero()

    def test_twist_level_small_exponent(self):
        # s = r, 0 < i < p^r: only the twist term survives
        ext, hopf = standard_pair(3, 2, 1, 1)
        p, r = 3, 1
        for i in range(1, p**r):
            expected = LElement.x_power(
                p**r * (p - 1) + i - 1, ext, hopf.f * ((-i) % p)
            )
            assert act_fast(r, i, ext, hopf) == expected

    def test_rejects_above_twist_level(self):
        ext, hopf = standard_pair(2, 3, 2, 1)
        with pytest.raises(ValueError):
            act_fast(hopf.r + 1, 1, ext, hopf)

    def test_agrees_with_generic_path_everywhere(self):
        for p, n, r, b in acceptance_tuples():
            ext, hopf = standard_pair(p, n, r, b)
            for s in range(r + 1):
                z = DualElement.z_basis(p**s, hopf)
                for i in range(ext.degree):
                    assert act_fast(s, i, ext, hopf) == act(
                        z, LElement.x_power(i, ext), ext, hopf
                    )


class TestValuationBehavior:
    def test_congruence_at_stated_tolerance(self):
        # act(z_{p^s}, x^i) differs from digit * x^{i - p^s} at depth >= F
        for p, n, r, b in [(2, 2, 1, 1), (3, 2, 1, 2), (2, 3, 2, 1), (3, 3, 2, 1)]:
            ext, hopf = standard_pair(p, n, r, b)
            tol = tolerance(ext, hopf)
            assert tol is not None
            for s in range(n):
                z = DualElement.z_basis(p**s, hopf)
                for i in range(1, ext.degree):
                    digit = padic_digits(i, p, n)[s]
                    image = act(z, LElement.x_power(i, ext), ext, hopf)
                    if digit and i >= p**s:
                        image = image - LElement.x_power(i - p**s, ext, digit)
                    base = -b * (i - p**s)
                    assert l_valuation(image, ext) >= base + tol

    def test_valuation_shift_inequality(self):
        rng = random.Random(71)
        ext, hopf = standard_pair(2, 3, 2, 1)
        for s in range(3):
            z = DualElement.z_basis(2**s, hopf)
            for _ in range(10):
                y = rand_lelement(rng, ext)
                if y.is_zero():
                    continue
                image = act(z, y, ext, hopf)
                if image.is_zero():
                    continue
                assert l_valuation(image, ext) >= l_valuation(y, ext) + ext.b * 2**s

    def test_valuation_equality_on_monomials(self):
        # Images of x^i land exactly b*p^s above when the digit i_s is
        # positive.  FINDING: with i_s = 0 and s >= r the image can still be
        # nonzero through the twist term alone, and then it sits strictly
        # deeper; the equality cannot be keyed on nonzero-ness alone
        # (witness p=2, n=2, r=1, b=3: z_2(x) = f*x^2 at depth 10, not 3).
        for p, n, r, b in [(2, 2, 1, 3), (3, 2, 1, 1), (2, 4, 2, 1)]:
            ext, hopf = standard_pair(p, n, r, b)
            for s in range(n):
                z = DualElement.z_basis(p**s, hopf)
                for i in range(1, ext.degree):
                    image = act(z, LElement.x_power(i, ext), ext, hopf)
                    expected = -b * i + b * p**s
                    if padic_digits(i, p, n)[s] > 0:
                        assert l_valuation(image, ext) == expected
                    elif not image.is_zero():
                        assert l_valuation(image, ext) > expected

    def test_twist_only_image_breaks_naive_equality(self):
        # frozen witness for the finding above
        ext, hopf = standard_pair(2, 2, 1, 3)
        image = act(DualElement.z_basis(2, hopf), LElement.x_power(1, ext), ext, hopf)
        assert image == LElement.x_power(2, ext, hopf.f)
        assert l_valuation(image, ext) == 10

    def test_iterated_monomial_valuations(self):
        # composite applications add b * sum j_s p^s along surviving digit
        # chains (digitwise j <= i); otherwise the image is zero or deeper
        ext, hopf = standard_pair(2, 2, 1, 1)
        for j in range(4):
            digits = padic_digits(j, 2, 2)
            for i in range(1, 4):
                image = act(z_monomial(digits, hopf), LElement.x_power(i, ext), ext, hopf)
                expected = -ext.b * i + ext.b * j
                if all(js <= is_ for js, is_ in zip(digits, padic_digits(i, 2, 2))):
                    assert l_valuation(image, ext) == expected
                elif not image.is_zero():
                    assert l_valuation(image, ext) > expected


def test_degree_81_pinned():
    # p^n = 81: every scaffold congruence holds at the stated tolerance, and
    # the generic action agrees with the closed form on all x-monomials
    ext, hopf = standard_pair(3, 4, 2, 1)
    report = verify_scaffold(scaffold_context(ext, hopf))
    assert report.status == "ok"
    assert len(report.checks) == 4 * 81
    assert report.all_passed
    for s in range(hopf.r + 1):
        z = DualElement.z_basis(3**s, hopf)
        for i in range(81):
            assert act(z, LElement.x_power(i, ext), ext, hopf) == act_fast(s, i, ext, hopf)


def test_parameter_compatibility_enforced():
    ext = ExtensionParams.monogenic(2, 2, 1)
    hopf = HopfParams(2, 3, 2, LaurentPoly.monomial(2, 4))
    with pytest.raises(ValueError):
        act(DualElement.z_basis(1, hopf), LElement.one(ext), ext, hopf)
