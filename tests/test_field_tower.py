import random

import pytest

from hopfscaffold import (
    INF,
    DualElement,
    ExtensionParams,
    HElement,
    HopfParams,
    LaurentPoly,
    LElement,
    ideal_membership,
    l_mul,
    l_valuation,
    lelement_from_text,
    lelement_to_text,
)

from oracles import dense, rand_lelement, schoolbook_l_mul


@pytest.fixture
def ext221():
    return ExtensionParams.monogenic(2, 2, 1)


class TestParams:
    def test_rejects_b_divisible_by_p(self):
        with pytest.raises(ValueError):
            ExtensionParams.monogenic(2, 2, 2)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            ExtensionParams.monogenic(2, 2, 0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ExtensionParams.monogenic(3, 1, 1)

    def test_rejects_beta_with_wrong_valuation(self):
        with pytest.raises(ValueError):
            ExtensionParams(2, 2, 1, LaurentPoly.monomial(2, -2))

    def test_accepts_nonmonomial_beta(self):
        beta = LaurentPoly.from_text("T^-3 + 1 + T", 2)
        assert ExtensionParams(2, 2, 3, beta).beta == beta


class TestMul:
    def test_single_reduction_step(self, ext221):
        top = LElement.x_power(ext221.degree - 1, ext221)
        x = LElement.x_power(1, ext221)
        assert l_mul(top, x, ext221) == LElement.scalar(ext221.beta, ext221)

    def test_identity(self, ext221):
        rng = random.Random(5)
        y = rand_lelement(rng, ext221)
        assert l_mul(LElement.one(ext221), y, ext221) == y

    def test_cube_times_cube(self, ext221):
        # x^3 * x^3 = x^6 = beta * x^2 with beta = T^-1
        got = l_mul(LElement.x_power(3, ext221), LElement.x_power(3, ext221), ext221)
        assert got == LElement.x_power(2, ext221, LaurentPoly.monomial(2, -1))

    def test_rejects_an_element_of_another_extension(self):
        # the fold at degree 16 once took x^7 of the degree-8 extension as its own x^7,
        # and t^7 of the Hopf algebra of degree 16 as x^7
        ext16, ext8 = ExtensionParams.monogenic(2, 4, 1), ExtensionParams.monogenic(2, 3, 1)
        a, b = LElement.x_power(3, ext16), LElement.x_power(7, ext8)
        t = HElement.t_power(7, HopfParams(2, 4, 2, LaurentPoly.monomial(2, 3)))
        for left, right in ((a, b), (b, a), (b, b), (a, t), (t, a)):
            with pytest.raises(ValueError, match="field element does not belong to the extension"):
                l_mul(left, right, ext16)

    def test_matches_schoolbook_oracle(self):
        rng = random.Random(23)
        for p, n, b in ((2, 2, 1), (3, 2, 2), (2, 3, 3)):
            ext = ExtensionParams.monogenic(p, n, b)
            for _ in range(10):
                a, c = rand_lelement(rng, ext), rand_lelement(rng, ext)
                assert l_mul(a, c, ext) == schoolbook_l_mul(a, c, ext)

    def test_commutative_and_associative(self):
        rng = random.Random(29)
        ext = ExtensionParams.monogenic(3, 2, 1)
        for _ in range(10):
            a, b, c = (rand_lelement(rng, ext) for _ in range(3))
            assert l_mul(a, b, ext) == l_mul(b, a, ext)
            assert l_mul(l_mul(a, b, ext), c, ext) == l_mul(a, l_mul(b, c, ext), ext)


class TestValuation:
    def test_generator(self, ext221):
        assert l_valuation(LElement.x_power(1, ext221), ext221) == -1

    def test_top_scaffold_element(self):
        for p, n, b in ((2, 2, 1), (3, 2, 2), (2, 3, 3)):
            ext = ExtensionParams.monogenic(p, n, b)
            y = LElement.x_power(ext.degree - 1, ext, LaurentPoly.monomial(p, b))
            assert l_valuation(y, ext) == b

    def test_mixed_terms_take_minimum(self, ext221):
        # x + T*x^2 has valuation -(p-1)*b = -1; the T*x^2 term sits higher
        y = LElement.x_power(1, ext221) + LElement.x_power(2, ext221, LaurentPoly.monomial(2, 1))
        assert l_valuation(y, ext221) == -1

    def test_zero(self, ext221):
        assert l_valuation(LElement.zero(ext221), ext221) == INF

    def test_restriction_to_k_is_scaled(self):
        rng = random.Random(31)
        ext = ExtensionParams.monogenic(3, 2, 1)
        for _ in range(20):
            c = LaurentPoly(3, [(rng.randint(-4, 4), rng.randint(1, 2))])
            assert l_valuation(LElement.scalar(c, ext), ext) == ext.degree * c.valuation()

    def test_multiplicative(self):
        rng = random.Random(37)
        for p, n, b in ((2, 2, 1), (3, 2, 2), (2, 3, 1)):
            ext = ExtensionParams.monogenic(p, n, b)
            for _ in range(15):
                a, c = rand_lelement(rng, ext), rand_lelement(rng, ext)
                if a.is_zero() or c.is_zero():
                    continue
                assert l_valuation(l_mul(a, c, ext), ext) == l_valuation(a, ext) + l_valuation(c, ext)

    def test_candidates_form_residue_system(self):
        # -b*i mod p^n over i < p^n hits every residue, so no two x-monomial
        # lines share a valuation class and the minimum is uniquely attained
        for p, n, b in ((2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 3)):
            ext = ExtensionParams.monogenic(p, n, b)
            residues = {(-b * i) % ext.degree for i in range(ext.degree)}
            assert residues == set(range(ext.degree))


class TestIdealMembership:
    def test_boundary(self, ext221):
        x = LElement.x_power(1, ext221)
        assert ideal_membership(x, -1, ext221)
        assert not ideal_membership(x, 0, ext221)

    def test_zero_in_every_ideal(self, ext221):
        for h in (-5, 0, 7):
            assert ideal_membership(LElement.zero(ext221), h, ext221)

    def test_rejects_an_element_of_another_extension(self, ext221):
        # (T)*x^7 lives in the degree-8 extension; read against degree 4 it has no
        # valuation, and neither has t of the Hopf algebra of degree 4
        y = lelement_from_text("(T)*x^7", ExtensionParams.monogenic(2, 3, 1))
        t = HElement.t_power(1, HopfParams(2, 2, 1, LaurentPoly.monomial(2, 4)))
        for v in (y, t):
            for check in (lambda: l_valuation(v, ext221), lambda: ideal_membership(v, 0, ext221)):
                with pytest.raises(ValueError, match="does not belong to the extension"):
                    check()

    def test_period_is_multiplication_by_t(self):
        rng = random.Random(41)
        ext = ExtensionParams.monogenic(3, 2, 1)
        t_scalar = LaurentPoly.monomial(3, 1)
        for _ in range(20):
            y = rand_lelement(rng, ext)
            h = rng.randint(-6, 6)
            assert ideal_membership(y, h, ext) == ideal_membership(
                y.scale(t_scalar), h + ext.degree, ext
            )


class TestTextFormat:
    def test_parses_bare_monomial(self, ext221):
        assert lelement_from_text("x^3", ext221) == LElement.x_power(3, ext221)
        assert lelement_from_text("x", ext221) == LElement.x_power(1, ext221)
        assert lelement_from_text("1", ext221) == LElement.one(ext221)

    def test_parses_coefficient_terms(self, ext221):
        y = lelement_from_text("(T^-1 + T^2)*x^2 + x", ext221)
        expected = LElement.x_power(2, ext221, LaurentPoly.from_text("T^-1 + T^2", 2)) + LElement.x_power(1, ext221)
        assert y == expected

    def test_parses_bare_laurent_as_constant(self, ext221):
        assert lelement_from_text("T^3", ext221) == LElement.scalar(LaurentPoly.monomial(2, 3), ext221)

    def test_zero(self, ext221):
        assert lelement_from_text("0", ext221).is_zero()
        assert lelement_to_text(LElement.zero(ext221)) == "0"

    def test_roundtrip_randomized(self):
        rng = random.Random(43)
        for p, n, b in ((2, 2, 1), (3, 2, 1)):
            ext = ExtensionParams.monogenic(p, n, b)
            for _ in range(25):
                y = rand_lelement(rng, ext)
                assert lelement_from_text(lelement_to_text(y), ext) == y

    def test_rejects_out_of_range_exponent(self, ext221):
        with pytest.raises(ValueError):
            lelement_from_text("x^4", ext221)

    def test_rejects_non_ascii_digits(self, ext221):
        # read as x^3 and as the coefficient 2 if Unicode digits were accepted
        for text in ("x^٣", "(T)*x^٣", "x^²", "(²)*x", "(T^٢)*x"):
            with pytest.raises(ValueError, match="malformed"):
                lelement_from_text(text, ext221)

    def test_rejects_garbage(self, ext221):
        # an empty parenthesized coefficient is malformed, not zero
        for text in ("x^^2", "()*x", "()", "(T)*x + ()", "()*x^2 + x"):
            with pytest.raises(ValueError):
                lelement_from_text(text, ext221)


class TestCoeffVectorDiscipline:
    """The element types share one coefficient-vector core but never mix."""

    @pytest.fixture
    def same_coeffs(self):
        rng = random.Random(53)
        coeffs = [LaurentPoly(3, [(rng.randint(-2, 2), rng.randint(1, 2))]) for _ in range(9)]
        return [LElement(coeffs), HElement(coeffs), DualElement(coeffs)]

    def test_equal_coefficients_in_different_spaces_differ(self, same_coeffs):
        for a in same_coeffs:
            for b in same_coeffs:
                assert (a == b) == (type(a) is type(b))

    def test_cross_space_addition_raises(self, same_coeffs):
        for a in same_coeffs:
            for b in same_coeffs:
                if type(a) is not type(b):
                    with pytest.raises(TypeError):
                        a + b
                    with pytest.raises(TypeError):
                        a - b

    def test_equal_elements_hash_equal(self, same_coeffs):
        for a in same_coeffs:
            twin = type(a)(dense(a))
            assert twin == a and hash(twin) == hash(a)
            assert twin + a == a.scale(2)

    def test_equal_laurent_polys_hash_equal(self):
        # the coefficients hash by value too, however each was built
        a, b = LaurentPoly(5, {-1: 2, 3: 1}), LaurentPoly.from_text("4*T^2 + 1", 5)
        twins = [
            a,
            LaurentPoly(5, [(3, 1), (-1, 7), (0, 5)]),
            LaurentPoly.monomial(5, -1, 2) + LaurentPoly.monomial(5, 3),
            LaurentPoly.from_text("2*T^-1 + T^3", 5),
            a + b - b,
            a * 1,
            a * LaurentPoly.one(5),
        ]
        for twin in twins:
            assert twin == a and hash(twin) == hash(a)
        assert len(set(twins)) == 1
        assert len({LaurentPoly.zero(5), a - a, b * 5, LaurentPoly(5, {2: 5})}) == 1

    def test_immutable_without_instance_dict(self, same_coeffs):
        for y in same_coeffs:
            assert not hasattr(y, "__dict__")
            with pytest.raises(AttributeError):
                y.degree = 0
            with pytest.raises(AttributeError):
                y.extra = 1

    def test_basis_constructors_reject_a_coefficient_of_another_prime(self):
        ext = ExtensionParams.monogenic(3, 2, 1)
        hopf = HopfParams(3, 2, 1, LaurentPoly.monomial(3, 3))
        for coeff in (LaurentPoly.one(2), LaurentPoly.zero(2)):
            calls = [
                lambda: LElement.x_power(1, ext, coeff),
                lambda: LElement.scalar(coeff, ext),
                lambda: HElement.t_power(1, hopf, coeff),
                lambda: DualElement.z_basis(1, hopf, coeff),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="mixed moduli"):
                    call()

    def test_dense_parsed_and_computed_forms_are_one_value(self):
        ext = ExtensionParams.monogenic(3, 2, 1)
        zero, t2, t_inv = LaurentPoly.zero(3), LaurentPoly.monomial(3, 2), LaurentPoly.monomial(3, -1, 2)
        expected = LElement([zero, t2, zero, zero, zero, t_inv, zero, zero, zero])
        parsed = lelement_from_text("(T^2)*x + (0)*x^3 + (2*T^-1)*x^5 + (0)", ext)
        computed = (
            LElement.x_power(5, ext, LaurentPoly.monomial(3, -1)).scale(2)
            + LElement.x_power(3, ext, t2)
            + LElement.x_power(1, ext, t2)
            - LElement.x_power(3, ext, t2)
        )
        for y in (parsed, computed):
            assert y == expected and hash(y) == hash(expected)
            assert list(y.nonzero_items()) == [(1, t2), (5, t_inv)]

    def test_negation_cancels_to_zero(self):
        rng = random.Random(59)
        ext = ExtensionParams.monogenic(3, 2, 1)
        for _ in range(10):
            y = rand_lelement(rng, ext)
            for total in (y + (-y), y - y, y.scale(3)):
                assert total.is_zero() and total == LElement.zero(ext)
                assert list(total.nonzero_items()) == []
                assert hash(total) == hash(LElement.zero(ext))

    def test_nonzero_items_ascend_after_a_beta_fold(self):
        # x^8 * x^3 folds to beta * x^2, which is formed after x^8 * x^0
        ext = ExtensionParams.monogenic(3, 2, 1)
        a = lelement_from_text("x^8 + x", ext)
        b = lelement_from_text("x^3 + 1", ext)
        y = l_mul(a, b, ext)
        assert [k for k, _ in y.nonzero_items()] == [1, 2, 4, 8]
        assert lelement_to_text(y) == "x + (T^-1)*x^2 + x^4 + x^8"

    def test_zero_vectors_of_different_degree_differ(self):
        small, large = ExtensionParams.monogenic(2, 2, 1), ExtensionParams.monogenic(2, 3, 1)
        assert LElement.zero(small) != LElement.zero(large)
        assert LElement.one(small) != LElement.one(large)
        assert DualElement([LaurentPoly.zero(3)] * 9) != DualElement([LaurentPoly.zero(3)] * 27)
