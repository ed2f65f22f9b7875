import hashlib
import json
import random

import pytest

from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HopfParams,
    INF,
    LaurentPoly,
    LElement,
    ScaffoldContext,
    act,
    act_fast,
    dual_basis_rank,
    l_mul,
    l_valuation,
    integer_certificate_check,
    lambda_element,
    lelement_from_text,
    min_f_valuation_for,
    monomial_images,
    padic_digits,
    res_mod,
    scaffold_context,
    solve_a,
    tolerance,
    verify_scaffold,
    z_monomial,
)
from hopfscaffold.hopf_primal import DigitKernel
from hopfscaffold.scaffold import STATUS_NO_SCAFFOLD, STATUS_OK

from oracles import acceptance_tuples, scaffold_margins, standard_pair, verify_by_elements


def ctx_for(p, n, r, b, f_val):
    ext = ExtensionParams.monogenic(p, n, b)
    hopf = HopfParams(p, n, r, LaurentPoly.monomial(p, f_val))
    return scaffold_context(ext, hopf)


class TestSolveA:
    def test_b_one(self):
        assert solve_a(1, 4) == 3

    def test_b_three(self):
        assert solve_a(3, 4) == 1

    def test_mod_nine(self):
        assert solve_a(1, 9) == 8

    def test_exhaustive_small(self):
        for pn in (4, 8, 9, 27):
            for b in range(1, pn):
                if b % (2 if pn % 2 == 0 else 3) == 0:
                    continue
                a = solve_a(b, pn)
                assert 0 <= a < pn and a * b % pn == pn - 1

    def test_rejects_share_factor(self):
        with pytest.raises(ValueError):
            solve_a(2, 4)


class TestLambda:
    def test_at_break_number(self):
        for p, n, r, b in acceptance_tuples():
            ctx = ctx_for(p, n, r, b, 6)
            expected = LElement.x_power(p**n - 1, ctx.ext, LaurentPoly.monomial(p, b))
            assert lambda_element(b, ctx) == expected

    def test_at_zero(self):
        ctx = ctx_for(2, 2, 1, 1, 4)
        assert lambda_element(0, ctx) == LElement.one(ctx.ext)

    def test_frozen_small_case(self):
        # j=2, b=1, p=2, n=2, a=3: res(6)=2, T-exponent (2+2)/4 = 1
        ctx = ctx_for(2, 2, 1, 1, 4)
        assert lambda_element(2, ctx) == LElement.x_power(2, ctx.ext, LaurentPoly.monomial(2, 1))

    def test_valuation_grading(self):
        for p, n, r, b in [(2, 2, 1, 1), (3, 2, 1, 2), (2, 3, 2, 3)]:
            ctx = ctx_for(p, n, r, b, 8)
            for j in range(-(p**n), 2 * p**n):
                assert l_valuation(lambda_element(j, ctx), ctx.ext) == j

    def test_exponent_integrality(self):
        # p^n divides j + b*res(aj) over a full residue system
        for p, n, r, b in acceptance_tuples():
            ctx = ctx_for(p, n, r, b, 6)
            pn = p**n
            for j in range(pn):
                assert (j + b * res_mod(ctx.a * j, pn)) % pn == 0

    def test_k_proportional_within_residue_class(self):
        # lambda_{j + p^n} = T * lambda_j, multiplicatively verified
        ctx = ctx_for(3, 2, 1, 2, 8)
        ext = ctx.ext
        for j in range(-5, 14):
            lhs = lambda_element(j + ext.degree, ctx)
            rhs = l_mul(
                LElement.scalar(LaurentPoly.monomial(3, 1), ext), lambda_element(j, ctx), ext
            )
            assert lhs == rhs

    def test_digit_descent(self):
        # res(a(j + b p^s)) = res(aj) - p^s whenever digit s of res(aj) is positive
        for p, n, r, b in acceptance_tuples():
            ctx = ctx_for(p, n, r, b, 6)
            pn = p**n
            for j in range(pn):
                res = res_mod(ctx.a * j, pn)
                for s in range(n):
                    if padic_digits(res, p, n)[s] > 0:
                        assert res_mod(ctx.a * (j + b * p**s), pn) == res - p**s

    def test_scaffold_digit_pattern_at_break(self):
        # The i-th application of the s-th generator starting from the break
        # element is legal: the digit seen beforehand is p - i > 0.  (Stated
        # loosely elsewhere as res(a(b + p^s b i))_s = p - i; the direct
        # digit of the i-th iterate is p - 1 - i, one application later.)
        for p, n, r, b in acceptance_tuples():
            ctx = ctx_for(p, n, r, b, 6)
            pn = p**n
            for s in range(n):
                for i in range(1, p):
                    before = res_mod(ctx.a * (b + p**s * b * (i - 1)), pn)
                    assert padic_digits(before, p, n)[s] == p - i
                    after = res_mod(ctx.a * (b + p**s * b * i), pn)
                    assert padic_digits(after, p, n)[s] == p - 1 - i


class TestTolerance:
    def test_frozen_values(self):
        # p^n * v_K(f) - b * (p^{r+1} - 1)
        ext2 = ExtensionParams.monogenic(2, 2, 1)
        assert tolerance(ext2, HopfParams(2, 2, 1, LaurentPoly.monomial(2, 4))) == 13
        ext3 = ExtensionParams.monogenic(3, 2, 1)
        assert tolerance(ext3, HopfParams(3, 2, 1, LaurentPoly.monomial(3, 3))) == 19

    def test_boundary_gives_b(self):
        # v_K(f) = b * p^{r+1-n} exactly (possible when r + 1 = n)
        ext = ExtensionParams.monogenic(2, 2, 3)
        assert tolerance(ext, HopfParams(2, 2, 1, LaurentPoly.monomial(2, 3))) == 3

    def test_below_hypothesis_is_none(self):
        ext = ExtensionParams.monogenic(2, 2, 3)
        assert tolerance(ext, HopfParams(2, 2, 1, LaurentPoly.monomial(2, 2))) is None

    def test_nonmonomial_f_uses_valuation(self):
        ext = ExtensionParams.monogenic(2, 2, 1)
        f = LaurentPoly.from_text("T^4 + T^9", 2)
        assert tolerance(ext, HopfParams(2, 2, 1, f)) == 13

    def test_mismatched_n_rejected_by_every_entry_point(self):
        # every entry point that takes both parameter sets rejects a mismatch
        ext = ExtensionParams.monogenic(2, 2, 1)
        hopf = HopfParams(2, 3, 2, LaurentPoly.monomial(2, 4))
        # hand-built contexts skip scaffold_context's check; the second differs in p only
        hand_built = ScaffoldContext(ext, hopf, 5)
        other_p = ScaffoldContext(ExtensionParams.monogenic(3, 3, 1), hopf, 5)
        calls = [
            lambda: scaffold_context(ext, hopf),
            lambda: tolerance(ext, hopf),
            lambda: act(DualElement.z_basis(1, hopf), LElement.one(ext), ext, hopf),
            lambda: act_fast(0, 1, ext, hopf),
            lambda: verify_scaffold(hand_built),
            lambda: verify_scaffold(other_p),
            lambda: integer_certificate_check(lambda_element(1, hand_built), hand_built),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must share p and n"):
                call()

    def test_refusals_fire_at_every_tolerance(self):
        # the refusal comes before the tolerance is read, so it fires where no scaffold is guaranteed
        ext = ExtensionParams.monogenic(2, 2, 1)
        hopf = HopfParams(2, 2, 1, LaurentPoly.monomial(2, 4))
        mismatched = ScaffoldContext(ext, HopfParams(2, 3, 2, LaurentPoly.monomial(2, 4)), None)
        with pytest.raises(ValueError, match="must share p and n"):
            verify_scaffold(mismatched)
        report = verify_scaffold(ScaffoldContext(ext, hopf, 1))
        assert (report.status, report.a) == (STATUS_NO_SCAFFOLD, solve_a(1, 4))


class TestMinFValuation:
    def test_full_structure_target(self):
        # least v with 4v - 3 >= 7 is 3 (and the b = 1 theory needs v >= 3)
        ext = ExtensionParams.monogenic(2, 2, 1)
        assert min_f_valuation_for(7, ext, 1) == 3

    def test_small_target(self):
        ext = ExtensionParams.monogenic(2, 2, 1)
        assert min_f_valuation_for(2, ext, 1) == 2

    def test_achieves_target(self):
        for p, n, r, b in acceptance_tuples():
            ext = ExtensionParams.monogenic(p, n, b)
            for target in (2, 5, 2 * p**n - 1, 100):
                v = min_f_valuation_for(target, ext, r)
                hopf = HopfParams(p, n, r, LaurentPoly.monomial(p, v))
                tol = tolerance(ext, hopf)
                assert tol is not None and tol >= target
                if v > 1:
                    weaker = tolerance(ext, HopfParams(p, n, r, LaurentPoly.monomial(p, v - 1)))
                    assert weaker is None or weaker < target

    def test_monotone(self):
        ext = ExtensionParams.monogenic(3, 2, 2)
        vals = [min_f_valuation_for(t, ext, 1) for t in range(2, 60)]
        assert vals == sorted(vals)

    def test_rejects_tiny_target(self):
        ext = ExtensionParams.monogenic(2, 2, 1)
        with pytest.raises(ValueError):
            min_f_valuation_for(1, ext, 1)


class TestVerify:
    def test_small_case_all_pass_with_unit_digits(self):
        ctx = ctx_for(2, 2, 1, 1, 4)
        report = verify_scaffold(ctx)
        assert report.status == STATUS_OK
        assert report.tolerance == 13
        assert len(report.checks) == 8
        assert report.all_passed
        for check in report.checks:
            if check.digit > 0:
                assert check.unit == LaurentPoly.constant(2, check.digit)
            else:
                assert check.unit is None

    def test_zero_branch_present(self):
        # z_2(lambda_0) = z_2(1) = 0 exercises the digit-0 branch
        ctx = ctx_for(2, 2, 1, 1, 4)
        report = verify_scaffold(ctx)
        zero_checks = [c for c in report.checks if c.digit == 0]
        assert zero_checks and all(c.passed for c in zero_checks)

    def test_below_hypothesis_reports_status(self):
        ctx = ctx_for(2, 2, 1, 3, 2)
        report = verify_scaffold(ctx)
        assert report.status == STATUS_NO_SCAFFOLD
        assert not report.all_passed
        assert report.checks == ()

    def test_nonmonomial_beta_and_f(self):
        # the congruences only depend on the valuations of beta and f
        ext = ExtensionParams(2, 2, 1, LaurentPoly.from_text("T^-1 + 1 + T^2", 2))
        hopf = HopfParams(2, 2, 1, LaurentPoly.from_text("T^4 + T^6", 2))
        report = verify_scaffold(scaffold_context(ext, hopf))
        assert report.all_passed

    @pytest.mark.parametrize(
        "p,n,r,b,f,beta",
        [
            (2, 4, 2, 1, "T^3", "T^-1"),
            (2, 5, 3, 3, "T^2", "T^-3"),
            (3, 4, 2, 1, "T^3", "T^-1"),
            (5, 3, 2, 2, "T^4 + T^7", "2*T^-2 + T^3"),
            (3, 3, 2, 2, "T^3 + 2*T^5", "T^-2 + T"),
        ],
    )
    def test_matches_the_element_oracle_at_raised_tolerances(self, p, n, r, b, f, beta):
        # verify reads each v_L off the kernel's integer terms; the oracle forms each difference in L
        ext = ExtensionParams(p, n, b, LaurentPoly.from_text(beta, p))
        ctx = scaffold_context(ext, HopfParams(p, n, r, LaurentPoly.from_text(f, p)))
        failed = []
        for d in (0, 1, 2, 5):
            raised = ctx._replace(tolerance=ctx.tolerance + d)
            got = [(c.s, c.j, c.digit, c.unit, c.passed) for c in verify_scaffold(raised).checks]
            assert got == verify_by_elements(raised)
            failed.append(sum(not passed for *_, passed in got))
        assert failed[0] == 0 and failed[1] > 0
        if (p, n, r, b) == (2, 4, 2, 1):
            assert failed[1] == 12

    @pytest.mark.parametrize(
        "p,n,r,b,f,beta",
        [
            (2, 4, 2, 1, "T", "T^-1"),
            (2, 4, 2, 1, "T^3", "T^-1"),
            (2, 4, 2, 1, "T^5", "T^-1"),
            (3, 3, 2, 2, "T^4", "T^-2"),
            (2, 5, 3, 3, "T^4", "T^-3"),
            (3, 4, 2, 1, "T^3", "T^-1"),
            (2, 4, 2, 1, "T^3 + T^5", "T^-1 + T^2"),
        ],
    )
    def test_margins_are_positive_multiples_of_the_tolerance(self, p, n, r, b, f, beta):
        # a twisted term of z_{p^s} lambda_j with twist count m sits m*F above lambda_{j + p^s b},
        # and distinct m differ in v_L, so every finite margin is a positive multiple of F; the
        # least is F itself.  The margins are formed in L, with no digit kernel
        ext = ExtensionParams(p, n, b, LaurentPoly.from_text(beta, p))
        ctx = scaffold_context(ext, HopfParams(p, n, r, LaurentPoly.from_text(f, p)))
        margins = [margin for *_, margin in scaffold_margins(ctx) if margin != INF]
        assert margins and all(margin > 0 and margin % ctx.tolerance == 0 for margin in margins)
        assert min(margins) == ctx.tolerance

    @pytest.mark.parametrize(
        "p,n,r,beta", [(2, 4, 2, "T^-1"), (2, 5, 3, "T^-3"), (3, 4, 2, "T^-1"), (5, 3, 2, "2*T^-2 + T^3")]
    )
    def test_generator_kernels_hold_the_terms_verify_reads(self, p, n, r, beta):
        # every term of z_{p^s} x^res reads t = p^s, no two share an x-exponent, and the one
        # plain (m = k = 0) term is digit * x^{res - p^s}, which verify drops as digit * lambda_{j + p^s b}
        hopf = HopfParams(p, n, r, LaurentPoly.monomial(p, 3))
        for s in range(n):
            kernel = DigitKernel(hopf, LaurentPoly.from_text(beta, p), (p**s,))
            for res in range(p**n):
                terms = kernel.terms(res)
                assert all(t == p**s for (_, t, _, _) in terms)
                exponents = [u for (u, _, _, _) in terms]
                assert len(exponents) == len(set(exponents))
                digit = padic_digits(res, p, n)[s]
                plain = [(key, c) for key, c in terms.items() if key[2] == key[3] == 0]
                assert plain == ([((res - p**s, p**s, 0, 0), digit)] if digit else [])

    def test_json_shape_is_deterministic(self):
        ctx = ctx_for(2, 2, 1, 1, 4)
        d1 = json.dumps(verify_scaffold(ctx).to_json_dict(), sort_keys=True)
        d2 = json.dumps(verify_scaffold(ctx).to_json_dict(), sort_keys=True)
        assert d1 == d2
        payload = json.loads(d1)
        assert set(payload) == {"params", "tolerance", "status", "checks", "all_passed"}
        assert payload["checks"][0].keys() == {"s", "j", "digit", "unit", "passed"}


class TestIntegerCertificate:
    def test_lambda_b_valuations(self):
        ctx = ctx_for(2, 2, 1, 1, 4)
        report = integer_certificate_check(lambda_element(1, ctx), ctx)
        assert report.all_ok and report.complete_residue_system
        assert [rec.valuation for rec in report.records] == [1, 2, 3, 4]

    def test_noisy_rho(self):
        # lambda_b plus anything of strictly larger valuation still certifies
        rng = random.Random(79)
        for p, n, r, b in [(2, 2, 1, 1), (3, 2, 1, 1), (2, 3, 2, 3)]:
            ext, hopf = standard_pair(p, n, r, b)
            ctx = scaffold_context(ext, hopf)
            lam = lambda_element(b, ctx)
            for _ in range(4):
                noise = LElement.zero(ext)
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(p**n)
                    kmin = (b * (i + 1)) // p**n + 1
                    noise = noise + LElement.x_power(
                        i, ext, LaurentPoly.monomial(p, kmin + rng.randint(0, 2), rng.randint(1, p - 1))
                    )
                rho = lam + noise
                assert l_valuation(rho, ext) == b
                report = integer_certificate_check(rho, ctx)
                assert report.all_ok and report.complete_residue_system

    def test_rejects_wrong_valuation(self):
        ctx = ctx_for(2, 2, 1, 1, 4)
        with pytest.raises(ValueError):
            integer_certificate_check(LElement.one(ctx.ext), ctx)

    @pytest.mark.parametrize("text", ["(T)*x^3", "(T^2)*x^5"])
    def test_rejects_an_element_of_another_extension(self, text):
        # (T)*x^3 of the degree-8 extension has v_L = 1 = b read at degree 4
        ctx = ctx_for(2, 2, 1, 1, 4)
        rho = lelement_from_text(text, ExtensionParams.monogenic(2, 3, 1))
        for call in (lambda: integer_certificate_check(rho, ctx), lambda: monomial_images(rho, ctx.ext, ctx.hopf)):
            with pytest.raises(ValueError, match="field element does not belong to the extension"):
                call()

    @pytest.mark.parametrize("p,n,r,b,f_val", [(2, 4, 2, 1, 3), (3, 3, 2, 2, 4)])
    def test_valuations_match_direct_action(self, p, n, r, b, f_val):
        # oracle side: each monomial built by z_monomial and applied to rho in one act call
        ctx = ctx_for(p, n, r, b, f_val)
        rho = lambda_element(b, ctx)
        report = integer_certificate_check(rho, ctx)
        for rec in report.records:
            assert tuple(rec.digits) == tuple(padic_digits(rec.j, p, n))
            image = act(z_monomial(rec.digits, ctx.hopf), rho, ctx.ext, ctx.hopf)
            assert rec.valuation == l_valuation(image, ctx.ext)

    def test_degree_81_pinned(self):
        # SHA-256 of the perfbench worker's certificate-plus-rank stdout at
        # (p, n, r, b, v_K(f)) = (3, 4, 2, 1, 3), recorded before the digit-trie
        # certificate replaced per-monomial products and the triangular-shape
        # check replaced Bareiss elimination for the rank
        ctx = ctx_for(3, 4, 2, 1, 3)
        report = integer_certificate_check(lambda_element(1, ctx), ctx)
        rank = dual_basis_rank(ctx.hopf)
        assert rank == 81
        out = json.dumps({"certificate": report.to_json_dict(), "rank": rank}, sort_keys=True) + "\n"
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "06af1c9b604c5919b3a7181640c43568e7307008a35ab8f3118caba3a80d73c7"

    def test_monomial_image_valuations_pairwise_incongruent(self):
        ctx = ctx_for(3, 2, 1, 1, 3)
        report = integer_certificate_check(lambda_element(1, ctx), ctx)
        residues = [rec.valuation % 9 for rec in report.records]
        assert sorted(residues) == list(range(9))
