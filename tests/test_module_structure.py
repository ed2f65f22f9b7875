import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfscaffold import (
    ExtensionParams,
    HopfParams,
    IdealIndex,
    InsufficientToleranceError,
    LaurentPoly,
    assoc_order_basis,
    d_h,
    freeness_b1,
    is_free,
    materialize_basis_entry,
    noether_criterion,
    padic_digits,
)
from hopfscaffold import module_structure
from hopfscaffold.module_structure import _generator_witnesses

from oracles import brute_generator_witnesses, brute_w, standard_pair


@pytest.fixture
def ext221():
    return ExtensionParams.monogenic(2, 2, 1)


class TestNormalization:
    def test_window(self, ext221):
        for h in range(-20, 20):
            idx = IdealIndex.normalize(h, ext221)
            assert 0 <= ext221.b - idx.h_norm <= ext221.degree - 1
            assert idx.h_raw == idx.h_norm + idx.m * ext221.degree

    def test_in_window_values_are_fixed(self, ext221):
        for h in (-2, -1, 0, 1):
            idx = IdealIndex.normalize(h, ext221)
            assert idx.h_norm == h and idx.m == 0


    def test_h_above_the_window_is_shifted_into_it(self, ext221):
        # h = 2 lies above b = 1: it is read as h_norm = 2 - 16 with one T-shift
        ext = ExtensionParams.monogenic(2, 4, 1)
        report = is_free(2, ext)
        assert report.h == IdealIndex(2, -14, 1)
        assert report.d_table[:4] == (0, 1, 1, 1) and report.witness_j == 1
        assert [brute_w(2, j, ext) for j in range(16)] == list(report.w_table)
        assert d_h(5, 0, ext221) == 0


class TestDTable:
    def test_h_zero(self, ext221):
        assert [d_h(0, j, ext221) for j in range(4)] == [0, 0, 0, 1]

    def test_h_one(self, ext221):
        assert [d_h(1, j, ext221) for j in range(4)] == [0, 0, 0, 0]

    def test_h_minus_two(self, ext221):
        assert [d_h(-2, j, ext221) for j in range(4)] == [0, 1, 1, 1]

    def test_floor_toward_minus_infinity(self):
        # with b = 3 the window reaches negative numerators
        ext = ExtensionParams.monogenic(2, 2, 3)
        h_norm = IdealIndex.normalize(3, ext).h_norm
        assert d_h(3, 0, ext) == 0  # floor(0/4), not of a positive value
        for j in range(4):
            num = ext.b * j + ext.b - h_norm
            assert d_h(3, j, ext) == num // 4


class TestWTable:
    # the w table is is_free's; brute_w is the definitional minimum
    def test_zero_at_zero(self):
        for p, n, b in ((2, 2, 1), (3, 2, 2), (2, 3, 3)):
            ext = ExtensionParams.monogenic(p, n, b)
            for h in range(-(p**n), p**n):
                assert is_free(h, ext).w_table[0] == 0

    def test_free_case_matches_d(self, ext221):
        assert list(is_free(0, ext221).w_table) == [d_h(0, j, ext221) for j in range(4)]

    def test_nonfree_witness(self, ext221):
        # h = -2: the pair i = 2, j = 1 drags w below d
        assert is_free(-2, ext221).w_table[1] == 0
        assert d_h(-2, 1, ext221) == 1

    def test_matches_brute_force(self):
        for p, n, b in ((2, 2, 1), (2, 2, 3), (3, 2, 2)):
            ext = ExtensionParams.monogenic(p, n, b)
            for h in range(b - p**n + 1, b + 1):
                assert list(is_free(h, ext).w_table) == [brute_w(h, j, ext) for j in range(p**n)]

    def test_never_exceeds_d(self):
        for p, n, b in ((2, 2, 1), (3, 2, 1), (2, 3, 3), (3, 3, 1)):
            ext = ExtensionParams.monogenic(p, n, b)
            for h in range(b - p**n + 1, b + 1):
                for j, w in enumerate(is_free(h, ext).w_table):
                    assert w <= d_h(h, j, ext)


@st.composite
def _w_case(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 3))  # ExtensionParams needs n >= 2
    b = draw(st.integers(1, 2 * p**n).filter(lambda v: v % p))
    h = draw(st.integers(-3 * p**n, 3 * p**n))
    j = draw(st.integers(0, p**n - 1))
    return ExtensionParams.monogenic(p, n, b), h, j


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_w_case())
def test_w_property(case):
    ext, h, j = case
    w_tab = is_free(h, ext).w_table
    assert w_tab[j] == brute_w(h, j, ext)
    assert w_tab[j] <= d_h(h, j, ext)
    assert w_tab[0] == 0


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_submask_min_matches_definition(p, n):
    ext = ExtensionParams.monogenic(p, n, 1)
    values = [(37 * k + 11) % 101 for k in range(p**n)]
    expected = [
        min(values[j] for j in range(p**n) if all(a <= c for a, c in zip(padic_digits(j, p, n), padic_digits(k, p, n))))
        for k in range(p**n)
    ]
    assert module_structure._submask_min(values, ext) == expected


class TestAgainstOracles:
    # every table of the report against the exhaustive oracles
    @staticmethod
    def check(h, ext):
        report = is_free(h, ext)
        d_tab = tuple(d_h(h, j, ext) for j in range(ext.degree))
        w_tab = tuple(brute_w(h, j, ext) for j in range(ext.degree))
        assert report.d_table == d_tab
        assert report.w_table == w_tab
        assert report.free == (d_tab == w_tab)
        assert report.witness_j == next((j for j in range(ext.degree) if d_tab[j] != w_tab[j]), None)
        witnesses = brute_generator_witnesses(h, w_tab, ext)
        alpha = [(ext.b * k + ext.b - report.h.h_norm) % ext.degree for k in range(ext.degree)]
        assert _generator_witnesses(alpha, ext, report.w_table) == witnesses
        assert report.generator_count == (1 if report.free else len(witnesses))

    @pytest.mark.parametrize("p,n,b", [(3, 3, 1), (3, 3, 2), (2, 4, 3), (2, 5, 3)])
    def test_full_period(self, p, n, b):
        ext = ExtensionParams.monogenic(p, n, b)
        for h in range(b - p**n + 1, b + 1):
            self.check(h, ext)

    def test_degree_81_sample(self):
        ext = ExtensionParams.monogenic(3, 4, 1)
        for h in (-79, -40, -13, 1):
            self.check(h, ext)


# ExtensionParams needs n >= 2; keep p^n <= 125 so the oracles stay quick
_MAX_N = {2: 6, 3: 4, 5: 3, 7: 2}


@st.composite
def _report_case(draw):
    p = draw(st.sampled_from(tuple(_MAX_N)))
    n = draw(st.integers(2, _MAX_N[p]))
    b = draw(st.integers(1, 2 * p**n).filter(lambda v: v % p))
    h = draw(st.integers(-3 * p**n, 3 * p**n))
    return ExtensionParams.monogenic(p, n, b), h


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_report_case())
def test_report_property(case):
    # the whole report against the exhaustive oracles
    ext, h = case
    TestAgainstOracles.check(h, ext)


class TestIsFree:
    def test_b1_small_classification(self, ext221):
        assert [is_free(h, ext221).free for h in (-2, -1, 0, 1)] == [False, True, True, True]

    def test_report_invariants(self, ext221):
        for h in (-2, 0):
            report = is_free(h, ext221)
            assert report.free == (report.d_table == report.w_table)
            if report.free:
                assert report.witness_j is None
                assert report.generator_count == 1
            else:
                assert report.witness_j is not None
                assert report.d_table[report.witness_j] != report.w_table[report.witness_j]
                assert report.generator_count >= 2

    def test_periodicity(self, ext221):
        for h in range(-2, 2):
            a = is_free(h, ext221)
            b = is_free(h + 4, ext221)
            assert (a.d_table, a.w_table, a.free, a.generator_count) == (
                b.d_table,
                b.w_table,
                b.free,
                b.generator_count,
            )
            assert b.h.m == a.h.m + 1

    def test_basis_shifts_small_case(self, ext221):
        report = is_free(0, ext221)
        assert [entry.shift for entry in report.basis] == [0, 0, 0, -1]

    def test_json_reads_the_reports_own_extension(self):
        report = is_free(1, ExtensionParams.monogenic(3, 2, 2))
        full = report.to_json_dict(HopfParams(3, 2, 1, LaurentPoly.monomial(3, 5)))
        assert (full["p"], full["n"], full["b"], full["r"], full["f_val"]) == (3, 2, 2, 1, 5)

    def test_json_header_refuses_hopf_parameters_of_another_extension(self):
        # the header printed p = 3 with r = 2 over a report for p = 3, n = 2, and a p = 2 header over a p = 3 basis
        report = is_free(1, ExtensionParams.monogenic(3, 2, 2))
        for other in (HopfParams(2, 3, 2, LaurentPoly.monomial(2, 4)), HopfParams(3, 3, 2, LaurentPoly.monomial(3, 9))):
            with pytest.raises(ValueError, match="must share p and n"):
                report.to_json_dict(other)


class TestFreenessB1:
    def test_frozen_examples(self):
        ext = ExtensionParams.monogenic(2, 2, 1)
        assert freeness_b1(0, ext) is True  # res(-2) = 2 > 1/2
        assert freeness_b1(2, ext) is False  # res(0) = 0
        ext3 = ExtensionParams.monogenic(3, 2, 1)
        assert freeness_b1(1, ext3) is True  # res(-1) = 8 > 3

    def test_rejects_other_break_numbers(self):
        with pytest.raises(ValueError):
            freeness_b1(0, ExtensionParams.monogenic(2, 2, 3))

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_table_criterion_exhaustively(self, p, n):
        ext = ExtensionParams.monogenic(p, n, 1)
        for h in range(1 - p**n + 1, 2):
            assert freeness_b1(h, ext) == is_free(h, ext).free

    def test_free_class_counts(self):
        # one period: 3 of 4 classes free at (2, 2), 5 of 9 at (3, 2)
        ext = ExtensionParams.monogenic(2, 2, 1)
        assert sum(is_free(h, ext).free for h in range(-2, 2)) == 3
        ext3 = ExtensionParams.monogenic(3, 2, 1)
        assert sum(is_free(h, ext3).free for h in range(-7, 2)) == 5


class TestGeneratorCount:
    def test_free_needs_one(self, ext221):
        for h in (-1, 0, 1):
            assert is_free(h, ext221).generator_count == 1

    def test_nonfree_small_case(self, ext221):
        # independent double loop over the interpreted criterion
        d_tab = [d_h(-2, j, ext221) for j in range(4)]
        w_tab = [brute_w(-2, j, ext221) for j in range(4)]
        expected = 0
        for i in range(4):
            idig = padic_digits(i, 2, 2)
            good = True
            for j in range(1, 4):
                jd = padic_digits(j, 2, 2)
                if any(a > bb for a, bb in zip(jd, idig)):
                    continue
                if not d_tab[i] > d_tab[i - j] + w_tab[j]:
                    good = False
                    break
            expected += good
        assert expected == 3
        got = is_free(-2, ext221).generator_count
        assert got == expected
        assert got >= 2

    def test_periodicity(self, ext221):
        assert is_free(-2, ext221).generator_count == is_free(-2 + 4, ext221).generator_count


class TestNoether:
    def test_b_one(self):
        assert noether_criterion(ExtensionParams.monogenic(5, 2, 1)) == 1

    def test_b_p_plus_one(self):
        # p + 1 divides p^2 - 1
        assert noether_criterion(ExtensionParams.monogenic(2, 2, 3)) == 2
        assert noether_criterion(ExtensionParams.monogenic(3, 2, 4)) == 2

    def test_b_max_residue(self):
        assert noether_criterion(ExtensionParams.monogenic(2, 3, 7)) == 3

    def test_absent(self):
        # res(b) = 5 divides none of 3, 8, 26 for p = 3, n = 3
        assert noether_criterion(ExtensionParams.monogenic(3, 3, 5)) is None

    def test_implies_ring_of_integers_free(self):
        # part 2 is a special case of the h = 0 criterion, one direction only
        for p, n, b in ((2, 2, 1), (2, 2, 3), (3, 2, 1), (3, 2, 4), (2, 3, 7)):
            ext = ExtensionParams.monogenic(p, n, b)
            if noether_criterion(ext) is not None:
                assert is_free(0, ext).free

    def test_sufficient_everywhere_and_converse_fails_at_four_classes_up_to_729(self):
        # every (p, n, b) with n >= 2, p^n <= 729 and 0 < b < p^n prime to p: 23 degrees, 3578 classes
        degrees = [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for n in range(2, 10) if p**n <= 729]
        classes = [(p, n, b) for p, n in degrees for b in range(1, p**n) if b % p]
        assert (len(degrees), len(classes)) == (23, 3578)
        converse_fails = []
        for p, n, b in classes:
            ext = ExtensionParams.monogenic(p, n, b)
            free = is_free(0, ext).free
            if noether_criterion(ext) is not None:
                assert free, (p, n, b)
            elif free:
                converse_fails.append((p, n, b))
        # e.g. 7 first divides 3^m - 1 at m = 6 > n = 5, yet O_L is free at (3, 5, 7)
        assert converse_fails == [(2, 9, 11), (3, 5, 7), (5, 4, 7), (7, 3, 5)]

    def test_ring_of_integers_free_exactly_when_carry_free_alpha_sums_reach_b(self):
        # with alpha_i = b(i + 1) mod p^n, O_L is free iff alpha_i + alpha_j >= b for
        # every pair i, j >= 1 whose base-p sum carries nowhere
        degrees = [(2, n) for n in range(2, 8)] + [(3, n) for n in range(2, 6)] + [(5, 2), (5, 3), (7, 2), (11, 2)]
        checked = free_count = 0
        for p, n in degrees:
            pn = p**n
            digit_sum = [sum(padic_digits(k, p, n)) for k in range(pn)]
            pairs = [
                (i, j)
                for i in range(1, pn)
                for j in range(i, pn - i)
                if digit_sum[i + j] == digit_sum[i] + digit_sum[j]
            ]
            for b in range(1, pn):
                if b % p:
                    alpha = [b * (i + 1) % pn for i in range(pn)]
                    reduced = all(alpha[i] + alpha[j] >= b for i, j in pairs)
                    free = is_free(0, ExtensionParams.monogenic(p, n, b)).free
                    assert reduced == free, (p, n, b)
                    checked, free_count = checked + 1, free_count + free
        assert checked == 638
        assert 0 < free_count < checked


class TestAssocOrder:
    def test_small_case_shifts(self):
        ext, hopf = standard_pair(2, 2, 1, 1)
        basis = assoc_order_basis(0, ext, hopf)
        assert basis.trusted
        assert [entry.shift for entry in basis.entries] == [0, 0, 0, -1]
        assert [tuple(entry.digits) for entry in basis.entries] == [
            (0, 0),
            (1, 0),
            (0, 1),
            (1, 1),
        ]

    def test_refuses_below_tolerance(self):
        ext = ExtensionParams.monogenic(2, 2, 1)
        hopf = HopfParams(2, 2, 1, LaurentPoly.monomial(2, 2))  # tolerance 5 < 7
        with pytest.raises(InsufficientToleranceError):
            assoc_order_basis(0, ext, hopf)

    @pytest.mark.parametrize("f_val, reason", [
        (2, "tolerance 5 below 2*p^n - 1 = 7"),
        (0, "scaffold hypothesis unmet, so no tolerance reaches 2*p^n - 1 = 7"),
    ])
    def test_refusal_names_force_keyword(self, f_val, reason):
        ext = ExtensionParams.monogenic(2, 2, 1)
        hopf = HopfParams(2, 2, 1, LaurentPoly.monomial(2, f_val))
        with pytest.raises(InsufficientToleranceError) as info:
            assoc_order_basis(0, ext, hopf)
        assert info.value.reason == reason
        assert str(info.value) == f"{reason}; pass force=True to emit an untrusted listing"

    def test_force_yields_untrusted(self):
        ext = ExtensionParams.monogenic(2, 2, 1)
        hopf = HopfParams(2, 2, 1, LaurentPoly.monomial(2, 2))
        basis = assoc_order_basis(0, ext, hopf, force=True)
        assert not basis.trusted

    @pytest.mark.parametrize("f_val, tol, trusted", [(9, 65, True), (2, 2, False)])
    def test_json_reads_tolerance_and_trust_from_the_listings_own_hopf(self, f_val, tol, trusted):
        # the header once took a second hopf, and printed f_val 5 beside the tolerance 65 of f = T^9
        hopf = HopfParams(3, 2, 1, LaurentPoly.monomial(3, f_val))
        listing = assoc_order_basis(1, ExtensionParams.monogenic(3, 2, 2), hopf, force=not trusted)
        full = listing.to_json_dict()
        assert (full["f_val"], full["tolerance"], full["trusted"]) == (f_val, tol, trusted)
        assert (listing.hopf, listing.tolerance, listing.trusted) == (hopf, tol, trusted)

    def test_json_refuses_a_hand_built_listing_whose_parameters_disagree(self):
        listing = assoc_order_basis(1, ExtensionParams.monogenic(3, 2, 2), HopfParams(3, 2, 1, LaurentPoly.monomial(3, 9)))
        with pytest.raises(ValueError, match="must share p and n"):
            listing._replace(hopf=HopfParams(3, 3, 2, LaurentPoly.monomial(3, 9))).to_json_dict()

    def test_periodic_in_h(self):
        ext, hopf = standard_pair(2, 2, 1, 1)
        a = assoc_order_basis(0, ext, hopf)
        b = assoc_order_basis(4, ext, hopf)
        assert a.entries == b.entries

    def test_materialized_elements_stabilize(self):
        # reduced version of the acceptance stabilization check
        from hopfscaffold import act, ideal_membership, LElement

        ext, hopf = standard_pair(2, 2, 1, 1)
        basis = assoc_order_basis(0, ext, hopf)
        samples = [
            LElement.one(ext),
            LElement.x_power(3, ext, LaurentPoly.monomial(2, 1)),
            LElement.one(ext) + LElement.x_power(3, ext, LaurentPoly.monomial(2, 1)),
        ]
        for entry in basis.entries:
            element = materialize_basis_entry(entry, hopf)
            for y in samples:
                assert ideal_membership(act(element, y, ext, hopf), 0, ext)
