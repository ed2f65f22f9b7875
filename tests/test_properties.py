"""Property tests: text round-trips and the ring law of L against its schoolbook oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HopfParams,
    LaurentPoly,
    LElement,
    dual_from_text,
    dual_to_text,
    l_mul,
    lelement_from_text,
    lelement_to_text,
)

from oracles import schoolbook_l_mul

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _laurent(p: int, max_terms: int = 4):
    terms = st.lists(st.tuples(st.integers(-6, 6), st.integers(0, p - 1)), max_size=max_terms)
    return terms.map(lambda ts: LaurentPoly(p, ts))


@st.composite
def _laurent_case(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    return p, draw(_laurent(p))


@st.composite
def _extension(draw):
    p, n = draw(st.sampled_from(((2, 2), (2, 3), (3, 2))))
    b = draw(st.integers(1, 2 * p**n).filter(lambda v: v % p))
    # beta = T^-b plus terms of higher T-degree, so v_K(beta) = -b
    tail = draw(st.lists(st.tuples(st.integers(1 - b, 3), st.integers(0, p - 1)), max_size=2))
    return ExtensionParams(p, n, b, LaurentPoly(p, [(-b, 1)] + tail))


def _lelement(ext: ExtensionParams):
    return st.lists(_laurent(ext.p, 3), min_size=ext.degree, max_size=ext.degree).map(LElement)


@st.composite
def _l_pair(draw):
    ext = draw(_extension())
    return ext, draw(_lelement(ext)), draw(_lelement(ext))


@st.composite
def _dual_case(draw):
    p, n, r = draw(st.sampled_from(((2, 2, 1), (2, 3, 2), (3, 2, 1))))
    hopf = HopfParams(p, n, r, LaurentPoly.monomial(p, draw(st.integers(-3, 6))))
    coeffs = draw(st.lists(_laurent(p, 3), min_size=hopf.degree, max_size=hopf.degree))
    return hopf, DualElement(coeffs)


@PROPERTY
@given(_laurent_case())
def test_laurent_text_roundtrip(case):
    p, a = case
    assert LaurentPoly.from_text(a.to_text(), p) == a
    assert LaurentPoly.from_text(str(a), p).to_text() == a.to_text()


@PROPERTY
@given(_l_pair())
def test_lelement_text_roundtrip(case):
    ext, y, z = case
    for v in (y, z):
        assert lelement_from_text(lelement_to_text(v), ext) == v


@PROPERTY
@given(_dual_case())
def test_dual_text_roundtrip(case):
    hopf, z = case
    assert dual_from_text(dual_to_text(z), hopf) == z


@PROPERTY
@given(_l_pair())
def test_l_mul_matches_schoolbook(case):
    ext, y, z = case
    assert l_mul(y, z, ext) == schoolbook_l_mul(y, z, ext)
