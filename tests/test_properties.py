"""Property tests: text round-trips, the products of L, H and the dual and the action against their
oracles, and the read-set walk of the digit kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HElement,
    HopfParams,
    LaurentPoly,
    LElement,
    act,
    dual_from_text,
    dual_mult,
    dual_to_text,
    h_mul,
    l_mul,
    lelement_from_text,
    lelement_to_text,
)

from hopfscaffold.hopf_primal import DigitKernel

from oracles import (
    coaction_by_expansion,
    dense,
    element_from_text_oracle,
    image_by_expansion,
    laurent_from_text_oracle,
    schoolbook_h_mul,
    schoolbook_l_mul,
    tensor_power_by_expansion,
)

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


def _vector(cls, hopf: HopfParams):
    """An element of H or its dual: every coefficient drawn, or at most three nonzero."""
    pn, zero = hopf.degree, LaurentPoly.zero(hopf.p)
    dense = st.lists(_laurent(hopf.p, 3), min_size=pn, max_size=pn)
    sparse = st.dictionaries(st.integers(0, pn - 1), _laurent(hopf.p, 3), max_size=3).map(
        lambda terms: [terms.get(k, zero) for k in range(pn)]
    )
    return st.one_of(dense, sparse).map(cls)


@st.composite
def _hopf(draw):
    p, n, r = draw(st.sampled_from(((2, 2, 1), (2, 3, 2), (3, 2, 1))))
    return HopfParams(p, n, r, LaurentPoly.monomial(p, draw(st.integers(-3, 6))))


@st.composite
def _dual_case(draw):
    hopf = draw(_hopf())
    return hopf, draw(_vector(DualElement, hopf))


@st.composite
def _pair_case(draw, cls):
    hopf = draw(_hopf())
    return hopf, draw(_vector(cls, hopf)), draw(_vector(cls, hopf))


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


# texts for the readers as token lists; whitespace goes between tokens, so around + * ^ ( ) -
_WS = st.sampled_from(("", "", "", " ", "  ", "\t", " \n"))
# mostly small, sometimes with a leading zero or more digits than int() converts
_NUMBER = st.integers(0, 40).map(lambda v: "9" * 4301 if v == 40 else "00" if v == 39 else str(v % 13))


@st.composite
def _laurent_term(draw) -> list[str]:
    c, e = draw(_NUMBER), draw(_NUMBER)
    sign = ["-"] if draw(st.booleans()) else []
    if draw(st.integers(0, 9)) == 0:  # malformed: empty (as in ++ or a + at either end), T^, 2**T
        return draw(st.sampled_from(([], ["T", "^"], ["2", "*", "*", "T"])))
    return draw(st.sampled_from(([c], ["T"], [c, "*", "T"], ["T", "^", *sign, e], [c, "*", "T", "^", *sign, e])))


def _joined(parts: list[list[str]]) -> list[str]:
    tokens = []
    for j, part in enumerate(parts):
        tokens += ["+"] * (j > 0) + part
    return tokens


@st.composite
def _coefficient(draw) -> list[str]:
    body = _joined(draw(st.lists(_laurent_term(), min_size=1, max_size=3)))
    shape = draw(st.integers(0, 19))  # 0: a leading +, 1: a trailing +, 2: unclosed
    return ["(", *["+"] * (shape == 0), *body, *["+"] * (shape == 1), *[")"] * (shape != 2)]


@st.composite
def _element_term(draw, family: str) -> list[str]:
    k, coef = str(draw(st.integers(0, 10))), draw(_coefficient())  # degree 9: k = 9, 10 are out of range
    if draw(st.integers(0, 9)) == 0:  # one term in ten from the other family
        family = "xz".replace(family, "")
    if family == "z":
        return draw(st.sampled_from(([f"z_{k}"], [*coef, "*", f"z_{k}"])))
    return draw(st.sampled_from((
        ["x"], ["x", "^", k], [*coef, "*", "x", "^", k], [*coef, "*", "x"], coef, draw(_laurent_term()),
    )))


@st.composite
def _reader_text(draw) -> str:
    """A sum of terms of L (x), of the dual (z) or of a Laurent polynomial (T), whitespace between tokens."""
    family = draw(st.sampled_from("xzT"))
    term = _laurent_term() if family == "T" else _element_term(family)
    tokens = _joined(draw(st.lists(term, max_size=4)))
    spaces = draw(st.lists(_WS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(w + t for w, t in zip(spaces, tokens + [""]))


READER_EXT = ExtensionParams.monogenic(3, 2, 1)
READER_HOPF = HopfParams(3, 2, 1, LaurentPoly.monomial(3, 3))


def _outcome(read, text):
    try:
        value = read(text)
    except ValueError as exc:
        return "refused", str(exc)
    return str(value), value


@settings(PROPERTY, max_examples=400)
@given(_reader_text())
def test_readers_match_the_reader_that_split_each_coefficient_again(text):
    # the readers split a coefficient at each + and read its Laurent terms in one pass; the oracle
    # sends each coefficient through the top-level splitter again: same value or same message
    for read, oracle in (
        (lambda t: lelement_from_text(t, READER_EXT), lambda t: element_from_text_oracle(LElement, t, READER_EXT)),
        (lambda t: dual_from_text(t, READER_HOPF), lambda t: element_from_text_oracle(DualElement, t, READER_HOPF)),
        (lambda t: LaurentPoly.from_text(t, 3), lambda t: laurent_from_text_oracle(t, 3)),
    ):
        assert _outcome(read, text) == _outcome(oracle, text)


@PROPERTY
@given(_l_pair())
def test_l_mul_matches_schoolbook(case):
    ext, y, z = case
    assert l_mul(y, z, ext) == schoolbook_l_mul(y, z, ext)


@PROPERTY
@given(_pair_case(HElement))
def test_h_mul_matches_schoolbook(case):
    _, a, b = case
    assert h_mul(a, b) == schoolbook_h_mul(a, b)


@PROPERTY
@given(_pair_case(DualElement))
def test_dual_mult_matches_expansion_pairing(case):
    # the z_i coefficient of a*b pairs a (x) b with Delta(t^i) from the multinomial expansion
    hopf, a, b = case
    ac, bc = dense(a), dense(b)
    expected = []
    for i in range(hopf.degree):
        total = LaurentPoly.zero(hopf.p)
        for (u, v), c in tensor_power_by_expansion(i, hopf).items():
            total = total + ac[u] * bc[v] * c
        expected.append(total)
    assert dual_mult(a, b, hopf) == DualElement(expected)


# (p, n, r) with p in {2, 3, 5}, 0 < r < n <= 2r and p^n <= 81
_ACTION_RANGE = (
    (2, 2, 1), (2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 3), (2, 6, 3), (2, 6, 5),
    (3, 2, 1), (3, 3, 2), (3, 4, 2), (3, 4, 3), (5, 2, 1),
)


@st.composite
def _action_params(draw):
    p, n, r = draw(st.sampled_from(_ACTION_RANGE))
    b = draw(st.integers(1, 2 * p**n).filter(lambda v: v % p))
    tail = draw(st.lists(st.tuples(st.integers(1 - b, 3), st.integers(0, p - 1)), max_size=2))
    ext = ExtensionParams(p, n, b, LaurentPoly(p, [(-b, 1)] + tail))
    return ext, HopfParams(p, n, r, LaurentPoly.monomial(p, draw(st.integers(-3, 6))))


@st.composite
def _spread_indices(draw, p: int, n: int):
    """1-3 exponents below p^n in distinct residue classes mod p^s, for a drawn 1 <= s <= n."""
    s = draw(st.integers(1, n))
    q = p**s
    residues = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=min(3, q), unique=True))
    return [res + q * draw(st.integers(0, p ** (n - s) - 1)) for res in residues]


@st.composite
def _act_case(draw):
    ext, hopf = draw(_action_params())
    p, pn = ext.p, ext.degree
    coeff = _laurent(p, 3)
    z_terms = {k: draw(coeff) for k in draw(_spread_indices(p, ext.n))}
    y_terms = draw(st.dictionaries(st.integers(0, pn - 1), coeff, min_size=1, max_size=2))
    return ext, hopf, z_terms, y_terms


@PROPERTY
@given(_act_case())
def test_act_with_sparse_z_matches_coaction_expansion(case):
    # z reads a few t-exponents in distinct residue classes, so the kernel's prune keeps several
    ext, hopf, z_terms, y_terms = case
    zero = LaurentPoly.zero(ext.p)
    z = DualElement([z_terms.get(k, zero) for k in range(ext.degree)])
    y = LElement([y_terms.get(i, zero) for i in range(ext.degree)])
    expected = LElement.zero(ext)
    for i, c in y_terms.items():
        comps = coaction_by_expansion(i, ext, hopf)
        for k, w in z_terms.items():
            expected = expected + comps[k].scale(c * w)
    assert act(z, y, ext, hopf) == expected


@st.composite
def _kernel_case(draw):
    ext, hopf = draw(_action_params())
    beta = draw(st.sampled_from((ext.beta, LaurentPoly.zero(ext.p))))
    p, n = ext.p, ext.n
    return hopf, beta, set(draw(_spread_indices(p, n)))


@settings(PROPERTY, max_examples=30)
@given(_kernel_case())
def test_kernel_image_is_the_read_part_of_the_full_image(case):
    # the residue prune drops no term the caller reads and keeps none it does not
    hopf, beta, t_read = case
    pruned, full = DigitKernel(hopf, beta, t_read), DigitKernel(hopf, beta, range(hopf.degree))
    for i in range(hopf.degree):
        assert pruned.image(i) == {(u, t): c for (u, t), c in full.image(i).items() if t in t_read}


@st.composite
def _walk_case(draw):
    p, n, r = draw(st.sampled_from(((2, 3, 2), (2, 4, 2), (3, 2, 1), (3, 3, 2), (5, 2, 1), (7, 2, 1))))
    b = draw(st.integers(1, 2 * p).filter(lambda v: v % p))
    beta = draw(st.sampled_from(((), ((-b, 1),), ((-b, 1), (2, p - 1)))))
    hopf = HopfParams(p, n, r, LaurentPoly(p, [(-1, 1), (3, 1)]))
    t_read = draw(st.sets(st.integers(0, p**n - 1), min_size=1, max_size=5))
    return hopf, LaurentPoly(p, list(beta)), t_read, draw(st.integers(0, p**n - 1))


@PROPERTY
@given(_walk_case())
def test_kernel_walk_matches_the_lucas_expansion_on_the_read_set(case):
    # beta = 0, T^-b or T^-b - T^2, a random read set and power: the walk over each read t's digits
    # against the digit-wise multinomial expansion, restricted to the read t
    hopf, beta, t_read, i = case
    expected = {(u, t): c for (u, t), c in image_by_expansion(i, hopf, beta).items() if t in t_read}
    assert DigitKernel(hopf, beta, t_read).image(i) == expected
