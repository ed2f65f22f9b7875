"""The text contract of the three parsers, pinned input by input.

Each row reads one text as an element of L = K(x), as a dual element and
as a Laurent polynomial, all at (p, n, r) = (3, 2, 1), and gives the
canonical text of the value read, or REFUSED.
"""

import pytest

from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HElement,
    HopfParams,
    LaurentPoly,
    LElement,
    base_arith,
    dual_from_text,
    dual_to_text,
    lelement_from_text,
    lelement_to_text,
)

REFUSED = "refused"
EXT = ExtensionParams.monogenic(3, 2, 1)
HOPF = HopfParams(3, 2, 1, LaurentPoly.monomial(3, 3))

# text, then the text of its value as an element of L, as a dual element, as a Laurent polynomial
CORPUS = [
    ("0", "0", "0", "0"),
    ("", "0", "0", "0"),
    ("0 + x", "x", REFUSED, REFUSED),
    ("(T)", "(T)", REFUSED, REFUSED),
    ("T", "(T)", REFUSED, "T"),
    ("T^3", "(T^3)", REFUSED, "T^3"),
    ("1", "1", REFUSED, "1"),
    ("3 + T", "(T)", REFUSED, "T"),
    ("2*T", "(2*T)", REFUSED, "2*T"),
    ("T^-1 + 2*T^3", "(T^-1 + 2*T^3)", REFUSED, "T^-1 + 2*T^3"),
    ("x", "x", REFUSED, REFUSED),
    ("x^0", "1", REFUSED, REFUSED),
    ("x^8", "x^8", REFUSED, REFUSED),
    ("(1)*x", "x", REFUSED, REFUSED),
    ("(T + 1)*x^2 + x", "x + (1 + T)*x^2", REFUSED, REFUSED),
    ("(4*T)*x", "(T)*x", REFUSED, REFUSED),
    ("(0)*x^3", "0", REFUSED, REFUSED),
    ("(T^-1)*x^0", "(T^-1)", REFUSED, REFUSED),
    ("x + (2)*x", "0", REFUSED, REFUSED),
    ("x^2 + (T^-1)*x^2", "(T^-1 + 1)*x^2", REFUSED, REFUSED),
    # whitespace is dropped around + * ^ ( ) -, and refused inside a number or a name
    ("( T ^ -1 + 2 * T ^ 2 )*x^ 2", "(T^-1 + 2*T^2)*x^2", REFUSED, REFUSED),
    ("( 2 * T ) * z _ 3", REFUSED, REFUSED, REFUSED),
    ("1 0", REFUSED, REFUSED, REFUSED),
    ("x^1 2", REFUSED, REFUSED, REFUSED),
    ("z_1 0", REFUSED, REFUSED, REFUSED),
    ("z_0", REFUSED, "z_0", REFUSED),
    ("z_8", REFUSED, "z_8", REFUSED),
    ("(T)*z_1", REFUSED, "(T)*z_1", REFUSED),
    ("z_1 + z_1", REFUSED, "(2)*z_1", REFUSED),
    ("(2)*z_1 + z_1", REFUSED, "0", REFUSED),
    ("0 + z_1", REFUSED, REFUSED, REFUSED),
    ("(T^-1)*z_2 + 0", REFUSED, REFUSED, REFUSED),
    ("w_1", REFUSED, REFUSED, REFUSED),
    ("z_9", REFUSED, REFUSED, REFUSED),
    ("x^9", REFUSED, REFUSED, REFUSED),
    ("x + ", REFUSED, REFUSED, REFUSED),
    ("+ x", REFUSED, REFUSED, REFUSED),
    ("x ++ x", REFUSED, REFUSED, REFUSED),
    ("()", REFUSED, REFUSED, REFUSED),
    ("()*z_1", REFUSED, REFUSED, REFUSED),
    ("(T)*x + ()", REFUSED, REFUSED, REFUSED),
    ("(T", REFUSED, REFUSED, REFUSED),
    ("T)", REFUSED, REFUSED, REFUSED),
    ("(T))*x", REFUSED, REFUSED, REFUSED),
    ("(T+1", REFUSED, REFUSED, REFUSED),
    ("x+T)", REFUSED, REFUSED, REFUSED),
    ("(T)*(T)", REFUSED, REFUSED, REFUSED),
    ("(T)*1", REFUSED, REFUSED, REFUSED),
    ("z_1*(T)", REFUSED, REFUSED, REFUSED),
    ("x^٣", REFUSED, REFUSED, REFUSED),
    ("z_١", REFUSED, REFUSED, REFUSED),
    ("(²)*x", REFUSED, REFUSED, REFUSED),
]

PARSERS = {
    "field": lambda text: lelement_from_text(text, EXT),
    "dual": lambda text: dual_from_text(text, HOPF),
    "laurent": lambda text: LaurentPoly.from_text(text, 3),
}


def _read(parser, text):
    try:
        return str(PARSERS[parser](text))
    except ValueError:
        return REFUSED


@pytest.mark.parametrize("text, field, dual, laurent", CORPUS, ids=[repr(row[0]) for row in CORPUS])
def test_corpus(text, field, dual, laurent):
    assert {name: _read(name, text) for name in PARSERS} == {"field": field, "dual": dual, "laurent": laurent}


def test_helement_repr():
    t3 = HElement.t_power(3, HOPF, LaurentPoly.monomial(3, 1))
    assert repr(HElement.t_power(0, HOPF) + t3) == "HElement('t^0 + (T)*t^3')"


def test_public_text_functions_are_the_element_methods():
    assert lelement_to_text is LElement.to_text and dual_to_text is DualElement.to_text
    assert lelement_from_text == LElement.from_text and dual_from_text == DualElement.from_text


def test_p_is_checked_once_per_parsed_laurent_polynomial(monkeypatch):
    # the params records have checked p already; a bare LaurentPoly.from_text checks it once
    calls = []
    monkeypatch.setattr(base_arith, "is_prime", lambda m: calls.append(m) or m in (2, 3))
    lelement_from_text("(T^-1 + 2*T)*x + (T)*x^2 + T^3", EXT)
    dual_from_text("(T + 1)*z_1 + z_2 + (2*T^4)*z_8", HOPF)
    assert calls == []
    LaurentPoly.from_text("T^-1 + 2*T + T^2", 3)
    assert calls == [3]
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        LaurentPoly.from_text("T", 4)
