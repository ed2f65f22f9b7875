"""The purely inseparable extension L = K[x]/(x^{p^n} - beta).

beta is a finitely supported element of K with v_K(beta) = -b < 0 and
p not dividing b, so L/K is totally ramified of degree p^n and the
extension valuation satisfies v_L(x) = -b, v_L|_K = p^n * v_K.  Elements
of L are sparse coefficient vectors over K in the powers of x.

Exactness of l_valuation rests on the p^n candidate values
p^n*v_K(c_i) - b*i being pairwise incongruent mod p^n (as p does not
divide b), so the minimum is attained by a single term and no
cancellation can hide it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Union

from .base_arith import INF, CoeffVector, LaurentPoly, is_prime

_X_TERM_RE = re.compile(r"^(?:\((?P<coef>[^()]*)\)(?:\*(?P<var1>x(?:\^\d+)?))?|(?P<var2>x(?:\^\d+)?))$")


class ExtensionParams(namedtuple("ExtensionParams", "p n b beta")):
    """Parameters (p, n, b, beta) of the extension L = K(x), x^{p^n} = beta."""

    __slots__ = ()

    def __new__(cls, p: int, n: int, b: int, beta: LaurentPoly) -> "ExtensionParams":
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 2:
            raise ValueError("n must be at least 2")
        if b < 1 or b % p == 0:
            raise ValueError("b must be a positive integer prime to p")
        if beta.p != p:
            raise ValueError("beta lives over the wrong prime field")
        if beta.valuation() != -b:
            raise ValueError(f"v_K(beta) must equal -b = {-b}")
        return super().__new__(cls, p, n, b, beta)

    @property
    def degree(self) -> int:
        return self.p**self.n

    @classmethod
    def monogenic(cls, p: int, n: int, b: int) -> "ExtensionParams":
        """The default extension with beta = T^{-b}."""
        return cls(p, n, b, LaurentPoly.monomial(p, -b))


class LElement(CoeffVector):
    """Element of L as the tuple of x^0 ... x^{p^n - 1} coefficients in K."""

    __slots__ = ()
    _index_name = "x-exponent"

    @classmethod
    def one(cls, ext: ExtensionParams) -> "LElement":
        return cls.x_power(0, ext)

    @classmethod
    def x_power(cls, i: int, ext: ExtensionParams, coeff: Union[LaurentPoly, int] = 1) -> "LElement":
        """The monomial coeff * x^i with 0 <= i < p^n."""
        return cls._basis(i, ext, coeff)

    @classmethod
    def scalar(cls, c: LaurentPoly, ext: ExtensionParams) -> "LElement":
        """The element of K <= L with constant coefficient c."""
        return cls.x_power(0, ext, c)

    def __str__(self) -> str:
        return lelement_to_text(self)

    def __repr__(self) -> str:
        return f"LElement({lelement_to_text(self)!r})"


def l_mul(a: LElement, b: LElement, ext: ExtensionParams) -> LElement:
    """Product in L: polynomial product with x^{p^n + k} folded to beta * x^k."""
    pn = ext.degree
    conv: dict[int, LaurentPoly] = {}
    for i, ci in a.nonzero_items():
        for j, cj in b.nonzero_items():
            e = i + j
            prod = ci * cj
            conv[e] = conv[e] + prod if e in conv else prod
    out: dict[int, LaurentPoly] = {}
    for e, c in conv.items():
        if e >= pn:
            e, c = e - pn, c * ext.beta
        out[e] = out[e] + c if e in out else c
    return LElement._from_terms(ext.p, pn, out)


def l_valuation(y: LElement, ext: ExtensionParams) -> Union[int, float]:
    """v_L(y) = min over nonzero coefficients of p^n*v_K(c_i) - b*i; INF at 0."""
    best: Union[int, float] = INF
    pn = ext.degree
    for i, c in y.nonzero_items():
        v = pn * c.valuation() - ext.b * i
        if v < best:
            best = v
    return best


def ideal_membership(y: LElement, h: int, ext: ExtensionParams) -> bool:
    """Whether y lies in the fractional ideal {v_L >= h}; zero always does."""
    return l_valuation(y, ext) >= h


# -- text format ------------------------------------------------------------


def lelement_to_text(y: LElement) -> str:
    """Render as `+`-joined terms `(<coeff>)*x^i`, coefficient 1 left bare."""
    one = LaurentPoly._from_reduced(y.p, {0: 1})
    parts = []
    for i, c in y.nonzero_items():
        xpart = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if c == one:
            parts.append(xpart)
        elif i == 0:
            parts.append(f"({c.to_text()})")
        elif i == 1:
            parts.append(f"({c.to_text()})*x")
        else:
            parts.append(f"({c.to_text()})*x^{i}")
    return " + ".join(parts) if parts else "0"


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return parts


def lelement_from_text(text: str, ext: ExtensionParams) -> LElement:
    """Parse the LElement text format.

    Accepts `(<LaurentPoly>)*x^i` terms as well as the shorthands `x`,
    `x^i` (coefficient 1), a bare parenthesized coefficient (meaning x^0)
    and bare Laurent terms such as `T^2` or `3`.
    """
    s = "".join(text.split())
    one = LaurentPoly._from_reduced(ext.p, {0: 1})
    terms: dict[int, LaurentPoly] = {}
    for term in _split_top_level(s):
        m = _X_TERM_RE.match(term)
        if m is None:
            # bare Laurent term contributes to the x^0 coefficient
            exp, poly = 0, LaurentPoly.from_text(term, ext.p)
        else:
            var = m.group("var1") or m.group("var2")
            exp = 0 if var is None else (1 if var == "x" else int(var[2:]))
            if not 0 <= exp < ext.degree:
                raise ValueError(f"x-exponent {exp} out of range [0, {ext.degree})")
            coef_text = m.group("coef")
            poly = one if coef_text is None else LaurentPoly.from_text(coef_text, ext.p)
        terms[exp] = terms[exp] + poly if exp in terms else poly
    return LElement._from_terms(ext.p, ext.degree, terms)
