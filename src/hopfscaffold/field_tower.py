"""The purely inseparable extension L = K[x]/(x^{p^n} - beta).

beta is a finitely supported element of K with v_K(beta) = -b < 0 and
p not dividing b, so L/K is totally ramified of degree p^n and the
extension valuation satisfies v_L(x) = -b, v_L|_K = p^n * v_K.  Elements
of L are sparse coefficient vectors over K in the powers of x.  Their text
format is base_arith's CoeffVector format with monomials x and x^i; this
module adds only that spelling and the x^0 shorthands.  l_mul is
base_arith's product of K[u]/(u^{p^n} - beta) at the beta of L.
HopfParams live here too, beside the rules that read both parameter
sets: check_compat, the tolerance F = p^n*v_K(f) - b*(p^{r+1} - 1) and
the bound 2*p^n - 1 it must reach to license a freeness listing
(Byott-Childs-Elder 2018), so no job loads H to check its parameters.

Exactness of l_valuation rests on the p^n candidate values
p^n*v_K(c_i) - b*i being pairwise incongruent mod p^n (as p does not
divide b), so the minimum is attained by a single term and no
cancellation can hide it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Optional, Union

from .base_arith import INF, CoeffVector, LaurentPoly, _fold_mul, is_prime


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


class HopfParams(namedtuple("HopfParams", "p n r f")):
    """Parameters (p, n, r, f) with 0 < r < n <= 2r and f nonzero in K."""

    __slots__ = ()

    def __new__(cls, p: int, n: int, r: int, f: LaurentPoly) -> "HopfParams":
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not 0 < r < n <= 2 * r:
            raise ValueError(f"need 0 < r < n <= 2r, got r={r}, n={n}")
        if f.p != p:
            raise ValueError("f lives over the wrong prime field")
        if f.is_zero():
            raise ValueError("f must be nonzero")
        return super().__new__(cls, p, n, r, f)

    degree = ExtensionParams.degree  # p^n, read off p and n alone


class LElement(CoeffVector):
    """Element of L as the tuple of x^0 ... x^{p^n - 1} coefficients in K."""

    __slots__ = ()
    _index_name = "x-exponent"
    _noun = "field element"
    # (c)*x^i, (c)*x, x^i, x; at x^0 a bare (c) or a bare Laurent term such as T^2 or 3
    _term_re = re.compile(r"(?=.)(?:(?P<coef>\([^()]+\)|[-0-9T^*]+$)(?:\*(?=x)|$))?(?P<mono>x(?:\^(?P<idx>[0-9]+))?)?")

    @staticmethod
    def _monomial(k: int) -> str:
        return "" if k == 0 else "x" if k == 1 else f"x^{k}"

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


def check_compat(ext: ExtensionParams, hopf: HopfParams, y: LElement | None = None) -> None:
    """ValueError unless ext and hopf share p and n and y, when given, belongs to ext."""
    if ext.p != hopf.p or ext.n != hopf.n:
        raise ValueError("extension and Hopf parameters must share p and n")
    if y is not None:
        LElement._check(y, ext, "field element does not belong to the extension")


def tolerance(ext: ExtensionParams, hopf: HopfParams) -> Optional[int]:
    """p^n*v_K(f) - b*(p^{r+1} - 1), or None when v_K(f) < b*p^{r+1-n}."""
    check_compat(ext, hopf)
    vf = hopf.f.valuation()
    pn = ext.degree
    pr1 = ext.p ** (hopf.r + 1)
    if pn * vf < ext.b * pr1:
        return None
    return pn * vf - ext.b * (pr1 - 1)


def licensing_bound(ext: ExtensionParams) -> int:
    """2*p^n - 1, the least tolerance at which a scaffold licenses a freeness listing over ext."""
    return 2 * ext.degree - 1


def min_f_valuation_for(target: int, ext: ExtensionParams, r: int) -> int:
    """Least v_K(f) whose tolerance reaches the target (target >= 2)."""
    if target < 2:
        raise ValueError("target tolerance must be at least 2")
    pn = ext.degree
    pr1 = ext.p ** (r + 1)
    need = -((target + ext.b * (pr1 - 1)) // -pn)
    floor_hyp = -(ext.b * pr1 // -pn)
    return max(need, floor_hyp)


def l_mul(a: LElement, b: LElement, ext: ExtensionParams) -> LElement:
    """Product in L: polynomial product with x^{p^n + k} folded to beta * x^k."""
    return _fold_mul(LElement, a, b, ext, ext.beta, "field element does not belong to the extension")


def l_valuation(y: LElement, ext: ExtensionParams) -> Union[int, float]:
    """v_L(y) = min over nonzero coefficients of p^n*v_K(c_i) - b*i; INF at 0."""
    LElement._check(y, ext, "field element does not belong to the extension")
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

lelement_to_text = LElement.to_text
lelement_from_text = LElement.from_text
