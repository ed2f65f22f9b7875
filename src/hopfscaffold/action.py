"""The comodule structure of L over K[t]/(t^{p^n}) and the induced dual action.

The coaction sends the field generator x to

    x(x)1 + 1(x)t + f * sum_{l=1}^{p-1} x^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

and extends multiplicatively (it is a K-algebra map).  A dual element
then acts on y by pairing it against the t-components of the coaction
image.  Only this coaction is implemented; the family of alternatives
obtained by rescaling the generators coincides with it after a parameter
change, so callers realize those by substituting (beta, f).

The images are computed digit by digit.  L (x) H is commutative of
characteristic p, so Frobenius gives the image of x^{p^s} in at most p+1
terms: x^{p^s}(x)1 + 1(x)t^{p^s} plus the twist terms with exponents
scaled by p^s and coefficients raised to the p^s (twist terms whose
t-exponent reaches p^n vanish).  The image of x^i is the product over the
base-p digits i_s of those generator images to the power i_s, kept as a
sparse map (x-exponent, t-exponent) -> coefficient.  The action prunes
every partial product whose t-exponent exceeds the largest z-index it
reads, so only the t-components z pairs with are ever formed.

For the generators z_{p^s} with s <= r the action on x-monomials has a
closed form (act_fast), used as an independent cross-check of the generic
coaction path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_arith import LaurentPoly, padic_digits
from .field_tower import ExtensionParams, LElement
from .hopf_dual import DualElement
from .hopf_primal import HopfParams, twist_coefficients

# An element of L (x) H as {(x-exponent, t-exponent): nonzero coefficient}.
_Sparse = dict[tuple[int, int], LaurentPoly]


@dataclass(frozen=True)
class CoactionImage:
    """Image of an element of L in L (x) H: one LElement per t-power."""

    components: tuple[LElement, ...]

    def component(self, k: int) -> LElement:
        return self.components[k]


def _check_compat(ext: ExtensionParams, hopf: HopfParams, y: LElement | None = None) -> None:
    if ext.p != hopf.p or ext.n != hopf.n:
        raise ValueError("extension and Hopf parameters must share p and n")
    if y is not None and (y.p != ext.p or len(y.coeffs) != ext.degree):
        raise ValueError("field element does not belong to the extension")


def _frobenius(c: LaurentPoly, q: int) -> LaurentPoly:
    """c^q for q a power of p: F_p is fixed, so only exponents scale."""
    return LaurentPoly._from_reduced(c.p, {e * q: a for e, a in c.items()})


def _lh_mul(a: _Sparse, b: _Sparse, ext: ExtensionParams, kmax: int) -> _Sparse:
    """Product in L (x) H, dropping every term above t^kmax."""
    pn = ext.degree
    out: _Sparse = {}
    for (xa, ta), ca in a.items():
        for (xb, tb), cb in b.items():
            t = ta + tb
            if t > kmax:
                continue
            x = xa + xb
            c = ca * cb
            if x >= pn:
                x -= pn
                c = c * ext.beta
            key = (x, t)
            out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if not c.is_zero()}


def _digit_powers(ext: ExtensionParams, hopf: HopfParams, kmax: int) -> list[list[_Sparse]]:
    """powers[s][d] = coaction image of x^{d p^s} for d < p, truncated above t^kmax."""
    p, pn = ext.p, ext.degree
    one = LaurentPoly._from_reduced(p, {0: 1})
    twist = twist_coefficients(hopf)
    powers = []
    for s in range(ext.n):
        q = p**s
        gen: _Sparse = {(q, 0): one}
        if q <= kmax:
            gen[(0, q)] = one
        prs = p ** (hopf.r + s)
        for ell, coeff in twist:
            if prs * (p - ell) <= kmax:
                gen[(prs * ell, prs * (p - ell))] = _frobenius(coeff, q)
        row = [{(0, 0): one}, gen]
        while len(row) < p:
            row.append(_lh_mul(row[-1], gen, ext, kmax))
        powers.append(row)
    return powers


def _x_power_image(i: int, powers: list[list[_Sparse]], ext: ExtensionParams, kmax: int) -> _Sparse:
    """Coaction image of x^i as the product of its digit factors."""
    image = None
    for row in powers:
        i, d = divmod(i, ext.p)
        if d:
            image = row[d] if image is None else _lh_mul(image, row[d], ext, kmax)
    return powers[0][0] if image is None else image


def _to_lelement(coeffs: dict[int, LaurentPoly], zero: LaurentPoly, pn: int) -> LElement:
    out = [zero] * pn
    for x, c in coeffs.items():
        out[x] = c
    return LElement(out)


def coaction(y: LElement, ext: ExtensionParams, hopf: HopfParams) -> CoactionImage:
    """Coaction image of y: every t-component of the digit-factored images of its x-powers."""
    _check_compat(ext, hopf, y)
    pn = ext.degree
    powers = _digit_powers(ext, hopf, pn - 1)
    comps: list[dict[int, LaurentPoly]] = [{} for _ in range(pn)]
    for i, c in y.nonzero_items():
        for (x, t), coeff in _x_power_image(i, powers, ext, pn - 1).items():
            comp = comps[t]
            term = c * coeff
            comp[x] = comp[x] + term if x in comp else term
    zero = LaurentPoly._from_reduced(ext.p, {})
    return CoactionImage(tuple(_to_lelement(comp, zero, pn) for comp in comps))


def act(z: DualElement, y: LElement, ext: ExtensionParams, hopf: HopfParams) -> LElement:
    """Action of a dual element: pair z against the t-components of the coaction.

    Only the t-components in the support of z are formed.
    """
    _check_compat(ext, hopf, y)
    if z.p != ext.p or len(z.coeffs) != ext.degree:
        raise ValueError("dual element does not belong to the dual algebra")
    pn = ext.degree
    zero = LaurentPoly._from_reduced(ext.p, {})
    zc = dict(z.nonzero_items())
    if not zc:
        return LElement([zero] * pn)
    kmax = max(zc)
    powers = _digit_powers(ext, hopf, kmax)
    out: dict[int, LaurentPoly] = {}
    for i, c in y.nonzero_items():
        for (x, t), coeff in _x_power_image(i, powers, ext, kmax).items():
            w = zc.get(t)
            if w is not None:
                term = c * w * coeff
                out[x] = out[x] + term if x in out else term
    return _to_lelement(out, zero, pn)


def act_fast(s: int, i: int, ext: ExtensionParams, hopf: HopfParams) -> LElement:
    """Closed-form image of x^i under z_{p^s}, valid for 0 <= s <= r.

    For s < r this is digit(i, s) * x^{i - p^s}; for s = r there is the
    extra twist term -i * f * x^{p^r(p-1) + i - 1}, with x-exponents at or
    above p^n folded through beta.  There is no closed form for s > r;
    use act for the generic path.
    """
    _check_compat(ext, hopf)
    p, n, r = ext.p, ext.n, hopf.r
    pn = ext.degree
    if not 0 <= s <= r:
        raise ValueError(f"no closed form for s = {s}; need 0 <= s <= r = {r}")
    if not 0 <= i < pn:
        raise ValueError(f"x-exponent {i} out of range [0, {pn})")
    if i == 0:
        return LElement.zero(ext)
    digit = padic_digits(i, p, n)[s]
    out = LElement.zero(ext)
    if digit:
        out = out + LElement.x_power(i - p**s, ext, digit)
    if s == r:
        c = (-i) % p
        if c:
            e = p**r * (p - 1) + i - 1
            coeff = hopf.f * c
            if e >= pn:
                out = out + LElement.x_power(e - pn, ext, coeff * ext.beta)
            else:
                out = out + LElement.x_power(e, ext, coeff)
    return out
