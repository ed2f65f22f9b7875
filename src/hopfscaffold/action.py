"""The comodule structure of L over K[t]/(t^{p^n}) and the induced dual action.

The coaction sends the field generator x to

    x(x)1 + 1(x)t + f * sum_{l=1}^{p-1} x^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

and extends multiplicatively (it is a K-algebra map).  A dual element
then acts on y by pairing it against the t-components of the coaction
image.  Only this coaction is implemented; the family of alternatives
obtained by rescaling the generators coincides with it after a parameter
change, so callers realize those by substituting (beta, f).

For the generators z_{p^s} with s <= r the action on x-monomials has a
closed form (act_fast), used as an independent cross-check of the generic
coaction path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .base_arith import padic_digits
from .field_tower import ExtensionParams, LElement, l_mul
from .hopf_dual import DualElement
from .hopf_primal import HopfParams, twist_coefficients


@dataclass(frozen=True)
class CoactionImage:
    """Image of an element of L in L (x) H: one LElement per t-power."""

    components: tuple[LElement, ...]

    def component(self, k: int) -> LElement:
        return self.components[k]


def _check_compat(ext: ExtensionParams, hopf: HopfParams) -> None:
    if ext.p != hopf.p or ext.n != hopf.n:
        raise ValueError("extension and Hopf parameters must share p and n")


def _lh_mul(a: list[LElement], b: list[LElement], ext: ExtensionParams) -> list[LElement]:
    # product in L (x) H: t-convolution (truncated) with coefficients in L
    pn = ext.degree
    out = [LElement.zero(ext) for _ in range(pn)]
    for k1, c1 in enumerate(a):
        if c1.is_zero():
            continue
        for k2, c2 in enumerate(b):
            if k1 + k2 >= pn:
                break
            if c2.is_zero():
                continue
            out[k1 + k2] = out[k1 + k2] + l_mul(c1, c2, ext)
    return out


def _alpha_x(ext: ExtensionParams, hopf: HopfParams) -> list[LElement]:
    p, pn = ext.p, ext.degree
    comps = [LElement.zero(ext) for _ in range(pn)]
    comps[0] = LElement.x_power(1, ext)
    comps[1] = LElement.one(ext)
    pr = p**hopf.r
    for ell, coeff in twist_coefficients(hopf):
        comps[pr * (p - ell)] = comps[pr * (p - ell)] + LElement.x_power(pr * ell, ext, coeff)
    return comps


_ALPHA_CACHE: dict[tuple[ExtensionParams, HopfParams], list[list[LElement]]] = {}
_ALPHA_LOCK = threading.Lock()


def _alpha_x_powers(ext: ExtensionParams, hopf: HopfParams) -> list[list[LElement]]:
    """Cached powers of the coaction image of x, for exponents 0 ... p^n - 1."""
    key = (ext, hopf)
    with _ALPHA_LOCK:
        powers = _ALPHA_CACHE.get(key)
        if powers is None:
            pn = ext.degree
            unit = [LElement.zero(ext) for _ in range(pn)]
            unit[0] = LElement.one(ext)
            powers = [unit, _alpha_x(ext, hopf)]
            while len(powers) < pn:
                powers.append(_lh_mul(powers[-1], powers[1], ext))
            _ALPHA_CACHE[key] = powers
        return powers


def coaction(y: LElement, ext: ExtensionParams, hopf: HopfParams) -> CoactionImage:
    """Coaction image of y, extended K-linearly from the cached powers of x."""
    _check_compat(ext, hopf)
    pn = ext.degree
    powers = _alpha_x_powers(ext, hopf)
    comps = [LElement.zero(ext) for _ in range(pn)]
    for i, c in y.nonzero_items():
        for k, comp in enumerate(powers[i]):
            if not comp.is_zero():
                comps[k] = comps[k] + comp.scale(c)
    return CoactionImage(tuple(comps))


def act(z: DualElement, y: LElement, ext: ExtensionParams, hopf: HopfParams) -> LElement:
    """Action of a dual element: pair z against the t-components of the coaction."""
    _check_compat(ext, hopf)
    if len(z.coeffs) != ext.degree:
        raise ValueError("dual element has the wrong dimension")
    image = coaction(y, ext, hopf)
    out = LElement.zero(ext)
    for k, c in z.nonzero_items():
        comp = image.components[k]
        if not comp.is_zero():
            out = out + comp.scale(c)
    return out


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
