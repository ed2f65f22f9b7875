"""The comodule structure of L over K[t]/(t^{p^n}) and the induced dual action.

The coaction sends the field generator x to

    x(x)1 + 1(x)t + f * sum_{l=1}^{p-1} x^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

and extends multiplicatively (it is a K-algebra map).  A dual element
then acts on y by pairing it against the t-components of the coaction
image.  Since z_k pairs with t^k as the Kronecker delta, the t^k
component of the coaction image of y is act(z_k, y); act is the one path
to the coaction, and no coaction image is materialized.  Only this
coaction is implemented; the family of alternatives obtained by
rescaling the generators coincides with it after a parameter change, so
callers realize those by substituting (beta, f).

The images come from hopf_primal.DigitKernel with fold constant beta, the
kernel that gives Delta(t^i) with beta = 0.  act reads the t-exponents in
the support of z, and the kernel walks the base-p digits of each of them
against those of i, so only the t-components z pairs with are formed.
A digit of x^i at a place p^q above every read t contributes x^{d p^q}(x)1
alone, so the image of x^i has the (t, m) keys of the image of
x^{i mod p^S} (p^S the least power of p above the read t), which the
kernel forms once; terms(i) derives each x-exponent and fold count k
from i, t and m.  The kernel takes z's coefficients as the weights of
the t it reads, so a term c * f^m * beta^k of the image of x^i on t^t
adds y's coefficient of x^i times the kernel's scalar
z_t * c * f^m * beta^k (DigitKernel.scalar): one product.
monomial_images walks hopf_dual.trie_walk with one action, so one kernel,
per generator z_{p^s}; z_{p^s} reads t^{p^s} only, so its kernel forms at
most p^{s+1} images for any number of elements, each x^i read off one.

For the generators z_{p^s} with s <= r the action on x-monomials has a
closed form (act_fast), used as an independent cross-check of act.
"""

from __future__ import annotations

from typing import Callable

from .base_arith import LaurentPoly
from .field_tower import ExtensionParams, HopfParams, LElement, check_compat, l_mul
from .hopf_dual import DualElement, trie_walk
from .hopf_primal import DigitKernel


def act(z: DualElement, y: LElement, ext: ExtensionParams, hopf: HopfParams) -> LElement:
    """Action of a dual element: pair z against the t-components of the coaction.

    The digit kernel reads t in the support of z: it splits each such t
    over the base-p digits of the x-exponent, so only the t-components z
    pairs with are formed.
    """
    check_compat(ext, hopf, y)
    DualElement._check(z, ext, "dual element does not belong to the dual algebra")
    return _action_of(z, ext, hopf)(y)


def _action_of(z: DualElement, ext: ExtensionParams, hopf: HopfParams) -> Callable[[LElement], LElement]:
    """y |-> act(z, y) for elements y of ext, with one digit kernel for every y."""
    kernel = DigitKernel(hopf, ext.beta, dict(z.nonzero_items()))
    scalar = kernel.scalar

    def apply(y: LElement) -> LElement:
        out: dict[int, LaurentPoly] = {}
        for i, c in y.nonzero_items():
            for (x, t, m, k), e in kernel.terms(i).items():
                term = c * scalar(t, m, k, e)
                out[x] = out[x] + term if x in out else term
        return LElement._from_terms(ext.p, ext.degree, out)

    return apply


def monomial_images(y: LElement, ext: ExtensionParams, hopf: HopfParams) -> list[LElement]:
    """The image of y under every z-monomial, the digit-j one at index j: its generator on its trie parent's, as (ab)y = a(by)."""
    check_compat(ext, hopf, y)
    return trie_walk(y, lambda z: _action_of(z, ext, hopf), hopf)


def act_fast(s: int, i: int, ext: ExtensionParams, hopf: HopfParams) -> LElement:
    """Closed-form image of x^i under z_{p^s}, valid for 0 <= s <= r.

    For s < r this is digit(i, s) * x^{i - p^s}; for s = r there is the
    extra twist term -i * f * x^{p^r(p-1) + i - 1}, with x-exponents at or
    above p^n folded through beta.  There is no closed form for s > r;
    use act for the generic path.
    """
    check_compat(ext, hopf)
    p, r = ext.p, hopf.r
    pn = ext.degree
    if not 0 <= s <= r:
        raise ValueError(f"no closed form for s = {s}; need 0 <= s <= r = {r}")
    if not 0 <= i < pn:
        raise ValueError(f"x-exponent {i} out of range [0, {pn})")
    digit = i // p**s % p
    out = LElement.zero(ext)
    if digit:
        out = out + LElement.x_power(i - p**s, ext, digit)
    if s == r and (c := (-i) % p):
        twist = LElement.x_power(p**r * (p - 1), ext, hopf.f * c)
        out = out + l_mul(twist, LElement.x_power(i - 1, ext), ext)
    return out
