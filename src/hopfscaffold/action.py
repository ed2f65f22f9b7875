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
the support of z, and the kernel prunes every partial product by its
t-residue against them, so only the t-components z pairs with are formed.
A digit of x^i at a place p^q above every read t contributes x^{d p^q}(x)1
alone, so the kernel forms the image of x^{i mod p^S} once (p^S the least
power of p above the read t) and shifts its x-leg for every such i.
act reads the kernel's integer terms (terms(i), the x-leg whole, each
c * f^m * beta^k) in the loop that scales them: y's coefficient of x^i
times z's of t^k is formed once per k, a plain term (m = k = 0) scales it
by the integer c, and a twist or fold term by c * f^m * beta^k from the
kernel's memo (DigitKernel.coefficient).  generator_actions gives the
actions of the z_{p^s}, one kernel each, which monomial_images walks
along hopf_dual.trie_walk and verify_scaffold applies; z_{p^s} reads
t^{p^s} only, so its kernel forms at most p^{s+1} images over any number
of elements and shifts them.

For the generators z_{p^s} with s <= r the action on x-monomials has a
closed form (act_fast), used as an independent cross-check of act.
"""

from __future__ import annotations

from typing import Callable

from .base_arith import LaurentPoly
from .field_tower import ExtensionParams, LElement, l_mul
from .hopf_dual import DualElement, trie_walk
from .hopf_primal import DigitKernel, HopfParams


def check_compat(ext: ExtensionParams, hopf: HopfParams, y: LElement | None = None) -> None:
    """ValueError unless ext and hopf share p and n and y, when given, belongs to ext."""
    if ext.p != hopf.p or ext.n != hopf.n:
        raise ValueError("extension and Hopf parameters must share p and n")
    if y is not None:
        y._check(ext, "field element does not belong to the extension")


def act(z: DualElement, y: LElement, ext: ExtensionParams, hopf: HopfParams) -> LElement:
    """Action of a dual element: pair z against the t-components of the coaction.

    The digit kernel reads t in the support of z: it drops each partial
    product whose t-exponent matches no z-index modulo p to the place of
    the next nonzero digit of the x-exponent, so only the t-components z
    pairs with are formed.
    """
    check_compat(ext, hopf, y)
    z._check(ext, "dual element does not belong to the dual algebra")
    return _action_of(z, ext, hopf)(y)


def _action_of(z: DualElement, ext: ExtensionParams, hopf: HopfParams) -> Callable[[LElement], LElement]:
    """y |-> act(z, y) for elements y of ext, with one digit kernel for every y."""
    zc = dict(z.nonzero_items())
    kernel = DigitKernel(hopf, ext.beta, zc)
    coefficient = kernel.coefficient

    def apply(y: LElement) -> LElement:
        out: dict[int, LaurentPoly] = {}
        for i, c in y.nonzero_items():
            scaled: dict[int, LaurentPoly] = {}  # t -> c * z_t, formed for the t read
            for (x, t, m, k), e in kernel.terms(i).items():
                if t not in scaled:
                    scaled[t] = c * zc[t]
                term = scaled[t] * (coefficient(m, k, e) if m or k else e)
                out[x] = out[x] + term if x in out else term
        return LElement._from_terms(ext.p, ext.degree, out)

    return apply


def generator_actions(ext: ExtensionParams, hopf: HopfParams) -> list[Callable[[LElement], LElement]]:
    """The maps y |-> act(z_{p^s}, y) for s = 0 ... n - 1 on elements y of ext, one digit kernel each."""
    check_compat(ext, hopf)
    return [_action_of(DualElement.z_basis(ext.p**s, hopf), ext, hopf) for s in range(ext.n)]


def monomial_images(y: LElement, ext: ExtensionParams, hopf: HopfParams) -> list[LElement]:
    """The image of y under every z-monomial, the digit-j one at index j.

    Formed along hopf_dual.trie_walk: with (j - p^s, s) = trie_step(j),
    the digit-j image is z_{p^s} applied to the stored digit-(j - p^s)
    image, since (ab)y = a(by) and the dual algebra is commutative.  That
    is p^n - 1 single-generator actions, through one kernel per generator.
    """
    check_compat(ext, hopf, y)
    return trie_walk(y, generator_actions(ext, hopf), ext.p)


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
