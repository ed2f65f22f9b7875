"""The dual Hopf algebra H of K[t]/(t^{p^n}) in its dual basis z_0 ... z_{p^n-1}.

z_j pairs with t^i as the Kronecker delta.  Multiplication is induced by
the comultiplication upstairs: the z_i coefficient of a product pairs the
factors against Delta(t^i), the image of u^i under hopf_primal's
digit-factored kernel with beta = 0 (the kernel of the coaction of L),
read on the second leg at the support of the right factor: for a
generator z_{p^s} the kernel forms the images of the i mod p^{s+1} and
shifts their first leg.
The p^n monomials z_1^{j_0} z_p^{j_1} ... z_{p^{n-1}}^{j_{n-1}} (digit
exponents of j) form a K-basis.  z_monomials builds them all along the
digit trie: the digit-j monomial is the digit-(j - p^s) one times z_{p^s},
s the lowest nonzero digit of j (trie_step), so each costs one product.
trie_walk is that walk; action.monomial_images takes it with the actions.
dual_basis_rank certifies the basis by the shape of their evaluation
matrix: lower triangular with the nonzero constants prod_s j_s! mod p on
its diagonal.

The dual side also carries a coalgebra structure, induced by the plain
truncated-polynomial multiplication upstairs: z_j splits as the sum of
z_{j-i} (x) z_i over 0 <= i <= j.  It is not materialized here; its only
downstream use is the measuring identity z_j(y y') = sum z_{j-i}(y) z_i(y'),
which the action tests exercise directly.

The text format is base_arith's CoeffVector format with monomials z_j.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Sequence, Union

from .base_arith import CoeffVector, LaurentPoly
from .hopf_primal import DigitKernel, HElement, HopfParams


class DualElement(CoeffVector):
    """Element of the dual algebra by its nonzero coefficients of z_0 ... z_{p^n-1}."""

    __slots__ = ()
    _index_name = "z-index"
    _noun = "dual element"
    _term_re = re.compile(r"(?:(?P<coef>\([^()]+\))\*)?(?P<mono>z_(?P<idx>[0-9]+))")

    @staticmethod
    def _monomial(k: int) -> str:
        return f"z_{k}"

    @classmethod
    def z_basis(cls, j: int, hopf: HopfParams, coeff: Union[LaurentPoly, int] = 1) -> "DualElement":
        """The basis functional z_j, optionally scaled."""
        return cls._basis(j, hopf, coeff)

    @classmethod
    def one(cls, hopf: HopfParams) -> "DualElement":
        """z_0, the identity of the dual algebra."""
        return cls.z_basis(0, hopf)


def dual_eval(z: DualElement, h: HElement) -> LaurentPoly:
    """Pair a dual element against an element of K[t]/(t^{p^n})."""
    z._check(h)
    hc = dict(h.nonzero_items())
    return sum((c * hc[j] for j, c in z.nonzero_items() if j in hc), LaurentPoly._from_reduced(z.p, {}))


def _pairing_shifts(hopf: HopfParams) -> range:
    """The u + v - i of the terms u (x) t^v of Delta(t^i): (p^{r+1} - 1)*m for 0 <= m < p^{n-r}.

    A digit-kernel term c f^m beta^k u^u (x) t^v of u^i has u + k p^n + v =
    i + (p^{r+1} - 1) m, with k = 0 at beta = 0, and m = sum_{s < n-r} k_s p^s
    for its k_s < p twists of digit s (none for s >= n - r): every m < p^{n-r}.
    """
    step = hopf.p ** (hopf.r + 1) - 1
    return range(0, step * hopf.p ** (hopf.n - hopf.r), step)


def dual_mult(a: DualElement, b: DualElement, hopf: HopfParams) -> DualElement:
    """Product in the dual algebra.

    The z_i coefficient of a*b pairs a with the first and b with the
    second tensor leg of Delta(t^i), the digit kernel's image of u^i with
    beta = 0.  Only i = u + v - x with u, v in the supports of a, b and x
    in _pairing_shifts can pair, so only those images are formed.  The
    kernel reads v in the support of b; terms with u outside the support
    of a are dropped as they are summed.
    """
    for z in (a, b):
        z._check(hopf, "dual element does not belong to the dual algebra")
    ac, bc = dict(a.nonzero_items()), dict(b.nonzero_items())
    pn, zero = hopf.degree, LaurentPoly._from_reduced(hopf.p, {})
    shifts, sums = _pairing_shifts(hopf), {u + v for u in ac for v in bc}
    reach = {s - x for s in sums for x in shifts if 0 <= s - x < pn}
    kernel = DigitKernel(hopf, zero, bc)
    out: dict[int, LaurentPoly] = {}
    for i in reach:
        out[i] = sum((ac[u] * bc[v] * c for (u, v), c in kernel.image(i).items() if u in ac), zero)
    return DualElement._from_terms(hopf.p, pn, out)


def z_monomial(digits: Sequence[int], hopf: HopfParams) -> DualElement:
    """The product z_1^{j_0} z_p^{j_1} ... z_{p^{n-1}}^{j_{n-1}}.

    Factors are multiplied left to right in ascending generator order;
    the dual algebra is commutative so the order only fixes a canonical
    evaluation path for reports.
    """
    ds = tuple(digits)
    if len(ds) != hopf.n:
        raise ValueError(f"expected {hopf.n} digits, got {len(ds)}")
    if any(not 0 <= d < hopf.p for d in ds):
        raise ValueError("digit out of range [0, p)")
    acc = DualElement.one(hopf)
    for s, d in enumerate(ds):
        gen = DualElement.z_basis(hopf.p**s, hopf)
        for _ in range(d):
            acc = dual_mult(acc, gen, hopf)
    return acc


def trie_step(j: int, p: int) -> tuple[int, int]:
    """(j - p^s, s) for s the lowest nonzero base-p digit of j >= 1.

    The digit-j z-monomial is the digit-(j - p^s) one times z_{p^s} (the
    dual algebra is commutative), and j - p^s < j, so a walk over
    j = 1, 2, ... reaches every monomial from an earlier one by one
    generator.
    """
    if j < 1:
        raise ValueError(f"trie step needs j >= 1, got {j}")
    s, q = 0, 1
    while j // q % p == 0:
        s, q = s + 1, q * p
    return j - q, s


def trie_walk(first, steps: Sequence[Callable], p: int) -> list:
    """[first] and, for 0 < j < p^len(steps), steps[s](entry j - p^s) with (j - p^s, s) = trie_step(j, p)."""
    out = [first]
    for j in range(1, p ** len(steps)):
        parent, s = trie_step(j, p)
        out.append(steps[s](out[parent]))
    return out


def z_monomials(hopf: HopfParams) -> list[DualElement]:
    """Every z-monomial, the digit-j one at index j, each one dual_mult from its trie parent."""
    steps = [partial(dual_mult, b=DualElement.z_basis(hopf.p**s, hopf), hopf=hopf) for s in range(hopf.n)]
    return trie_walk(DualElement.one(hopf), steps, hopf.p)


# -- basis certificate -------------------------------------------------------

def dual_basis_rank(hopf: HopfParams) -> int:
    """Rank over K of the p^n x p^n evaluation matrix of the z-monomials, read off its shape.

    Row j holds the pairings of the digit-j monomial against the t^i
    basis, i.e. its z_i coefficients.  Every term u (x) t^v of Delta(t^i)
    has u + v >= i, and only the untwisted binomial terms reach equality,
    so the z_{u+v} coefficient of z_u z_v is C(u + v, u) mod p and no
    product has a z-index above the sum of its factors' largest ones.
    Along the digit trie the digit-j monomial therefore has no z_i with
    i > j, and by Lucas its z_j coefficient is prod_s j_s! mod p, nonzero
    since every digit j_s < p.  The matrix is lower triangular with a
    nonzero constant diagonal, so its rank is p^n and the monomials form a
    K-basis.  This walks the rows from z_monomials and confirms that row
    j's largest z-index is j (only nonzero coefficients are stored, so
    the entry there is nonzero); a row that breaks the shape is a fault in
    dual_mult and raises AssertionError naming j.
    """
    for j, mono in enumerate(z_monomials(hopf)):
        top = max(dict(mono.nonzero_items()), default=None)
        if top != j:
            raise AssertionError(f"z-monomial row {j} has largest z-index {top}, not {j}")
    return hopf.degree


# -- text format ------------------------------------------------------------

dual_to_text = DualElement.to_text
dual_from_text = DualElement.from_text
