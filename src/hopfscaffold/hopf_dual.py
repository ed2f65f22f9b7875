"""The dual Hopf algebra H of K[t]/(t^{p^n}) in its dual basis z_0 ... z_{p^n-1}.

z_j pairs with t^i as the Kronecker delta.  Multiplication is induced by
the comultiplication upstairs: the z_i coefficient of a product pairs the
factors against Delta(t^i), the image of u^i under hopf_primal's
digit kernel with beta = 0 (the kernel of the coaction of L), which
walks the digits of each t it reads, here the support of the right
factor on the second leg: one kernel serves every product by a fixed
right factor, and for a generator z_{p^s} it forms the images of the
i mod p^{s+1} once and reads every i off them.
Each term u (x) t^v of Delta(t^i) has u + v = i + (p^{r+1} - 1) m with
m p^r <= v, so a product reads one key (v, m) of the kept image of i.
The p^n monomials z_1^{j_0} z_p^{j_1} ... z_{p^{n-1}}^{j_{n-1}} (digit
exponents of j) form a K-basis.  z_monomials builds them along the digit
trie (trie_walk): the digit-j monomial is the digit-(j - p^s) one times
z_{p^s}, s the lowest nonzero digit of j (trie_step).  trie_walk builds
each generator's step, so its kernel, once per walk; action.monomial_images
walks the same trie.  dual_basis_rank certifies the basis by the shape of
their evaluation matrix: lower triangular with the nonzero constants
prod_s j_s! mod p on its diagonal.

The dual side also carries a coalgebra structure, induced by the plain
truncated-polynomial multiplication upstairs: z_j splits as the sum of
z_{j-i} (x) z_i over 0 <= i <= j.  It is not materialized here; its only
downstream use is the measuring identity z_j(y y') = sum z_{j-i}(y) z_i(y'),
which the action tests exercise directly.

The text format is base_arith's CoeffVector format with monomials z_j.
"""

from __future__ import annotations

import re
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
    DualElement._check(z, h)
    HElement._check(h, z)
    hc = dict(h.nonzero_items())
    return sum((c * hc[j] for j, c in z.nonzero_items() if j in hc), LaurentPoly._from_reduced(z.p, {}))


def dual_mult(a: DualElement, b: DualElement, hopf: HopfParams) -> DualElement:
    """Product in the dual algebra: _times(b, hopf) applied to a."""
    for z in (a, b):
        DualElement._check(z, hopf, "dual element does not belong to the dual algebra")
    return _times(b, hopf)(a)


def _times(b: DualElement, hopf: HopfParams) -> Callable[[DualElement], DualElement]:
    """a |-> a*b for dual elements a, with one digit kernel for every a.

    The z_i coefficient of a*b pairs a and b with the legs of the kernel's
    integer terms u (x) t^v of Delta(t^i), read at v in the support of b.
    At beta = 0 each has k = 0, so u + v = i + (p^{r+1} - 1) m, m p^r <= v:
    for u in the support of a, v in that of b and 0 <= m <= v // p^r (m = 0
    alone for z_{p^s}, s < r), the one term is the key (v, m) of the
    kernel's kept(i), i = u + v - (p^{r+1} - 1) m.  The kernel takes b's
    coefficients as the weights of the v it reads, so the term adds a's z_u
    coefficient times the scalar b_v * c * f^m (DigitKernel.scalar): one
    product.
    """
    bc, pn, zero = dict(b.nonzero_items()), hopf.degree, LaurentPoly._from_reduced(hopf.p, {})
    step, q = hopf.p ** (hopf.r + 1) - 1, hopf.p**hopf.r
    kernel = DigitKernel(hopf, zero, bc)
    scalar = kernel.scalar

    def apply(a: DualElement) -> DualElement:
        out: dict[int, LaurentPoly] = {}
        for u, x in a.nonzero_items():
            for v in bc:
                for m in range(v // q + 1):
                    if 0 <= (i := u + v - step * m) < pn and (c := kernel.kept(i).get((v, m))):
                        term = x * scalar(v, m, 0, c)
                        out[i] = out[i] + term if i in out else term
        return DualElement._from_terms(hopf.p, pn, out)

    return apply


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
        step = _times(DualElement.z_basis(hopf.p**s, hopf), hopf)
        for _ in range(d):
            acc = step(acc)
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


def trie_walk(first, step: Callable[[DualElement], Callable], hopf: HopfParams) -> list:
    """[first] and, for 0 < j < p^n, step(z_{p^s}) applied to entry j - p^s, (j - p^s, s) = trie_step(j, p); one step per s."""
    steps = [step(DualElement.z_basis(hopf.p**s, hopf)) for s in range(hopf.n)]
    out = [first]
    for j in range(1, hopf.degree):
        parent, s = trie_step(j, hopf.p)
        out.append(steps[s](out[parent]))
    return out


def z_monomials(hopf: HopfParams) -> list[DualElement]:
    """Every z-monomial, the digit-j one at index j, each one product from its trie parent by its generator."""
    return trie_walk(DualElement.one(hopf), lambda z: _times(z, hopf), hopf)


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
