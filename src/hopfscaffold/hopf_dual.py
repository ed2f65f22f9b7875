"""The dual Hopf algebra H of K[t]/(t^{p^n}) in its dual basis z_0 ... z_{p^n-1}.

z_j pairs with t^i as the Kronecker delta.  Multiplication is induced by
the comultiplication upstairs: the z_i coefficient of a product is the
pairing of the factors against the tensor expansion of t^i.  The p^n
monomials z_1^{j_0} z_p^{j_1} ... z_{p^{n-1}}^{j_{n-1}} (digit exponents
of j, factors in ascending order) form a K-basis; dual_basis_rank
certifies this by fraction-free Gaussian elimination over F_p[T].

The dual side also carries a coalgebra structure, induced by the plain
truncated-polynomial multiplication upstairs: z_j splits as the sum of
z_{j-i} (x) z_i over 0 <= i <= j.  It is not materialized here; its only
downstream use is the measuring identity z_j(y y') = sum z_{j-i}(y) z_i(y'),
which the action tests exercise directly.
"""

from __future__ import annotations

import re
from typing import Sequence, Union

from .base_arith import CoeffVector, LaurentPoly, PadicDigits, padic_digits
from .field_tower import _split_top_level
from .hopf_primal import HElement, HopfParams, delta_power

_Z_TERM_RE = re.compile(r"^(?:\((?P<coef>[^()]*)\)\*)?z_(?P<idx>\d+)$")


class DualElement(CoeffVector):
    """Element of the dual algebra as the tuple of z_0 ... z_{p^n-1} coefficients."""

    __slots__ = ()
    _index_name = "z-index"

    @classmethod
    def z_basis(cls, j: int, hopf: HopfParams, coeff: Union[LaurentPoly, int] = 1) -> "DualElement":
        """The basis functional z_j, optionally scaled."""
        return cls._basis(j, hopf, coeff)

    @classmethod
    def one(cls, hopf: HopfParams) -> "DualElement":
        """z_0, the identity of the dual algebra."""
        return cls.z_basis(0, hopf)

    def __str__(self) -> str:
        return dual_to_text(self)

    def __repr__(self) -> str:
        return f"DualElement({dual_to_text(self)!r})"


def dual_eval(z: DualElement, h: HElement) -> LaurentPoly:
    """Pair a dual element against an element of K[t]/(t^{p^n})."""
    if z.p != h.p or len(z.coeffs) != len(h.coeffs):
        raise ValueError("incompatible elements")
    total = LaurentPoly._from_reduced(z.p, {})
    for j, c in z.nonzero_items():
        hc = h.coeffs[j]
        if not hc.is_zero():
            total = total + c * hc
    return total


def dual_mult(a: DualElement, b: DualElement, hopf: HopfParams) -> DualElement:
    """Product in the dual algebra.

    The z_i coefficient of a*b is the sum over coefficient pairs of
    a and b weighted by the matching entries of the tensor expansion
    of t^i.
    """
    if a.p != hopf.p or b.p != hopf.p:
        raise ValueError("modulus mismatch")
    pairs = [(j1, c1, j2, c2) for j1, c1 in a.nonzero_items() for j2, c2 in b.nonzero_items()]
    zero = LaurentPoly._from_reduced(hopf.p, {})
    out = []
    for i in range(hopf.degree):
        di = delta_power(i, hopf)
        total = zero
        for j1, c1, j2, c2 in pairs:
            e = di.entry(j1, j2)
            if not e.is_zero():
                total = total + c1 * c2 * e
        out.append(total)
    return DualElement(out)


def z_monomial(digits: Union[PadicDigits, Sequence[int]], hopf: HopfParams) -> DualElement:
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


# -- basis rank --------------------------------------------------------------

def _fraction_free_rank(rows: list[list[LaurentPoly]], p: int) -> int:
    """Rank over K of a matrix of Laurent polynomials (Bareiss elimination).

    Rows are first scaled by powers of T into F_p[T]; every division in
    the elimination is then exact, which exact_div enforces.
    """
    m = []
    for row in rows:
        vals = [c.valuation() for c in row if not c.is_zero()]
        shift = min(vals) if vals else 0
        m.append([c.shift(-shift) for c in row] if shift < 0 else list(row))
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    zero = LaurentPoly._from_reduced(p, {})
    prev = LaurentPoly._from_reduced(p, {0: 1})
    row = 0
    for col in range(ncols):
        pivot = next((k for k in range(row, nrows) if not m[k][col].is_zero()), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for k in range(row + 1, nrows):
            lead = m[k][col]
            for j in range(col + 1, ncols):
                m[k][j] = (pv * m[k][j] - lead * m[row][j]).exact_div(prev)
            m[k][col] = zero
        prev = pv
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def dual_basis_rank(hopf: HopfParams) -> int:
    """Rank over K of the p^n x p^n evaluation matrix of the z-monomials.

    Row j holds the pairings of the digit-j monomial against the t^i
    basis; full rank p^n certifies that the monomials form a K-basis.
    """
    rows = []
    for j in range(hopf.degree):
        mono = z_monomial(padic_digits(j, hopf.p, hopf.n), hopf)
        rows.append(list(mono.coeffs))
    return _fraction_free_rank(rows, hopf.p)


# -- text format ------------------------------------------------------------


def dual_to_text(z: DualElement) -> str:
    """Render as `+`-joined terms `(<coeff>)*z_j`, coefficient 1 left bare."""
    one = LaurentPoly._from_reduced(z.p, {0: 1})
    parts = []
    for j, c in z.nonzero_items():
        if c == one:
            parts.append(f"z_{j}")
        else:
            parts.append(f"({c.to_text()})*z_{j}")
    return " + ".join(parts) if parts else "0"


def dual_from_text(text: str, hopf: HopfParams) -> DualElement:
    """Parse the DualElement text format (terms `(<LaurentPoly>)*z_j` or `z_j`)."""
    s = "".join(text.split())
    if s in ("", "0"):
        return DualElement.zero(hopf)
    one = LaurentPoly._from_reduced(hopf.p, {0: 1})
    coeffs = [LaurentPoly._from_reduced(hopf.p, {})] * hopf.degree
    for term in _split_top_level(s):
        m = _Z_TERM_RE.match(term)
        if m is None:
            raise ValueError(f"malformed dual element term: {term!r}")
        j = int(m.group("idx"))
        if not 0 <= j < hopf.degree:
            raise ValueError(f"z-index {j} out of range [0, {hopf.degree})")
        coef_text = m.group("coef")
        poly = one if coef_text is None else LaurentPoly.from_text(coef_text, hopf.p)
        coeffs[j] = coeffs[j] + poly
    return DualElement(coeffs)
