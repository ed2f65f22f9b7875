"""The dual Hopf algebra H of K[t]/(t^{p^n}) in its dual basis z_0 ... z_{p^n-1}.

z_j pairs with t^i as the Kronecker delta.  Multiplication is induced by
the comultiplication upstairs: the z_i coefficient of a product pairs the
factors against Delta(t^i), the image of u^i under hopf_primal's
digit-factored kernel with beta = 0 (the kernel of the coaction of L).
The p^n monomials z_1^{j_0} z_p^{j_1} ... z_{p^{n-1}}^{j_{n-1}} (digit
exponents of j) form a K-basis.  z_monomials builds them all along the
digit trie: the digit-j monomial is the digit-(j - p^s) one times z_{p^s},
s the lowest nonzero digit of j (trie_step), so each costs one product.
dual_basis_rank certifies the basis by the rank of their evaluation matrix
reduced mod T, falling back to fraction-free Gaussian elimination over
F_p[T] when that rank is short.

The dual side also carries a coalgebra structure, induced by the plain
truncated-polynomial multiplication upstairs: z_j splits as the sum of
z_{j-i} (x) z_i over 0 <= i <= j.  It is not materialized here; its only
downstream use is the measuring identity z_j(y y') = sum z_{j-i}(y) z_i(y'),
which the action tests exercise directly.
"""

from __future__ import annotations

import re
from typing import Sequence, Union

from .base_arith import CoeffVector, LaurentPoly
from .field_tower import _split_top_level
from .hopf_primal import DigitKernel, HElement, HopfParams

_Z_TERM_RE = re.compile(r"^(?:\((?P<coef>[^()]*)\)\*)?z_(?P<idx>\d+)$")


class DualElement(CoeffVector):
    """Element of the dual algebra by its nonzero coefficients of z_0 ... z_{p^n-1}."""

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
    z._check(h)
    hc = dict(h.nonzero_items())
    return sum((c * hc[j] for j, c in z.nonzero_items() if j in hc), LaurentPoly._from_reduced(z.p, {}))


def dual_mult(a: DualElement, b: DualElement, hopf: HopfParams) -> DualElement:
    """Product in the dual algebra.

    The z_i coefficient of a*b pairs a with the first and b with the
    second tensor leg of Delta(t^i), the digit kernel's image of u^i with
    beta = 0.  The kernel reads u in the support of a and v in that of b,
    pruning every partial product whose exponents miss them by residue, so
    only the terms that pair are formed; no i above max(a) + max(b) is
    tried, since every term u (x) t^v of Delta(t^i) has u + v >= i.
    """
    for z in (a, b):
        z._check(hopf, "dual element does not belong to the dual algebra")
    ac, bc = dict(a.nonzero_items()), dict(b.nonzero_items())
    if not ac or not bc:
        return DualElement.zero(hopf)
    zero = LaurentPoly._from_reduced(hopf.p, {})
    kernel = DigitKernel(hopf, zero, bc, ac)
    out: dict[int, LaurentPoly] = {}
    for i in range(min(hopf.degree, max(ac) + max(bc) + 1)):
        out[i] = sum((ac[u] * bc[v] * c for (u, v), c in kernel.image(i).items()), zero)
    return DualElement._from_terms(hopf.p, hopf.degree, out)


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


def z_monomials(hopf: HopfParams) -> list[DualElement]:
    """Every z-monomial, the digit-j one at index j, each one dual_mult from its trie parent."""
    gens = [DualElement.z_basis(hopf.p**s, hopf) for s in range(hopf.n)]
    monos = [DualElement.one(hopf)]
    for j in range(1, hopf.degree):
        parent, s = trie_step(j, hopf.p)
        monos.append(dual_mult(monos[parent], gens[s], hopf))
    return monos


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


def _rank_mod_t(rows: list[dict[int, LaurentPoly]], p: int) -> int:
    """Rank over F_p of the matrix mod T, each row first shifted by its least valuation.

    The shift is a unit of K and puts the row in F_p[T], not all of it
    divisible by T; reduction mod T is a ring map F_p[T] -> F_p, so a
    nonzero minor mod T lifts to a nonzero minor over K.  The result is
    therefore a lower bound for the rank over K.  Each row is a map
    {column: nonzero entry}, so a row costs its support, not its length.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> row with 1 there, 0 left of it
    for row in rows:
        low = min((c.valuation() for c in row.values()), default=None)
        red = {k: c.terms[low] for k, c in row.items() if c.valuation() == low}
        while red:
            col = min(red)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(red[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in red.items()}
                break
            m = red[col]
            for k, v in piv.items():
                x = (red.get(k, 0) - m * v) % p
                if x:
                    red[k] = x
                else:
                    red.pop(k, None)
    return len(pivots)


def _certified_rank(vectors: Sequence[CoeffVector], p: int) -> int:
    """Rank over K of the vectors: the sparse mod-T rank when it is already full, else Bareiss.

    Only the Bareiss fallback reads the vectors as dense rows.
    """
    full = min(len(vectors), vectors[0].degree if vectors else 0)
    rank = _rank_mod_t([dict(v.nonzero_items()) for v in vectors], p)
    return rank if rank == full else _fraction_free_rank([list(v.coeffs) for v in vectors], p)


def dual_basis_rank(hopf: HopfParams) -> int:
    """Rank over K of the p^n x p^n evaluation matrix of the z-monomials.

    Row j holds the pairings of the digit-j monomial against the t^i
    basis; full rank p^n certifies that the monomials form a K-basis.  The
    rows come from z_monomials, one product each.  Each row is shifted
    into F_p[T] by its least valuation and the matrix is reduced mod T,
    reading only the nonzero entries; a full rank over F_p there is a full
    rank over K.  When it falls short (at (p, n, r, f) = (2, 4, 2, T^-3)
    the rank mod T is 14 of 16), the rank comes from _fraction_free_rank
    on the unreduced dense rows.
    """
    return _certified_rank(z_monomials(hopf), hopf.p)


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
    terms: dict[int, LaurentPoly] = {}
    for term in _split_top_level(s):
        m = _Z_TERM_RE.match(term)
        if m is None:
            raise ValueError(f"malformed dual element term: {term!r}")
        j = int(m.group("idx"))
        if not 0 <= j < hopf.degree:
            raise ValueError(f"z-index {j} out of range [0, {hopf.degree})")
        coef_text = m.group("coef")
        poly = one if coef_text is None else LaurentPoly.from_text(coef_text, hopf.p)
        terms[j] = terms[j] + poly if j in terms else poly
    return DualElement._from_terms(hopf.p, hopf.degree, terms)
