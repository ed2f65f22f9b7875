"""Freeness of fractional ideals over their associated orders.

Everything here is integer combinatorics in the ideal exponent h: with b
the break number and p^n the degree, define

    d_h(j) = floor((b*j + b - h) / p^n)
    w_h(j) = min { d_h(i + j) - d_h(i) : digits of i and j sum below p per slot }

computed after normalizing h into the window 0 <= b - h <= p^n - 1 (the
tables are wrong outside it; d_h(0) can go negative).  Only the
prod_s (p - j_s) digit-compatible i enter the minimum, and i + j never
carries.  The submasks of i are the j with j_s <= i_s for every s.

is_free builds the whole w table from closed forms: read w_h(j) as
is_free(h, ext).w_table[j].  Put c = b - h in [0, p^n) and write

    b*k + c = A_k*p^n + alpha(k),    b*j = Q_j*p^n + beta_j,

with alpha, beta in [0, p^n), so d_h(k) = A_k.  For i compatible with j,
d_h(i + j) - d_h(i) = Q_j + [alpha(i) + beta_j >= p^n].  The i
compatible with j are the submasks of p^n - 1 - j, so with m(k) the
minimum of alpha over the submasks of k,

    w_h(j) = Q_j + [m(p^n - 1 - j) + beta_j >= p^n].

For a submask j of i, alpha(i - j) + beta_j reaches p^n exactly when
beta_j > alpha(i) (alpha(i) is their sum reduced mod p^n).  So i is a
generator witness iff every nonzero submask j of i has w_h(j) = Q_j and
beta_j > alpha(i): one more minimum over submasks.  Each minimum over
submasks is one pass per digit over the p^n-entry table (_submask_min),
so a report costs O(n*p^n).

The ideal of exponent h is free over its associated order iff w_h = d_h
pointwise, and the order itself has the basis T^{-w_h(j)} times the
digit-j generator monomial of the dual algebra.  Those basis statements
are licensed only when the action has a scaffold of tolerance at least
2*p^n - 1, so assoc_order_basis refuses below that unless forced (and
then marks the output untrusted).

All results are invariant under h -> h + p^n (the ideals differ by the
unit T).

No entry point here reads the scaffold: assoc_order_basis takes the
tolerance from field_tower, and only materialize_basis_entry imports
hopf_dual.z_monomial, when called, so a freeness, atlas or assoc-order
job loads neither module.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, NamedTuple, Optional

from .base_arith import LaurentPoly, res_mod
from .field_tower import ExtensionParams, check_compat, tolerance
from .hopf_primal import HopfParams

if TYPE_CHECKING:
    from .hopf_dual import DualElement


class InsufficientToleranceError(ValueError):
    """Raised when a basis claim is requested below the licensing tolerance.

    reason says why without the remedy, which the message names as force=True.
    """

    def __init__(self, reason: str):
        super().__init__(f"{reason}; pass force=True to emit an untrusted listing")
        self.reason = reason


class IdealIndex(NamedTuple):
    """An ideal exponent h with its normalized representative and T-shift.

    h_raw = h_norm + m*p^n with 0 <= b - h_norm <= p^n - 1.  The window
    normalization can disagree with floor(h/p^n) as a definition of m for
    b > 1; m here is always derived from the window.
    """

    h_raw: int
    h_norm: int
    m: int

    @classmethod
    def normalize(cls, h: int, ext: ExtensionParams) -> "IdealIndex":
        pn = ext.degree
        h_norm = ext.b - res_mod(ext.b - h, pn)
        return cls(h, h_norm, (h - h_norm) // pn)


def d_h(h: int, j: int, ext: ExtensionParams) -> int:
    """floor((b*j + b - h_norm)/p^n), floor toward -inf; b - h_norm is (b - h) mod p^n for the window of ext."""
    pn = ext.degree
    return (ext.b * j + (ext.b - h) % pn) // pn


def noether_criterion(ext: ExtensionParams) -> Optional[int]:
    """Least m in [1, n] with res(b) dividing p^m - 1, if any.

    When it exists the ring of integers is known to be free over its
    associated order; the converse direction goes through the h = 0
    freeness test instead.  The converse fails, as at (p, n, b) =
    (3, 5, 7), where 7 divides 3^m - 1 first at m = 6 > n.
    """
    rb = res_mod(ext.b, ext.degree)
    for m in range(1, ext.n + 1):
        if (ext.p**m - 1) % rb == 0:
            return m
    return None


def freeness_b1(h: int, ext: ExtensionParams) -> bool:
    """Closed-form freeness test for b = 1: res(h - 2) > (p^n - 3)/2."""
    if ext.b != 1:
        raise ValueError("closed form only applies when b = 1")
    return 2 * res_mod(h - 2, ext.degree) > ext.degree - 3


def _submask_min(values: list[int], ext: ExtensionParams) -> list[int]:
    """values[k] replaced by the minimum of values over the digit-submasks of k.

    One pass per digit: split by the top digit into p rows, take the
    running minimum down the rows, and write the rows back interleaved,
    which rotates the top digit to the bottom.  After n passes every digit
    has been the top one once and the order is restored.
    """
    p, size = ext.p, ext.degree // ext.p
    out = list(values)
    for _ in range(ext.n):
        rows = [out[t * size : (t + 1) * size] for t in range(p)]
        for t in range(1, p):
            rows[t] = [x if x < y else y for x, y in zip(rows[t], rows[t - 1])]
        for t, row in enumerate(rows):
            out[t::p] = row
    return out


def _generator_witnesses(idx: IdealIndex, ext: ExtensionParams, w_tab: tuple[int, ...]) -> list[int]:
    """The i with d_h(i) > d_h(i-j) + w_h(j) for every nonzero digit-submask j of i.

    A non-free ideal's generator count is their number; a free one needs
    one generator.  The j-range is read as (0, p^n - 1] with the digit
    condition j_s <= i_s, and the witnesses are exposed so that reading
    can be audited.

    With b*i + c = A_i*p^n + alpha(i) and b*j = Q_j*p^n + beta_j, the pair
    (i, j) passes iff w_h(j) = Q_j and beta_j > alpha(i) (see the module
    docstring).  So i is a witness iff the minimum over its nonzero
    submasks j of [beta_j if w_h(j) = Q_j else -1] exceeds alpha(i); the
    empty minimum is p^n, so i = 0 always is one.
    """
    pn, b = ext.degree, ext.b
    c = b - idx.h_norm
    low = _submask_min(
        [pn] + [b * j % pn if w == b * j // pn else -1 for j, w in enumerate(w_tab) if j], ext
    )
    return [i for i in range(pn) if low[i] > (b * i + c) % pn]


def _json_header(idx: IdealIndex, ext: ExtensionParams, hopf: HopfParams) -> dict:
    """The fields p, n, b, h_raw, h_norm, m, r and f_val of an ideal report; ValueError unless ext and hopf share p and n."""
    check_compat(ext, hopf)
    return {
        "p": ext.p, "n": ext.n, "b": ext.b, "h_raw": idx.h_raw, "h_norm": idx.h_norm, "m": idx.m,
        "r": hopf.r, "f_val": hopf.f.valuation(),
    }


class BasisEntry(NamedTuple):
    """One associated-order basis record: generator digits and T-shift."""

    digits: tuple[int, ...]
    shift: int

    def to_json_dict(self) -> dict:
        return {"digits": list(self.digits), "shift": self.shift}


class FreenessReport(NamedTuple):
    """Full per-ideal verdict: tables, freeness, generators, basis data."""

    h: IdealIndex
    d_table: tuple[int, ...]
    w_table: tuple[int, ...]
    free: bool
    witness_j: Optional[int]
    generator_count: int
    ext: ExtensionParams

    @property
    def basis(self) -> tuple[BasisEntry, ...]:
        """The records (digits of j, -w_h(j)), derived from the w table when read."""
        p, n = self.ext.p, self.ext.n
        # product() runs the most significant digit slowest, so reversed tuples count up in j
        digits = product(range(p), repeat=n)
        return tuple(BasisEntry(ds[::-1], -w) for ds, w in zip(digits, self.w_table))

    def to_json_dict(self, hopf: HopfParams) -> dict:
        return {
            **_json_header(self.h, self.ext, hopf),
            "d": list(self.d_table),
            "w": list(self.w_table),
            "free": self.free,
            "witness_j": self.witness_j,
            "generator_count": self.generator_count,
            "basis": [entry.to_json_dict() for entry in self.basis],
        }


def is_free(h: int, ext: ExtensionParams) -> FreenessReport:
    """Classify the ideal of exponent h: free iff the d and w tables agree.

    When free, a single generator of valuation b (shifted by T^m) does
    the job; when not, witness_j records the first disagreeing index.
    """
    idx = IdealIndex.normalize(h, ext)
    pn, b = ext.degree, ext.b
    c = b - idx.h_norm
    numer = range(c, b * pn + c, b)  # b*k + c = A_k*p^n + alpha(k)
    d_tab = tuple([v // pn for v in numer])
    m = _submask_min([v % pn for v in numer], ext)
    w_tab = tuple([(b * j + m[pn - 1 - j]) // pn for j in range(pn)])
    free = d_tab == w_tab
    witness = next((j for j in range(pn) if d_tab[j] != w_tab[j]), None)
    count = 1 if free else len(_generator_witnesses(idx, ext, w_tab))
    return FreenessReport(idx, d_tab, w_tab, free, witness, count, ext)


class AssocOrderBasis(NamedTuple):
    """Associated-order basis listing, possibly force-emitted below tolerance."""

    h: IdealIndex
    entries: tuple[BasisEntry, ...]
    tolerance: Optional[int]
    trusted: bool
    ext: ExtensionParams

    def to_json_dict(self, hopf: HopfParams) -> dict:
        return {
            **_json_header(self.h, self.ext, hopf),
            "tolerance": self.tolerance,
            "trusted": self.trusted,
            "basis": [entry.to_json_dict() for entry in self.entries],
        }


def assoc_order_basis(h: int, ext: ExtensionParams, hopf: HopfParams, *, force: bool = False) -> AssocOrderBasis:
    """Basis records T^{-w_h(j)} * (digit-j z-monomial) for the associated order.

    Requires a scaffold of tolerance >= 2*p^n - 1; below that the listing
    is not a theorem and the call refuses unless force=True, in which
    case the result is marked untrusted.
    """
    tol = tolerance(ext, hopf)
    licensed = tol is not None and tol >= 2 * ext.degree - 1
    if not licensed and not force:
        bound = f"2*p^n - 1 = {2 * ext.degree - 1}"
        raise InsufficientToleranceError(
            f"scaffold hypothesis unmet, so no tolerance reaches {bound}"
            if tol is None
            else f"tolerance {tol} below {bound}"
        )
    report = is_free(h, ext)
    return AssocOrderBasis(report.h, report.basis, tol, licensed, ext)


def materialize_basis_entry(entry: BasisEntry, hopf: HopfParams) -> DualElement:
    """The dual element T^{shift} * z_monomial(digits) for a basis record."""
    from .hopf_dual import z_monomial

    return z_monomial(entry.digits, hopf).scale(LaurentPoly.monomial(hopf.p, entry.shift))
