"""The monogenic Hopf algebra K[t]/(t^{p^n}) with twisted comultiplication.

For HopfParams (p, n, r, f), defined in field_tower, with 0 < r < n <= 2r
and f nonzero in K, the comultiplication on the generator is

    t |-> t(x)1 + 1(x)t + f * sum_{l=1}^{p-1} t^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

with counit t |-> 0 and antipode t |-> -t.  The constraint n <= 2r makes
t^{p^r} primitive (the twist terms of its comultiplication die under the
truncation t^{p^n} = 0), which is what coassociativity rests on.  h_mul
is base_arith's product of K[u]/(u^{p^n} - beta) at beta = 0.

Elements of H (x) H are sparse maps {(a, b): coefficient of t^a (x) t^b}
holding nonzero terms only.  Delta(t^i) is the image of u^i under
DigitKernel with beta = 0, and Delta(t) is delta_power(1).  That kernel,
which reads each t-exponent off its base-p digits against those of i, is
shared with the coaction of L (see action), which is the same formula
with x^{p^n} = beta in place of u^{p^n} = 0.  Its coefficients are all
c * f^m * beta^k with c in F_p, so it works in integers only.  The closed
multinomial expansion of the powers is exercised independently by the
test suite as a differential oracle, not used here.
"""

from __future__ import annotations

import math
import re
from collections.abc import Collection, Mapping

from .base_arith import CoeffVector, LaurentPoly, _fold_mul
from .field_tower import HopfParams


class HElement(CoeffVector):
    """Element of K[t]/(t^{p^n}) by its nonzero coefficients of t^0 ... t^{p^n - 1}."""

    __slots__ = ()
    _index_name = "t-exponent"
    _noun = "Hopf element"
    _term_re = re.compile(r"(?:(?P<coef>\([^()]+\))\*)?(?P<mono>t\^(?P<idx>[0-9]+))")

    @classmethod
    def t_power(cls, i: int, hopf: HopfParams, coeff: LaurentPoly | int = 1) -> "HElement":
        return cls._basis(i, hopf, coeff)

    @staticmethod
    def _monomial(k: int) -> str:
        return f"t^{k}"


def h_mul(a: HElement, b: HElement) -> HElement:
    """Product in K[t]/(t^{p^n}): convolution truncated by the nilpotent t."""
    return _fold_mul(HElement, a, b, a, LaurentPoly._from_reduced(a.p, {}), "incompatible elements")


def counit(h: HElement) -> LaurentPoly:
    """The counit, i.e. evaluation t -> 0: the constant coefficient."""
    HElement._check(h, h, "counit needs an element of the Hopf algebra")
    return dict(h.nonzero_items()).get(0, LaurentPoly._from_reduced(h.p, {}))


def antipode(h: HElement) -> HElement:
    """Substitute t -> -t (the stated antipode of the Hopf algebra).

    For p = 2 and n > r + 1 this map fails the antipode convolution
    axiom; see the test suite, which records the defect f * t^{2^{r+1}}
    rather than adjusting the map.
    """
    HElement._check(h, h, "antipode needs an element of the Hopf algebra")
    return HElement._from_terms(h.p, h.degree, {i: -c if i % 2 else c for i, c in h.nonzero_items()})


# An element of A (x) H as {(A-exponent, t-exponent): nonzero coefficient}.
Sparse = dict[tuple[int, int], LaurentPoly]
# Terms c * f^m * u^a (x) t^b of an image as {(b, m): c}, c in [1, p); a is implied (see DigitKernel).
Terms = dict[tuple[int, int], int]


class DigitKernel:
    """Images of u^i in A (x) H under u |-> u(x)1 + 1(x)t + twist, read off the base-p digits of each read t.

    A = K[u]/(u^{p^n} - beta): beta = ext.beta gives the coaction of L
    (u = x), beta = 0 gives the comultiplication of H (A = H).  A (x) H is
    commutative of characteristic p, so the image of u^i is the product
    over the base-p digits i_s of i of (u^{p^s}(x)1 + 1(x)t^{p^s} +
    f^{p^s} sum_l w_l u^{p^{r+s} l}(x)t^{p^{r+s}(p-l)})^{i_s}, with
    w_l = 1/(l!(p-l)!) = (-1)^l/l mod p (Frobenius fixes F_p; Wilson's
    theorem).  A term of it takes, at each digit s, a plain u-count a_s, a
    plain t-count b_s and C_s twists whose t-exponents add up to W_s p^{r+s}:
    coefficient i_s!/(a_s! b_s! C_s!) times the y^{W_s} coefficient of
    (sum_l w_l y^{p-l})^{C_s}, one table serving every digit.  Its t-exponent
    is the sum of b_s p^s + W_s p^{r+s}, and m = sum C_s p^s counts f.

    Every coefficient is c * f^m * beta^k with c in F_p.  A twist at digit
    s adds p^{r+s+1} to the unfolded A-exponent plus t and p^s to m, where
    a plain factor adds p^s, so every term of the image of u^i has
    unfolded A-exponent i - t + (p^{r+1} - 1) m.  Kept images are
    therefore Terms keyed by (t, m), as kept(i) returns them; terms(i)
    derives the rest: (k, u) = divmod(i - t + (p^{r+1} - 1) m, p^n) folds
    u^{p^n} = beta k times, and a term with k >= 1 vanishes at beta = 0.
    Walks that meet on one (t, m) add mod p, and a zero sum is dropped.
    No two kept terms share (u, t): two terms on one t differ in m by less
    than p^{n-r} (m p^r <= t < p^n), and p^{r+1} - 1 is a unit mod p^n.
    scalar(t, m, k, c) forms w_t * c * f^m * beta^k once per instance, for
    image(i), the action and the dual product alike: w_t is the value of t
    when t_read is a map (the coefficients of z in the action, of the right
    factor in the dual product) and 1 when it is a plain collection.

    terms(i) holds exactly the terms of the image of u^i whose t-exponent
    the caller reads (t_read), the A-leg whole.  Each read t is walked
    from digit 0 up with a residual R = t: a twist of digit s adds a
    multiple of p^{r+s} > p^s, so b_s = (R // p^s) mod p is forced, and
    each split of the rest of i_s into C twists, C <= R // p^{r+s}, and
    the y^W of the twist table with W p^{r+s} <= R branches with R
    reduced by b_s p^s + W p^{r+s}.  No later twist reaches digit s + r,
    so a read t with a digit below p^r above that of i is skipped, and a
    branch whose digit s + r exceeds that of i is dropped: every b the
    walk meets is at most its digit of i.  Once p^{r+s} > R no twist
    fits, and the remaining b are the digits of R // p^s, with
    coefficient the product of the C(i_s, b_s) (Lucas).  With p^S the
    least power of p above the largest read t (p^n at most), a digit at
    a place q >= S is walked only as u^{i_q p^q}(x)1, coefficient 1, so
    the image of u^i has the keys of the image of u^{i mod p^S}, which
    the instance keeps (images), as it keeps the twist table, each power
    formed the first time a walk reaches it and truncated above the
    largest read t.
    """

    __slots__ = ("p", "r", "pn", "f", "beta", "nil", "t_read", "tmax", "low", "twists", "images", "weighted", "scalars")

    def __init__(self, hopf: HopfParams, beta: LaurentPoly, t_read: Collection[int]):
        p = hopf.p
        self.p, self.r, self.pn, self.f, self.beta = p, hopf.r, hopf.degree, hopf.f, beta
        self.nil = beta.is_zero()  # a term folded through beta = 0 vanishes
        self.t_read, self.tmax = t_read, max(t_read, default=-1)
        self.low = 1  # p^S, the least power of p above tmax, at most p^n
        while self.low <= self.tmax and self.low < self.pn:
            self.low *= p
        self.weighted = isinstance(t_read, Mapping)
        self.scalars: dict[tuple[int, int, int, int], LaurentPoly] = {}  # (t, m, k, c) -> w_t * c * f^m * beta^k
        # twists[C] = (sum_l w_l y^{p-l})^C as [(W, coefficient)] in ascending W <= tmax // p^r
        self.twists: list[list[tuple[int, int]]] = [[(0, 1)]]
        self.images: dict[int, Terms] = {}  # i < p^S -> the image of u^i

    def kept(self, i: int) -> Terms:
        """The kept image of u^i, {(t, m): c} with u and k implied (read-only), walked once per i mod p^S."""
        low = i % self.low
        if low not in self.images:
            self.images[low] = self._walk(low)
        return self.images[low]

    def terms(self, i: int) -> dict[tuple[int, int, int, int], int]:
        """The read terms c * f^m * beta^k * u^u (x) t^t of the image of u^i as a fresh {(u, t, m, k): c}."""
        pn, step, nil, out = self.pn, self.p ** (self.r + 1) - 1, self.nil, {}
        for (t, m), c in self.kept(i).items():
            k, u = divmod(i - t + step * m, pn)
            if not (k and nil):
                out[(u, t, m, k)] = c
        return out

    def scalar(self, t: int, m: int, k: int, c: int) -> LaurentPoly:
        """The Laurent scalar w_t * c * f^m * beta^k of a term on t^t, formed once per instance."""
        key = (t, m, k, c)
        if key not in self.scalars:
            w = self.t_read[t] * c if self.weighted else LaurentPoly._from_reduced(self.p, {0: c})
            self.scalars[key] = w * (self.f**m * self.beta**k) if m or k else w
        return self.scalars[key]

    def image(self, i: int) -> Sparse:
        """The read terms of the image of u^i, as a fresh {(u, t): nonzero coefficient} map."""
        scalar = self.scalar
        return {(u, t): scalar(t, m, k, c) for (u, t, m, k), c in self.terms(i).items()}

    def _walk(self, i: int) -> Terms:
        """The kept image of u^i for i < p^S: every split of each read t over the digits of i."""
        p, pr, comb, out = self.p, self.p**self.r, math.comb, {}
        edge = pr // p  # p^(r-1): a branch to digit s + 1 makes digit s + r, r - 1 places up, final
        for t in self.t_read:
            low, j = t % pr, i
            while low and low % p <= j % p:
                low, j = low // p, j // p
            if low:  # a digit of t below p^r, which no twist reaches, exceeds that of i
                continue
            stack = [(t, i, 1, 0, 1)]  # (R // p^s, i // p^s, p^s, m, coefficient) at digit s
            while stack:
                rest, j, q, m, c = stack.pop()
                if rest < pr:  # no twist fits: the plain t-counts are the digits of rest (Lucas)
                    while rest:
                        rest, b = divmod(rest, p)
                        j, d = divmod(j, p)
                        c *= comb(d, b)
                    out[t, m] = out.get((t, m), 0) + c
                    continue
                j, d = divmod(j, p)
                b = rest % p
                rest, c, cap = rest - b, c * comb(d, b) % p, j // edge % p
                if (rest // p) // edge % p <= cap:
                    stack.append((rest // p, j, q * p, m, c))  # no twist at digit s
                top = rest // pr
                for count in range(1, min(d - b, top) + 1):
                    split = c * comb(d - b, count)
                    for w, e in self._twist_power(count):
                        if w > top:
                            break
                        if (nxt := (rest - w * pr) // p) // edge % p <= cap:
                            stack.append((nxt, j, q * p, m + count * q, split * e % p))
        return {key: r for key, c in out.items() if (r := c % p)}

    def _twist_power(self, count: int) -> list[tuple[int, int]]:
        """(sum_l w_l y^{p-l})^count mod p up to y^{tmax // p^r}, each power formed on first use."""
        rows, p = self.twists, self.p
        if len(rows) <= count:
            top = self.tmax // p**self.r
            base = [(p - ell, pow((-1) ** ell * ell, -1, p)) for ell in range(1, p)]
            while len(rows) <= count:
                acc: dict[int, int] = {}
                for w, c in rows[-1]:
                    for v, e in base:
                        if w + v <= top:
                            acc[w + v] = acc.get(w + v, 0) + c * e
                rows.append(sorted((w, r) for w, c in acc.items() if (r := c % p)))
        return rows[count]


def delta_power(i: int, hopf: HopfParams) -> Sparse:
    """Comultiplication of t^i as {(a, b): coefficient of t^a (x) t^b}, nonzero terms only.

    The digit kernel's image of u^i with beta = 0: exponents at or above
    p^n on either leg vanish in H.  The map is built afresh on each call.
    """
    if not 0 <= i < hopf.degree:
        raise ValueError(f"power {i} out of range [0, {hopf.degree})")
    zero = LaurentPoly._from_reduced(hopf.p, {})
    return DigitKernel(hopf, zero, range(hopf.degree)).image(i)
