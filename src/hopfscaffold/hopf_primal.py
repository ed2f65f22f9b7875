"""The monogenic Hopf algebra K[t]/(t^{p^n}) with twisted comultiplication.

For parameters 0 < r < n <= 2r and a nonzero f in K the comultiplication
on the generator is

    t |-> t(x)1 + 1(x)t + f * sum_{l=1}^{p-1} t^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

with counit t |-> 0 and antipode t |-> -t.  The constraint n <= 2r makes
t^{p^r} primitive (the twist terms of its comultiplication die under the
truncation t^{p^n} = 0), which is what coassociativity rests on.  h_mul
is base_arith's product of K[u]/(u^{p^n} - beta) at beta = 0.

Elements of H (x) H are sparse maps {(a, b): coefficient of t^a (x) t^b}
holding nonzero terms only.  Delta(t^i) is the image of u^i under
DigitKernel with beta = 0, and Delta(t) is delta_power(1).  That
digit-factored kernel is shared with the coaction of L (see action),
which is the same formula with x^{p^n} = beta in place of u^{p^n} = 0.
Its coefficients are all c * f^m * beta^k with c in F_p, so it multiplies
integers only.  The closed multinomial expansion of the powers is exercised
independently by the test suite as a differential oracle, not used here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Collection

from .base_arith import CoeffVector, LaurentPoly, _fold_mul, is_prime


class HopfParams(namedtuple("HopfParams", "p n r f")):
    """Parameters (p, n, r, f) with 0 < r < n <= 2r and f nonzero in K."""

    __slots__ = ()

    def __new__(cls, p: int, n: int, r: int, f: LaurentPoly) -> "HopfParams":
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not 0 < r < n <= 2 * r:
            raise ValueError(f"need 0 < r < n <= 2r, got r={r}, n={n}")
        if f.p != p:
            raise ValueError("f lives over the wrong prime field")
        if f.is_zero():
            raise ValueError("f must be nonzero")
        return super().__new__(cls, p, n, r, f)

    @property
    def degree(self) -> int:
        return self.p**self.n


class HElement(CoeffVector):
    """Element of K[t]/(t^{p^n}) by its nonzero coefficients of t^0 ... t^{p^n - 1}."""

    __slots__ = ()
    _index_name = "t-exponent"

    @classmethod
    def t_power(cls, i: int, hopf: HopfParams, coeff: LaurentPoly | int = 1) -> "HElement":
        return cls._basis(i, hopf, coeff)

    @staticmethod
    def _monomial(k: int) -> str:
        return f"t^{k}"


def h_mul(a: HElement, b: HElement) -> HElement:
    """Product in K[t]/(t^{p^n}): convolution truncated by the nilpotent t."""
    return _fold_mul(a, b, a, LaurentPoly._from_reduced(a.p, {}), "incompatible elements")


def counit(h: HElement) -> LaurentPoly:
    """The counit, i.e. evaluation t -> 0: the constant coefficient."""
    return dict(h.nonzero_items()).get(0, LaurentPoly._from_reduced(h.p, {}))


def antipode(h: HElement) -> HElement:
    """Substitute t -> -t (the stated antipode of the Hopf algebra).

    For p = 2 and n > r + 1 this map fails the antipode convolution
    axiom; see the test suite, which records the defect f * t^{2^{r+1}}
    rather than adjusting the map.
    """
    return HElement._from_terms(h.p, h.degree, {i: -c if i % 2 else c for i, c in h.nonzero_items()})


# An element of A (x) H as {(A-exponent, t-exponent): nonzero coefficient}.
Sparse = dict[tuple[int, int], LaurentPoly]
# The kernel's terms c * f^m * beta^k * u^a (x) t^b as {(a, b, m, k): c}, c in [1, p).
Terms = dict[tuple[int, int, int, int], int]


class DigitKernel:
    """Images of u^i in A (x) H under u |-> u(x)1 + 1(x)t + twist, by base-p digits.

    A = K[u]/(u^{p^n} - beta): beta = ext.beta gives the coaction of L
    (u = x), beta = 0 gives the comultiplication of H (A = H).  A (x) H is
    commutative of characteristic p, so the image of u^{p^s} is
    u^{p^s}(x)1 + 1(x)t^{p^s} plus the twist terms with exponents scaled by
    p^s and coefficients raised to the p^s; the image of u^i is the product
    of the digit powers of those generator images over the nonzero base-p
    digits of i.  A-exponents at or above p^n fold through beta.

    Every coefficient formed is c * f^m * beta^k with c in F_p: the twist
    coefficient of digit s is (f/(l!(p-l)!))^{p^s} = f^{p^s}/(l!(p-l)!), as
    Frobenius fixes F_p, and each fold multiplies by beta.  So digit powers
    and partial products are Terms, multiplied in integers; terms(i) returns
    them, and coefficient(m, k, c) forms each c * f^m * beta^k once per
    instance, for image(i) and for the action's loop over terms(i).  No
    two terms share (u, t), so none cancel: a twist at digit s adds
    p^{r+s+1} to u + t and p^s to m where a plain factor adds p^s, so
    u + k p^n + t = i + (p^{r+1} - 1) m, and k < p as t_read < p^n keeps
    unfolded A-exponents below p^{n+1}; so (u, t) fixes k, then m.

    terms(i) holds exactly the terms of the image of u^i whose t-exponent
    the caller reads (t_read), the A-leg whole.  Each factor for digit s
    adds a multiple of p^s to the t-exponent, so once the factors up to
    digit s are multiplied in, with s' the next nonzero digit of i (n if
    none), a partial term survives only if its t-exponent agrees mod p^{s'}
    with a read one; the t-exponent never falls, so no partial term above
    the largest read t is formed either.  With p^S the least power of p
    above the largest read t (p^n at most), a digit d at a place q >= S
    keeps only u^{d p^q}(x)1 of its factor, coefficient 1: its other terms
    carry t-exponents of at least p^q.  So terms(i) is terms(i mod p^S)
    with the A-leg shifted by i - (i mod p^S), a shifted exponent at or
    above p^n folding once (dropped at beta = 0).  The instance keeps each
    such low image, as it keeps the generator image of digit s and its
    powers, built when an image first needs them.  It forms the read level
    (p^k, read t mod p^k) when a product first prunes at place k, and the
    twist coefficients 1/(l!(p-l)!) mod p where a generator image reads
    each twist.  Every product, the first factor's too, is formed by mul,
    the one place a term is dropped for its read residue.
    """

    __slots__ = ("p", "n", "r", "pn", "f", "beta", "nil", "t_read", "tmax", "low", "levels", "powers", "images", "scalars")

    def __init__(self, hopf: HopfParams, beta: LaurentPoly, t_read: Collection[int]):
        p, n = hopf.p, hopf.n
        self.p, self.n, self.r, self.pn, self.f, self.beta = p, n, hopf.r, hopf.degree, hopf.f, beta
        self.nil = beta.is_zero()  # a term folded through beta = 0 vanishes
        self.t_read, self.tmax = t_read, max(t_read, default=-1)
        self.low = 1  # p^S, the least power of p above tmax, at most p^n
        while self.low <= self.tmax and self.low < self.pn:
            self.low *= p
        self.levels: dict[int, tuple[int, set[int]]] = {}  # k -> (p^k, the read t-exponents mod p^k)
        self.scalars: dict[tuple[int, int, int], LaurentPoly] = {}  # (m, k, c) -> c * f^m * beta^k
        # powers[s][d - 1] = image of u^{d p^s}; row s starts at the generator image on first use
        self.powers: list[list[Terms]] = [[] for _ in range(n)]
        self.images: dict[int, Terms] = {}  # i < p^S -> terms(i)

    def mul(self, a: Terms, b: Terms, level: int = 0) -> Terms:
        """Product in A (x) H without the terms above the largest read t.

        With level k > 0 it also drops every term whose t-exponent agrees
        with no read one mod p^k.
        """
        p, pn, tmax, nil = self.p, self.pn, self.tmax, self.nil
        mod, t_res = self._level(level)
        out: Terms = {}
        for (ua, ta, ma, ka), ca in a.items():
            for (ub, tb, mb, kb), cb in b.items():
                t = ta + tb
                if t > tmax or t % mod not in t_res:
                    continue
                u, k = ua + ub, ka + kb
                if u >= pn:
                    if nil:
                        continue
                    u, k = u - pn, k + 1
                key = (u, t, ma + mb, k)
                out[key] = out.get(key, 0) + ca * cb
        return {key: r for key, c in out.items() if (r := c % p)}

    def terms(self, i: int) -> Terms:
        """The read terms of the image of u^i as integer terms {(u, t, m, k): c}; may be a kept map, so read only."""
        low = i % self.low
        terms = self.images.get(low)
        if terms is None:
            terms = self.images[low] = self._product(low)
        shift = i - low
        if not shift:
            return terms
        pn, nil, out = self.pn, self.nil, {}
        for (u, t, m, k), c in terms.items():
            u += shift
            if u >= pn:
                if nil:
                    continue
                u, k = u - pn, k + 1
            out[(u, t, m, k)] = c
        return out

    def coefficient(self, m: int, k: int, c: int) -> LaurentPoly:
        """The Laurent coefficient c * f^m * beta^k of a term, formed once per instance."""
        key = (m, k, c)
        if key not in self.scalars:
            self.scalars[key] = self.f**m * self.beta**k * c
        return self.scalars[key]

    def image(self, i: int) -> Sparse:
        """The read terms of the image of u^i, as a fresh {(u, t): nonzero coefficient} map."""
        coefficient = self.coefficient
        return {(u, t): coefficient(m, k, c) for (u, t, m, k), c in self.terms(i).items()}

    def _product(self, i: int) -> Terms:
        """terms(i) for i < p^S: the unit times each digit power of i, all through mul."""
        p, n, s, factors = self.p, self.n, 0, []  # (place, digit) of the nonzero digits
        while i:
            i, d = divmod(i, p)
            if d:
                factors.append((s, d))
            s += 1
        terms = unit = {(0, 0, 0, 0): 1}
        if not factors:  # u^0: the unit, if t = 0 is read
            return self.mul(unit, unit, n)
        # the product through the factor for digit s is pruned mod p^(place of the next nonzero digit)
        for (s, d), (level, _) in zip(factors, factors[1:] + [(n, 0)]):
            terms = self.mul(terms, self._power(s, d), level)
            if not terms:
                return {}
        return terms

    def _level(self, k: int) -> tuple[int, set[int]]:
        """(p^k, the read t-exponents mod p^k), formed on first use."""
        level = self.levels.get(k)
        if level is None:
            mod = self.p**k
            level = self.levels[k] = (mod, {e % mod for e in self.t_read})
        return level

    def _power(self, s: int, d: int) -> Terms:
        """The image of u^{d p^s} for p^s <= tmax, built on first use from the generator image of u^{p^s}."""
        row = self.powers[s]
        if not row:
            p, q, prs, tmax = self.p, self.p**s, self.p ** (self.r + s), self.tmax
            gen: Terms = {(q, 0, 0, 0): 1, (0, q, 0, 0): 1}
            if prs <= tmax:  # the twist of l has t-exponent prs * (p - l), read for l >= p - tmax // prs
                for ell in range(max(1, p - tmax // prs), p):
                    gen[(prs * ell, prs * (p - ell), q, 0)] = pow(math.factorial(ell) * math.factorial(p - ell), -1, p)
            row.append(gen)
        while len(row) < d:
            row.append(self.mul(row[-1], row[0]))
        return row[d - 1]


def delta_power(i: int, hopf: HopfParams) -> Sparse:
    """Comultiplication of t^i as {(a, b): coefficient of t^a (x) t^b}, nonzero terms only.

    The digit kernel's image of u^i with beta = 0: exponents at or above
    p^n on either leg vanish in H.  The map is built afresh on each call.
    """
    if not 0 <= i < hopf.degree:
        raise ValueError(f"power {i} out of range [0, {hopf.degree})")
    zero = LaurentPoly._from_reduced(hopf.p, {})
    return DigitKernel(hopf, zero, range(hopf.degree)).image(i)
