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
    return _fold_mul(HElement, a, b, a, LaurentPoly._from_reduced(a.p, {}), "incompatible elements")


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
# Terms c * f^m * u^a (x) t^b of a product of digit powers as {(b, m): c}, c in [1, p); a is implied (see DigitKernel).
Terms = dict[tuple[int, int], int]


class DigitKernel:
    """Images of u^i in A (x) H under u |-> u(x)1 + 1(x)t + twist, by base-p digits.

    A = K[u]/(u^{p^n} - beta): beta = ext.beta gives the coaction of L
    (u = x), beta = 0 gives the comultiplication of H (A = H).  A (x) H is
    commutative of characteristic p, so the image of u^{p^s} is
    u^{p^s}(x)1 + 1(x)t^{p^s} plus the twist terms with exponents scaled by
    p^s and coefficients raised to the p^s; the image of u^i is the product
    of the digit powers of those generator images over the nonzero base-p
    digits of i.

    Every coefficient is c * f^m * beta^k with c in F_p: the twist
    coefficient of digit s is (f/(l!(p-l)!))^{p^s} = f^{p^s}/(l!(p-l)!), as
    Frobenius fixes F_p.  A twist at digit s adds p^{r+s+1} to the
    unfolded A-exponent plus t and p^s to m, where a plain factor adds
    p^s, so every term of the image of u^i has unfolded A-exponent
    i - t + (p^{r+1} - 1) m.  Digit powers, partial products and kept
    images are therefore Terms keyed by (t, m), multiplied in integers by
    a plain convolution (mul), and terms(i) alone derives the rest:
    (k, u) = divmod(i - t + (p^{r+1} - 1) m, p^n) folds u^{p^n} = beta
    k times, and a term with k >= 1 vanishes at beta = 0.  The keys are
    distinct, so no two terms cancel, and no two share (u, t): two
    terms on one t differ in m by less than p^{n-r} (m p^r <= t < p^n),
    and p^{r+1} - 1 is a unit mod p^n.  coefficient(m, k, c) forms each
    c * f^m * beta^k once per instance, for image(i) and for the action's
    loop over terms(i).

    terms(i) holds exactly the terms of the image of u^i whose t-exponent
    the caller reads (t_read), the A-leg whole.  Each factor for digit s
    adds a multiple of p^s to the t-exponent, so once the factors up to
    digit s are multiplied in, with s' the next nonzero digit of i (n if
    none), the later factors add multiples of p^{s'}: a partial term
    survives only if its t-exponent is at most the largest read t of its
    class mod p^{s'}.  With p^S the least power of p above the largest
    read t (p^n at most), a digit d at a place q >= S keeps only
    u^{d p^q}(x)1 of its factor, coefficient 1: its other terms carry
    t-exponents of at least p^q.  So the image of u^i has the keys of
    the image of u^{i mod p^S}, which the instance keeps, as it keeps the
    generator image of digit s and its powers, built when an image first
    needs them.  It forms the read level (p^k, the largest read t of each
    class mod p^k) when a product first prunes at place k, and the twist
    coefficients 1/(l!(p-l)!) mod p where a generator image reads each
    twist.  Every product, the first factor's too, is formed by mul, the
    one place a term is dropped for its read residue.
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
        self.levels: dict[int, tuple[int, list[int]]] = {}  # k -> (p^k, largest read t of each class mod p^k)
        self.scalars: dict[tuple[int, int, int], LaurentPoly] = {}  # (m, k, c) -> c * f^m * beta^k
        # powers[s][d - 1] = image of u^{d p^s}; row s starts at the generator image on first use
        self.powers: list[list[Terms]] = [[] for _ in range(n)]
        self.images: dict[int, Terms] = {}  # i < p^S -> the image of u^i

    def mul(self, a: Terms, b: Terms, level: int = 0) -> Terms:
        """Product in A (x) H without the terms above every read t of their class mod p^k, k = level.

        At level 0 that is every term above the largest read t.
        """
        p, (mod, top) = self.p, self._level(level)
        out: Terms = {}
        for (ta, ma), ca in a.items():
            for (tb, mb), cb in b.items():
                t = ta + tb
                if t <= top[t % mod]:
                    key = (t, ma + mb)
                    out[key] = out.get(key, 0) + ca * cb
        return {key: r for key, c in out.items() if (r := c % p)}

    def terms(self, i: int) -> dict[tuple[int, int, int, int], int]:
        """The read terms c * f^m * beta^k * u^u (x) t^t of the image of u^i as a fresh {(u, t, m, k): c}."""
        low = i % self.low
        terms = self.images.get(low)
        if terms is None:
            terms = self.images[low] = self._product(low)
        pn, step, nil, out = self.pn, self.p ** (self.r + 1) - 1, self.nil, {}
        for (t, m), c in terms.items():
            k, u = divmod(i - t + step * m, pn)
            if not (k and nil):
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
        """The kept image of u^i for i < p^S: the unit times each digit power of i, all through mul."""
        p, n, s, factors = self.p, self.n, 0, []  # (place, digit) of the nonzero digits
        while i:
            i, d = divmod(i, p)
            if d:
                factors.append((s, d))
            s += 1
        terms = unit = {(0, 0): 1}
        if not factors:  # u^0: the unit, if t = 0 is read
            return self.mul(unit, unit, n)
        # the product through the factor for digit s is pruned mod p^(place of the next nonzero digit)
        for (s, d), (level, _) in zip(factors, factors[1:] + [(n, 0)]):
            terms = self.mul(terms, self._power(s, d), level)
            if not terms:
                return {}
        return terms

    def _level(self, k: int) -> tuple[int, list[int]]:
        """(p^k, the largest read t of each class mod p^k, -1 for none), formed on first use."""
        level = self.levels.get(k)
        if level is None:
            mod = self.p**k
            top = [-1] * mod
            for e in sorted(self.t_read):
                top[e % mod] = e
            level = self.levels[k] = (mod, top)
        return level

    def _power(self, s: int, d: int) -> Terms:
        """The image of u^{d p^s} for p^s <= tmax, built on first use from the generator image of u^{p^s}."""
        row = self.powers[s]
        if not row:
            p, q, prs, tmax = self.p, self.p**s, self.p ** (self.r + s), self.tmax
            gen: Terms = {(0, 0): 1, (q, 0): 1}  # u^q (x) 1 and 1 (x) t^q
            if prs <= tmax:  # the twist of l has t-exponent prs * (p - l), read for l >= p - tmax // prs
                for ell in range(max(1, p - tmax // prs), p):
                    gen[(prs * (p - ell), q)] = pow(math.factorial(ell) * math.factorial(p - ell), -1, p)
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
