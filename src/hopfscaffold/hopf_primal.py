"""The monogenic Hopf algebra K[t]/(t^{p^n}) with twisted comultiplication.

For parameters 0 < r < n <= 2r and a nonzero f in K the comultiplication
on the generator is

    t |-> t(x)1 + 1(x)t + f * sum_{l=1}^{p-1} t^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

with counit t |-> 0 and antipode t |-> -t.  The constraint n <= 2r makes
t^{p^r} primitive (the twist terms of its comultiplication die under the
truncation t^{p^n} = 0), which is what coassociativity rests on.

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

from .base_arith import CoeffVector, LaurentPoly, is_prime


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

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*t^{i}" for i, c in self.nonzero_items()) or "0"
        return f"HElement({body})"


def h_mul(a: HElement, b: HElement) -> HElement:
    """Product in K[t]/(t^{p^n}): convolution truncated by the nilpotent t."""
    a._check(b)
    out: dict[int, LaurentPoly] = {}
    for i, ci in a.nonzero_items():
        for j, cj in b.nonzero_items():
            if i + j >= a.degree:
                break
            prod = ci * cj
            out[i + j] = out[i + j] + prod if i + j in out else prod
    return HElement._from_terms(a.p, a.degree, out)


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
    and partial products are Terms, multiplied in integers, and image(i)
    reads each c * f^m * beta^k from a memo kept by the instance.  No two
    terms share (u, t), so none cancel: a twist at digit s adds p^{r+s+1}
    to u + t and p^s to m where a plain factor adds p^s, so
    u + k p^n + t = i + (p^{r+1} - 1) m, and k < p as t_read < p^n keeps
    unfolded A-exponents below p^{n+1}; so (u, t) fixes k, then m.

    image(i) holds exactly the terms of the image of u^i whose t-exponent
    the caller reads (t_read), the A-leg whole.  Each factor for digit s
    adds a multiple of p^s to the t-exponent, so once the factors up to
    digit s are multiplied in, with s' the next nonzero digit of i (n if
    none), a partial term survives only if its t-exponent agrees mod p^{s'}
    with a read one; the t-exponent never falls, so no partial term above
    the largest read t is formed either.  The digit powers are built on
    first use and kept by the instance.
    """

    __slots__ = ("p", "n", "pn", "f", "beta", "tmax", "levels", "powers", "scalars")

    def __init__(self, hopf: HopfParams, beta: LaurentPoly, t_read: Collection[int]):
        p, n = hopf.p, hopf.n
        self.p, self.n, self.pn, self.f, self.beta = p, n, hopf.degree, hopf.f, beta
        self.tmax = max(t_read, default=-1)
        # levels[k] = (p^k, the read t-exponents mod p^k)
        self.levels = [(p**k, {e % p**k for e in t_read}) for k in range(n + 1)]
        self.scalars: dict[tuple[int, int, int], LaurentPoly] = {}  # (m, k, c) -> c * f^m * beta^k
        # powers[s][d - 1] = image of u^{d p^s}, the row grown on demand from the generator
        self.powers: list[list[Terms]] = []
        for s in range(n):
            q = p**s
            gen: Terms = {(q, 0, 0, 0): 1}
            if q <= self.tmax:
                gen[(0, q, 0, 0)] = 1
            prs = p ** (hopf.r + s)
            for ell in range(1, p):
                if prs * (p - ell) <= self.tmax:
                    gen[(prs * ell, prs * (p - ell), q, 0)] = pow(math.factorial(ell) * math.factorial(p - ell), -1, p)
            self.powers.append([gen])

    def mul(self, a: Terms, b: Terms, level: int = 0) -> Terms:
        """Product in A (x) H without the terms above the largest read t.

        With level k > 0 it also drops every term whose t-exponent agrees
        with no read one mod p^k.
        """
        p, pn, tmax = self.p, self.pn, self.tmax
        mod, t_res = self.levels[level]
        nil = self.beta.is_zero()
        out: Terms = {}
        for (ua, ta, ma, ka), ca in a.items():
            for (ub, tb, mb, kb), cb in b.items():
                t = ta + tb
                if t > tmax or t % mod not in t_res:
                    continue
                u, k = ua + ub, ka + kb
                if u >= pn:
                    if nil:  # a term folded through beta = 0 vanishes
                        continue
                    u, k = u - pn, k + 1
                key = (u, t, ma + mb, k)
                out[key] = out.get(key, 0) + ca * cb
        return {key: c % p for key, c in out.items() if c % p}

    def image(self, i: int) -> Sparse:
        """The read terms of the image of u^i, as a fresh {(u, t): nonzero coefficient} map."""
        p, n = self.p, self.n
        places = [s for s in range(n) if i // p**s % p]
        terms = None if places else self._read({(0, 0, 0, 0): 1}, n)
        # the product through the factor for digit s is pruned mod p^(place of the next nonzero digit)
        for s, level in zip(places, places[1:] + [n]):
            power = self._power(s, i // p**s % p)
            terms = self._read(power, level) if terms is None else self.mul(terms, power, level)
            if not terms:
                return {}
        scalars = self.scalars
        for m, k, c in {(m, k, c) for (_, _, m, k), c in terms.items()} - scalars.keys():
            scalars[(m, k, c)] = self.f**m * self.beta**k * c
        return {(u, t): scalars[(m, k, c)] for (u, t, m, k), c in terms.items()}

    def _read(self, terms: Terms, level: int) -> Terms:
        """terms without those whose t-exponent agrees with no read one mod p^level."""
        mod, t_res = self.levels[level]
        return {key: c for key, c in terms.items() if key[1] % mod in t_res}

    def _power(self, s: int, d: int) -> Terms:
        """The image of u^{d p^s}, built on first use."""
        row = self.powers[s]
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
