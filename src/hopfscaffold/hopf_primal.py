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
The closed multinomial expansion of the powers is exercised
independently by the test suite as a differential oracle, not used here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_arith import CoeffVector, LaurentPoly, is_prime


@dataclass(frozen=True)
class HopfParams:
    """Parameters (p, n, r, f) with 0 < r < n <= 2r and f nonzero in K."""

    p: int
    n: int
    r: int
    f: LaurentPoly

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not 0 < self.r < self.n <= 2 * self.r:
            raise ValueError(f"need 0 < r < n <= 2r, got r={self.r}, n={self.n}")
        if self.f.p != self.p:
            raise ValueError("f lives over the wrong prime field")
        if self.f.is_zero():
            raise ValueError("f must be nonzero")

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


def twist_coefficients(hopf: HopfParams) -> list[tuple[int, LaurentPoly]]:
    """The pairs (l, f/(l!(p-l)!)) for l = 1 ... p-1: the twist term's coefficients."""
    p = hopf.p
    out = []
    for ell in range(1, p):
        denom = 1
        for k in range(2, ell + 1):
            denom = denom * k % p
        for k in range(2, p - ell + 1):
            denom = denom * k % p
        out.append((ell, hopf.f * pow(denom, -1, p)))
    return out


# An element of A (x) H as {(A-exponent, t-exponent): nonzero coefficient}.
Sparse = dict[tuple[int, int], LaurentPoly]


def _frobenius(c: LaurentPoly, q: int) -> LaurentPoly:
    """c^q for q a power of p: F_p is fixed, so only exponents scale."""
    return LaurentPoly._from_reduced(c.p, {e * q: a for e, a in c.items()})


class DigitKernel:
    """Images of u^i in A (x) H under u |-> u(x)1 + 1(x)t + twist, by base-p digits.

    A = K[u]/(u^{p^n} - beta): beta = ext.beta gives the coaction of L
    (u = x), beta = 0 gives the comultiplication of H (A = H).  A (x) H is
    commutative of characteristic p, so the image of u^{p^s} is
    u^{p^s}(x)1 + 1(x)t^{p^s} plus the twist terms with exponents scaled by
    p^s and coefficients raised to the p^s; the image of u^i is the product
    of those generator images over the base-p digits of i.  A-exponents at
    or above p^n fold through beta, and every term above t^kmax is dropped,
    from the partial products too.
    """

    __slots__ = ("pn", "beta", "kmax", "powers")

    def __init__(self, hopf: HopfParams, beta: LaurentPoly, kmax: int):
        p = hopf.p
        self.pn, self.beta, self.kmax = hopf.degree, beta, kmax
        one = LaurentPoly._from_reduced(p, {0: 1})
        twist = twist_coefficients(hopf)
        # powers[s][d] = image of u^{d p^s} for d < p
        self.powers: list[list[Sparse]] = []
        for s in range(hopf.n):
            q = p**s
            gen: Sparse = {(q, 0): one}
            if q <= kmax:
                gen[(0, q)] = one
            prs = p ** (hopf.r + s)
            for ell, coeff in twist:
                if prs * (p - ell) <= kmax:
                    gen[(prs * ell, prs * (p - ell))] = _frobenius(coeff, q)
            row = [{(0, 0): one}, gen]
            while len(row) < p:
                row.append(self.mul(row[-1], gen))
            self.powers.append(row)

    def mul(self, a: Sparse, b: Sparse) -> Sparse:
        """Product in A (x) H, dropping every term above t^kmax."""
        pn, beta, kmax = self.pn, self.beta, self.kmax
        out: Sparse = {}
        for (ua, ta), ca in a.items():
            for (ub, tb), cb in b.items():
                t = ta + tb
                if t > kmax:
                    continue
                u = ua + ub
                c = ca * cb
                if u >= pn:
                    u -= pn
                    c = c * beta
                key = (u, t)
                out[key] = out[key] + c if key in out else c
        return {key: c for key, c in out.items() if not c.is_zero()}

    def image(self, i: int) -> Sparse:
        """Image of u^i as the product of its digit factors (shared; do not mutate)."""
        image = None
        for row in self.powers:
            i, d = divmod(i, len(row))
            if d:
                image = row[d] if image is None else self.mul(image, row[d])
        return self.powers[0][0] if image is None else image


def delta_power(i: int, hopf: HopfParams) -> Sparse:
    """Comultiplication of t^i as {(a, b): coefficient of t^a (x) t^b}, nonzero terms only.

    The digit kernel's image of u^i with beta = 0: exponents at or above
    p^n on either leg vanish in H.  The map is built afresh on each call.
    """
    if not 0 <= i < hopf.degree:
        raise ValueError(f"power {i} out of range [0, {hopf.degree})")
    zero = LaurentPoly._from_reduced(hopf.p, {})
    return DigitKernel(hopf, zero, hopf.degree - 1).image(i)
