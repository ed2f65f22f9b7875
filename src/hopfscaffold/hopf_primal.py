"""The monogenic Hopf algebra K[t]/(t^{p^n}) with twisted comultiplication.

For parameters 0 < r < n <= 2r and a nonzero f in K the comultiplication
on the generator is

    t |-> t(x)1 + 1(x)t + f * sum_{l=1}^{p-1} t^{p^r l} (x) t^{p^r (p-l)} / (l!(p-l)!)

with counit t |-> 0 and antipode t |-> -t.  The constraint n <= 2r makes
t^{p^r} primitive (the twist terms of its comultiplication die under the
truncation t^{p^n} = 0), which is what coassociativity rests on.

Comultiplication of powers is obtained by direct tensor powering, since
the comultiplication is an algebra map; the closed multinomial expansion
of those powers is exercised independently by the test suite as a
differential oracle, not used here.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

from .base_arith import CoeffVector, LaurentPoly, inverse_mod_p, is_prime


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
    """Element of K[t]/(t^{p^n}) as the tuple of t^0 ... t^{p^n - 1} coefficients."""

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
    if a.p != b.p or len(a.coeffs) != len(b.coeffs):
        raise ValueError("incompatible elements")
    dim = len(a.coeffs)
    out = [LaurentPoly._from_reduced(a.p, {})] * dim
    for i, ci in a.nonzero_items():
        for j, cj in b.nonzero_items():
            if i + j < dim:
                out[i + j] = out[i + j] + ci * cj
    return HElement(out)


def counit(h: HElement) -> LaurentPoly:
    """The counit, i.e. evaluation t -> 0: the constant coefficient."""
    return h.coeffs[0]


def antipode(h: HElement) -> HElement:
    """Substitute t -> -t (the stated antipode of the Hopf algebra).

    For p = 2 and n > r + 1 this map fails the antipode convolution
    axiom; see the test suite, which records the defect f * t^{2^{r+1}}
    rather than adjusting the map.
    """
    return HElement([c * ((-1) ** i) for i, c in enumerate(h.coeffs)])


class TensorHH(CoeffVector):
    """Dense p^n x p^n matrix over K, flat and row-major; entry (a, b) is the t^a (x) t^b coefficient."""

    __slots__ = ("dim",)

    def __init__(self, coeffs: Sequence[LaurentPoly]):
        super().__init__(coeffs)
        dim = math.isqrt(len(self.coeffs))
        if dim * dim != len(self.coeffs):
            raise ValueError("tensor matrix must be square")
        object.__setattr__(self, "dim", dim)

    @classmethod
    def zero(cls, hopf: HopfParams) -> "TensorHH":
        return cls.from_entries(hopf.p, hopf.degree, {})

    @classmethod
    def unit(cls, p: int, dim: int) -> "TensorHH":
        """The identity 1 (x) 1 of the tensor square algebra."""
        return cls.from_entries(p, dim, {(0, 0): LaurentPoly._from_reduced(p, {0: 1})})

    @classmethod
    def from_entries(cls, p: int, dim: int, entries: dict[tuple[int, int], LaurentPoly]) -> "TensorHH":
        coeffs = [LaurentPoly._from_reduced(p, {})] * (dim * dim)
        for (a, b), c in entries.items():
            coeffs[a * dim + b] = c
        return cls(coeffs)

    def entry(self, a: int, b: int) -> LaurentPoly:
        return self.coeffs[a * self.dim + b]

    def nonzero(self) -> Iterator[tuple[int, int, LaurentPoly]]:
        for k, c in self.nonzero_items():
            a, b = divmod(k, self.dim)
            yield a, b, c

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b}): {c}" for a, b, c in self.nonzero()) or "0"
        return f"TensorHH[{self.dim}]({body})"


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
        out.append((ell, hopf.f * inverse_mod_p(denom, p)))
    return out


def delta_t(hopf: HopfParams) -> TensorHH:
    """Comultiplication of the generator t as a tensor matrix."""
    p = hopf.p
    one = LaurentPoly._from_reduced(p, {0: 1})
    entries: dict[tuple[int, int], LaurentPoly] = {(1, 0): one, (0, 1): one}
    pr = p**hopf.r
    for ell, coeff in twist_coefficients(hopf):
        entries[(pr * ell, pr * (p - ell))] = coeff
    return TensorHH.from_entries(p, hopf.degree, entries)


def tensor_mul(a: TensorHH, b: TensorHH) -> TensorHH:
    """Componentwise product in H(x)H; exponents at or above p^n are dropped."""
    if a.p != b.p or a.dim != b.dim:
        raise ValueError("incompatible tensors")
    dim = a.dim
    acc: dict[tuple[int, int], LaurentPoly] = {}
    for a1, b1, c1 in a.nonzero():
        for a2, b2, c2 in b.nonzero():
            ta, tb = a1 + a2, b1 + b2
            if ta >= dim or tb >= dim:
                continue
            prod = c1 * c2
            key = (ta, tb)
            acc[key] = acc[key] + prod if key in acc else prod
    return TensorHH.from_entries(a.p, dim, acc)


_DELTA_CACHE: dict[HopfParams, list[TensorHH]] = {}
_DELTA_LOCK = threading.Lock()


def delta_power(i: int, hopf: HopfParams) -> TensorHH:
    """Comultiplication of t^i, computed as the i-th tensor power of delta_t.

    Results are memoized per parameter set; the memo table admits
    concurrent readers and a single internally synchronized writer.
    """
    if not 0 <= i < hopf.degree:
        raise ValueError(f"power {i} out of range [0, {hopf.degree})")
    with _DELTA_LOCK:
        seq = _DELTA_CACHE.setdefault(hopf, [TensorHH.unit(hopf.p, hopf.degree)])
        if len(seq) == 1 and i >= 1:
            seq.append(delta_t(hopf))
        while len(seq) <= i:
            seq.append(tensor_mul(seq[-1], seq[1]))
        return seq[i]
