"""Exact arithmetic over the prime field F_p and its Laurent polynomial ring.

Base coefficient field is F_p (p prime).  Elements of the local field
K = F_p((T)) that the rest of the package touches are always finitely
supported, so they are represented exactly as Laurent polynomials in the
uniformizer T.  The T-adic valuation of the zero element is the explicit
sentinel ``INF`` (math.inf), never an encoded integer.

All values are immutable and all operations are pure; instances may be
shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar, Union

INF = math.inf

_TERM_RE = re.compile(r"^(?:(\d+)\*)?T(?:\^(-?\d+))?$")


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@dataclass(frozen=True)
class PrimeFieldScalar:
    """An element of F_p, stored as its least nonnegative residue."""

    value: int
    p: int

    def __post_init__(self) -> None:
        _require_prime(self.p)
        if not 0 <= self.value < self.p:
            raise ValueError(f"scalar {self.value} not reduced mod {self.p}")

    def _coerce(self, other: "PrimeFieldScalar") -> None:
        if not isinstance(other, PrimeFieldScalar) or other.p != self.p:
            raise ValueError("prime field modulus mismatch")

    def __add__(self, other: "PrimeFieldScalar") -> "PrimeFieldScalar":
        self._coerce(other)
        return PrimeFieldScalar((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "PrimeFieldScalar") -> "PrimeFieldScalar":
        self._coerce(other)
        return PrimeFieldScalar((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: "PrimeFieldScalar") -> "PrimeFieldScalar":
        self._coerce(other)
        return PrimeFieldScalar((self.value * other.value) % self.p, self.p)

    def __neg__(self) -> "PrimeFieldScalar":
        return PrimeFieldScalar((-self.value) % self.p, self.p)

    def inverse(self) -> "PrimeFieldScalar":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return PrimeFieldScalar(pow(self.value, -1, self.p), self.p)

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:
        return f"F{self.p}({self.value})"


class LaurentPoly:
    """A finitely supported Laurent polynomial over F_p in the uniformizer T.

    The terms map exponents (possibly negative) to nonzero residues in
    [1, p); the zero element stores no terms.  The T-adic valuation is the
    least stored exponent, or ``INF`` for zero.  Instances are immutable
    and hashable.

    Text format: terms joined by ``+``, each ``c*T^e`` with the coefficient
    omitted when 1, the exponent omitted when 1, and a constant written
    bare, e.g. ``T^-1 + 2*T^3`` or ``2 + T``.  Zero prints as ``0``.
    """

    __slots__ = ("p", "_terms", "_hash")

    def __init__(self, p: int, terms: Union[dict[int, int], Iterable[tuple[int, int]]] = ()):
        _require_prime(p)
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            c = (acc.get(e, 0) + c) % p
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_reduced(cls, p: int, terms: dict[int, int]) -> "LaurentPoly":
        """Wrap terms already reduced into [1, p), taking ownership of the dict.

        For results of arithmetic on valid operands only: neither p nor the
        coefficients are checked.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "_terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "LaurentPoly":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "LaurentPoly":
        return cls(p, {0: 1})

    @classmethod
    def constant(cls, p: int, c: int) -> "LaurentPoly":
        return cls(p, {0: c % p})

    @classmethod
    def monomial(cls, p: int, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(p, {exp: coeff % p})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the exponent -> coefficient map (no zero coefficients)."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def coefficient(self, exp: int) -> PrimeFieldScalar:
        return PrimeFieldScalar(self._terms.get(exp, 0), self.p)

    def is_zero(self) -> bool:
        return not self._terms

    def valuation(self) -> Union[int, float]:
        """Least exponent with nonzero coefficient; INF for the zero element."""
        return min(self._terms) if self._terms else INF

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = (acc.get(e, 0) + c) % self.p
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return LaurentPoly._from_reduced(self.p, acc)

    def __neg__(self) -> "LaurentPoly":
        p = self.p
        return LaurentPoly._from_reduced(p, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int, PrimeFieldScalar]) -> "LaurentPoly":
        if isinstance(other, int):
            p = self.p
            acc = {}
            for e, c in self._terms.items():
                c = c * other % p
                if c:
                    acc[e] = c
            return LaurentPoly._from_reduced(p, acc)
        if isinstance(other, PrimeFieldScalar):
            if other.p != self.p:
                raise ValueError("modulus mismatch")
            return self * other.value
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = (acc.get(e, 0) + c1 * c2) % self.p
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return LaurentPoly._from_reduced(self.p, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        out = LaurentPoly._from_reduced(self.p, {0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by T^k."""
        return LaurentPoly._from_reduced(self.p, {e + k: c for e, c in self._terms.items()})

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Quotient self/other when division is exact in F_p[T, T^-1].

        Raises ValueError when the quotient is not a Laurent polynomial.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly._from_reduced(self.p, {})
        p = self.p
        rem = dict(self._terms)
        lead = max(other._terms)
        inv_lead = pow(other._terms[lead], -1, p)
        # Exact quotients have valuation v(self) - v(other); going below it
        # means the division runs into an infinite series.
        low_bound = min(self._terms) - min(other._terms)
        out: dict[int, int] = {}
        while rem:
            d = max(rem)
            shift = d - lead
            if shift < low_bound:
                raise ValueError("division is not exact")
            q = rem[d] * inv_lead % p
            out[shift] = q
            for e, c in other._terms.items():
                s = (rem.get(e + shift, 0) - q * c) % p
                if s:
                    rem[e + shift] = s
                else:
                    rem.pop(e + shift, None)
        return LaurentPoly._from_reduced(p, out)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.p == other.p
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.p, tuple(sorted(self._terms.items())))))
        return self._hash

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                parts.append(str(c))
                continue
            tpart = "T" if e == 1 else f"T^{e}"
            parts.append(tpart if c == 1 else f"{c}*{tpart}")
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, p: int) -> "LaurentPoly":
        s = "".join(text.split())
        if s in ("", "0"):
            return cls.zero(p)
        acc: list[tuple[int, int]] = []
        for term in s.split("+"):
            if term.isdigit():
                acc.append((0, int(term)))
                continue
            m = _TERM_RE.match(term)
            if m is None:
                raise ValueError(f"malformed Laurent polynomial term: {term!r}")
            coeff = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
            acc.append((exp, coeff))
        return cls(p, acc)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly(p={self.p}, {self.to_text()!r})"


_V = TypeVar("_V", bound="CoeffVector")


class CoeffVector:
    """Immutable vector of LaurentPoly coefficients over one F_p.

    The shared core of the element types: L in the powers of x, the Hopf
    algebra in the powers of t, its dual in the z_j, and the tensor square
    as a flat row-major matrix.  Addition and equality only combine two
    vectors of the same class, so elements of different spaces never mix.
    Subclasses add no per-instance dictionary.

    The ``params`` argument of the constructors is any object with ``p``
    and ``degree`` (ExtensionParams or HopfParams).
    """

    __slots__ = ("p", "coeffs")
    _index_name = "index"

    def __init__(self, coeffs: Sequence[LaurentPoly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient vector")
        p = coeffs[0].p
        if any(c.p != p for c in coeffs):
            raise ValueError("mixed moduli in coefficient vector")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls: type[_V], params) -> _V:
        return cls([LaurentPoly._from_reduced(params.p, {})] * params.degree)

    @classmethod
    def _basis(cls: type[_V], k: int, params, coeff: Union[LaurentPoly, int] = 1) -> _V:
        """coeff times the k-th basis vector, 0 <= k < p^n."""
        if not 0 <= k < params.degree:
            raise ValueError(f"{cls._index_name} {k} out of range [0, {params.degree})")
        p = params.p
        coeffs = [LaurentPoly._from_reduced(p, {})] * params.degree
        if isinstance(coeff, int):
            c = coeff % p
            coeff = LaurentPoly._from_reduced(p, {0: c} if c else {})
        coeffs[k] = coeff
        return cls(coeffs)

    def nonzero_items(self) -> Iterator[tuple[int, LaurentPoly]]:
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                yield k, c

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check(self, other: "CoeffVector") -> None:
        if self.p != other.p or len(self.coeffs) != len(other.coeffs):
            raise ValueError("incompatible elements")

    def __add__(self: _V, other: _V) -> _V:
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self: _V, other: _V) -> _V:
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self: _V) -> _V:
        return type(self)([-c for c in self.coeffs])

    def scale(self: _V, c: Union[LaurentPoly, int]) -> _V:
        """Multiply by a scalar from K (or an integer acting through F_p)."""
        return type(self)([coeff * c for coeff in self.coeffs])

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))


@dataclass(frozen=True)
class PadicDigits:
    """Base-p digit vector (d_0, ..., d_{n-1}) of an integer in [0, p^n)."""

    digits: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        if any(not 0 <= d < self.p for d in self.digits):
            raise ValueError("digit out of range")

    def value(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.p + d
        return total

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, s: int) -> int:
        return self.digits[s]

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)


def padic_digits(i: int, p: int, n: int) -> PadicDigits:
    """Digits of i in base p, least significant first, padded to length n."""
    _require_prime(p)
    if not 0 <= i < p**n:
        raise ValueError(f"{i} out of range [0, {p}^{n})")
    digits = []
    v = i
    for _ in range(n):
        v, d = divmod(v, p)
        digits.append(d)
    return PadicDigits(tuple(digits), p)


def res_mod(v: int, modulus: int) -> int:
    """Least nonnegative residue of v mod modulus."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return v % modulus


def inverse_mod_p(m: int, p: int) -> PrimeFieldScalar:
    """Inverse of m in F_p; m must be prime to p."""
    _require_prime(p)
    if m % p == 0:
        raise ValueError(f"{m} is divisible by {p}, no inverse")
    return PrimeFieldScalar(pow(m % p, -1, p), p)


def binomial_mod_p(i: int, k: int, p: int) -> PrimeFieldScalar:
    """C(i, k) mod p via the digitwise product of base-p digit binomials."""
    _require_prime(p)
    if not 0 <= k <= i:
        raise ValueError(f"binomial index k={k} out of range [0, {i}]")
    total = 1
    while i or k:
        i, di = divmod(i, p)
        k, dk = divmod(k, p)
        total = total * math.comb(di, dk) % p
        if total == 0:
            break
    return PrimeFieldScalar(total, p)
