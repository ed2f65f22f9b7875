"""Exact Laurent polynomial arithmetic over F_p, and the coefficient-vector core.

Base coefficient field is F_p (p prime); its elements are plain ints
reduced into [0, p).  Elements of the local field K = F_p((T)) that the
rest of the package touches are always finitely supported, so they are
represented exactly as Laurent polynomials in the uniformizer T.  The
T-adic valuation of the zero element is the explicit sentinel ``INF``
(math.inf), never an encoded integer.  CoeffVector is the sparse base
of the element types of L, H and the dual of H: it stores only the
nonzero coefficients and the length p^n.  padic_digits and res_mod are
the integer helpers.

The text format of every element lives here: one splitter into top-level
`+` terms serves LaurentPoly and CoeffVector, and one reader of Laurent
term texts (_read_terms) serves both.  CoeffVector parses and renders the
terms of all three element types; each subclass supplies only the
spelling of its monomials and the pattern of one term.  _accumulate adds
(exponent, residue) pairs into Laurent terms for construction, addition
and the pairs _read_terms yields; _fold_mul is the product of
K[u]/(u^{p^n} - beta).

All values are immutable, every slot set once at construction, and all
operations are pure; instances may be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, Sequence, TypeVar, Union

INF = math.inf

# one Laurent polynomial term: c*T^e with c and e optional, or a constant c; ASCII digits only
_TERM_RE = re.compile(r"(?:([0-9]+)\*)?T(?:\^(-?[0-9]+))?|([0-9]+)")
# one term of a sum: a run stops at a +, unless the + is inside parentheses
_SPAN_RE = re.compile(r"(?:[^+(]+|\([^)]*\)?)*")
# whitespace that dropping would join into one number or name, as in "1 0" or "z _ 3": refused
_JOINING_SPACE_RE = re.compile(r"[0-9A-Za-z_]\s+(?=[0-9A-Za-z_])")


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


def _split_terms(text: str) -> list[str]:
    """The terms of text, whitespace dropped, split at each + outside parentheses; none for "" and "0"."""
    s = "".join(text.split())
    if s != text and _JOINING_SPACE_RE.search(text):
        raise ValueError(f"whitespace inside a number or a name: {text!r}")
    if s in ("", "0"):
        return []
    terms, start = [], 0
    while True:
        end = _SPAN_RE.match(s, start).end()
        terms.append(s[start:end])
        if end == len(s):
            return terms
        start = end + 1


def _accumulate(acc: dict[int, int], terms: Iterable[tuple[int, int]], p: int) -> dict[int, int]:
    """Add each (e, c) of terms into acc as acc[e] = acc[e] + c mod p, dropping zero residues; returns acc."""
    for e, c in terms:
        c = (acc.get(e, 0) + c) % p
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)
    return acc


def _read_terms(terms: Iterable[str]) -> Iterator[tuple[int, int]]:
    """The (e, c) pair of each Laurent term text of terms (c*T^e, c or T^e), unreduced, for _accumulate."""
    for term in terms:
        m = _TERM_RE.fullmatch(term)
        try:
            if m is None:
                raise ValueError
            coeff, exp, const = m.groups()
            e, c = (0, int(const)) if const else (int(exp or 1), int(coeff or 1))
        except ValueError:  # no match, or more digits than int() converts
            raise ValueError(f"malformed Laurent polynomial term: {term!r}") from None
        yield e, c


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

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Union[dict[int, int], Iterable[tuple[int, int]]] = ()):
        _require_prime(p)
        acc = _accumulate({}, terms.items() if isinstance(terms, dict) else terms, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_terms", acc)

    @classmethod
    def _from_reduced(cls, p: int, terms: dict[int, int]) -> "LaurentPoly":
        """Wrap terms already reduced into [1, p), taking ownership of the dict.

        For results of arithmetic on valid operands only: neither p nor the
        coefficients are checked.
        """
        out = object.__new__(cls)
        LaurentPoly.p.__set__(out, p)
        LaurentPoly._terms.__set__(out, terms)
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
        return LaurentPoly._from_reduced(self.p, _accumulate(dict(self._terms), other._terms.items(), self.p))

    def __neg__(self) -> "LaurentPoly":
        p = self.p
        return LaurentPoly._from_reduced(p, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            p = self.p
            acc = {}
            for e, c in self._terms.items():
                c = c * other % p
                if c:
                    acc[e] = c
            return LaurentPoly._from_reduced(p, acc)
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
        """self^k for k >= 0; a single term c*T^e gives (c^k mod p)*T^(ek) directly."""
        if k < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        if len(self._terms) == 1:
            ((e, c),) = self._terms.items()
            return LaurentPoly._from_reduced(self.p, {e * k: pow(c, k, self.p)})
        out = LaurentPoly._from_reduced(self.p, {0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.p == other.p
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.p, tuple(sorted(self._terms.items()))))

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
        _require_prime(p)
        return cls._from_reduced(p, _accumulate({}, _read_terms(_split_terms(text)), p))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly(p={self.p}, {self.to_text()!r})"


_V = TypeVar("_V", bound="CoeffVector")


class CoeffVector:
    """Immutable sparse vector of LaurentPoly coefficients over one F_p.

    The shared core of the element types: L in the powers of x, the Hopf
    algebra in the powers of t, and its dual in the z_j.  Only the nonzero
    coefficients are stored, in ascending index, with the length
    ``degree`` = p^n.  Addition and equality only combine two vectors of
    the same class, and the entry points check each operand's class
    (_check), so elements of different spaces never mix.  Subclasses
    add no per-instance dictionary.  The ``params`` argument of the
    constructors is any object with ``p`` and ``degree`` (ExtensionParams
    or HopfParams).
    """

    __slots__ = ("p", "degree", "_terms")
    _index_name = "index"
    # Text format: terms joined by " + ", each (c)*m for the LaurentPoly text
    # c of a coefficient and the spelling m of its monomial, m bare when
    # c = 1.  A subclass spells the monomial of index k as _monomial(k), ""
    # for the x^0 of L (written (c), or 1).  A parsed subclass also matches
    # one term with _term_re, groups in order coef (the coefficient in its
    # parentheses, None for 1), mono (the monomial, None at x^0) and idx (its
    # index digits, None for x = x^1), and names its elements in errors by
    # _noun.  _term_re admits no parentheses inside a coefficient, so from_text
    # splits each coefficient at every + once _split_terms dropped whitespace.

    def __init__(self, coeffs: Sequence[LaurentPoly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient vector")
        p = coeffs[0].p
        if any(c.p != p for c in coeffs):
            raise ValueError("mixed moduli in coefficient vector")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "degree", len(coeffs))
        object.__setattr__(self, "_terms", {k: c for k, c in enumerate(coeffs) if not c.is_zero()})

    @classmethod
    def _from_terms(cls: type[_V], p: int, degree: int, terms: dict[int, LaurentPoly]) -> _V:
        """Wrap an index -> coefficient map, dropping zeros; unchecked, for results of arithmetic."""
        out = object.__new__(cls)
        CoeffVector.p.__set__(out, p)
        CoeffVector.degree.__set__(out, degree)
        CoeffVector._terms.__set__(out, {k: terms[k] for k in sorted(terms) if not terms[k].is_zero()})
        return out

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls: type[_V], params) -> _V:
        return cls._from_terms(params.p, params.degree, {})

    @classmethod
    def _basis(cls: type[_V], k: int, params, coeff: Union[LaurentPoly, int] = 1) -> _V:
        """coeff times the k-th basis vector, 0 <= k < p^n."""
        if not 0 <= k < params.degree:
            raise ValueError(f"{cls._index_name} {k} out of range [0, {params.degree})")
        p = params.p
        if isinstance(coeff, int):
            c = coeff % p
            coeff = LaurentPoly._from_reduced(p, {0: c} if c else {})
        elif coeff.p != p:
            raise ValueError("mixed moduli in coefficient vector")
        return cls._from_terms(p, params.degree, {k: coeff})

    def nonzero_items(self) -> Iterator[tuple[int, LaurentPoly]]:
        """The (index, coefficient) pairs with nonzero coefficient, in ascending index."""
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    @classmethod
    def _check(cls, x, params, message: str = "incompatible elements") -> None:
        """Raise ValueError(message) unless x is of this very class and has the p and degree of params (a vector or params)."""
        if type(x) is not cls or x.p != params.p or x.degree != params.degree:
            raise ValueError(message)

    def __add__(self: _V, other: _V) -> _V:
        if type(other) is not type(self):
            return NotImplemented
        self._check(other, self)
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return self._from_terms(self.p, self.degree, terms)

    def __sub__(self: _V, other: _V) -> _V:
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self: _V) -> _V:
        return self._from_terms(self.p, self.degree, {k: -c for k, c in self._terms.items()})

    def scale(self: _V, c: Union[LaurentPoly, int]) -> _V:
        """Multiply by a scalar from K (or an integer acting through F_p)."""
        return self._from_terms(self.p, self.degree, {k: coeff * c for k, coeff in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and (self.p, self.degree, self._terms) == (other.p, other.degree, other._terms)

    def __hash__(self) -> int:
        return hash((self.p, self.degree, tuple(self._terms.items())))

    def to_text(self) -> str:
        parts = []
        for k, c in self._terms.items():
            mono = self._monomial(k)
            if c._terms != {0: 1}:
                mono = f"({c.to_text()})*{mono}" if mono else f"({c.to_text()})"
            parts.append(mono or "1")
        return " + ".join(parts) or "0"

    @classmethod
    def from_text(cls: type[_V], text: str, params) -> _V:
        """Read to_text's format, whitespace dropped as _split_terms does; "" and "0" read as zero."""
        p, acc = params.p, {}
        for term in _split_terms(text):
            m = cls._term_re.fullmatch(term)
            if m is None:
                raise ValueError(f"malformed {cls._noun} term: {term!r}")
            coef, mono, idx = m.groups()
            try:
                k = int(idx) if idx else 1 if mono else 0
            except ValueError:  # more digits than int() converts, so above any degree
                k = -1
            if not 0 <= k < params.degree:
                raise ValueError(f"{cls._index_name} {idx if k < 0 else k} out of range [0, {params.degree})")
            _accumulate(acc.setdefault(k, {}), _read_terms(coef.strip("()").split("+") if coef else ("1",)), p)
        return cls._from_terms(p, params.degree, {k: LaurentPoly._from_reduced(p, c) for k, c in acc.items()})

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


def _fold_mul(cls: type[_V], a: _V, b: _V, params, beta: LaurentPoly, message: str) -> _V:
    """a*b in K[u]/(u^{p^n} - beta), p^n = params.degree: u^{p^n + k} folds to beta*u^k.

    At beta = 0 a folded term is 0 and the result drops it.  ValueError(message)
    unless both operands are of class cls with the p and degree of params.
    """
    cls._check(a, params, message)
    cls._check(b, params, message)
    pn = params.degree
    out: dict[int, LaurentPoly] = {}
    for i, ci in a._terms.items():
        for j, cj in b._terms.items():
            e = i + j
            if e < pn:
                c = ci * cj
            else:
                e, c = e - pn, ci * cj * beta
            out[e] = out[e] + c if e in out else c
    return cls._from_terms(a.p, pn, out)


def padic_digits(i: int, p: int, n: int) -> tuple[int, ...]:
    """Digits of i in base p, least significant first, padded to length n."""
    _require_prime(p)
    if not 0 <= i < p**n:
        raise ValueError(f"{i} out of range [0, {p}^{n})")
    digits = []
    v = i
    for _ in range(n):
        v, d = divmod(v, p)
        digits.append(d)
    return tuple(digits)


def res_mod(v: int, modulus: int) -> int:
    """Least nonnegative residue of v mod modulus."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return v % modulus
