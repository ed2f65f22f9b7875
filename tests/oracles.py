"""Independent oracles used to cross-check the package's computational paths.

Everything here is deliberately written from first principles (exact
integer binomials, explicit multinomial expansions, schoolbook products)
and never calls the code path it is checking.
"""

from __future__ import annotations

import math
import re

from hopfscaffold import (
    ExtensionParams,
    HElement,
    HopfParams,
    LaurentPoly,
    LElement,
    antipode,
    d_h,
    delta_power,
    h_mul,
    padic_digits,
)


def dense(v) -> list[LaurentPoly]:
    """All ``degree`` coefficients of a coefficient vector, zeros included."""
    terms = dict(v.nonzero_items())
    zero = LaurentPoly.zero(v.p)
    return [terms.get(k, zero) for k in range(v.degree)]


def compositions(total: int, parts: int):
    """All ordered tuples of `parts` nonnegative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _twist_inverses(p: int) -> dict[int, int]:
    """{l: 1/(l!(p-l)!) mod p} for l = 1 ... p-1."""
    return {ell: pow(math.factorial(ell) * math.factorial(p - ell) % p, -1, p) for ell in range(1, p)}


def expansion_terms(i: int, p: int, r: int):
    """Exact multinomial expansion of the i-th power of the twisted primitive sum, digit by digit.

    Yields (left_exp, right_exp, scalar, f_power) for the nonzero terms of
    (u + v + f * sum_l u^{p^r l} v^{p^r (p-l)} / (l!(p-l)!))^i: the term is
    scalar * f^f_power * u^left_exp * v^right_exp.  In characteristic p the
    i-th power is the product, over the base-p digits d of i at places s,
    of the d-th power of u^{p^s} + v^{p^s} + f^{p^s} * sum_l
    u^{p^{r+s} l} v^{p^{r+s} (p-l)} / (l!(p-l)!) (Frobenius fixes F_p).
    Each such power expands over the compositions of d into u, v and the
    p - 1 twist parts, with the multinomial d!/(a! b! k_1! ... k_{p-1}!)
    (Lucas: the full multinomial mod p is the product of these).
    """
    inv = _twist_inverses(p)
    terms = {(0, 0, 0): 1}
    q = 1
    while i:
        i, d = divmod(i, p)
        factor: dict[tuple[int, int, int], int] = {}
        for comp in compositions(d, p + 1):
            c = math.factorial(d)
            for part in comp:
                c //= math.factorial(part)
            twists = list(enumerate(comp[2:], start=1))
            for ell, k in twists:
                c = c * pow(inv[ell], k, p)
            lo = sum(ell * k for ell, k in twists)
            hi = sum((p - ell) * k for ell, k in twists)
            key = (q * (comp[0] + p**r * lo), q * (comp[1] + p**r * hi), q * sum(comp[2:]))
            factor[key] = (factor.get(key, 0) + c) % p
        product: dict[tuple[int, int, int], int] = {}
        for (a1, b1, f1), c1 in terms.items():
            for (a2, b2, f2), c2 in factor.items():
                key = (a1 + a2, b1 + b2, f1 + f2)
                product[key] = (product.get(key, 0) + c1 * c2) % p
        terms = {key: c for key, c in product.items() if c}
        q *= p
    for (a, b, fpow), c in terms.items():
        yield (a, b, c, fpow)


def expansion_terms_by_binomials(i: int, p: int, r: int):
    """The terms of expansion_terms from exact integer binomials of i, reduced mod p.

    Enumerates every composition of i into u, v and the p - 1 twist parts,
    so it is slow beyond small i at p = 5; kept to cross-check the
    digit-wise expansion.  Terms may repeat a key; their scalars add.
    """
    inv = _twist_inverses(p)
    for i1 in range(i + 1):
        for i2 in range(i - i1 + 1):
            i3 = i - i1 - i2
            base = math.comb(i, i1) * math.comb(i - i1, i2) % p
            if base == 0:
                continue
            for comp in compositions(i3, p - 1):
                c = base
                rem = i3
                for ell, k in enumerate(comp, start=1):
                    c = c * math.comb(rem, k) % p
                    rem -= k
                    c = c * pow(inv[ell], k, p) % p
                if c == 0:
                    continue
                lo = sum(ell * k for ell, k in enumerate(comp, start=1))
                hi = sum((p - ell) * k for ell, k in enumerate(comp, start=1))
                yield (i1 + p**r * lo, i2 + p**r * hi, c, i3)


def image_by_expansion(i: int, hopf: HopfParams, beta: LaurentPoly) -> dict:
    """Closed-form image of u^i in K[u]/(u^{p^n} - beta) (x) H as {(a, b): nonzero coefficient}.

    Left exponents at or above p^n fold through beta, right ones vanish.
    """
    pn = hopf.degree
    acc: dict[tuple[int, int], LaurentPoly] = {}
    for a, b, c, fpow in expansion_terms(i, hopf.p, hopf.r):
        if b >= pn:
            continue
        folds, a = divmod(a, pn)
        term = hopf.f**fpow * beta**folds * c
        acc[(a, b)] = acc[(a, b)] + term if (a, b) in acc else term
    return {key: c for key, c in acc.items() if not c.is_zero()}


def tensor_power_by_expansion(i: int, hopf: HopfParams) -> dict:
    """Closed-form expansion of t^i's comultiplication as {(a, b): nonzero coefficient}, truncating at p^n."""
    return image_by_expansion(i, hopf, LaurentPoly.zero(hopf.p))


def tensor_product(a: dict, b: dict, dim: int) -> dict:
    """Schoolbook product in H (x) H of two {(a, b): coefficient} maps; exponents >= dim vanish."""
    acc: dict[tuple[int, int], LaurentPoly] = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (a1 + a2, b1 + b2)
            if key[0] < dim and key[1] < dim:
                acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    return {key: c for key, c in acc.items() if not c.is_zero()}


def coaction_by_expansion(i: int, ext: ExtensionParams, hopf: HopfParams) -> list[LElement]:
    """Closed-form coaction image of x^i, by t-exponent: left legs reduce through beta."""
    comps: list[dict[int, LaurentPoly]] = [{} for _ in range(ext.degree)]
    for (a, b), c in image_by_expansion(i, hopf, ext.beta).items():
        comps[b][a] = c
    zero = LaurentPoly.zero(ext.p)
    return [LElement([comp.get(a, zero) for a in range(ext.degree)]) for comp in comps]


def schoolbook_l_mul(a: LElement, b: LElement, ext: ExtensionParams) -> LElement:
    """Dense polynomial product followed by explicit beta folding."""
    pn = ext.degree
    ac, bc = dense(a), dense(b)
    wide = [LaurentPoly.zero(ext.p) for _ in range(2 * pn)]
    for i in range(pn):
        for j in range(pn):
            wide[i + j] = wide[i + j] + ac[i] * bc[j]
    out = list(wide[:pn])
    for e in range(pn, 2 * pn):
        out[e - pn] = out[e - pn] + wide[e] * ext.beta
    return LElement(out)


def schoolbook_h_mul(a: HElement, b: HElement) -> HElement:
    """Dense convolution of the t-coefficient lists, truncated at t^{p^n}: every pair (i, j), zeros too."""
    ac, bc = dense(a), dense(b)
    dim = len(ac)
    out = [LaurentPoly.zero(a.p) for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i + j < dim:
                out[i + j] = out[i + j] + ac[i] * bc[j]
    return HElement(out)


def coassociativity_sides(hopf: HopfParams):
    """Both triple expansions of the generator's comultiplication, as cubes.

    Delta(t) comes from the expansion oracle; Delta(t^a) from delta_power.
    """
    zero = LaurentPoly.zero(hopf.p)
    left: dict[tuple[int, int, int], LaurentPoly] = {}
    right: dict[tuple[int, int, int], LaurentPoly] = {}
    for (a, b), c in tensor_power_by_expansion(1, hopf).items():
        for (u, v), c2 in delta_power(a, hopf).items():
            key = (u, v, b)
            left[key] = left.get(key, zero) + c * c2
        for (u, v), c2 in delta_power(b, hopf).items():
            key = (a, u, v)
            right[key] = right.get(key, zero) + c * c2
    left = {k: v for k, v in left.items() if not v.is_zero()}
    right = {k: v for k, v in right.items() if not v.is_zero()}
    return left, right


def antipode_convolution_defect(hopf: HopfParams) -> HElement:
    """mult(S (x) id) applied to the generator's comultiplication (from the expansion oracle).

    Zero exactly when the antipode axiom holds on the generator.
    """
    acc = HElement.zero(hopf)
    for (a, b), c in tensor_power_by_expansion(1, hopf).items():
        term = h_mul(antipode(HElement.t_power(a, hopf)), HElement.t_power(b, hopf))
        acc = acc + HElement([coeff * c for coeff in dense(term)])
    return acc


def brute_w(h, j: int, ext: ExtensionParams) -> int:
    """w_h(j) as an exhaustive minimum over all i, directly off the definition."""
    jd = padic_digits(j, ext.p, ext.n)
    best = None
    for i in range(ext.degree):
        idig = padic_digits(i, ext.p, ext.n)
        if any(a + b > ext.p - 1 for a, b in zip(idig, jd)):
            continue
        val = d_h(h, i + j, ext) - d_h(h, i, ext)
        best = val if best is None or val < best else best
    return best


def brute_generator_witnesses(h, w_tab, ext: ExtensionParams) -> list[int]:
    """The i in [0, p^n) with d_h(i) > d_h(i-j) + w_h(j) for every j > 0 with
    digitwise j_s <= i_s: a plain double loop over all (i, j), reading w_h
    from w_tab (the brute_w table of h)."""
    pn = ext.degree
    witnesses = []
    for i in range(pn):
        idig = padic_digits(i, ext.p, ext.n)
        good = True
        for j in range(1, pn):
            jd = padic_digits(j, ext.p, ext.n)
            if any(a > b for a, b in zip(jd, idig)):
                continue
            if not d_h(h, i, ext) > d_h(h, i - j, ext) + w_tab[j]:
                good = False
        if good:
            witnesses.append(i)
    return witnesses


def rand_laurent(rng, p: int, lo: int = -3, hi: int = 5, terms: int = 3) -> LaurentPoly:
    return LaurentPoly(p, [(rng.randint(lo, hi), rng.randint(0, p - 1)) for _ in range(terms)])


def rand_lelement(rng, ext: ExtensionParams, lo: int = -3, hi: int = 5) -> LElement:
    return LElement([rand_laurent(rng, ext.p, lo, hi) for _ in range(ext.degree)])


def rand_integral_lelement(rng, ext: ExtensionParams, spread: int = 3) -> LElement:
    """A random element of the valuation ring (v_L >= 0), possibly zero."""
    coeffs = []
    for i in range(ext.degree):
        kmin = -((-ext.b * i) // ext.degree)  # ceil(b*i / p^n)
        coeffs.append(
            LaurentPoly(
                ext.p,
                [(kmin + rng.randint(0, spread), rng.randint(0, ext.p - 1)) for _ in range(2)],
            )
        )
    return LElement(coeffs)


def acceptance_tuples() -> list[tuple[int, int, int, int]]:
    return [
        (2, 2, 1, 1),
        (2, 2, 1, 3),
        (3, 2, 1, 1),
        (3, 2, 1, 2),
        (2, 3, 2, 1),
        (2, 3, 2, 3),
        (2, 4, 2, 1),
        (3, 3, 2, 1),
    ]


def standard_pair(p: int, n: int, r: int, b: int):
    """Extension and Hopf parameters with beta = T^-b and the least f meeting
    the full-structure tolerance 2*p^n - 1."""
    from hopfscaffold import min_f_valuation_for

    ext = ExtensionParams.monogenic(p, n, b)
    v = min_f_valuation_for(2 * p**n - 1, ext, r)
    return ext, HopfParams(p, n, r, LaurentPoly.monomial(p, v))


# The element text reader as it stood before coefficients were split at each +: every
# coefficient went through the top-level splitter again, term by term.  Copied whole, so it
# calls neither CoeffVector.from_text nor LaurentPoly.from_text nor their helpers.
_TERM_RE = re.compile(r"(?:([0-9]+)\*)?T(?:\^(-?[0-9]+))?|([0-9]+)")
_SPAN_RE = re.compile(r"(?:[^+(]+|\([^)]*\)?)*")
_JOINING_SPACE_RE = re.compile(r"[0-9A-Za-z_]\s+(?=[0-9A-Za-z_])")


def _split_terms(text: str) -> list[str]:
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


def _accumulate(acc: dict[int, int], terms, p: int) -> dict[int, int]:
    for e, c in terms:
        c = (acc.get(e, 0) + c) % p
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)
    return acc


def _text_terms(text: str):
    for term in _split_terms(text):
        m = _TERM_RE.fullmatch(term)
        pair = None
        if m is not None:
            coeff, exp, const = m.groups()
            try:
                pair = (0, int(const)) if const else (int(exp or 1), int(coeff or 1))
            except ValueError:
                pass
        if pair is None:
            raise ValueError(f"malformed Laurent polynomial term: {term!r}")
        yield pair


def laurent_from_text_oracle(text: str, p: int) -> LaurentPoly:
    """LaurentPoly.from_text(text, p) by the earlier reader, for a prime p."""
    return LaurentPoly(p, _accumulate({}, _text_terms(text), p))


def element_from_text_oracle(cls, text: str, params):
    """cls.from_text(text, params) by the earlier reader, for a CoeffVector subclass cls."""
    p, acc = params.p, {}
    for term in _split_terms(text):
        m = cls._term_re.fullmatch(term)
        if m is None:
            raise ValueError(f"malformed {cls._noun} term: {term!r}")
        coef, mono, idx = m.group("coef", "mono", "idx")
        try:
            k = int(idx) if idx else 1 if mono else 0
        except ValueError:
            k = -1
        if not 0 <= k < params.degree:
            raise ValueError(f"{cls._index_name} {idx if k < 0 else k} out of range [0, {params.degree})")
        _accumulate(acc.setdefault(k, {}), _text_terms(coef.strip("()") if coef else "1"), p)
    return cls([LaurentPoly(p, acc.get(k, {})) for k in range(params.degree)])
