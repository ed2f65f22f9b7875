"""Scaffold construction and verification for the dual Hopf algebra action.

A scaffold of tolerance F > 1 consists of valuation-graded elements
lambda_j (v_L(lambda_j) = j, K-proportional within residue classes of j
mod p^n) together with the generators z_{p^s}, such that z_{p^s} moves
lambda_j to the digit res(a*j)_s times lambda_{j + p^s b} modulo the deep
ideal lambda_{j + p^s b} * {v_L >= F}, where a*b = -1 mod p^n.

The concrete elements used are lambda_j = T^{(j + b*res(aj))/p^n} *
x^{res(aj)}, with a solved from b and p^n so that the T-exponent is
integral, and expected units u_{s,j} equal to the digit res(aj)_s itself,
which may be 0: then the image z_{p^s} lambda_j itself lies in the ideal.
The tolerance achieved by the action is F = p^n*v_K(f) - b*(p^{r+1} - 1),
defined whenever p^n*v_K(f) >= b*p^{r+1} (field_tower.tolerance); below
that bound no scaffold is guaranteed and verification reports that status
instead of a number.  A ScaffoldContext is (ext, hopf) and reads a and F
off them, so no record holds a copy of either, nor of a check's unit.

Congruences are decided by exact valuations, y in lambda * {v_L >= F}
iff v_L(y) >= v_L(lambda) + F, read off the digit kernel's integer terms
with no element of L formed.  With res = res(aj), a term c f^m beta^k x^e
of z_{p^s} lambda_j has v_L = j + b*res + p^n*m*v_K(f) - b*(e + k*p^n).
Its one term with m = k = 0 is u * lambda_{j + p^s b} (C(res, p^s) = u
mod p by Lucas); terms with distinct e cannot cancel, so v_L of the
difference is the least over the others, +inf if there are none.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

from .base_arith import INF, LaurentPoly, padic_digits, res_mod
from .field_tower import ExtensionParams, HopfParams, LElement, check_compat, l_valuation, tolerance
from .hopf_primal import DigitKernel

STATUS_OK = "ok"
STATUS_NO_SCAFFOLD = "no scaffold guaranteed"


def solve_a(b: int, pn: int) -> int:
    """Least nonnegative a with a*b = -1 mod pn; b must be prime to pn."""
    if math.gcd(b, pn) != 1:
        raise ValueError(f"b = {b} is not invertible mod {pn}")
    return (-pow(b, -1, pn)) % pn


class ScaffoldContext(NamedTuple):
    """Extension and Hopf parameters; a and the tolerance are read off them."""

    ext: ExtensionParams
    hopf: HopfParams

    @property
    def a(self) -> int:
        """The least nonnegative a with a*b = -1 mod p^n, which makes every lambda_j's T-exponent integral."""
        return solve_a(self.ext.b, self.ext.degree)

    @property
    def tolerance(self) -> Optional[int]:
        """F = field_tower.tolerance(ext, hopf), None below the hypothesis; ValueError if p or n differ."""
        return tolerance(self.ext, self.hopf)


def scaffold_context(ext: ExtensionParams, hopf: HopfParams) -> ScaffoldContext:
    check_compat(ext, hopf)
    return ScaffoldContext(ext, hopf)


def lambda_element(j: int, ctx: ScaffoldContext) -> LElement:
    """The scaffold element of valuation j, defined for every integer j."""
    ext, pn = ctx.ext, ctx.ext.degree
    res = res_mod(ctx.a * j, pn)
    return LElement.x_power(res, ext, LaurentPoly._from_reduced(ext.p, {(j + ext.b * res) // pn: 1}))


class ScaffoldCheck(NamedTuple):
    """Outcome of one congruence check at indices (s, j); its expected unit is the digit, none when 0."""

    s: int
    j: int
    digit: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "unit": str(self.digit) if self.digit else None}


class ScaffoldReport(NamedTuple):
    """Verification outcome over a full residue system of j and all s, under its context's parameters."""

    ctx: ScaffoldContext
    status: str
    checks: tuple[ScaffoldCheck, ...]
    all_passed: bool

    def to_json_dict(self) -> dict:
        ext, hopf = self.ctx.ext, self.ctx.hopf
        return {
            "params": {
                "p": ext.p,
                "n": ext.n,
                "r": hopf.r,
                "b": ext.b,
                "beta": ext.beta.to_text(),
                "f": hopf.f.to_text(),
                "f_val": hopf.f.valuation(),
                "a": self.ctx.a,
            },
            "tolerance": self.ctx.tolerance,
            "status": self.status,
            "checks": [c.to_json_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }


def verify_scaffold(ctx: ScaffoldContext) -> ScaffoldReport:
    """Check every scaffold congruence for s in [0, n) and j in [0, p^n).

    The one rule: z_{p^s} lambda_j - u * lambda_{j + p^s b} lies in
    lambda_{j + p^s b} * {v_L >= F}, with u the digit res(aj)_s, 0 included.
    It holds iff each term of DigitKernel(hopf, beta, (p^s,)).terms(res(aj))
    with m or k nonzero has v_L >= j + p^s b + F (see the module docstring).
    Such a term has m >= 1 (m = 0 forces k = 0), and the kernel's
    e + k p^n = res - p^s + (p^{r+1} - 1) m puts it at v_L = j + p^s b + m F:
    each such term sits m F deeper than lambda_{j + p^s b}, so at F > 1
    every check passes, by F times the least twist count it reads.
    A check records the digit, which is its unit; failures are recorded,
    never raised.  F is read once, off ctx, so a context whose ext and
    hopf differ raises ValueError at any tolerance.
    """
    ext, hopf, tol = ctx.ext, ctx.hopf, ctx.tolerance
    if tol is None or tol <= 1:
        return ScaffoldReport(ctx, STATUS_NO_SCAFFOLD, (), False)
    p, pn, b, a, vf = ext.p, ext.degree, ext.b, ctx.a, ext.degree * hopf.f.valuation()
    checks = []
    for s in range(ext.n):
        kernel = DigitKernel(hopf, ext.beta, (p**s,))
        for j in range(pn):
            res = res_mod(a * j, pn)
            v = min((m * vf - b * (e + k * pn) for (e, _, m, k) in kernel.terms(res) if m or k), default=INF)
            digit = res // p**s % p
            checks.append(ScaffoldCheck(s, j, digit, j + b * res + v >= j + p**s * b + tol))
    return ScaffoldReport(ctx, STATUS_OK, tuple(checks), all(c.passed for c in checks))


class CertificateRecord(NamedTuple):
    digits: tuple[int, ...]
    j: int
    valuation: Union[int, float]
    expected: int
    ok: bool


class CertificateReport(NamedTuple):
    """Valuations of all z-monomial images of a valuation-b element."""

    records: tuple[CertificateRecord, ...]
    complete_residue_system: bool
    all_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "records": [
                {
                    **rec._asdict(),
                    "digits": list(rec.digits),
                    "valuation": None if rec.valuation == math.inf else rec.valuation,
                }
                for rec in self.records
            ],
            "complete_residue_system": self.complete_residue_system,
            "all_ok": self.all_ok,
        }


def integer_certificate_check(rho: LElement, ctx: ScaffoldContext) -> CertificateReport:
    """Verify that rho of valuation b generates a K-basis under the z-monomials.

    Applies every monomial z_1^{j_0} ... z_{p^{n-1}}^{j_{n-1}} to rho,
    asserting v_L = b*(1 + j) and that the p^n valuations exhaust the
    residues mod p^n.  The images come from action.monomial_images, which
    forms them along the digit trie: each is one generator z_{p^s} applied
    to an earlier image, p^n - 1 single-generator actions in all.
    """
    from .action import monomial_images  # imported here so that a scaffold-verify job loads no action

    ext, hopf = ctx.ext, ctx.hopf
    check_compat(ext, hopf, rho)
    if l_valuation(rho, ext) != ext.b:
        raise ValueError(f"v_L(rho) = {l_valuation(rho, ext)} but the certificate needs {ext.b}")
    pn = ext.degree
    records = []
    for j, image in enumerate(monomial_images(rho, ext, hopf)):
        digits = padic_digits(j, ext.p, ext.n)
        val = l_valuation(image, ext)
        expected = ext.b * (1 + j)
        records.append(CertificateRecord(digits, j, val, expected, val == expected))
    residues = {rec.valuation % pn for rec in records if rec.valuation != math.inf}
    return CertificateReport(
        tuple(records),
        complete_residue_system=(residues == set(range(pn))),
        all_ok=all(rec.ok for rec in records),
    )
