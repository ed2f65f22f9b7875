"""Scaffold construction and verification for the dual Hopf algebra action.

A scaffold of tolerance F > 1 consists of valuation-graded elements
lambda_j (v_L(lambda_j) = j, K-proportional within residue classes of j
mod p^n) together with the generators z_{p^s}, such that z_{p^s} moves
lambda_j to the digit res(a*j)_s times lambda_{j + p^s b} modulo the deep
ideal lambda_{j + p^s b} * {v_L >= F}, where a*b = -1 mod p^n.

The concrete elements used are lambda_j = T^{(j + b*res(aj))/p^n} *
x^{res(aj)} (the T-exponent is forced to be integral by the choice of a,
which ScaffoldContext solves from b and p^n when read), with expected
units u_{s,j} equal to the digit res(aj)_s itself, which may be 0: then
the image z_{p^s} lambda_j itself lies in the ideal.  The tolerance
achieved by the action is F = p^n*v_K(f) - b*(p^{r+1} - 1), defined
whenever p^n*v_K(f) >= b*p^{r+1} (field_tower.tolerance); below that
bound no scaffold is guaranteed and verification reports that status
instead of a number.

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
from .field_tower import ExtensionParams, LElement, check_compat, l_valuation, tolerance
from .hopf_primal import DigitKernel, HopfParams

STATUS_OK = "ok"
STATUS_NO_SCAFFOLD = "no scaffold guaranteed"


def solve_a(b: int, pn: int) -> int:
    """Least nonnegative a with a*b = -1 mod pn; b must be prime to pn."""
    if math.gcd(b, pn) != 1:
        raise ValueError(f"b = {b} is not invertible mod {pn}")
    return (-pow(b, -1, pn)) % pn


class ScaffoldContext(NamedTuple):
    """Extension and Hopf parameters with their tolerance; a is solved from them when read."""

    ext: ExtensionParams
    hopf: HopfParams
    tolerance: Optional[int]

    @property
    def a(self) -> int:
        """The least nonnegative a with a*b = -1 mod p^n, which makes every lambda_j's T-exponent integral."""
        return solve_a(self.ext.b, self.ext.degree)


def scaffold_context(ext: ExtensionParams, hopf: HopfParams) -> ScaffoldContext:
    return ScaffoldContext(ext, hopf, tolerance(ext, hopf))


def lambda_element(j: int, ctx: ScaffoldContext) -> LElement:
    """The scaffold element of valuation j, defined for every integer j."""
    ext, pn = ctx.ext, ctx.ext.degree
    res = res_mod(ctx.a * j, pn)
    return LElement.x_power(res, ext, LaurentPoly._from_reduced(ext.p, {(j + ext.b * res) // pn: 1}))


class ScaffoldCheck(NamedTuple):
    """Outcome of one congruence check at indices (s, j)."""

    s: int
    j: int
    digit: int
    unit: Optional[LaurentPoly]
    passed: bool

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "unit": None if self.unit is None else self.unit.to_text()}


class ScaffoldReport(NamedTuple):
    """Verification outcome over a full residue system of j and all s."""

    ext: ExtensionParams
    hopf: HopfParams
    a: int
    tolerance: Optional[int]
    status: str
    checks: tuple[ScaffoldCheck, ...]
    all_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "p": self.ext.p,
                "n": self.ext.n,
                "r": self.hopf.r,
                "b": self.ext.b,
                "beta": self.ext.beta.to_text(),
                "f": self.hopf.f.to_text(),
                "f_val": self.hopf.f.valuation(),
                "a": self.a,
            },
            "tolerance": self.tolerance,
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
    A check records u as a constant, or None when it is 0; failures are
    recorded, never raised.  A context whose ext and hopf differ raises
    ValueError at any tolerance.
    """
    ext, hopf = ctx.ext, ctx.hopf
    check_compat(ext, hopf)
    a = ctx.a
    if ctx.tolerance is None or ctx.tolerance <= 1:
        return ScaffoldReport(ext, hopf, a, ctx.tolerance, STATUS_NO_SCAFFOLD, (), False)
    p, pn, b, tol, vf = ext.p, ext.degree, ext.b, ctx.tolerance, ext.degree * hopf.f.valuation()
    units = [None] + [LaurentPoly._from_reduced(p, {0: d}) for d in range(1, p)]
    checks = []
    for s in range(ext.n):
        kernel = DigitKernel(hopf, ext.beta, (p**s,))
        for j in range(pn):
            res = res_mod(a * j, pn)
            v = min((m * vf - b * (e + k * pn) for (e, _, m, k) in kernel.terms(res) if m or k), default=INF)
            digit = res // p**s % p
            checks.append(ScaffoldCheck(s, j, digit, units[digit], j + b * res + v >= j + p**s * b + tol))
    return ScaffoldReport(ext, hopf, a, tol, STATUS_OK, tuple(checks), all(c.passed for c in checks))


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
