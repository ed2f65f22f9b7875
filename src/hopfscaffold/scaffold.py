"""Scaffold construction and verification for the dual Hopf algebra action.

A scaffold of tolerance F > 1 consists of valuation-graded elements
lambda_j (v_L(lambda_j) = j, K-proportional within residue classes of j
mod p^n) together with the generators z_{p^s}, such that z_{p^s} moves
lambda_j to the digit res(a*j)_s times lambda_{j + p^s b} modulo the deep
ideal lambda_{j + p^s b} * {v_L >= F}, where a*b = -1 mod p^n.

The concrete elements used are lambda_j = T^{(j + b*res(aj))/p^n} *
x^{res(aj)} (the T-exponent is forced to be integral by the choice of a),
with expected units u_{s,j} equal to the digit res(aj)_s itself.  The
tolerance achieved by the action is F = p^n*v_K(f) - b*(p^{r+1} - 1),
defined whenever p^n*v_K(f) >= b*p^{r+1}; below that bound no scaffold is
guaranteed and verification reports that status instead of a number.

Congruences are decided purely by exact valuations: y is in
lambda * {v_L >= F} iff v_L(y) >= v_L(lambda) + F.  No division in L
is ever performed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

from .action import _action_of, monomial_images
from .base_arith import LaurentPoly, padic_digits, res_mod
from .field_tower import ExtensionParams, LElement, l_valuation
from .hopf_dual import DualElement
from .hopf_primal import HopfParams

STATUS_OK = "ok"
STATUS_NO_SCAFFOLD = "no scaffold guaranteed"


def solve_a(b: int, pn: int) -> int:
    """Least nonnegative a with a*b = -1 mod pn; b must be prime to pn."""
    if math.gcd(b, pn) != 1:
        raise ValueError(f"b = {b} is not invertible mod {pn}")
    return (-pow(b, -1, pn)) % pn


def tolerance(ext: ExtensionParams, hopf: HopfParams) -> Optional[int]:
    """p^n*v_K(f) - b*(p^{r+1} - 1), or None when v_K(f) < b*p^{r+1-n}."""
    if ext.p != hopf.p or ext.n != hopf.n:
        raise ValueError("extension and Hopf parameters must share p and n")
    vf = hopf.f.valuation()
    pn = ext.degree
    pr1 = ext.p ** (hopf.r + 1)
    if pn * vf < ext.b * pr1:
        return None
    return pn * vf - ext.b * (pr1 - 1)


def min_f_valuation_for(target: int, ext: ExtensionParams, r: int) -> int:
    """Least v_K(f) whose tolerance reaches the target (target >= 2)."""
    if target < 2:
        raise ValueError("target tolerance must be at least 2")
    pn = ext.degree
    pr1 = ext.p ** (r + 1)
    need = -((target + ext.b * (pr1 - 1)) // -pn)
    floor_hyp = -(ext.b * pr1 // -pn)
    return max(need, floor_hyp)


class ScaffoldContext(NamedTuple):
    """Extension and Hopf parameters with the solved a and tolerance."""

    ext: ExtensionParams
    hopf: HopfParams
    a: int
    tolerance: Optional[int]


def scaffold_context(ext: ExtensionParams, hopf: HopfParams) -> ScaffoldContext:
    return ScaffoldContext(ext, hopf, solve_a(ext.b, ext.degree), tolerance(ext, hopf))


def lambda_element(j: int, ctx: ScaffoldContext) -> LElement:
    """The scaffold element of valuation j, defined for every integer j."""
    ext = ctx.ext
    pn = ext.degree
    res = res_mod(ctx.a * j, pn)
    num = j + ext.b * res
    # a*b = -1 mod p^n forces integrality; a failure here is a bug
    assert num % pn == 0, (j, res, num)
    return LElement.x_power(res, ext, LaurentPoly._from_reduced(ext.p, {num // pn: 1}))


class ScaffoldCheck(NamedTuple):
    """Outcome of one congruence check at indices (s, j)."""

    s: int
    j: int
    digit: int
    unit: Optional[LaurentPoly]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "j": self.j,
            "digit": self.digit,
            "unit": None if self.unit is None else self.unit.to_text(),
            "passed": self.passed,
        }


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

    For digit res(aj)_s > 0 the unit is taken to be the digit itself and
    the difference from u * lambda_{j + p^s b} must lie in the depth-F
    ideal over lambda_{j + p^s b}; for digit 0 the image itself must.
    Failures are recorded per check, never raised.
    """
    ext, hopf = ctx.ext, ctx.hopf
    if ctx.tolerance is None or ctx.tolerance <= 1:
        return ScaffoldReport(ext, hopf, ctx.a, ctx.tolerance, STATUS_NO_SCAFFOLD, (), False)
    pn = ext.degree
    tol = ctx.tolerance
    checks = []
    for s in range(ext.n):
        z_act = _action_of(DualElement.z_basis(ext.p**s, hopf), ext, hopf)
        step = ext.p**s * ext.b
        for j in range(pn):
            digit = res_mod(ctx.a * j, pn) // ext.p**s % ext.p
            image = z_act(lambda_element(j, ctx))
            threshold = j + step + tol
            if digit > 0:
                unit: Optional[LaurentPoly] = LaurentPoly._from_reduced(ext.p, {0: digit})
                diff = image - lambda_element(j + step, ctx).scale(digit)
                passed = l_valuation(diff, ext) >= threshold
            else:
                unit = None
                passed = l_valuation(image, ext) >= threshold
            checks.append(ScaffoldCheck(s, j, digit, unit, passed))
    return ScaffoldReport(
        ext, hopf, ctx.a, tol, STATUS_OK, tuple(checks), all(c.passed for c in checks)
    )


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
                    "digits": list(rec.digits),
                    "j": rec.j,
                    "valuation": None if rec.valuation == math.inf else rec.valuation,
                    "expected": rec.expected,
                    "ok": rec.ok,
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
    ext, hopf = ctx.ext, ctx.hopf
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
