"""Exact Hopf Galois scaffolds on purely inseparable local field extensions.

The package works over K = F_p((T)) with finitely supported elements,
builds the degree-p^n purely inseparable extension L = K(x) with
x^{p^n} = beta, the twisted monogenic Hopf algebra K[t]/(t^{p^n}) and its
dual, realizes the dual action on L, verifies scaffold congruences
exactly, and classifies which fractional ideals of L are free over their
associated orders.

Public names resolve on first use: importing the package loads none of
its modules, and hopfscaffold.<name> imports the one module that defines
the name, then binds it here, so later reads are plain attribute reads.
Each CLI command likewise imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# (module, the public names it defines), lowest layer first
_EXPORTS = (
    ("base_arith", ("INF", "LaurentPoly", "padic_digits", "res_mod")),
    (
        "field_tower",
        (
            "ExtensionParams", "HopfParams", "LElement", "ideal_membership", "l_mul", "l_valuation",
            "lelement_from_text", "lelement_to_text", "min_f_valuation_for", "tolerance",
        ),
    ),
    ("hopf_primal", ("HElement", "antipode", "counit", "delta_power", "h_mul")),
    (
        "hopf_dual",
        (
            "DualElement", "dual_basis_rank", "dual_eval", "dual_from_text", "dual_mult",
            "dual_to_text", "z_monomial", "z_monomials",
        ),
    ),
    ("action", ("act", "act_fast", "monomial_images")),
    (
        "scaffold",
        (
            "CertificateReport", "ScaffoldCheck", "ScaffoldContext", "ScaffoldReport",
            "integer_certificate_check", "lambda_element", "scaffold_context", "solve_a",
            "verify_scaffold",
        ),
    ),
    (
        "module_structure",
        (
            "AssocOrderBasis", "BasisEntry", "FreenessReport", "IdealIndex",
            "InsufficientToleranceError", "assoc_order_basis", "d_h", "freeness_b1", "is_free",
            "materialize_basis_entry", "noether_criterion",
        ),
    ),
)

__all__ = tuple(name for _, names in _EXPORTS for name in names)


def __getattr__(name: str):
    """Import the module that defines a public name and bind the name here."""
    for module, names in _EXPORTS:
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
