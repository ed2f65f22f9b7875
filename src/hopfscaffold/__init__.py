"""Exact Hopf Galois scaffolds on purely inseparable local field extensions.

The package works over K = F_p((T)) with finitely supported elements,
builds the degree-p^n purely inseparable extension L = K(x) with
x^{p^n} = beta, the twisted monogenic Hopf algebra K[t]/(t^{p^n}) and its
dual, realizes the dual action on L, verifies scaffold congruences
exactly, and classifies which fractional ideals of L are free over their
associated orders.
"""

from .base_arith import (
    INF,
    LaurentPoly,
    PadicDigits,
    PrimeFieldScalar,
    binomial_mod_p,
    inverse_mod_p,
    padic_digits,
    res_mod,
)
from .field_tower import (
    ExtensionParams,
    LElement,
    ideal_membership,
    l_mul,
    l_valuation,
    lelement_from_text,
    lelement_to_text,
)
from .hopf_primal import (
    HElement,
    HopfParams,
    TensorHH,
    antipode,
    counit,
    delta_power,
    delta_t,
    h_mul,
    tensor_mul,
)
from .hopf_dual import (
    DualElement,
    dual_basis_rank,
    dual_eval,
    dual_from_text,
    dual_mult,
    dual_to_text,
    z_monomial,
)
from .action import CoactionImage, act, act_fast, coaction
from .scaffold import (
    CertificateReport,
    ScaffoldCheck,
    ScaffoldContext,
    ScaffoldReport,
    integer_certificate_check,
    lambda_element,
    min_f_valuation_for,
    scaffold_context,
    solve_a,
    tolerance,
    verify_scaffold,
)
from .module_structure import (
    AssocOrderBasis,
    BasisEntry,
    FreenessReport,
    IdealIndex,
    InsufficientToleranceError,
    assoc_order_basis,
    d_h,
    freeness_b1,
    generator_count,
    is_free,
    materialize_basis_entry,
    noether_criterion,
    w_h,
)

__version__ = "0.1.0"
