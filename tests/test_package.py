"""Package-wide structural checks."""

import importlib
import pkgutil
import threading
import types

import hopfscaffold
from hopfscaffold import DualElement, HElement, LElement
from hopfscaffold.base_arith import CoeffVector

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


def test_no_module_state():
    # results are computed per call: no module keeps a cache, a table or a lock
    names = [info.name for info in pkgutil.iter_modules(hopfscaffold.__path__)]
    modules = [hopfscaffold] + [importlib.import_module(f"hopfscaffold.{name}") for name in names]
    stateful = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, value in vars(mod).items()
        if not (name.startswith("__") and name.endswith("__"))
        and isinstance(value, (dict, list, set, *_LOCK_TYPES))
    ]
    assert len(modules) > 1
    assert stateful == []


def test_coeff_vector_subclasses_are_the_three_element_types():
    # H (x) H and L (x) H are sparse maps, not coefficient vectors
    assert set(CoeffVector.__subclasses__()) == {LElement, HElement, DualElement}


# the public names of the package; a name leaves or joins the API only by editing this set
PUBLIC_NAMES = {
    "AssocOrderBasis", "BasisEntry", "CertificateReport", "DualElement", "ExtensionParams",
    "FreenessReport", "HElement", "HopfParams", "INF", "IdealIndex", "InsufficientToleranceError",
    "LElement", "LaurentPoly", "ScaffoldCheck", "ScaffoldContext", "ScaffoldReport",
    "act", "act_fast", "antipode", "assoc_order_basis", "counit", "d_h", "delta_power",
    "dual_basis_rank", "dual_eval", "dual_from_text", "dual_mult", "dual_to_text", "freeness_b1",
    "generator_count", "h_mul", "ideal_membership", "integer_certificate_check", "is_free",
    "l_mul", "l_valuation", "lambda_element", "lelement_from_text", "lelement_to_text",
    "materialize_basis_entry", "min_f_valuation_for", "monomial_images", "noether_criterion",
    "padic_digits", "res_mod", "scaffold_context", "solve_a", "tolerance", "verify_scaffold",
    "w_h", "z_monomial", "z_monomials",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(hopfscaffold).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
