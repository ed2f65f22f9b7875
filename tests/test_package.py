"""Package-wide structural checks."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import hopfscaffold
from hopfscaffold import (
    DualElement,
    ExtensionParams,
    HElement,
    HopfParams,
    IdealIndex,
    LaurentPoly,
    LElement,
    assoc_order_basis,
    integer_certificate_check,
    is_free,
    lambda_element,
    scaffold_context,
    verify_scaffold,
)
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


def test_no_module_validates_with_assert():
    # python -O strips assert statements, so a check made with one would pass anything there
    sources = sorted(Path(hopfscaffold.__file__).parent.glob("*.py"))
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(sources) > 1
    assert asserts == []


def test_the_licensing_rule_has_one_spelling():
    # field_tower.licensing_shortfall alone compares F with 2*p^n - 1 and words the refusal
    def strings(tree):
        docs = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        # the literal parts of an f-string are Constant nodes beneath its JoinedStr
        return [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs
        ]

    sources = sorted(Path(hopfscaffold.__file__).parent.glob("*.py"))
    holders = [
        path.stem
        for path in sources
        if any("2*p^n - 1" in text for text in strings(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    ]
    assert holders == ["field_tower"]


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
    "h_mul", "ideal_membership", "integer_certificate_check", "is_free",
    "l_mul", "l_valuation", "lambda_element", "lelement_from_text", "lelement_to_text",
    "materialize_basis_entry", "min_f_valuation_for", "monomial_images", "noether_criterion",
    "padic_digits", "res_mod", "scaffold_context", "solve_a", "tolerance", "verify_scaffold",
    "z_monomial", "z_monomials",
}


def test_public_names_are_pinned():
    # names resolve on first use: resolve each one the package lists, then read what it has bound
    for name in hopfscaffold.__all__:
        getattr(hopfscaffold, name)
    exported = {
        name
        for name, value in vars(hopfscaffold).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(hopfscaffold))


def test_a_resolved_name_is_bound_in_the_package(monkeypatch):
    # act-stream reads hopfscaffold.act per query: after the first read it is a plain attribute
    monkeypatch.delitem(vars(hopfscaffold), "act", raising=False)
    act = hopfscaffold.act
    assert vars(hopfscaffold)["act"] is act is importlib.import_module("hopfscaffold.action").act


def _modules_loaded_by(script):
    """The modules a fresh interpreter loads running script, against this checkout's src/.

    Every CLI job is a fresh process, so each module a job imports is paid per job; the
    baseline is taken in the same interpreter, since a site .pth may preload modules.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    script = f"import sys; bare = set(sys.modules)\n{script}\nprint(*sorted(set(sys.modules) - bare))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_dataclasses_inspect_or_logging():
    added = _modules_loaded_by("import hopfscaffold.cli")
    assert "hopfscaffold.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "logging"})
    # the parameter checks need no Hopf algebra: HopfParams lives in field_tower
    own = {name for name in added if name.split(".")[0] == "hopfscaffold"}
    assert own == {"hopfscaffold", "hopfscaffold.cli", "hopfscaffold.base_arith", "hopfscaffold.field_tower"}


def test_package_import_loads_no_submodule():
    added = _modules_loaded_by("import hopfscaffold")
    assert "hopfscaffold" in added
    assert {name for name in added if name.startswith("hopfscaffold.")} == set()


@pytest.mark.parametrize(
    "command, runs, skips",
    [
        (["atlas"], "module_structure", ("scaffold", "action", "hopf_dual", "hopf_primal")),
        (["scaffold-verify"], "scaffold", ("module_structure", "action", "hopf_dual")),
        # assoc-order reads the tolerance from field_tower, so it too loads no scaffold
        (["assoc-order", "--h", "1"], "module_structure", ("scaffold", "action", "hopf_dual", "hopf_primal")),
        (["freeness", "--h", "1"], "module_structure", ("scaffold", "action", "hopf_dual", "hopf_primal")),
    ],
)
def test_a_cli_job_loads_only_the_modules_its_command_runs(command, runs, skips):
    argv = [*command, "--p", "2", "--n", "4", "--r", "2", "--b", "1", "--f-val", "3"]
    added = _modules_loaded_by(f"import hopfscaffold.cli; assert hopfscaffold.cli.main({argv!r}) == 0")
    assert f"hopfscaffold.{runs}" in added
    assert added.isdisjoint(f"hopfscaffold.{name}" for name in skips)


RECORD_TYPES = [
    "ExtensionParams", "HopfParams", "ScaffoldContext", "ScaffoldReport", "ScaffoldCheck",
    "CertificateReport", "CertificateRecord", "IdealIndex", "FreenessReport", "BasisEntry",
    "AssocOrderBasis",
]


def _records():
    """One instance of every record type by name, built by the public entry points at (2, 2, 1, 1, T^4)."""
    ext = ExtensionParams.monogenic(2, 2, 1)
    hopf = HopfParams(2, 2, 1, LaurentPoly.monomial(2, 4))
    ctx = scaffold_context(ext, hopf)
    report = verify_scaffold(ctx)
    certificate = integer_certificate_check(lambda_element(1, ctx), ctx)
    freeness = is_free(0, ext)
    records = [
        ext, hopf, ctx, report, report.checks[0], certificate, certificate.records[0],
        IdealIndex.normalize(0, ext), freeness, freeness.basis[0], assoc_order_basis(0, ext, hopf),
    ]
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_immutable_tuples_with_value_equality(name):
    record, twin = _records()[name], _records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert not hasattr(record, "__dict__")
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert repr(record).startswith(f"{name}({field}=")
    # a record is a tuple: iterable, indexable, equal to the plain tuple of its fields
    assert record == tuple(record) and record[0] == getattr(record, field)


_BETA = LaurentPoly.monomial(2, -1)
_F = LaurentPoly.monomial(2, 3)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (ExtensionParams, (4, 2, 1, _BETA), "p = 4 is not prime"),
        (ExtensionParams, (2, 1, 1, _BETA), "n must be at least 2"),
        (ExtensionParams, (2, 2, 0, _BETA), "b must be a positive integer prime to p"),
        (ExtensionParams, (2, 2, 2, _BETA), "b must be a positive integer prime to p"),
        (ExtensionParams, (2, 2, 1, LaurentPoly.monomial(3, -1)), "beta lives over the wrong prime field"),
        (ExtensionParams, (2, 2, 1, LaurentPoly.monomial(2, -3)), "v_K(beta) must equal -b = -1"),
        (HopfParams, (4, 2, 1, _F), "p = 4 is not prime"),
        (HopfParams, (2, 2, 0, _F), "need 0 < r < n <= 2r, got r=0, n=2"),
        (HopfParams, (2, 2, 2, _F), "need 0 < r < n <= 2r, got r=2, n=2"),
        (HopfParams, (2, 4, 1, _F), "need 0 < r < n <= 2r, got r=1, n=4"),
        (HopfParams, (2, 2, 1, LaurentPoly.monomial(3, 3)), "f lives over the wrong prime field"),
        (HopfParams, (2, 2, 1, LaurentPoly.zero(2)), "f must be nonzero"),
    ],
)
def test_param_validation_messages(cls, args, message):
    # the same message whether the fields are given by position or by name
    names = ("p", "n", "b", "beta") if cls is ExtensionParams else ("p", "n", "r", "f")
    with pytest.raises(ValueError) as positional:
        cls(*args)
    with pytest.raises(ValueError) as keyword:
        cls(**dict(zip(names, args)))
    assert positional.value.args == keyword.value.args == (message,)
