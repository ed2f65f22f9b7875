"""Run-time span tracing of the hopfscaffold package, installed from outside it.

``Tracer.install`` wraps every public function of each package module, the
constructor and arithmetic operators of its public classes, and every other
module-level name bound to one of those functions (so ``action.l_mul``,
``scaffold.act`` and ``cli.is_free`` are traced too).  Nothing under ``src/``
is edited.  Each call records one span: name, parent span, start and end; the
job id is the tracer's.  Spans stay in memory in flat arrays until ``write``
dumps them when the job ends.

A few wrapped functions also feed work counters (see ``_hooks``).  A metric
whose function is gone, or whose hook no longer fits the function's
interface, is reported absent by run.py; it never raises.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import time
from array import array
from pathlib import Path

# the package's layers, lowest first
MODULES = (
    "base_arith",
    "field_tower",
    "hopf_primal",
    "hopf_dual",
    "action",
    "scaffold",
    "module_structure",
    "cli",
)

# Dunder methods that construct values or do arithmetic.  Other dunders
# (eq, hash, repr, iteration) and public accessor methods are left
# unwrapped: LaurentPoly.is_zero alone runs ~10^7 times per job at R81.
_DUNDERS = {
    "__init__": "init",
    "__add__": "add",
    "__sub__": "sub",
    "__mul__": "mul",
    "__neg__": "neg",
    "__pow__": "pow",
}


class Tracer:
    """Span recorder for one job (one worker process)."""

    def __init__(self, job: str):
        self.job = job
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {
            "action.coaction.components": 0,
            "action.components_read": 0,
            "scaffold.checks": 0,
            "module_structure.w_h.compatible": 0,
        }
        self._last_image = None
        self.failed_hooks: list[str] = []
        self._hooks = {
            "action.coaction": self._on_coaction,
            "action.act": self._on_act,
            "scaffold.verify_scaffold": self._on_verify,
            "module_structure.w_h": self._on_w_h,
        }

    # -- work counters, run after the span has closed --------------------

    def _on_coaction(self, args, image) -> None:
        self._last_image = image
        self.counters["action.coaction.components"] += sum(
            1 for c in image.components if not c.is_zero()
        )

    def _on_act(self, args, result) -> None:
        image, self._last_image = self._last_image, None
        if image is None:
            return
        z = args[0]
        self.counters["action.components_read"] += sum(
            1 for k, _ in z.nonzero_items() if not image.components[k].is_zero()
        )

    def _on_verify(self, args, report) -> None:
        self.counters["scaffold.checks"] += len(report.checks)

    def _on_w_h(self, args, result) -> None:
        # digit-compatible i for this j: prod over slots of (p - j_s)
        j, ext = args[1], args[2]
        count = 1
        for _ in range(ext.n):
            j, d = divmod(j, ext.p)
            count *= ext.p - d
        self.counters["module_structure.w_h.compatible"] += count

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_append, parent_append = self.span_name.append, self.span_parent.append
        start_append, ends = self.span_start.append, self.span_end
        end_append = ends.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        hook = self._hooks.get(name)
        failed = self.failed_hooks

        def traced(*args, **kwargs):
            idx = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            push(idx)
            start_append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if hook is not None and name not in failed:
                try:
                    hook(args, out)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the function's interface changed; its counter reads absent
                    failed.append(name)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, package: str = "hopfscaffold") -> None:
        """Wrap the package's public functions and rebind every alias of them."""
        mods = [
            importlib.import_module(f"{package}.{m}")
            for m in MODULES
            if importlib.util.find_spec(f"{package}.{m}") is not None
        ]
        wrapped: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth in _DUNDERS and inspect.isfunction(raw):
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{_DUNDERS[meth]}", raw))
        for mod in mods + [importlib.import_module(package)]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    # -- results -------------------------------------------------------------

    def aggregate(self, upto: int) -> dict:
        """Calls and self time per name, and the counters, over spans [0, upto).

        Self time is a span's duration minus its children's durations.
        Spans are appended at entry, so a parent always precedes its
        children and one forward pass also marks the spans under w_h.
        """
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        wh = self.names.index("module_structure.w_h") if "module_structure.w_h" in self.names else -1
        pd = self.names.index("base_arith.padic_digits") if "base_arith.padic_digits" in self.names else -1
        under_wh = bytearray(upto)
        pd_under_wh = 0
        for i in range(upto):
            k = names[i]
            d = ends[i] - starts[i]
            calls[k] += 1
            self_s[k] += d
            p = parents[i]
            if p >= 0:
                self_s[names[p]] -= d
                if under_wh[p] or names[p] == wh:
                    under_wh[i] = 1
                    if k == pd:
                        pd_under_wh += 1
        counters = dict(self.counters)
        counters["module_structure.w_h.padic_digits"] = pd_under_wh
        return {
            "job": self.job,
            "functions": {self.names[k]: [calls[k], self_s[k]] for k in range(n)},
            "counters": counters,
            "failed_hooks": list(self.failed_hooks),
        }

    def write(self, directory: Path, upto: int) -> None:
        """Dump spans [0, upto) as a JSON header and one binary array file."""
        directory.mkdir(parents=True, exist_ok=True)
        header = {
            "job": self.job,
            "names": self.names,
            "spans": upto,
            "layout": "int32 name[spans], int32 parent[spans], float64 start[spans], float64 end[spans]",
        }
        (directory / f"{self.job}.spans.json").write_text(json.dumps(header))
        with open(directory / f"{self.job}.spans.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr[:upto].tofile(fh)
