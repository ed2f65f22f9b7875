"""Package-wide structural checks."""

import importlib
import pkgutil
import threading

import hopfscaffold

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
