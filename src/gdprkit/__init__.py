"""Source-level GDPR violation analysis and benchmark tooling.

The package is used through its modules (``gdprkit.corpus``,
``gdprkit.harness``, ...).  Importing the package imports none of them:
each library module loads on first access as an attribute of the package,
so a command loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_MODULES = frozenset(("corpus", "engine", "facts", "harness", "knowledge", "methods", "metrics", "taskgen"))


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
