"""Source-level GDPR violation analysis and benchmark tooling.

The package is used through its modules (``gdprkit.corpus``,
``gdprkit.harness``, ...).  Importing the package imports the library
modules, so after ``import gdprkit`` each is reachable as an attribute.
"""

from . import corpus, engine, facts, harness, knowledge, methods, metrics, taskgen

__version__ = "0.1.0"
