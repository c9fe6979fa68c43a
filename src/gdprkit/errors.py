"""Exception types shared across the toolkit.

Every error raised on a documented failure path derives from GdprKitError so
the CLI can catch one base class and exit cleanly.
"""

from __future__ import annotations


class GdprKitError(Exception):
    """Base class for all toolkit errors."""


class CorpusSchemaError(GdprKitError):
    """A corpus record is missing a field or carries an invalid value."""

    def __init__(self, index: int, field: str, message: str):
        self.index = index
        self.field = field
        super().__init__(f"record {index}, field '{field}': {message}")


class InputError(GdprKitError):
    """An analysis input is out of bounds, or a stored dataset or prediction file is malformed."""


class ConfigurationError(GdprKitError):
    """Invalid registry or run configuration."""


class RuleLoadError(InputError):
    """Rule catalog failed validation at load time."""


class UnknownArticleError(GdprKitError):
    """Article number not present in the catalog."""


class ModelOutputError(GdprKitError):
    """Model response did not conform to the required output format."""

    def __init__(self, raw_text: str, message: str = "unparseable model output"):
        self.raw_text = raw_text
        super().__init__(f"{message}: {raw_text!r}")


class MethodError(GdprKitError):
    """A prediction method failed for one instance."""


class ReplayMissError(GdprKitError):
    """Cache-replay binding was asked for responses that are not cached."""

    def __init__(self, missing_keys: list[str]):
        self.missing_keys = list(missing_keys)
        keys = ", ".join(self.missing_keys[:10])
        more = "" if len(self.missing_keys) <= 10 else f" (+{len(self.missing_keys) - 10} more)"
        super().__init__(f"cache replay missing {len(self.missing_keys)} key(s): {keys}{more}")


class ReconciliationError(GdprKitError):
    """Predictions and dataset instances do not join one-to-one."""

    def __init__(self, orphan_ids: list[str], missing_ids: list[str]):
        self.orphan_ids = list(orphan_ids)
        self.missing_ids = list(missing_ids)
        super().__init__(
            f"orphan predictions: {sorted(self.orphan_ids)}; "
            f"instances without prediction: {sorted(self.missing_ids)}"
        )


class UndefinedMetricError(GdprKitError):
    """Metric requested over an empty instance population."""
