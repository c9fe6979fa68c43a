"""Evaluation metrics for localization rankings and label sets.

Ranking quality is scored with accuracy@k: the share of instances whose
first correct article appears within the top k of the prediction.  Label
sets are scored with per-cell accuracy over the article universe and with
macro-averaged precision, recall, and F1, where a zero denominator
contributes 0 rather than being skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, UndefinedMetricError

GRANULARITIES = ("file", "module", "line")
DEFAULT_KS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class RankedInstance:
    """One localization judgement: a ranked prediction against true articles."""

    granularity: str
    prediction: tuple[int, ...]
    ground_truth: frozenset[int]

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise InputError(f"granularity must be one of {GRANULARITIES}")
        if not self.ground_truth:
            raise InputError("ranked instances need non-empty ground truth")
        if len(set(self.prediction)) != len(self.prediction):
            raise InputError("ranked prediction must not repeat articles")


@dataclass(frozen=True)
class LabeledInstance:
    """One classification judgement; either side may be empty."""

    prediction: frozenset[int]
    ground_truth: frozenset[int]


def first_correct_rank(prediction: Sequence[int], ground_truth: frozenset[int]) -> int | None:
    """1-based rank of the first correct article, or None if absent."""
    for i, article in enumerate(prediction, start=1):
        if article in ground_truth:
            return i
    return None


def accuracy_at_k(
    instances: Sequence[RankedInstance], k: int, granularity: str | None = None
) -> float:
    if not (1 <= k <= 5):
        raise InputError(f"k must be between 1 and 5, got {k}")
    if granularity is not None:
        instances = [inst for inst in instances if inst.granularity == granularity]
    if not instances:
        where = f" at granularity {granularity!r}" if granularity else ""
        raise UndefinedMetricError(f"accuracy@k undefined: no instances{where}")
    hits = 0
    for inst in instances:
        rank = first_correct_rank(inst.prediction, inst.ground_truth)
        if rank is not None and rank <= k:
            hits += 1
    return hits / len(instances)


@dataclass(frozen=True)
class RankingMetrics:
    granularity: str
    n_instances: int
    accuracy_at: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "granularity": self.granularity,
            "n_instances": self.n_instances,
            "accuracy_at": {str(k): v for k, v in sorted(self.accuracy_at.items())},
        }


def evaluate_rankings(instances: Sequence[RankedInstance]) -> dict[str, RankingMetrics]:
    """Accuracy@k per granularity, only for granularities that appear."""
    out: dict[str, RankingMetrics] = {}
    for granularity in GRANULARITIES:
        subset = [inst for inst in instances if inst.granularity == granularity]
        if not subset:
            continue
        out[granularity] = RankingMetrics(
            granularity=granularity,
            n_instances=len(subset),
            accuracy_at={k: accuracy_at_k(subset, k, granularity) for k in DEFAULT_KS},
        )
    return out


def _resolve_universe(
    instances: Sequence[LabeledInstance], universe: Iterable[int] | None
) -> tuple[int, ...]:
    if universe is None:
        resolved = sorted(set().union(*(inst.ground_truth for inst in instances)) if instances else set())
    else:
        resolved = sorted(set(universe))
    if not resolved:
        raise UndefinedMetricError("label metrics need a non-empty article universe")
    return tuple(resolved)


def multilabel_accuracy(
    instances: Sequence[LabeledInstance], universe: Iterable[int] | None = None
) -> float:
    """Mean agreement over every (instance, article) cell."""
    if not instances:
        raise UndefinedMetricError("multilabel accuracy undefined on no instances")
    resolved = _resolve_universe(instances, universe)
    agree = sum(
        1
        for inst in instances
        for article in resolved
        if (article in inst.prediction) == (article in inst.ground_truth)
    )
    return agree / (len(instances) * len(resolved))


@dataclass(frozen=True)
class LabelMetrics:
    n_instances: int
    universe: tuple[int, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_article: dict[int, tuple[float, float, float]]

    def to_dict(self) -> dict:
        return {
            "n_instances": self.n_instances,
            "universe": list(self.universe),
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_article": {
                str(a): {"precision": p, "recall": r, "f1": f}
                for a, (p, r, f) in sorted(self.per_article.items())
            },
        }


def evaluate_labels(
    instances: Sequence[LabeledInstance], universe: Iterable[int] | None = None
) -> LabelMetrics:
    """Exact-cell accuracy plus unweighted macro precision/recall/F1.

    The universe defaults to the union of ground-truth labels; pass the
    full catalog explicitly to score against a fixed label space.
    """
    if not instances:
        raise UndefinedMetricError("label metrics undefined on no instances")
    resolved = _resolve_universe(instances, universe)
    per_article: dict[int, tuple[float, float, float]] = {}
    for article in resolved:
        tp = sum(1 for i in instances if article in i.prediction and article in i.ground_truth)
        fp = sum(1 for i in instances if article in i.prediction and article not in i.ground_truth)
        fn = sum(1 for i in instances if article not in i.prediction and article in i.ground_truth)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_article[article] = (precision, recall, f1)
    return LabelMetrics(
        n_instances=len(instances),
        universe=resolved,
        accuracy=multilabel_accuracy(instances, resolved),
        macro_precision=math.fsum(v[0] for v in per_article.values()) / len(per_article),
        macro_recall=math.fsum(v[1] for v in per_article.values()) / len(per_article),
        macro_f1=math.fsum(v[2] for v in per_article.values()) / len(per_article),
        per_article=per_article,
    )
