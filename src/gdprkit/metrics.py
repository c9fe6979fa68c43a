"""Evaluation metrics for localization rankings and label sets.

Ranking quality is scored with accuracy@k: the share of instances whose
first correct article appears within the top k of the prediction.  Label
sets are scored with per-cell accuracy over the article universe and with
macro-averaged precision, recall, and F1, where a zero denominator
contributes 0 rather than being skipped.  ``evaluate_rankings`` scores a
run in one pass over its instances, the first correct rank serving every k;
``count_labels`` counts tp/fp/fn in one pass, and those counts give every
label metric over any universe.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, UndefinedMetricError

GRANULARITIES = ("file", "module", "line")
DEFAULT_KS = (1, 2, 3, 4, 5)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    ranks: dict[str, list[float]] = {granularity: [] for granularity in GRANULARITIES}
    for inst in instances:  # a miss ranks past every k
        ranks[inst.granularity].append(first_correct_rank(inst.prediction, inst.ground_truth) or math.inf)
    return {
        granularity: RankingMetrics(
            granularity, len(found), {k: sum(rank <= k for rank in found) / len(found) for k in DEFAULT_KS}
        )
        for granularity, found in ranks.items()
        if found
    }


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class LabelCounts:
    """Per-article true positives, false positives and false negatives of a
    run's label sets, counted once and scored over any universe by ``over``."""

    n_instances: int
    tps: Counter
    fps: Counter
    fns: Counter

    def over(self, universe: Iterable[int] | None = None) -> LabelMetrics:
        """Exact-cell accuracy plus unweighted macro precision/recall/F1 over
        ``universe``, by default the union of ground-truth labels (every
        article with a true positive or a false negative)."""
        resolved = tuple(sorted(set(self.tps) | set(self.fns) if universe is None else set(universe)))
        if not resolved:
            raise UndefinedMetricError("label metrics need a non-empty article universe")
        per_article: dict[int, tuple[float, float, float]] = {}
        for article in resolved:
            tp, fp, fn = self.tps[article], self.fps[article], self.fns[article]
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            per_article[article] = (precision, recall, f1)
        cells = self.n_instances * len(resolved)  # a disagreeing cell is a false positive or a false negative
        return LabelMetrics(
            n_instances=self.n_instances,
            universe=resolved,
            accuracy=(cells - sum(self.fps[a] + self.fns[a] for a in resolved)) / cells,
            macro_precision=math.fsum(v[0] for v in per_article.values()) / len(per_article),
            macro_recall=math.fsum(v[1] for v in per_article.values()) / len(per_article),
            macro_f1=math.fsum(v[2] for v in per_article.values()) / len(per_article),
            per_article=per_article,
        )


def count_labels(instances: Sequence[LabeledInstance]) -> LabelCounts:
    """The tp/fp/fn counts of ``instances``, in one pass over them."""
    if not instances:
        raise UndefinedMetricError("label metrics undefined on no instances")
    tps, fps, fns = Counter(), Counter(), Counter()
    for inst in instances:
        tps.update(inst.prediction & inst.ground_truth)
        fps.update(inst.prediction - inst.ground_truth)
        fns.update(inst.ground_truth - inst.prediction)
    return LabelCounts(len(instances), tps, fps, fns)

