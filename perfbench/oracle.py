"""Independent re-scoring of a run's artifacts.

Recomputes accuracy@k per granularity (task 1) and multi-label accuracy with
macro precision, recall and F1 (task 2) from ``predictions.json`` and the
dataset file alone, without importing gdprkit, and compares them with the
run's ``report.json``.  Skipped instances are left out of the population;
errored ones score with their (empty) prediction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def dataset_truth(task: int, dataset_path: Path) -> dict[str, frozenset[int]]:
    """Instance id -> ground-truth articles, in the instance-id scheme of the harness."""
    entries = json.loads(dataset_path.read_text(encoding="utf-8"))
    truth: dict[str, frozenset[int]] = {}
    for i, entry in enumerate(entries, start=1):
        if task == 2:
            truth[f"t2-{i:04d}"] = frozenset(entry["violated_articles"])
            continue
        prefix = f"t1-{i:04d}"
        truth[f"{prefix}::file"] = frozenset(entry["file_level"])
        for name, articles in entry["module_level"].items():
            truth[f"{prefix}::module::{name}"] = frozenset(articles)
        for item in entry["line_level"]:
            span = item["span"]
            truth[f"{prefix}::line::{span['start_line']}-{span['end_line']}"] = frozenset(item["articles"])
    return truth


def check_run(task: int, dataset_path: Path, out_dir: Path, counts: dict[str, int]) -> list[str]:
    """Problems found in one run's artifacts; an empty list means they check out."""
    truth = dataset_truth(task, dataset_path)
    problems = []
    if sum(counts.values()) != len(truth):
        problems.append(f"{out_dir.name}: scored+errored+skipped = {sum(counts.values())}, dataset has {len(truth)}")
    predictions = json.loads((out_dir / "predictions.json").read_text(encoding="utf-8"))["predictions"]
    if sorted(p["instance_id"] for p in predictions) != sorted(truth):
        problems.append(f"{out_dir.name}: predictions do not cover the dataset's instances one to one")
        return problems
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    kept = [p for p in predictions if p["status"] != "skipped"]
    expected = _task1_scores(kept, truth) if task == 1 else _task2_scores(kept, truth)
    got = report["ranking"] if task == 1 else report["labels"]
    if expected != got:
        problems.append(f"{out_dir.name}: report.json disagrees with the oracle: {expected} != {got}")
    return problems


def _task1_scores(kept: list[dict], truth: dict) -> dict:
    out = {}
    for granularity in ("file", "module", "line"):
        population = [p for p in kept if p["instance_id"].split("::")[1] == granularity]
        if not population:
            continue
        ranks = []
        for p in population:
            gold = truth[p["instance_id"]]
            ranks.append(next((r for r, a in enumerate(p["ranking"], start=1) if a in gold), None))
        out[granularity] = {
            "granularity": granularity,
            "n_instances": len(population),
            "accuracy_at": {
                str(k): sum(1 for r in ranks if r is not None and r <= k) / len(population)
                for k in range(1, 6)
            },
        }
    return out


def _task2_scores(kept: list[dict], truth: dict) -> dict:
    pairs = [(set(p["labels"]), truth[p["instance_id"]]) for p in kept]
    universe = sorted(set().union(*(gold for _, gold in pairs)))
    per_article = {}
    for a in universe:
        tp = sum(1 for pred, gold in pairs if a in pred and a in gold)
        fp = sum(1 for pred, gold in pairs if a in pred and a not in gold)
        fn = sum(1 for pred, gold in pairs if a not in pred and a in gold)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_article[a] = (precision, recall, f1)
    agree = sum(1 for pred, gold in pairs for a in universe if (a in pred) == (a in gold))
    return {
        "n_instances": len(pairs),
        "universe": universe,
        "accuracy": agree / (len(pairs) * len(universe)),
        "macro_precision": math.fsum(v[0] for v in per_article.values()) / len(universe),
        "macro_recall": math.fsum(v[1] for v in per_article.values()) / len(universe),
        "macro_f1": math.fsum(v[2] for v in per_article.values()) / len(universe),
        "per_article": {
            str(a): {"precision": p, "recall": r, "f1": f} for a, (p, r, f) in per_article.items()
        },
    }
