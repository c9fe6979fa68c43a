"""Experiment harness: configured runs, evaluation, and reports.

A run loads a task dataset, applies one prediction method to every
instance, and writes predictions, a manifest, and evaluation reports into
an output directory.  Per-instance failures, whatever their exception,
degrade to empty predictions and are recorded; only configuration problems
and cache-replay misses abort a run.  Prediction goes on past a replay miss,
so the one ``ReplayMissError`` raised at its end, before any artifact is
written, lists every key the cache lacks.  Everything written is byte-stable
except the manifest's "timings" section, which determinism comparisons must
drop.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

from .corpus import (
    ViolationRecord,
    detect_language,
    group_by_file,
    load_corpus,
    split_snippet_path,
    write_atomic,
)
from .engine import RuleCatalog, load_rules
from .errors import (
    ConfigurationError,
    GdprKitError,
    ReconciliationError,
    ReplayMissError,
)
from .knowledge import article_catalog, build_kb, load_articles
from .metrics import (
    LabelMetrics,
    LabeledInstance,
    RankedInstance,
    RankingMetrics,
    evaluate_labels,
    evaluate_rankings,
)
from .methods import (
    CacheReplayReasoner,
    CachingReasoner,
    FormalMethod,
    InferenceConfig,
    LiveHttpReasoner,
    RagMethod,
    ReactMethod,
    Reasoner,
    ResponseCache,
    ScriptedReasoner,
    ZeroShotMethod,
    check_field_types,
)
from .taskgen import Task1Entry, Task2Entry, load_task1, load_task2

log = logging.getLogger(__name__)

METHOD_NAMES = ("formal", "zero_shot", "rag", "react")
REASONER_BINDINGS = ("live", "cache_replay", "stub")


@dataclass
class RunConfig:
    task: int
    method: str
    dataset_path: str
    corpus_path: str | None = None
    output_dir: str = "runs/latest"
    reasoner: str = "stub"
    model: str = "default"
    cache_dir: str | None = None
    replay_reasoner_id: str | None = None
    rules_path: str | None = None
    articles_path: str | None = None
    kb_top_n: int = 3
    label_threshold: float = 1.0
    max_labels: int = 3
    max_iterations: int = 5
    strict_parsing: bool = True
    article_universe: str = "ground_truth"  # or "catalog"
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def __post_init__(self):
        check_field_types(
            self, task=int, kb_top_n=int, max_labels=int, max_iterations=int,
            label_threshold=float, strict_parsing=bool,
        )
        if self.kb_top_n < 0 or self.max_labels < 0:
            raise ConfigurationError("kb_top_n and max_labels must be >= 0")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.task not in (1, 2):
            raise ConfigurationError(f"task must be 1 or 2, got {self.task!r}")
        if self.method not in METHOD_NAMES:
            raise ConfigurationError(f"method must be one of {METHOD_NAMES}, got {self.method!r}")
        if self.reasoner not in REASONER_BINDINGS:
            raise ConfigurationError(
                f"reasoner must be one of {REASONER_BINDINGS}, got {self.reasoner!r}"
            )
        if self.article_universe not in ("ground_truth", "catalog"):
            raise ConfigurationError("article_universe must be 'ground_truth' or 'catalog'")
        if self.reasoner == "cache_replay" and not self.cache_dir:
            raise ConfigurationError("cache_replay binding requires cache_dir")
        if self.task == 1 and not self.corpus_path:
            raise ConfigurationError("task 1 runs need corpus_path for source reconstruction")
        if self.method == "rag" and not self.corpus_path:
            raise ConfigurationError("rag needs corpus_path to build its knowledge base")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        _check_keys(raw, cls, "config")
        inference = raw.pop("inference", None)
        if inference is not None:
            _check_keys(inference, InferenceConfig, "inference")
            raw["inference"] = InferenceConfig(**inference)
        return cls(**raw)


def _check_keys(raw, cls, what: str) -> None:
    """Reject a run-config block that is not a JSON object or has unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Task 1 source reconstruction


def reconstruct_source(records: Sequence[ViolationRecord]) -> tuple[str, int]:
    """Rebuild an approximate file from its snippet records.

    Snippet lines land at their recorded line numbers in a blank buffer;
    the first record to claim a line wins.  Records without a span are
    appended after everything placed.  Returns (source, line_count).
    """
    placed: dict[int, str] = {}
    tail: list[str] = []
    for record in records:
        _, span = split_snippet_path(record.code_snippet_path)
        lines = record.code_snippet.splitlines() or [""]
        if span is None:
            tail.extend(lines)
            continue
        for offset, text in enumerate(lines):
            line_no = span.start_line + offset
            placed.setdefault(line_no, text)
    top = max(placed) if placed else 0
    buffer = [placed.get(i, "") for i in range(1, top + 1)]
    buffer.extend(tail)
    if not buffer:
        buffer = [""]
    return "\n".join(buffer), len(buffer)


# ---------------------------------------------------------------------------
# Instance catalogs


@dataclass(frozen=True)
class Instance:
    instance_id: str
    granularity: str  # file | module | line for task 1; snippet for task 2
    entry_index: int
    ground_truth: frozenset[int]
    span: tuple[int, int] | None = None


def task1_instances(entries: Sequence[Task1Entry]) -> list[Instance]:
    instances = []
    for i, entry in enumerate(entries, start=1):
        prefix = f"t1-{i:04d}"
        instances.append(
            Instance(f"{prefix}::file", "file", i - 1, frozenset(entry.file_level))
        )
        for name in sorted(entry.module_level):
            instances.append(
                Instance(
                    f"{prefix}::module::{name}",
                    "module",
                    i - 1,
                    frozenset(entry.module_level[name]),
                )
            )
        for lv in entry.line_level:
            span = (lv.span.start_line, lv.span.end_line)
            instances.append(
                Instance(
                    f"{prefix}::line::{span[0]}-{span[1]}",
                    "line",
                    i - 1,
                    frozenset(lv.articles),
                    span=span,
                )
            )
    return instances


def task2_instances(entries: Sequence[Task2Entry]) -> list[Instance]:
    return [
        Instance(f"t2-{i:04d}", "snippet", i - 1, frozenset(entry.violated_articles))
        for i, entry in enumerate(entries, start=1)
    ]


# ---------------------------------------------------------------------------
# Predictions


@dataclass(frozen=True)
class PredictionRecord:
    instance_id: str
    status: str  # scored | errored | skipped
    ranking: tuple[int, ...] = ()
    labels: tuple[int, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "status": self.status,
            "ranking": list(self.ranking),
            "labels": list(self.labels),
            "error": self.error,
        }


def _sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _build_reasoner(config: RunConfig, cache: ResponseCache | None) -> Reasoner:
    if config.reasoner == "live":
        base: Reasoner = LiveHttpReasoner(model=config.model, config=config.inference)
    elif config.reasoner == "stub":
        base = ScriptedReasoner(lambda prompt: "0", reasoner_id=f"stub:{config.model}")
    else:
        return CacheReplayReasoner(cache, config.replay_reasoner_id or f"http:{config.model}")
    if cache is not None:
        return CachingReasoner(base, cache)
    return base


def _build_method(
    config: RunConfig, corpus: Sequence[ViolationRecord] | None, cache: ResponseCache | None
):
    rules: RuleCatalog | None = load_rules(config.rules_path) if config.rules_path else None
    catalog = load_articles(config.articles_path) if config.articles_path else None
    if config.method == "formal":
        return FormalMethod(
            rules=rules,
            label_threshold=config.label_threshold,
            max_labels=config.max_labels,
        )
    reasoner = _build_reasoner(config, cache)
    if config.method == "zero_shot":
        return ZeroShotMethod(reasoner, catalog=catalog, strict=config.strict_parsing)
    if config.method == "rag":
        kb = build_kb(corpus or [], catalog=catalog or article_catalog())
        return RagMethod(
            reasoner, kb, top_n=config.kb_top_n, catalog=catalog, strict=config.strict_parsing
        )
    return ReactMethod(
        reasoner, catalog=catalog, rules=rules, max_iterations=config.max_iterations
    )


def _error_text(exc: Exception) -> str:
    """Reason recorded for an errored instance.

    An exception from outside gdprkit is a fault, not a method failure: its
    traceback is logged and the reason leads with its type.
    """
    if isinstance(exc, GdprKitError):
        return str(exc)
    log.warning("prediction failed with %s", type(exc).__name__, exc_info=exc)
    return f"{type(exc).__name__}: {exc}"


def _raise_replay_misses(missing: Sequence[str]) -> None:
    """Abort with every distinct key the replay cache lacked, in order of first miss."""
    if missing:
        raise ReplayMissError(list(dict.fromkeys(missing)))


_PAST_END = "span outside reconstructed source"


def predict_task1(
    entries: Sequence[Task1Entry],
    corpus: Sequence[ViolationRecord],
    method,
) -> list[PredictionRecord]:
    groups = group_by_file(corpus)
    by_entry: dict[int, list[Instance]] = {}
    for inst in task1_instances(entries):
        by_entry.setdefault(inst.entry_index, []).append(inst)
    records: list[PredictionRecord] = []
    missing: list[str] = []
    for i, entry in enumerate(entries):
        group = groups.get((entry.repo_url, entry.app_name, entry.file_path), [])
        source, line_count = reconstruct_source(group)
        instances: list[Instance] = []
        for inst in by_entry.get(i, []):
            if inst.span is None or inst.span[1] <= line_count:
                instances.append(inst)
            else:
                records.append(PredictionRecord(inst.instance_id, "skipped", error=_PAST_END))
        spans = tuple(inst.span for inst in instances if inst.span is not None)
        try:
            rankings = method.predict_file(
                source, detect_language(entry.file_path), line_spans=spans, path=entry.file_path
            )
        except ReplayMissError as exc:
            missing.extend(exc.missing_keys)
            continue
        except Exception as exc:
            error = _error_text(exc)
            records.extend(
                PredictionRecord(inst.instance_id, "errored", error=error) for inst in instances
            )
            continue
        for inst in instances:
            # A module's scope is the whole reconstructed file until module
            # spans are derived, so it takes the file prediction.
            ranking = rankings.file if inst.span is None else rankings.lines[inst.span]
            records.append(PredictionRecord(inst.instance_id, "scored", ranking=ranking.articles))
    _raise_replay_misses(missing)
    return records


def predict_task2(entries: Sequence[Task2Entry], method) -> list[PredictionRecord]:
    records = []
    missing: list[str] = []
    for inst, entry in zip(task2_instances(entries), entries):
        file_path, _ = split_snippet_path(entry.code_snippet_path)
        try:
            labels, ranking = method.predict_labels(
                entry.code_snippet, detect_language(file_path), path=file_path
            )
        except ReplayMissError as exc:
            missing.extend(exc.missing_keys)
            continue
        except Exception as exc:
            records.append(PredictionRecord(inst.instance_id, "errored", error=_error_text(exc)))
            continue
        records.append(
            PredictionRecord(
                inst.instance_id,
                "scored",
                ranking=ranking.articles,
                labels=tuple(sorted(labels)),
            )
        )
    _raise_replay_misses(missing)
    return records


# ---------------------------------------------------------------------------
# Evaluation


def _join(
    instances: Sequence[Instance], records: Sequence[PredictionRecord]
) -> list[tuple[Instance, PredictionRecord]]:
    by_id = {}
    for record in records:
        if record.instance_id in by_id:
            raise ReconciliationError([record.instance_id], [])
        by_id[record.instance_id] = record
    instance_ids = {inst.instance_id for inst in instances}
    orphans = sorted(set(by_id) - instance_ids)
    missing = sorted(instance_ids - set(by_id))
    if orphans or missing:
        raise ReconciliationError(orphans, missing)
    return [(inst, by_id[inst.instance_id]) for inst in instances]


def evaluate_task1(
    entries: Sequence[Task1Entry], records: Sequence[PredictionRecord]
) -> dict[str, RankingMetrics]:
    """Join predictions to instances and compute accuracy@k per granularity.

    Errored instances score with their (empty) recorded ranking; skipped
    instances are excluded from the population.
    """
    pairs = _join(task1_instances(entries), records)
    ranked = [
        RankedInstance(inst.granularity, tuple(rec.ranking), inst.ground_truth)
        for inst, rec in pairs
        if rec.status != "skipped"
    ]
    return evaluate_rankings(ranked)


def evaluate_task2(
    entries: Sequence[Task2Entry],
    records: Sequence[PredictionRecord],
    universe: Sequence[int] | None = None,
) -> LabelMetrics:
    pairs = _join(task2_instances(entries), records)
    labeled = [
        LabeledInstance(frozenset(rec.labels), inst.ground_truth)
        for inst, rec in pairs
        if rec.status != "skipped"
    ]
    return evaluate_labels(labeled, universe)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class RunReport:
    task: int
    method: str
    universe_source: str
    ranking: dict[str, RankingMetrics] | None
    labels: LabelMetrics | None

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "method": self.method,
            "universe_source": self.universe_source,
            "ranking": {g: m.to_dict() for g, m in self.ranking.items()}
            if self.ranking is not None
            else None,
            "labels": self.labels.to_dict() if self.labels is not None else None,
        }


def report_from_dict(obj: dict) -> RunReport:
    ranking = None
    if obj.get("ranking") is not None:
        ranking = {
            g: RankingMetrics(
                granularity=m["granularity"],
                n_instances=m["n_instances"],
                accuracy_at={int(k): v for k, v in m["accuracy_at"].items()},
            )
            for g, m in obj["ranking"].items()
        }
    labels = None
    if obj.get("labels") is not None:
        m = obj["labels"]
        labels = LabelMetrics(
            n_instances=m["n_instances"],
            universe=tuple(m["universe"]),
            accuracy=m["accuracy"],
            macro_precision=m["macro_precision"],
            macro_recall=m["macro_recall"],
            macro_f1=m["macro_f1"],
            per_article={
                int(a): (v["precision"], v["recall"], v["f1"])
                for a, v in m["per_article"].items()
            },
        )
    return RunReport(
        task=obj["task"],
        method=obj["method"],
        universe_source=obj.get("universe_source", "ground_truth"),
        ranking=ranking,
        labels=labels,
    )


def emit_report(report: RunReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"
    if fmt == "markdown":
        return _markdown_report(report)
    if fmt == "csv":
        return _csv_report(report)
    raise ConfigurationError(f"unknown report format {fmt!r}")


def _markdown_report(report: RunReport) -> str:
    lines = [f"# Task {report.task} results", ""]
    if report.ranking is not None:
        for granularity in ("file", "module", "line"):
            metrics = report.ranking.get(granularity)
            if metrics is None:
                continue
            lines.append(f"## {granularity.capitalize()} granularity")
            lines.append("")
            lines.append("| Method | @1 | @2 | @3 | @4 | @5 |")
            lines.append("| --- | --- | --- | --- | --- | --- |")
            cells = " | ".join(
                f"{metrics.accuracy_at[k]:.3f}" for k in sorted(metrics.accuracy_at)
            )
            lines.append(f"| {report.method} | {cells} |")
            lines.append("")
    if report.labels is not None:
        m = report.labels
        lines.append("| Method | Accuracy | Macro-Precision | Macro-Recall | Macro-F1 |")
        lines.append("| --- | --- | --- | --- | --- |")
        lines.append(
            f"| {report.method} | {m.accuracy:.3f} | {m.macro_precision:.3f} "
            f"| {m.macro_recall:.3f} | {m.macro_f1:.3f} |"
        )
        lines.append("")
    return "\n".join(lines)


def _csv_report(report: RunReport) -> str:
    rows = []
    if report.ranking is not None:
        rows.append("method,granularity,k,accuracy")
        for granularity, metrics in report.ranking.items():
            for k, value in sorted(metrics.accuracy_at.items()):
                rows.append(f"{report.method},{granularity},{k},{value:.6f}")
    if report.labels is not None:
        rows.append("method,metric,value")
        m = report.labels
        for name, value in (
            ("accuracy", m.accuracy),
            ("macro_precision", m.macro_precision),
            ("macro_recall", m.macro_recall),
            ("macro_f1", m.macro_f1),
        ):
            rows.append(f"{report.method},{name},{value:.6f}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Run orchestration


@dataclass
class RunResult:
    config: RunConfig
    records: list[PredictionRecord]
    report: RunReport
    manifest: dict
    output_dir: Path


def _status_counts(
    instances: Sequence[Instance], records: Sequence[PredictionRecord]
) -> dict[str, int]:
    """Records per status, which must account for every instance exactly once.

    Raises ReconciliationError when records and instances do not join
    one-to-one.
    """
    counts = {"scored": 0, "errored": 0, "skipped": 0}
    for _, record in _join(instances, records):
        counts[record.status] += 1
    return counts


def run(config: RunConfig) -> RunResult:
    """Predict, evaluate, and write all artifacts for one configured run."""
    started = time.monotonic()
    corpus = load_corpus(config.corpus_path) if config.corpus_path else None
    entries = (load_task1 if config.task == 1 else load_task2)(config.dataset_path)
    cache = ResponseCache(config.cache_dir) if config.cache_dir and config.method != "formal" else None
    try:
        method = _build_method(config, corpus, cache)
        if config.task == 1:
            records = predict_task1(entries, corpus or [], method)
        else:
            records = predict_task2(entries, method)
    finally:
        if cache is not None:
            cache.close()

    if config.task == 1:
        instances: list[Instance] = task1_instances(entries)
        ranking = evaluate_task1(entries, records)
        labels_metrics = None
    else:
        instances = task2_instances(entries)
        universe = None
        if config.article_universe == "catalog":
            universe = sorted(load_articles(config.articles_path)) if config.articles_path else sorted(article_catalog())
        ranking = None
        labels_metrics = evaluate_task2(entries, records, universe)

    report = RunReport(
        task=config.task,
        method=config.method,
        universe_source=config.article_universe,
        ranking=ranking,
        labels=labels_metrics,
    )

    counts = _status_counts(instances, records)

    datasets = {"dataset": {"path": config.dataset_path, "sha256": _sha256_file(config.dataset_path)}}
    if config.corpus_path:
        datasets["corpus"] = {"path": config.corpus_path, "sha256": _sha256_file(config.corpus_path)}
    manifest = {
        "version": 1,
        "config": asdict(config),
        "datasets": datasets,
        "counts": counts,
        "instances": [
            {"instance_id": r.instance_id, "status": r.status, "reason": r.error}
            for r in records
        ],
        "timings": {"total_seconds": round(time.monotonic() - started, 3)},
    }

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    predictions_payload = {
        "version": 1,
        "task": config.task,
        "method": config.method,
        "predictions": [r.to_dict() for r in sorted(records, key=lambda r: r.instance_id)],
    }
    write_atomic(out / "predictions.json", json.dumps(predictions_payload, indent=2, ensure_ascii=False) + "\n")
    write_atomic(out / "manifest.json", json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")
    write_atomic(out / "report.json", emit_report(report, "json"))
    write_atomic(out / "report.md", emit_report(report, "markdown"))
    return RunResult(config, records, report, manifest, out)


def load_predictions(path: str | Path) -> list[PredictionRecord]:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        PredictionRecord(
            instance_id=obj["instance_id"],
            status=obj["status"],
            ranking=tuple(obj.get("ranking", ())),
            labels=tuple(obj.get("labels", ())),
            error=obj.get("error"),
        )
        for obj in raw["predictions"]
    ]
