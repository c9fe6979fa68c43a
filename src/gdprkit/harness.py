"""Experiment harness: configured runs, evaluation, and reports.

A run loads a task dataset, applies one prediction method to every
instance, and writes predictions, a manifest, and evaluation reports into
an output directory.  Per-instance failures, whatever their exception,
degrade to empty predictions and are recorded; only configuration problems
and cache-replay misses abort a run.  Prediction goes on past a replay miss,
so the one ``ReplayMissError`` raised at its end, before any artifact is
written, lists every key the cache lacks.  Everything written is byte-stable
except the manifest's "timings" section, which determinism comparisons must
drop.  Each artifact is written atomically, and the manifest last: its
"artifacts" block records the sha256 of the others, so it commits them as
one set, and ``evaluate_run`` refuses a directory whose files it does not
name.  The manifest's "counters" are the cache hits and misses of a caching
binding, 0 and 0 for a run without one.  ``score`` is the only scoring
path: ``run`` and ``evaluate_run`` both call it, so a run directory
re-scores to its own report.json.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import MISSING, asdict, dataclass, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import (
    Span,
    ViolationRecord,
    article_numbers,
    build_entries,
    detect_language,
    group_by_file,
    load_corpus,
    read_entries,
    read_json,
    split_snippet_path,
    write_atomic,
)
from .engine import RankedPrediction, RuleCatalog, load_rules
from .errors import (
    ConfigurationError,
    GdprKitError,
    InputError,
    ReconciliationError,
    ReplayMissError,
)
from .knowledge import ArticleInfo, article_catalog, build_kb, load_articles
from .metrics import (
    LabelMetrics,
    LabeledInstance,
    RankedInstance,
    RankingMetrics,
    count_labels,
    evaluate_rankings,
)
from .methods import (
    CacheReplayReasoner,
    CachingReasoner,
    FormalMethod,
    LiveHttpReasoner,
    RagMethod,
    ReactMethod,
    Reasoner,
    ResponseCache,
    StubReasoner,
    ZeroShotMethod,
)
from .taskgen import Task1Entry, Task2Entry, load_task1, load_task2

log = logging.getLogger(__name__)

METHOD_NAMES = ("formal", "zero_shot", "rag", "react")
REASONER_BINDINGS = ("live", "cache_replay", "stub")


@dataclass
class RunConfig:
    """One run's settings.  ``task`` is the int 1 or 2; every other field is a
    string, or None where its default is None."""

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

    def __post_init__(self):
        if type(self.task) is not int or self.task not in (1, 2):
            raise ConfigurationError(f"task must be 1 or 2, got {self.task!r}")
        for f in fields(self)[1:]:  # every field after task
            value = getattr(self, f.name)
            if not isinstance(value, str) and not (value is None and f.default is None):
                kind = "a string or null" if f.default is None else "a string"
                raise ConfigurationError(f"{f.name} must be {kind}, got {value!r}")
        if self.method not in METHOD_NAMES:
            raise ConfigurationError(f"method must be one of {METHOD_NAMES}, got {self.method!r}")
        if self.reasoner not in REASONER_BINDINGS:
            raise ConfigurationError(
                f"reasoner must be one of {REASONER_BINDINGS}, got {self.reasoner!r}"
            )
        if self.reasoner == "cache_replay" and not self.cache_dir:
            raise ConfigurationError("cache_replay binding requires cache_dir")
        if self.task == 1 and not self.corpus_path:
            raise ConfigurationError("task 1 runs need corpus_path for source reconstruction")
        if self.method == "rag" and not self.corpus_path:
            raise ConfigurationError("rag needs corpus_path to build its knowledge base")

    @classmethod
    def from_dict(cls, raw, **overrides) -> "RunConfig":
        """Build and validate a config from its JSON form (a config file, or a
        manifest's "config"), with ``overrides`` replacing or adding keys."""
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = {**raw, **overrides}
        names = {f.name: f.default is MISSING for f in fields(cls)}
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        missing = [name for name, required in names.items() if required and name not in raw]
        if missing:
            raise ConfigurationError(f"config lacks required keys: {missing}")
        return cls(**raw)


# ---------------------------------------------------------------------------
# Task 1 source reconstruction


def reconstruct_source(
    group: Sequence[tuple[ViolationRecord, Span | None]],
) -> tuple[str, int]:
    """Rebuild an approximate file from its snippet records.

    ``group`` holds (record, span) pairs as ``group_by_file`` gives them.
    Snippet lines land at their recorded line numbers in a blank buffer;
    the first record to claim a line wins.  Records without a span are
    appended after everything placed.  A line is what ends at "\\n", as in
    every other layer, and a snippet's final "\\n" ends its last line.
    Returns (source, line_count).
    """
    placed: list[tuple[int, list[str]]] = []  # (index of the first line, lines)
    tail: list[str] = []
    top = 0
    for record, span in group:
        lines = record.code_snippet.removesuffix("\n").split("\n")
        if span is None:
            tail.extend(lines)
            continue
        first = span.start_line - 1
        placed.append((first, lines))
        top = max(top, first + len(lines))
    buffer = [""] * (top + len(tail))
    # later records first, so an earlier record overwrites what they claimed
    for first, lines in reversed(placed):
        buffer[first:first + len(lines)] = lines
    buffer[top:] = tail
    return "\n".join(buffer), max(len(buffer), 1)


# ---------------------------------------------------------------------------
# Instance catalogs


@dataclass(frozen=True, slots=True)
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
            start, end = lv.span
            instances.append(
                Instance(f"{prefix}::line::{start}-{end}", "line", i - 1, frozenset(lv.articles), span=lv.span)
            )
    return instances


def task2_instances(entries: Sequence[Task2Entry]) -> list[Instance]:
    return [
        Instance(f"t2-{i:04d}", "snippet", i - 1, frozenset(entry.violated_articles))
        for i, entry in enumerate(entries, start=1)
    ]


# ---------------------------------------------------------------------------
# Predictions


STATUSES = ("scored", "errored", "skipped")


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    instance_id: str
    status: str  # one of STATUSES
    ranking: tuple[int, ...] = ()
    labels: tuple[int, ...] = ()
    error: str | None = None


def _int_list(values: Sequence[int]) -> str:
    # a list nested at depth 3 of predictions.json, as indent=2 lays it out
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def predictions_json(task: int, method: str, records: Sequence[PredictionRecord]) -> str:
    """The text of predictions.json, records sorted by instance id.

    The payload is ``{"version": 1, "task", "method", "predictions"}``, each
    prediction an object of the five ``PredictionRecord`` fields in field
    order, tuples as arrays.  The text equals ``json.dumps(payload,
    indent=2, ensure_ascii=False) + "\\n"`` byte for byte; ``indent`` makes
    CPython encode with its pure-Python encoder, so this fixed layout is
    written here, with strings encoded by the function ``json.dumps`` uses.
    """
    items = [
        '    {\n      "instance_id": ' + encode_basestring(r.instance_id)
        + ',\n      "status": ' + encode_basestring(r.status)
        + ',\n      "ranking": ' + _int_list(r.ranking)
        + ',\n      "labels": ' + _int_list(r.labels)
        + ',\n      "error": ' + ("null" if r.error is None else encode_basestring(r.error))
        + "\n    }"
        for r in sorted(records, key=lambda r: r.instance_id)
    ]
    listed = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
    return (
        f'{{\n  "version": 1,\n  "task": {task},\n  "method": {encode_basestring(method)},'
        f'\n  "predictions": {listed}\n}}\n'
    )


# The input files a run's manifest records in its "datasets" block, by config field.
_INPUT_FIELDS = {
    "dataset": "dataset_path",
    "corpus": "corpus_path",
    "rules": "rules_path",
    "articles": "articles_path",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _build_reasoner(config: RunConfig, cache: ResponseCache | None) -> Reasoner:
    if config.reasoner == "live":
        base: Reasoner = LiveHttpReasoner(model=config.model)
    elif config.reasoner == "stub":
        base = StubReasoner(config.model)
    else:
        return CacheReplayReasoner(cache, config.replay_reasoner_id or f"http:{config.model}")
    if cache is not None:
        return CachingReasoner(base, cache)
    return base


def _build_method(
    config: RunConfig,
    corpus: Sequence[ViolationRecord] | None,
    cache: ResponseCache | None,
    catalog: dict[int, ArticleInfo] | None,
    rules: RuleCatalog | None,
):
    if config.method == "formal":
        return FormalMethod(rules)
    reasoner = _build_reasoner(config, cache)
    if config.method == "zero_shot":
        return ZeroShotMethod(reasoner, catalog=catalog)
    if config.method == "rag":
        return RagMethod(reasoner, build_kb(corpus or [], catalog=catalog), catalog=catalog)
    return ReactMethod(reasoner, catalog=catalog, rules=rules)


def _error_text(exc: Exception) -> str:
    """Reason recorded for an errored instance.

    An exception from outside gdprkit is a fault, not a method failure: its
    traceback is logged and the reason leads with its type.
    """
    if isinstance(exc, GdprKitError):
        return str(exc)
    log.warning("prediction failed with %s", type(exc).__name__, exc_info=exc)
    return f"{type(exc).__name__}: {exc}"


_PAST_END = "span outside reconstructed source"


def _predict_scopes(
    scopes: Iterable[tuple[Instance, str, str, int | None]],
    predict: Callable[..., tuple[RankedPrediction, tuple[int, ...]]],
) -> list[PredictionRecord]:
    """One record per instance of ``scopes``, each predicted on its own.

    Each scope is (instance, text, language, line count), and
    ``predict(text, language, span)`` gives its (ranking, labels).  A
    line span past the line count is skipped.  A module instance takes the
    record of the file instance before it: a module's scope is the whole
    reconstructed file until module spans are derived.  An exception errors
    its own instance only.  Replay misses are collected over every scope and raised
    together at the end, before any artifact is written.
    """
    records: list[PredictionRecord] = []
    missing: list[str] = []
    file_record = None
    for inst, text, language, line_count in scopes:
        if inst.granularity == "module":
            if file_record is not None:
                r = file_record
                records.append(PredictionRecord(inst.instance_id, r.status, r.ranking, r.labels, r.error))
            continue
        record = None
        if inst.span is not None and inst.span[1] > line_count:
            record = PredictionRecord(inst.instance_id, "skipped", error=_PAST_END)
        else:
            try:
                ranking, labels = predict(text, language, inst.span)
                record = PredictionRecord(inst.instance_id, "scored", ranking.articles, labels)
            except ReplayMissError as exc:
                missing.extend(exc.missing_keys)
            except Exception as exc:
                record = PredictionRecord(inst.instance_id, "errored", error=_error_text(exc))
        if inst.granularity == "file":
            file_record = record
        if record is not None:
            records.append(record)
    if missing:
        raise ReplayMissError(list(dict.fromkeys(missing)))  # each key once, in order of first miss
    return records


def predict_task1(
    entries: Sequence[Task1Entry],
    instances: Sequence[Instance],
    corpus: Sequence[ViolationRecord],
    method,
) -> list[PredictionRecord]:
    """One record per instance of ``instances``, the ``task1_instances`` of ``entries``."""
    # Only the records of the dataset's apps: a file's group keys on its app,
    # so every file the dataset names gets the group a full split would give.
    apps = {(entry.repo_url, entry.app_name) for entry in entries}
    groups = group_by_file(r for r in corpus if (r.repo_url, r.app_name) in apps)

    def scopes():
        for inst in instances:
            if inst.granularity == "file":
                entry = entries[inst.entry_index]
                group = groups.get((entry.repo_url, entry.app_name, entry.file_path), [])
                source, line_count = reconstruct_source(group)
                language = detect_language(entry.file_path)
            yield inst, source, language, line_count

    def predict(text, language, span):
        return method.rank(text, language, span=span), ()

    return _predict_scopes(scopes(), predict)


def predict_task2(
    entries: Sequence[Task2Entry], instances: Sequence[Instance], method
) -> list[PredictionRecord]:
    """One record per instance of ``instances``, the ``task2_instances`` of ``entries``."""

    def scopes():
        for inst, entry in zip(instances, entries):
            file_path, _ = split_snippet_path(entry.code_snippet_path)
            yield inst, entry.code_snippet, detect_language(file_path), None

    def predict(text, language, span):
        labels, ranking = method.predict_labels(text, language)
        return ranking, labels

    return _predict_scopes(scopes(), predict)


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


def score(
    config: RunConfig,
    instances: Sequence[Instance],
    records: Sequence[PredictionRecord],
    catalog: dict[int, ArticleInfo] | None = None,
) -> tuple[RunReport, dict[str, int]]:
    """Score a run's records against its dataset's instances: the report and
    the records per status.

    Every record must join one instance and every instance one record, or
    ReconciliationError is raised.  Task 1 gets accuracy@k per granularity.
    Task 2 gets label metrics over the ground-truth articles and over
    ``catalog`` (the built-in one when None; no block when it is empty),
    both from one count.
    Errored instances score with their (empty) recorded prediction; skipped
    instances are left out of the population.
    """
    counts = dict.fromkeys(STATUSES, 0)
    kept = []
    for inst, rec in _join(instances, records):
        counts[rec.status] += 1
        if rec.status != "skipped":
            kept.append((inst, rec))
    ranking = labels = over_catalog = None
    if config.task == 1:
        ranking = evaluate_rankings(
            [RankedInstance(inst.granularity, rec.ranking, inst.ground_truth) for inst, rec in kept]
        )
    else:
        label_counts = count_labels(
            [LabeledInstance(frozenset(rec.labels), inst.ground_truth) for inst, rec in kept]
        )
        catalog = article_catalog() if catalog is None else catalog
        labels = label_counts.over()
        over_catalog = label_counts.over(catalog) if catalog else None
    return RunReport(config.task, config.method, ranking, labels, over_catalog), counts


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, slots=True)
class RunReport:
    task: int
    method: str
    ranking: dict[str, RankingMetrics] | None
    labels: LabelMetrics | None  # over the ground-truth articles
    labels_over_catalog: LabelMetrics | None

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "method": self.method,
            "ranking": {g: m.to_dict() for g, m in self.ranking.items()}
            if self.ranking is not None
            else None,
            "labels": self.labels.to_dict() if self.labels is not None else None,
            "labels_over_catalog": self.labels_over_catalog and self.labels_over_catalog.to_dict(),
        }

    def label_rows(self) -> list[tuple[str, LabelMetrics]]:
        """(universe, metrics) of each task-2 block there is, ground truth first."""
        rows = (("ground_truth", self.labels), ("catalog", self.labels_over_catalog))
        return [(universe, m) for universe, m in rows if m is not None]


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
        lines.append("| Method | Universe | Accuracy | Macro-Precision | Macro-Recall | Macro-F1 |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for universe, m in report.label_rows():
            lines.append(
                f"| {report.method} | {universe.replace('_', ' ')} ({len(m.universe)} articles) "
                f"| {m.accuracy:.3f} | {m.macro_precision:.3f} | {m.macro_recall:.3f} | {m.macro_f1:.3f} |"
            )
        lines.append("")
    if report.labels_over_catalog is not None:  # a catalog article without ground truth scores 0
        n = len(report.labels_over_catalog.universe)
        supported = len(set(report.labels.universe).intersection(report.labels_over_catalog.universe))
        ceiling = f"{supported}/{n} = {supported / n:.3f}"
        lines += [f"Over the {n}-article catalog the macro metrics cannot exceed {ceiling}.", ""]
    return "\n".join(lines)


def _csv_report(report: RunReport) -> str:
    rows = []
    if report.ranking is not None:
        rows.append("method,granularity,k,accuracy")
        for granularity, metrics in report.ranking.items():
            for k, value in sorted(metrics.accuracy_at.items()):
                rows.append(f"{report.method},{granularity},{k},{value:.6f}")
    if report.labels is not None:
        rows.append("method,universe,metric,value")
        for universe, m in report.label_rows():
            for name, value in (
                ("accuracy", m.accuracy),
                ("macro_precision", m.macro_precision),
                ("macro_recall", m.macro_recall),
                ("macro_f1", m.macro_f1),
            ):
                rows.append(f"{report.method},{universe},{name},{value:.6f}")
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


def _scored_inputs(
    config: RunConfig, digests: dict[str, str]
) -> tuple[list[Task1Entry] | list[Task2Entry], dict[int, ArticleInfo] | None, list[Instance]]:
    """The dataset entries, the articles catalog (None for the built-in one) and
    the instances that ``run`` scores and ``evaluate_run`` re-scores.

    ``digests`` is filled as ``corpus.read_json`` fills it.
    """
    entries = (load_task1 if config.task == 1 else load_task2)(config.dataset_path, digests=digests)
    catalog = load_articles(config.articles_path, digests=digests) if config.articles_path else None
    return entries, catalog, (task1_instances if config.task == 1 else task2_instances)(entries)


def run(config: RunConfig) -> RunResult:
    """Predict, evaluate, and write all artifacts for one configured run."""
    started = time.monotonic()
    digests: dict[str, str] = {}  # sha256 of each input file, of the bytes its loader read
    corpus = load_corpus(config.corpus_path, digests=digests) if config.corpus_path else None
    entries, catalog, instances = _scored_inputs(config, digests)
    rules = load_rules(config.rules_path, digests=digests) if config.rules_path else None
    cache = ResponseCache(config.cache_dir) if config.cache_dir and config.method != "formal" else None
    try:
        method = _build_method(config, corpus, cache, catalog, rules)
        if config.task == 1:
            records = predict_task1(entries, instances, corpus or [], method)
        else:
            records = predict_task2(entries, instances, method)
    finally:
        if cache is not None:
            cache.close()

    report, counts = score(config, instances, records, catalog)
    reasoner = getattr(method, "reasoner", None)  # a prompted method's binding
    caching = isinstance(reasoner, CachingReasoner)

    datasets = {}
    for name, attr in _INPUT_FIELDS.items():
        path = getattr(config, attr)
        if path:
            datasets[name] = {"path": path, "sha256": digests[path]}
    artifacts = {
        "predictions.json": predictions_json(config.task, config.method, records),
        "report.json": emit_report(report, "json"),
        "report.md": emit_report(report, "markdown"),
    }
    manifest = {
        "version": 1,
        "config": asdict(config),
        "datasets": datasets,
        "artifacts": {name: _sha256(text.encode("utf-8")) for name, text in artifacts.items()},
        "counts": counts,
        "counters": {
            "cache_hits": reasoner.hits if caching else 0,
            "cache_misses": reasoner.misses if caching else 0,
        },
        "timings": {"total_seconds": round(time.monotonic() - started, 3)},
    }

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        write_atomic(out / name, text)
    # last, so a manifest on disk names artifacts that are all on disk
    write_atomic(out / "manifest.json", json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")
    return RunResult(config, records, report, manifest, out)


def evaluate_run(run_dir: str | Path) -> RunReport:
    """Re-score a run directory's predictions.json into the report the run wrote.

    The config is the one in the run's manifest.json, so its paths resolve
    as they did for the run.  A dataset or articles file whose bytes, as
    its loader read them, have a sha256 other than the one the manifest
    recorded is refused with ConfigurationError.  So is, with a message
    that starts with its path, an artifact whose sha256 is not the one in
    the manifest's "artifacts" block, which is what an interrupted run
    leaves, and a predictions.json of another task or method than the
    manifest's config.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    manifest = read_json(manifest_path)
    try:
        raw_config = manifest["config"]
        recorded = {name: entry["sha256"] for name, entry in manifest["datasets"].items()}
        committed = {name: sha256 for name, sha256 in manifest["artifacts"].items()}
    except (KeyError, TypeError, AttributeError):
        raise ConfigurationError(f"{manifest_path} is not a run manifest") from None
    config = RunConfig.from_dict(raw_config)
    digests: dict[str, str] = {}  # of the bytes the loaders read, which are the bytes scored
    _, catalog, instances = _scored_inputs(config, digests)
    for name in ("dataset", "articles"):  # the inputs that scoring reads
        path = getattr(config, _INPUT_FIELDS[name])
        if path and digests[path] != recorded.get(name):
            raise ConfigurationError(
                f"{name} {path} has changed since the run: "
                f"its sha256 is not the one recorded in {manifest_path}"
            )
    predictions_path = run_dir / "predictions.json"
    document = read_json(predictions_path, digests=digests)
    records = build_entries(document, predictions_path, _prediction, "predictions")
    for name in ("predictions.json", "report.json", "report.md"):
        path = run_dir / name
        digest = digests[str(path)] if path == predictions_path else _sha256(path.read_bytes())
        if digest != committed.get(name):
            raise ConfigurationError(
                f"{path}: its sha256 is not the one recorded in {manifest_path}; "
                "the run that wrote the directory did not finish, or the file changed after it"
            )
    if (document.get("task"), document.get("method")) != (config.task, config.method):
        raise ConfigurationError(
            f"{predictions_path}: predictions of task {document.get('task')!r} and method "
            f"{document.get('method')!r}, but {manifest_path} is of task {config.task} and method {config.method!r}"
        )
    return score(config, instances, records, catalog)[0]


def load_predictions(path: str | Path) -> list[PredictionRecord]:
    return read_entries(path, _prediction, "predictions")


def _prediction(obj: dict) -> PredictionRecord:
    if obj["status"] not in STATUSES:
        raise InputError(f"status must be one of {STATUSES}, got {obj['status']!r}")
    return PredictionRecord(
        instance_id=obj["instance_id"],
        status=obj["status"],
        ranking=article_numbers(obj.get("ranking", []), "ranking"),
        labels=article_numbers(obj.get("labels", []), "labels"),
        error=obj.get("error"),
    )
