"""Derive the two task datasets from a violation corpus.

Task 1 entries are file-centric multi-granularity profiles (one entry per
distinct (repo_url, app_name, file_path) tuple); Task 2 entries are
snippet-centric multi-label records (one entry per distinct
code_snippet_path). Both builders are deterministic: given the same corpus
they emit byte-identical JSON. The grouping itself, with the lenient split
of each snippet path into file and span, comes from ``corpus``
(``group_by_file``, ``group_by_snippet``).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    Span,
    ViolationRecord,
    article_numbers,
    group_by_file,
    group_by_snippet,
    read_entries,
    write_atomic,
)
from .errors import InputError

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class LineViolation:
    span: Span
    articles: frozenset[int]
    description: str

    def to_dict(self, file_path: str) -> dict:
        """The violation as a dataset writes it, its span stamped with its entry's ``file_path``."""
        return {
            "span": {"file_path": file_path, "start_line": self.span.start_line, "end_line": self.span.end_line},
            "articles": sorted(self.articles),
            "description": self.description,
        }


@dataclass(frozen=True, slots=True)
class Task1Entry:
    repo_url: str
    app_name: str
    commit_id: str
    file_path: str
    file_level: frozenset[int]
    module_level: dict[str, frozenset[int]]
    line_level: tuple[LineViolation, ...]

    def to_dict(self) -> dict:
        return {
            "repo_url": self.repo_url,
            "app_name": self.app_name,
            "commit_id": self.commit_id,
            "file_path": self.file_path,
            "file_level": sorted(self.file_level),
            "module_level": {k: sorted(v) for k, v in sorted(self.module_level.items())},
            "line_level": [item.to_dict(self.file_path) for item in self.line_level],
        }


@dataclass(frozen=True, slots=True)
class Task2Entry:
    repo_url: str
    app_name: str
    commit_id: str
    code_snippet_path: str
    code_snippet: str
    violated_articles: tuple[int, ...]  # strictly ascending, non-empty

    def to_dict(self) -> dict:
        return {
            "repo_url": self.repo_url,
            "app_name": self.app_name,
            "commit_id": self.commit_id,
            "code_snippet_path": self.code_snippet_path,
            "code_snippet": self.code_snippet,
            "violated_articles": list(self.violated_articles),
        }


def build_task1(corpus: list[ViolationRecord]) -> list[Task1Entry]:
    """Group a corpus into file-centric multi-granularity entries.

    file_level is the union of all articles for the file; module_level maps
    the file's one module, named after the file stem, to that same union;
    line_level lists spanned records sorted by (start_line, end_line).
    Records without a parseable span contribute to file and module level
    only.
    """
    groups = group_by_file(corpus)
    entries = []
    for (repo_url, app_name, file_path) in sorted(groups):
        group = groups[(repo_url, app_name, file_path)]
        file_articles = frozenset(record.violated_article for record, _ in group)

        by_span: dict[Span, tuple[set[int], list[str]]] = {}
        for record, span in group:
            if span is None:
                continue
            articles, notes = by_span.setdefault(span, (set(), []))
            articles.add(record.violated_article)
            if record.annotation_note not in notes:
                notes.append(record.annotation_note)

        line_level = tuple(
            LineViolation(span, frozenset(articles), "\n".join(notes))
            for span, (articles, notes) in sorted(by_span.items())
        )

        entries.append(
            Task1Entry(
                repo_url=repo_url,
                app_name=app_name,
                commit_id=group[0][0].commit_id,
                file_path=file_path,
                file_level=file_articles,
                module_level={Path(file_path).stem: file_articles},
                line_level=line_level,
            )
        )
    return entries


def build_task2(corpus: list[ViolationRecord]) -> list[Task2Entry]:
    """Group a corpus by exact code_snippet_path into multi-label entries.

    violated_articles is the deduplicated ascending union over the group;
    provenance and snippet text come from the group's first record. Entries
    keep first-appearance order. A group whose records disagree on snippet
    text logs a warning and keeps the first occurrence.
    """
    entries = []
    for key, records in group_by_snippet(corpus).items():
        first = records[0]
        for other in records[1:]:
            if other.code_snippet != first.code_snippet:
                log.warning(
                    "conflicting code_snippet text for %r; keeping first occurrence", key
                )
                break
        entries.append(
            Task2Entry(
                repo_url=first.repo_url,
                app_name=first.app_name,
                commit_id=first.commit_id,
                code_snippet_path=key,
                code_snippet=first.code_snippet,
                violated_articles=tuple(sorted({r.violated_article for r in records})),
            )
        )
    return entries


def dump_entries(entries: list[Task1Entry] | list[Task2Entry], path: str | Path) -> None:
    """Write entries as a JSON array with stable formatting, creating the file's directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, entries_json(entries))


def entries_json(entries: list[Task1Entry] | list[Task2Entry]) -> str:
    """Byte-stable JSON serialization of a dataset."""
    return json.dumps([e.to_dict() for e in entries], indent=2, ensure_ascii=False) + "\n"


def _texts(obj: dict, keys: tuple[str, ...], where: str = "") -> list[str]:
    """The values of ``keys`` in ``obj``, which must be strings; InputError names the first that is not."""
    values = [obj[key] for key in keys]
    for key, value in zip(keys, values):
        if not isinstance(value, str):
            raise InputError(f"{where}{key} must be a string, got {type(value).__name__}")
    return values


def _line_violation(item: dict, j: int, file_path: str) -> LineViolation:
    """Line violation ``j`` of the task-1 entry of ``file_path``: its span must be a line range of that file."""
    span = item["span"]
    if span["file_path"] != file_path:
        raise InputError(
            f"line_level[{j}].span.file_path {span['file_path']!r} is not the entry's file_path {file_path!r}"
        )
    start, end = span["start_line"], span["end_line"]
    if not (type(start) is int and type(end) is int and 1 <= start <= end):
        raise InputError(f"invalid span ({start!r}, {end!r}) for {file_path!r}")
    articles = frozenset(article_numbers(item["articles"], f"line_level[{j}].articles"))
    (description,) = _texts(item, ("description",), f"line_level[{j}].")
    return LineViolation(Span(start, end), articles, description)


def _task1_entry(obj: dict) -> Task1Entry:
    texts = _texts(obj, ("repo_url", "app_name", "commit_id", "file_path"))
    line_level = tuple(_line_violation(item, j, texts[-1]) for j, item in enumerate(obj["line_level"]))
    first: dict[Span, int] = {}
    for j, lv in enumerate(line_level):
        i = first.setdefault(lv.span, j)
        if i != j:  # a span is one line instance, named by its lines
            raise InputError(f"line_level[{j}] repeats the span {lv.span[0]}-{lv.span[1]} of line_level[{i}]")
    return Task1Entry(
        *texts,
        file_level=frozenset(article_numbers(obj["file_level"], "file_level")),
        module_level={
            k: frozenset(article_numbers(v, f"module_level[{k!r}]"))
            for k, v in obj["module_level"].items()
        },
        line_level=line_level,
    )


def _task2_entry(obj: dict) -> Task2Entry:
    texts = _texts(obj, ("repo_url", "app_name", "commit_id", "code_snippet_path", "code_snippet"))
    return Task2Entry(*texts, article_numbers(obj["violated_articles"], "violated_articles"))


def load_task1(path: str | Path, *, digests: dict[str, str] | None = None) -> list[Task1Entry]:
    """The task-1 dataset in ``path``; ``digests`` is filled as ``corpus.read_json`` fills it."""
    return read_entries(path, _task1_entry, digests=digests)


def load_task2(path: str | Path, *, digests: dict[str, str] | None = None) -> list[Task2Entry]:
    """The task-2 dataset in ``path``; ``digests`` is filled as ``corpus.read_json`` fills it."""
    return read_entries(path, _task2_entry, digests=digests)
