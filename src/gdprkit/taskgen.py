"""Derive the two task datasets from a violation corpus.

Task 1 entries are file-centric multi-granularity profiles (one entry per
distinct (repo_url, app_name, file_path) tuple); Task 2 entries are
snippet-centric multi-label records (one entry per distinct
code_snippet_path). Both builders are deterministic: given the same corpus
they emit byte-identical JSON. The grouping itself and the lenient split of
a snippet path into file and span come from ``corpus`` (``group_by_file``,
``group_by_snippet``, ``split_snippet_path``).
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    SpanRef,
    ViolationRecord,
    group_by_file,
    group_by_snippet,
    split_snippet_path,
    write_atomic,
)

log = logging.getLogger(__name__)

# Declaration syntax shared by Java/Kotlin/C#/PHP/Python/JS.
_CLASS_DECL_RE = re.compile(r"\bclass\s+([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class LineViolation:
    span: SpanRef
    articles: frozenset[int]
    description: str

    def to_dict(self) -> dict:
        return {
            "span": self.span.to_dict(),
            "articles": sorted(self.articles),
            "description": self.description,
        }


@dataclass(frozen=True)
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
            "line_level": [item.to_dict() for item in self.line_level],
        }


@dataclass(frozen=True)
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


def infer_module(file_path: str, records: list[ViolationRecord]) -> str:
    """Infer the module (class) name that encloses a file's violations.

    Scans the file's snippets for class declarations and picks the most
    frequent name, breaking ties lexicographically. Falls back to the file
    stem when no declaration is recoverable.
    """
    counts: dict[str, int] = {}
    for record in records:
        for name in _CLASS_DECL_RE.findall(record.code_snippet):
            counts[name] = counts.get(name, 0) + 1
    if counts:
        return min(counts, key=lambda name: (-counts[name], name))
    return Path(file_path).stem


def build_task1(corpus: list[ViolationRecord]) -> list[Task1Entry]:
    """Group a corpus into file-centric multi-granularity entries.

    file_level is the union of all articles for the file; module_level maps
    the inferred module name to that same union; line_level lists spanned
    records sorted by (start_line, end_line). Records without a parseable
    span contribute to file and module level only.
    """
    groups = group_by_file(corpus)
    entries = []
    for (repo_url, app_name, file_path) in sorted(groups):
        records = groups[(repo_url, app_name, file_path)]
        file_articles = frozenset(r.violated_article for r in records)

        by_span: dict[tuple[int, int], tuple[set[int], list[str]]] = {}
        for record in records:
            _, span = split_snippet_path(record.code_snippet_path)
            if span is None:
                continue
            articles, notes = by_span.setdefault((span.start_line, span.end_line), (set(), []))
            articles.add(record.violated_article)
            if record.annotation_note not in notes:
                notes.append(record.annotation_note)

        line_level = tuple(
            LineViolation(
                span=SpanRef(file_path, start, end),
                articles=frozenset(articles),
                description="\n".join(notes),
            )
            for (start, end), (articles, notes) in sorted(by_span.items())
        )

        module = infer_module(file_path, records)
        entries.append(
            Task1Entry(
                repo_url=repo_url,
                app_name=app_name,
                commit_id=records[0].commit_id,
                file_path=file_path,
                file_level=file_articles,
                module_level={module: file_articles},
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
    """Write entries as a JSON array with stable formatting."""
    write_atomic(path, entries_json(entries))


def entries_json(entries: list[Task1Entry] | list[Task2Entry]) -> str:
    """Byte-stable JSON serialization of a dataset."""
    return json.dumps([e.to_dict() for e in entries], indent=2, ensure_ascii=False) + "\n"


def load_task1(path: str | Path) -> list[Task1Entry]:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    entries = []
    for obj in raw:
        entries.append(
            Task1Entry(
                repo_url=obj["repo_url"],
                app_name=obj["app_name"],
                commit_id=obj["commit_id"],
                file_path=obj["file_path"],
                file_level=frozenset(obj["file_level"]),
                module_level={k: frozenset(v) for k, v in obj["module_level"].items()},
                line_level=tuple(
                    LineViolation(
                        span=SpanRef(
                            item["span"]["file_path"],
                            item["span"]["start_line"],
                            item["span"]["end_line"],
                        ),
                        articles=frozenset(item["articles"]),
                        description=item["description"],
                    )
                    for item in obj["line_level"]
                ),
            )
        )
    return entries


def load_task2(path: str | Path) -> list[Task2Entry]:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    return [
        Task2Entry(
            repo_url=obj["repo_url"],
            app_name=obj["app_name"],
            commit_id=obj["commit_id"],
            code_snippet_path=obj["code_snippet_path"],
            code_snippet=obj["code_snippet"],
            violated_articles=tuple(obj["violated_articles"]),
        )
        for obj in raw
    ]
