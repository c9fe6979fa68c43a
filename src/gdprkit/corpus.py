"""Violation corpus: record schema, loading, span parsing, grouping, statistics.

The corpus file is a UTF-8 JSON array of seven-field record objects. Both
``commit_id`` and ``Commit_ID`` key spellings occur in published data; the
loader accepts either and normalizes to ``commit_id``.

Splitting a snippet path into file and span (``split_snippet_path``) and
grouping records per file (``group_by_file``) or per snippet location
(``group_by_snippet``) live here, once, for the task builders, the
knowledge base and the harness; so does ``read_entries``, the one reader
of a JSON array of entries (datasets, predictions, rules, articles,
patterns).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .errors import CorpusSchemaError, InputError, SpanParseError

T = TypeVar("T")

_COMMIT_RE = re.compile(r"[0-9a-fA-F]{40}")

# "line N" or "lines A-B" (hyphen or en-dash), case-insensitive.
_LINE_SPEC_RE = re.compile(
    r"^\s*lines?\s+(\d+)\s*(?:[-–]\s*(\d+))?\s*$",
    re.IGNORECASE,
)

LANGUAGE_BY_EXTENSION = {
    ".js": "js",
    ".json": "json",
    ".java": "java",
    ".kt": "kt",
    ".cs": "cs",
    ".php": "php",
    ".xml": "xml",
    ".html": "html",
    ".py": "py",
    ".h": "h",
}


@dataclass(frozen=True)
class SpanRef:
    """1-based inclusive line span within a file."""

    file_path: str
    start_line: int
    end_line: int

    def __post_init__(self):
        if self.start_line < 1 or self.end_line < self.start_line:
            raise SpanParseError(
                f"invalid span ({self.start_line}, {self.end_line}) for {self.file_path!r}"
            )

    def to_dict(self) -> dict:
        return {
            "file_path": self.file_path,
            "start_line": self.start_line,
            "end_line": self.end_line,
        }


@dataclass(frozen=True)
class ViolationRecord:
    """One annotated violation instance: provenance + article + snippet + note."""

    app_name: str
    repo_url: str
    commit_id: str
    violated_article: int
    code_snippet_path: str
    code_snippet: str
    annotation_note: str

    def to_dict(self) -> dict:
        return {
            "app_name": self.app_name,
            "repo_url": self.repo_url,
            "commit_id": self.commit_id,
            "violated_article": self.violated_article,
            "code_snippet_path": self.code_snippet_path,
            "code_snippet": self.code_snippet,
            "annotation_note": self.annotation_note,
        }


@dataclass(frozen=True)
class LengthStats:
    """Character-count summary; stddev is population stddev."""

    min: int
    max: int
    mean: float
    median: float
    stddev: float

    def to_dict(self) -> dict:
        return {
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "median": self.median,
            "stddev": self.stddev,
        }


@dataclass(frozen=True)
class CorpusStats:
    total_records: int
    single_line_count: int
    multi_line_count: int
    per_article_counts: dict[int, int]
    per_extension_counts: dict[str, int]
    snippet_length_stats: LengthStats
    note_length_stats: LengthStats

    def to_dict(self) -> dict:
        return {
            "total_records": self.total_records,
            "single_line_count": self.single_line_count,
            "multi_line_count": self.multi_line_count,
            "per_article_counts": {str(k): v for k, v in sorted(self.per_article_counts.items())},
            "per_extension_counts": dict(sorted(self.per_extension_counts.items())),
            "snippet_length_stats": self.snippet_length_stats.to_dict(),
            "note_length_stats": self.note_length_stats.to_dict(),
        }


_REQUIRED_FIELDS = (
    "app_name",
    "repo_url",
    "commit_id",
    "violated_article",
    "code_snippet_path",
    "code_snippet",
    "annotation_note",
)


# The same fields as keyed in a record that spells the commit key "Commit_ID".
_COMMIT_ID_KEYS = _REQUIRED_FIELDS[:2] + ("Commit_ID",) + _REQUIRED_FIELDS[3:]
_TEXT_FIELDS = ("app_name", "repo_url", "code_snippet_path", "code_snippet")


def _record_from_obj(obj: object, index: int) -> ViolationRecord:
    if not isinstance(obj, dict):
        raise CorpusSchemaError(index, "<record>", "must be an object")
    keys = _COMMIT_ID_KEYS if "commit_id" not in obj and "Commit_ID" in obj else _REQUIRED_FIELDS
    try:
        app_name, repo_url, commit, article, snippet_path, snippet, note = map(obj.__getitem__, keys)
    except KeyError:
        name = next(name for name, key in zip(_REQUIRED_FIELDS, keys) if key not in obj)
        raise CorpusSchemaError(index, name, "missing") from None

    if not isinstance(article, int) or isinstance(article, bool) or article < 1:
        raise CorpusSchemaError(index, "violated_article", f"must be a positive integer, got {article!r}")
    if not isinstance(commit, str) or not _COMMIT_RE.fullmatch(commit):
        raise CorpusSchemaError(index, "commit_id", "must be a 40-char hex Git SHA")
    if not snippet:
        raise CorpusSchemaError(index, "code_snippet", "must be non-empty")
    if not isinstance(note, str) or not note.strip():
        raise CorpusSchemaError(index, "annotation_note", "must contain text")
    for name, value in zip(_TEXT_FIELDS, (app_name, repo_url, snippet_path, snippet)):
        if not isinstance(value, str):
            raise CorpusSchemaError(index, name, "must be a string")
    return ViolationRecord(app_name, repo_url, commit, article, snippet_path, snippet, note)


def load_corpus(path: str | Path) -> list[ViolationRecord]:
    """Load a JSON corpus file, preserving input order.

    Raises CorpusSchemaError naming the record index and field on a schema
    violation, InputError if the file is not JSON, OSError if it cannot be
    read.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise CorpusSchemaError(0, "<document>", "top-level value must be an array")
    return [_record_from_obj(obj, i) for i, obj in enumerate(raw)]


def read_json(path: str | Path):
    """The JSON document in ``path``; one that does not decode raises InputError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InputError(f"{path}: {exc}") from None


def read_entries(path: str | Path, build: Callable[[dict], T], key: str | None = None) -> list[T]:
    """``build`` applied to each object of the JSON array in ``path``, or of
    the array stored under ``key`` of the JSON object there.

    A document of another shape raises InputError naming the file; so does
    an entry that is not an object, lacks a key ``build`` reads, holds a
    value of the wrong type, or makes ``build`` raise InputError, and then
    the message also names the entry's index.  An InputError of ``build``
    keeps its type (a rules file raises RuleLoadError).
    """
    raw = read_json(path)
    if key is not None:
        if not isinstance(raw, dict) or key not in raw:
            raise InputError(f"{path}: expected a JSON object with key {key!r}")
        raw = raw[key]
    if not isinstance(raw, list):
        raise InputError(f"{path}: expected a JSON array of entries, got {type(raw).__name__}")
    out = []
    for i, obj in enumerate(raw):
        try:
            if not isinstance(obj, dict):
                raise InputError(f"expected a JSON object, got {type(obj).__name__}")
            out.append(build(obj))
        except KeyError as exc:
            raise InputError(f"{path}: entry {i}: missing key {exc.args[0]!r}") from None
        except InputError as exc:
            raise type(exc)(f"{path}: entry {i}: {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise InputError(f"{path}: entry {i}: {exc}") from None
    return out


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` beside ``path``, then rename it over ``path``: never a torn file."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_span(code_snippet_path: str) -> tuple[str, SpanRef | None]:
    """Split a snippet path into (file_path, span).

    The line spec, when present, follows the last ``:`` separator: ``line N``
    maps to (N, N), ``lines A-B`` (hyphen or en-dash) to (A, B). Text after
    the last ``:`` that is not a line spec is kept as part of the path.
    """
    if not code_snippet_path:
        raise SpanParseError("empty code_snippet_path")
    head, sep, tail = code_snippet_path.rpartition(":")
    if sep:
        m = _LINE_SPEC_RE.match(tail)
        if m:
            start = int(m.group(1))
            end = int(m.group(2)) if m.group(2) else start
            file_path = head.strip()
            if start < 1 or end < start:
                raise SpanParseError(
                    f"invalid line spec {tail.strip()!r} in {code_snippet_path!r}"
                )
            return file_path, SpanRef(file_path, start, end)
    return code_snippet_path.strip(), None


def path_suffix(file_path: str) -> str:
    """``PurePosixPath(file_path).suffix``, without building a path object.

    The name is the last ``/``-separated part that is neither empty nor
    ``.``; its suffix starts at its last dot, unless that dot is the
    name's first or last character.
    """
    name = next((part for part in reversed(file_path.split("/")) if part not in ("", ".")), "")
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def detect_language(file_path: str) -> str:
    """Map a file extension (case-insensitive) to a language tag, else 'unknown'."""
    return LANGUAGE_BY_EXTENSION.get(path_suffix(file_path).lower(), "unknown")


def split_snippet_path(code_snippet_path: str) -> tuple[str, SpanRef | None]:
    """parse_span that degrades to (whole stripped path, no span) on a malformed spec."""
    try:
        return parse_span(code_snippet_path)
    except SpanParseError:
        return code_snippet_path.strip(), None


def group_by_file(
    corpus: Iterable[ViolationRecord],
) -> dict[tuple[str, str, str], list[tuple[ViolationRecord, SpanRef | None]]]:
    """(record, span) pairs per (repo_url, app_name, file_path), in corpus order.

    Each distinct snippet path is split once per call, here; the span is the
    one ``split_snippet_path`` gives.  Records at one snippet location share
    their path, so the splits are kept for the length of the call only.
    """
    groups: dict[tuple[str, str, str], list[tuple[ViolationRecord, SpanRef | None]]] = {}
    splits: dict[str, tuple[str, SpanRef | None]] = {}
    for record in corpus:
        path = record.code_snippet_path
        split = splits.get(path)
        if split is None:
            split = splits[path] = split_snippet_path(path)
        file_path, span = split
        groups.setdefault((record.repo_url, record.app_name, file_path), []).append((record, span))
    return groups


def group_by_snippet(corpus: Iterable[ViolationRecord]) -> dict[str, list[ViolationRecord]]:
    """Records per exact code_snippet_path, keys in first-appearance order."""
    groups: dict[str, list[ViolationRecord]] = {}
    for record in corpus:
        groups.setdefault(record.code_snippet_path, []).append(record)
    return groups


def _length_stats(lengths: list[int]) -> LengthStats:
    if not lengths:
        return LengthStats(0, 0, 0.0, 0.0, 0.0)
    import statistics

    return LengthStats(
        min=min(lengths),
        max=max(lengths),
        mean=statistics.fmean(lengths),
        median=statistics.median(lengths),
        stddev=statistics.pstdev(lengths),
    )


def compute_stats(corpus: list[ViolationRecord]) -> CorpusStats:
    """Summarize a corpus.

    Granularity comes from split_snippet_path: start == end counts single-line,
    start < end multi-line. Records with no parseable span count multi-line
    (an unspecified span denotes a region, not a statement).
    """
    single = 0
    multi = 0
    per_article: dict[int, int] = {}
    per_extension: dict[str, int] = {}
    for record in corpus:
        file_path, span = split_snippet_path(record.code_snippet_path)
        if span is not None and span.start_line == span.end_line:
            single += 1
        else:
            multi += 1
        per_article[record.violated_article] = per_article.get(record.violated_article, 0) + 1
        ext = path_suffix(file_path).lower()
        per_extension[ext] = per_extension.get(ext, 0) + 1

    return CorpusStats(
        total_records=len(corpus),
        single_line_count=single,
        multi_line_count=multi,
        per_article_counts=per_article,
        per_extension_counts=per_extension,
        snippet_length_stats=_length_stats([len(r.code_snippet) for r in corpus]),
        note_length_stats=_length_stats([len(r.annotation_note) for r in corpus]),
    )
