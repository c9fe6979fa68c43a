"""Article catalog and retrieval knowledge base.

The catalog maps article numbers to titles and one-line summaries; prompt
construction and the agent's lookup tool both read from it.  The knowledge
base holds article texts plus labeled violation examples, one per snippet
location as grouped by ``corpus.group_by_snippet`` (the grouping of the
task 2 dataset), and answers nearest-neighbour queries with a plain
token-frequency cosine, which keeps retrieval deterministic and
dependency-free.  A token is a maximal run of ASCII ``[a-z0-9]`` in the
lower-cased text; every other character separates tokens.

Construction tokenizes every document once and counts its tokens with a
``Counter``, which gives the document's squared norm.  The inverted index
maps each token to one flat list ``[doc index, count, doc index, count,
...]`` in document order.  A document's pairs are appended to its tokens'
lists in one bulk ``map`` of ``list.extend`` over its ``Counter``, in the
``Counter``'s token order, not in a Python loop per pair.  A query then only
tokenizes itself and scores the documents it shares a token with; every
score equals ``similarity(query, doc.body)`` exactly.  The top n are picked
by a score floor, so only the documents at or above the n-th best score are
sorted.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import ViolationRecord, group_by_snippet, read_entries
from .errors import ConfigurationError, InputError, UnknownArticleError

_DATA_DIR = Path(__file__).parent / "data"

ARTICLE_TEXT = "article_text"
VIOLATION_EXAMPLE = "violation_example"


@dataclass(frozen=True, slots=True)
class ArticleInfo:
    number: int
    title: str
    summary: str


def load_articles(
    path: str | Path | None = None, *, digests: dict[str, str] | None = None
) -> dict[int, ArticleInfo]:
    """The articles file's entries by number, ascending.

    A number that is not a positive integer or occurs twice, and a title or
    summary that is not a string, raise InputError naming the file and the
    entry.  ``digests`` is filled as ``corpus.read_json`` fills it.
    """
    seen: set[int] = set()

    def article(obj: dict) -> ArticleInfo:
        number = obj["number"]
        if not isinstance(number, int) or isinstance(number, bool):
            raise InputError(f"article number must be an integer, got {number!r}")
        if number < 1:
            raise InputError(f"article number must be positive, got {number}")
        if number in seen:
            raise InputError(f"duplicate article number {number}")
        seen.add(number)
        title, summary = obj["title"], obj["summary"]
        for name, value in (("title", title), ("summary", summary)):
            if not isinstance(value, str):
                raise InputError(f"article {number} {name} must be a string, got {value!r}")
        return ArticleInfo(number, title, summary)

    infos = read_entries(path or _DATA_DIR / "articles.json", article, "articles", digests=digests)
    return {info.number: info for info in sorted(infos, key=lambda info: info.number)}


_catalog: dict[int, ArticleInfo] | None = None


def article_catalog() -> dict[int, ArticleInfo]:
    global _catalog
    if _catalog is None:
        _catalog = load_articles()
    return _catalog


def article_lookup(number: int, catalog: dict[int, ArticleInfo] | None = None) -> ArticleInfo:
    catalog = article_catalog() if catalog is None else catalog
    try:
        return catalog[number]
    except KeyError:
        raise UnknownArticleError(f"article {number} is not in the catalog") from None


# ---------------------------------------------------------------------------
# Similarity

# Byte table keeping a-z and 0-9; every other byte becomes a space.
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))


def tokenize(text: str) -> list[str]:
    # Each non-ASCII code point encodes as "?", a separator, so this splits
    # exactly where the regex [a-z0-9]+ over text.lower() would.
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


def similarity(a: str, b: str) -> float:
    """Cosine over token frequency vectors; 0.0 when either side is empty."""
    ca, cb = Counter(tokenize(a)), Counter(tokenize(b))
    if not ca or not cb:
        return 0.0
    dot = sum(count * cb[token] for token, count in ca.items())
    norm = math.sqrt(sum(c * c for c in ca.values()) * sum(c * c for c in cb.values()))
    return dot / norm if norm else 0.0


# ---------------------------------------------------------------------------
# Knowledge base


@dataclass(frozen=True, slots=True)
class KbDoc:
    doc_id: str
    kind: str  # ARTICLE_TEXT or VIOLATION_EXAMPLE
    body: str
    labels: frozenset[int]


class KnowledgeBase:
    def __init__(self, docs: Sequence[KbDoc]):
        self.docs = tuple(docs)
        if len({d.doc_id for d in self.docs}) != len(self.docs):
            raise ConfigurationError("knowledge base doc ids must be unique")
        # Per document: squared norm of its token counts.  Per token: one flat
        # list [doc index, count, ...] (a list of small ints builds faster
        # than an int array), extended by each document in one bulk pass.
        norms: list[int] = []
        index: defaultdict[str, list[int]] = defaultdict(list)
        postings_of, extend, consume = index.__getitem__, list.extend, deque(maxlen=0).extend
        for i, doc in enumerate(self.docs):
            counts = Counter(tokenize(doc.body))
            values = counts.values()
            norms.append(sum(map(mul, values, values)))
            consume(map(extend, map(postings_of, counts), zip(repeat(i), values)))
        self._norms, self._postings = norms, dict(index)
        self._id_order = sorted(range(len(self.docs)), key=lambda i: self.docs[i].doc_id)

    def __len__(self) -> int:
        return len(self.docs)

    def retrieve(self, query: str, top_n: int = 3) -> list[tuple[KbDoc, float]]:
        """Best-scoring docs first; ties broken by doc id for determinism.

        Each score is ``similarity(query, doc.body)``, computed with the same
        integer dot product and norms.  When more than ``top_n`` docs score,
        the n-th best score is a floor: only the docs scoring at least the
        floor, ties included, are sorted by ``(-score, doc_id)`` and cut to
        ``top_n``.  That is the same list a sort of every scored doc gives,
        since each doc of that list scores at least the floor and no score is
        NaN (a scored doc shares a token with the query, so both norms are
        non-zero).  Docs sharing no token with the query score 0.0 and fill
        any remaining places in doc id order.
        """
        if top_n <= 0:
            return []
        query_counts = Counter(tokenize(query))
        query_norm = sum(c * c for c in query_counts.values())
        dots: dict[int, int] = {}
        for token, query_count in query_counts.items():
            postings = self._postings.get(token)
            if postings is None:
                continue
            pairs = iter(postings)
            for i, count in zip(pairs, pairs):
                dots[i] = dots.get(i, 0) + query_count * count
        scores = {i: dot / math.sqrt(query_norm * self._norms[i]) for i, dot in dots.items()}
        candidates = scores
        if len(scores) > top_n:
            floor = heapq.nlargest(top_n, scores.values())[-1]
            candidates = [i for i, score in scores.items() if score >= floor]
        best = sorted(candidates, key=lambda i: (-scores[i], self.docs[i].doc_id))[:top_n]
        hits = [(self.docs[i], scores[i]) for i in best]
        for i in self._id_order:
            if len(hits) >= top_n:
                break
            if i not in scores:
                hits.append((self.docs[i], 0.0))
        return hits


def build_kb(
    records: Iterable[ViolationRecord],
    *,
    catalog: dict[int, ArticleInfo] | None = None,
) -> KnowledgeBase:
    """Article texts plus one labeled example per distinct snippet location.

    Examples follow the snippet-classification dataset: the records of one
    ``corpus.group_by_snippet`` group merge into one document labeled with
    the union of their articles.
    """
    catalog = article_catalog() if catalog is None else catalog
    docs = [
        KbDoc(
            doc_id=f"article-{number:03d}",
            kind=ARTICLE_TEXT,
            body=f"Article {number}: {info.title}. {info.summary}",
            labels=frozenset({number}),
        )
        for number, info in catalog.items()
    ]
    for i, group in enumerate(group_by_snippet(records).values(), start=1):
        notes: list[str] = []
        for record in group:
            if record.annotation_note and record.annotation_note not in notes:
                notes.append(record.annotation_note)
        body = group[0].code_snippet
        if notes:
            body = body.rstrip("\n") + "\n" + "\n".join(notes)
        docs.append(
            KbDoc(
                doc_id=f"example-{i:04d}",
                kind=VIOLATION_EXAMPLE,
                body=body,
                labels=frozenset(r.violated_article for r in group),
            )
        )
    return KnowledgeBase(docs)
