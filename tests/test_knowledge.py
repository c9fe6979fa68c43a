"""Article catalog, token-cosine similarity, and the retrieval store."""

import heapq
import json
import math
import re
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdprkit.errors import ConfigurationError, InputError, UnknownArticleError
from gdprkit.knowledge import (
    ARTICLE_TEXT,
    VIOLATION_EXAMPLE,
    KbDoc,
    KnowledgeBase,
    article_catalog,
    article_lookup,
    build_kb,
    load_articles,
    similarity,
    tokenize,
)
from gdprkit.taskgen import build_task2
from tests.conftest import examples_only_kb


class TestArticleCatalog:
    def test_lookup_titles(self):
        assert article_lookup(5).title == "Principles of processing"
        assert article_lookup(6).title == "Lawfulness of processing"
        assert article_lookup(7).title == "Conditions for consent"
        assert article_lookup(32).title == "Security of processing"

    def test_unknown_article_rejected(self):
        with pytest.raises(UnknownArticleError):
            article_lookup(999)

    def test_catalog_covers_twenty_three_articles(self):
        catalog = article_catalog()
        assert len(catalog) == 23
        assert all(info.summary for info in catalog.values())

    @pytest.mark.parametrize(
        "numbers, entry",
        [([1, "a"], 1), (["7"], 0), ([True], 0), ([2, 6.0], 1)],
        ids=["string-beside-int", "string-alone", "bool", "float"],
    )
    def test_non_integer_number_names_file_and_entry(self, numbers, entry, tmp_path):
        path = tmp_path / "articles.json"
        articles = [{"number": n, "title": "t", "summary": "s"} for n in numbers]
        path.write_text(json.dumps({"articles": articles}))
        with pytest.raises(InputError) as raised:
            load_articles(path)
        assert str(raised.value) == (
            f"{path}: entry {entry}: article number must be an integer, got {numbers[entry]!r}"
        )

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"number": 5, "title": "t", "summary": "s"}, "duplicate article number 5"),
            ({"number": 0, "title": "t", "summary": "s"}, "article number must be positive, got 0"),
            ({"number": 6, "title": "t", "summary": None}, "article 6 summary must be a string, got None"),
            ({"number": 6, "title": 7, "summary": "s"}, "article 6 title must be a string, got 7"),
        ],
        ids=["duplicate-number", "zero-number", "null-summary", "int-title"],
    )
    def test_bad_entry_names_file_and_entry(self, second, message, tmp_path):
        path = tmp_path / "articles.json"
        path.write_text(json.dumps({"articles": [{"number": 5, "title": "t", "summary": "s"}, second]}))
        with pytest.raises(InputError) as raised:
            load_articles(path)
        assert str(raised.value) == f"{path}: entry 1: {message}"

    def test_articles_come_back_in_number_order(self, tmp_path):
        path = tmp_path / "articles.json"
        articles = [{"number": n, "title": f"t{n}", "summary": f"s{n}"} for n in (32, 5, 7)]
        path.write_text(json.dumps({"articles": articles}))
        assert [(n, info.title) for n, info in load_articles(path).items()] == [
            (5, "t5"), (7, "t7"), (32, "t32")
        ]


class TestSimilarity:
    def test_identity(self):
        assert similarity("a b", "a b") == 1.0

    def test_disjoint(self):
        assert similarity("a", "b") == 0.0

    def test_hand_computed_cosine(self):
        # vectors over (a, b, c): (2,1,0) and (1,0,1); dot=2, norms sqrt(5), sqrt(2)
        expected = 2 / math.sqrt(5 * 2)
        assert similarity("a a b", "a c") == pytest.approx(expected, abs=1e-12)

    def test_both_empty_defined_as_zero(self):
        assert similarity("", "") == 0.0
        assert similarity("...", "!!!") == 0.0

    def test_tokenize_lowercases_alphanumerics(self):
        assert tokenize("OpenCamera(x); HTTP_2") == ["opencamera", "x", "http", "2"]

    @given(text=st.text())
    @example("\u0130stanbul")  # İ lower-cases to i plus a combining dot
    @example("\u212aelvin")  # the Kelvin sign lower-cases to ASCII k
    @example("Stra\u00dfe")  # ß stays one non-ASCII letter
    @example("\uff21\uff42\uff43\uff11 abc1")  # fullwidth letters and digit
    @example("x\u0661\u06622y")  # Arabic-Indic digits
    @example("ab\ud800cd")  # a lone surrogate
    @settings(max_examples=300, deadline=None)
    def test_tokenize_matches_regex_reference(self, text):
        assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())

    @given(a=st.text(max_size=60), b=st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        s = similarity(a, b)
        assert 0.0 <= s <= 1.0 + 1e-12
        assert s == similarity(b, a)

    @given(a=st.text(alphabet="abc ", min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_is_maximal(self, a):
        if tokenize(a):
            assert similarity(a, a) == pytest.approx(1.0, abs=1e-12)


class TestBuildKb:
    def test_fixture_corpus_doc_count(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        # 23 article texts plus one example per distinct snippet location
        assert len(kb) == 33
        kinds = [d.kind for d in kb.docs]
        assert kinds.count(ARTICLE_TEXT) == 23
        assert kinds.count(VIOLATION_EXAMPLE) == 10

    def test_empty_corpus_keeps_article_docs_only(self):
        kb = build_kb([])
        assert len(kb) == 23
        assert all(d.kind == ARTICLE_TEXT for d in kb.docs)

    def test_shared_path_merges_into_one_example(self, camera_record_pair):
        kb = examples_only_kb(camera_record_pair)
        assert len(kb) == 1
        doc = kb.docs[0]
        assert doc.kind == VIOLATION_EXAMPLE
        assert doc.labels == frozenset({6, 32})
        assert "openCamera" in doc.body

    def test_example_body_carries_both_notes(self, camera_record_pair):
        kb = examples_only_kb(camera_record_pair)
        body = kb.docs[0].body
        for record in camera_record_pair:
            assert record.annotation_note in body


# Few distinct words, so that documents share tokens and scores tie; the
# punctuation-only words yield documents and queries without any token.
_TEXT = st.lists(st.sampled_from(["a", "b", "B", "cam", "x1", "...", "!?"]), max_size=8).map(
    " ".join
)


def _brute_force(kb, query):
    """Reference ranking: similarity() against every doc, sorted by (-score, doc_id)."""
    scored = [(doc.doc_id, similarity(query, doc.body)) for doc in kb.docs]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


class _ReferenceRetrieval:
    """Reference for TestRetrieve: retrieval before list postings and the score
    floor, with array("i") postings and heapq.nsmallest over every scored doc."""

    def __init__(self, docs):
        self.docs = tuple(docs)
        self.norms = []
        self.postings = {}
        for i, doc in enumerate(self.docs):
            counts = Counter(tokenize(doc.body))
            self.norms.append(sum(c * c for c in counts.values()))
            for token, count in counts.items():
                self.postings.setdefault(token, array("i")).extend((i, count))
        self.id_order = sorted(range(len(self.docs)), key=lambda i: self.docs[i].doc_id)

    def retrieve(self, query, top_n):
        if top_n <= 0:
            return []
        query_counts = Counter(tokenize(query))
        query_norm = sum(c * c for c in query_counts.values())
        dots = {}
        for token, query_count in query_counts.items():
            pairs = iter(self.postings.get(token, ()))
            for i, count in zip(pairs, pairs):
                dots[i] = dots.get(i, 0) + query_count * count
        scores = {i: dot / math.sqrt(query_norm * self.norms[i]) for i, dot in dots.items()}
        best = heapq.nsmallest(top_n, scores, key=lambda i: (-scores[i], self.docs[i].doc_id))
        hits = [(self.docs[i], scores[i]) for i in best]
        for i in self.id_order:
            if len(hits) >= top_n:
                break
            if i not in scores:
                hits.append((self.docs[i], 0.0))
        return hits


def _ids_and_scores(hits):
    return [(doc.doc_id, score) for doc, score in hits]


class TestRetrieve:
    def test_exact_snippet_query_ranks_its_doc_first(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        snippet = fixture_corpus[0].code_snippet
        top_doc, score = kb.retrieve(snippet, top_n=1)[0]
        assert top_doc.kind == VIOLATION_EXAMPLE
        assert "openCamera" in top_doc.body

    def test_ranking_matches_brute_force_scorer(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        query = "openCamera"
        got = [(doc.doc_id, score) for doc, score in kb.retrieve(query, top_n=5)]
        assert got == _brute_force(kb, query)[:5]

    @given(
        bodies=st.lists(_TEXT, max_size=12),
        query=_TEXT,
        pick=st.integers(0, 5),
        shift=st.integers(0, 11),
    )
    @example(bodies=["a b", "", "!?", "b a"], query="", pick=5, shift=1)
    @example(bodies=["a b", "", "!?", "b a"], query="... !?", pick=4, shift=2)
    @example(bodies=["a", "b a", "a", "a a"], query="a", pick=2, shift=3)
    # Duplicate bodies tie at the n-th and (n+1)-th place, so doc id order
    # decides which of them the cut keeps: all score 1.0 (top 1, top 3), or
    # the tie sits below a higher score (top 3).
    @example(bodies=["b", "a", "a", "a"], query="a", pick=2, shift=1)
    @example(bodies=["a", "a", "b a", "a", "a"], query="a", pick=3, shift=2)
    @example(bodies=["a b", "a", "a b", "a b x1", "a b"], query="a", pick=3, shift=4)
    @settings(max_examples=300, deadline=None)
    def test_indexed_scores_equal_similarity_exactly(self, bodies, query, pick, shift):
        # Doc ids are rotated so that id order differs from insertion order.
        n = len(bodies)
        kb = KnowledgeBase(
            [
                KbDoc(f"d{(j + shift) % n:02d}", VIOLATION_EXAMPLE, body, frozenset())
                for j, body in enumerate(bodies)
            ]
        )
        top_n = (-1, 0, 1, 3, n, n + 5)[pick]
        got = [(doc.doc_id, score) for doc, score in kb.retrieve(query, top_n)]
        assert got == _brute_force(kb, query)[: max(top_n, 0)]

    def test_seed1_retrieval_equals_the_reference(self, seed1_corpus):
        kb = build_kb(seed1_corpus)
        reference = _ReferenceRetrieval(kb.docs)
        snippets = [entry.code_snippet for entry in build_task2(seed1_corpus)]
        assert (len(kb), len(snippets)) == (910, 887)
        for k, snippet in enumerate(snippets):
            for top_n in (3,) if k % 40 else (1, 3, 10, len(kb) + 5):
                got = _ids_and_scores(kb.retrieve(snippet, top_n))
                assert got == _ids_and_scores(reference.retrieve(snippet, top_n))

    def test_camera_query_surfaces_camera_example(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        hits = kb.retrieve("openCamera", top_n=3)
        assert any(
            d.kind == VIOLATION_EXAMPLE and "openCamera" in d.body for d, _ in hits
        )

    def test_top_n_beyond_size_returns_everything(self):
        kb = build_kb([])
        assert len(kb.retrieve("processing", top_n=999)) == 23

    def test_scores_are_descending(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        scores = [score for _, score in kb.retrieve("location consent", top_n=10)]
        assert scores == sorted(scores, reverse=True)


def _per_pair_index(docs):
    """Norms and postings appended a (doc index, count) pair at a time: the reference index."""
    norms, postings = [], {}
    for i, doc in enumerate(docs):
        counts = Counter(tokenize(doc.body))
        norms.append(sum(count * count for count in counts.values()))
        for token, count in counts.items():
            postings.setdefault(token, []).extend((i, count))
    return norms, postings


class TestIndexBuild:
    @pytest.mark.parametrize("corpus", ["fixture_corpus", "seed1_corpus"])
    def test_postings_and_norms_equal_a_per_pair_build(self, corpus, request):
        kb = build_kb(request.getfixturevalue(corpus))
        norms, postings = _per_pair_index(kb.docs)
        assert kb._norms == norms
        assert kb._postings == postings
        assert list(kb._postings) == list(postings)  # tokens in order of first appearance

    @given(bodies=st.lists(_TEXT, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_docs_index_as_a_per_pair_build(self, bodies):
        kb = KnowledgeBase([KbDoc(f"d{j}", VIOLATION_EXAMPLE, b, frozenset()) for j, b in enumerate(bodies)])
        norms, postings = _per_pair_index(kb.docs)
        assert (kb._norms, kb._postings, list(kb._postings)) == (norms, postings, list(postings))


class TestPersistence:
    def test_duplicate_doc_ids_rejected(self):
        doc = KbDoc(doc_id="d1", kind=ARTICLE_TEXT, body="x", labels=frozenset())
        with pytest.raises(ConfigurationError):
            KnowledgeBase([doc, doc])
