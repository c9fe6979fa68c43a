"""Corpus schema, span parsing, language detection, and descriptive stats."""

import dataclasses
import json
import statistics
from pathlib import PurePosixPath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdprkit.corpus import (
    LANGUAGE_BY_EXTENSION,
    SpanRef,
    ViolationRecord,
    compute_stats,
    detect_language,
    group_by_file,
    load_corpus,
    path_suffix,
    split_snippet_path,
    write_atomic,
)
from gdprkit.errors import CorpusSchemaError, InputError, SpanParseError

VALID_COMMIT = "ab" * 20


def make_obj(**overrides) -> dict:
    obj = {
        "app_name": "Demo",
        "repo_url": "https://github.com/x/demo",
        "Commit_ID": VALID_COMMIT,
        "violated_article": 6,
        "code_snippet_path": "src/Main.java: line 7",
        "code_snippet": "int x = 1;\n",
        "annotation_note": "Collects data without a lawful basis.",
    }
    obj.update(overrides)
    return obj


class TestLoadCorpus:
    def test_fixture_loads_twelve_records(self, fixture_corpus):
        assert len(fixture_corpus) == 12
        assert all(isinstance(r, ViolationRecord) for r in fixture_corpus)

    def test_camera_pair_shares_path_and_covers_both_articles(self, camera_record_pair):
        a, b = camera_record_pair
        assert a.code_snippet_path == b.code_snippet_path
        assert a.code_snippet == b.code_snippet
        assert {a.violated_article, b.violated_article} == {6, 32}

    def test_empty_array_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        assert load_corpus(path) == []

    def test_missing_note_is_schema_error_at_index_zero(self, tmp_path):
        obj = make_obj()
        del obj["annotation_note"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([obj]), encoding="utf-8")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.index == 0
        assert err.value.field == "annotation_note"

    def test_schema_error_names_later_index(self, tmp_path):
        objs = [make_obj(), make_obj(violated_article=0)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(objs), encoding="utf-8")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.index == 1
        assert err.value.field == "violated_article"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("Commit_ID", "not-a-sha"),
            ("Commit_ID", VALID_COMMIT + "\n"),
            ("code_snippet", ""),
            ("annotation_note", "   "),
            ("annotation_note", ""),
            ("annotation_note", "\u2028\x1c\x85\u3000"),
            ("violated_article", -3),
            ("app_name", None),
            ("repo_url", False),
            ("code_snippet_path", None),
            ("code_snippet", 7),
        ],
    )
    def test_invalid_field_values_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([make_obj(**{field: value})]), encoding="utf-8")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        # the error names the canonical field, so Commit_ID reads commit_id
        assert err.value.field == field.lower()

    def test_note_with_one_visible_character_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps([make_obj(annotation_note="\u2028x\u3000")]), encoding="utf-8")
        assert load_corpus(path)[0].annotation_note == "\u2028x\u3000"

    def test_first_text_field_that_is_not_a_string_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([make_obj(repo_url=1, code_snippet=[2], code_snippet_path=None)]))
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.field == "repo_url"

    @pytest.mark.parametrize(
        "record",
        ["x", None, 5, [["app_name", "Demo"]], list(make_obj().items())],
        ids=["string", "null", "number", "one-pair-list", "pairs-list"],
    )
    def test_non_object_record_rejected(self, tmp_path, record):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([make_obj(), record]), encoding="utf-8")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert (err.value.index, err.value.field) == (1, "<record>")
        assert "must be an object" in str(err.value)

    def test_lowercase_commit_key_accepted(self, tmp_path):
        obj = make_obj()
        obj["commit_id"] = obj.pop("Commit_ID")
        path = tmp_path / "alt.json"
        path.write_text(json.dumps([obj]), encoding="utf-8")
        assert load_corpus(path)[0].commit_id == VALID_COMMIT

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.json")

    def test_dump_then_load_round_trips(self, tmp_path, fixture_corpus):
        path = tmp_path / "copy.json"
        write_atomic(path, json.dumps([dataclasses.asdict(r) for r in fixture_corpus]))
        assert load_corpus(path) == fixture_corpus


class TestParseSpan:
    def test_single_line_spec(self):
        file_path, span = split_snippet_path(
            "app/src/main/java/me/hawkshaw/test/MainActivity2.java: line 202"
        )
        assert file_path == "app/src/main/java/me/hawkshaw/test/MainActivity2.java"
        assert span == SpanRef(file_path, 202, 202)

    @pytest.mark.parametrize("dash", ["-", "\u2013"])
    def test_range_spec_accepts_hyphen_and_en_dash(self, dash):
        file_path, span = split_snippet_path(f"src/a.kt: lines 10{dash}15")
        assert file_path == "src/a.kt"
        assert (span.start_line, span.end_line) == (10, 15)

    def test_no_line_spec_gives_absent_span(self):
        assert split_snippet_path("src/a.kt") == ("src/a.kt", None)

    # a malformed spec is rejected: the whole stripped path comes back, with no span
    def test_reversed_range_rejected(self):
        assert split_snippet_path(" src/a.kt: lines 15-10 ") == ("src/a.kt: lines 15-10", None)

    def test_non_positive_line_rejected(self):
        assert split_snippet_path("src/a.kt: line 0") == ("src/a.kt: line 0", None)

    def test_empty_path_gives_no_span(self):
        assert split_snippet_path("") == ("", None)

    def test_colon_without_line_spec_stays_in_path(self):
        file_path, span = split_snippet_path("C:/work/Main.java")
        assert file_path == "C:/work/Main.java"
        assert span is None


class TestSpanRef:
    @pytest.mark.parametrize(
        "start, end",
        [(True, True), (1, True), (2.5, 2.5), (1.0, 1), (1, 3.0), ("3", "3"), (None, 1),
         (0, 3), (-1, 1), (4, 3)],
        ids=repr,
    )
    def test_span_that_is_not_a_line_range_is_refused(self, start, end):
        with pytest.raises(SpanParseError) as raised:
            SpanRef("src/A.java", start, end)
        assert str(raised.value) == f"invalid span ({start!r}, {end!r}) for 'src/A.java'"
        assert isinstance(raised.value, InputError)

    @pytest.mark.parametrize("start, end", [(1, 1), (2, 5)])
    def test_line_range_is_kept(self, start, end):
        span = SpanRef("src/A.java", start, end)
        assert (span.start_line, span.end_line) == (start, end)


def _reference_group_by_file(records):
    """Reference for TestGroupByFile: group_by_file splitting every record's path."""
    groups = {}
    for record in records:
        file_path, span = split_snippet_path(record.code_snippet_path)
        groups.setdefault((record.repo_url, record.app_name, file_path), []).append((record, span))
    return groups


# Snippet paths drawn from a small pool, so records repeat a path or share a
# file under different specs; the specs include malformed, reversed and
# en-dash ranges and surrounding whitespace.
_SNIPPET_PATH = st.tuples(
    st.sampled_from(["src/A.java", " src/A.java", "src/A.java ", "C:/w/B.kt", ""]),
    st.sampled_from([
        "", ": line 3", ":line 3 ", ": lines 2-5", ": lines 2\u20135", " : lines 2 \u2013 5 ",
        ": lines 5-2", ": line 0", ": line x", ": LINES 4-4", ":",
    ]),
).map("".join)
_RECORD = st.builds(
    lambda repo, app, path: ViolationRecord(app, repo, VALID_COMMIT, 6, path, "x();\n", "note"),
    st.sampled_from(["https://github.com/x/a", "https://github.com/x/b"]),
    st.sampled_from(["A", "B"]),
    _SNIPPET_PATH,
)


class TestGroupByFile:
    @given(records=st.lists(_RECORD, max_size=12))
    @example(records=[
        ViolationRecord("A", "r", VALID_COMMIT, 6, "src/A.java: lines 5-2", "x();\n", "note"),
        ViolationRecord("A", "r", VALID_COMMIT, 32, " src/A.java : line 3 ", "x();\n", "note"),
        ViolationRecord("A", "r", VALID_COMMIT, 6, "src/A.java: lines 5-2", "x();\n", "note"),
    ])
    @settings(max_examples=200, deadline=None)
    def test_equals_a_split_per_record(self, records):
        got = group_by_file(records)
        assert list(got.items()) == list(_reference_group_by_file(records).items())


class TestDetectLanguage:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("a/B.Java", "java"),
            ("x.php", "php"),
            ("x.rs", "unknown"),
            ("lib/tracker.kt", "kt"),
            ("web/app.js", "js"),
            ("README", "unknown"),
        ],
    )
    def test_extension_mapping(self, path, expected):
        assert detect_language(path) == expected

    @given(
        st.lists(st.sampled_from(["/", ".", "..", "a", "B", "js", "Java", "ſ", " "]), max_size=10)
        .map("".join)
    )
    @example("")
    @example(".bashrc")
    @example("a.")
    @example("a.b/.")
    @example("a.b/./")
    @example("dir/x.KT/")
    @example("/")
    @example("a/..")
    def test_suffix_equals_pathlib(self, path):
        assert path_suffix(path) == PurePosixPath(path).suffix
        assert detect_language(path) == LANGUAGE_BY_EXTENSION.get(
            PurePosixPath(path).suffix.lower(), "unknown"
        )


class TestComputeStats:
    def test_singleton_statistics(self):
        record = ViolationRecord(
            app_name="Demo",
            repo_url="https://github.com/x/demo",
            commit_id=VALID_COMMIT,
            violated_article=5,
            code_snippet_path="a.java: line 3",
            code_snippet="x" * 12,
            annotation_note="n" * 12,
        )
        stats = compute_stats([record])
        s = stats.snippet_length_stats
        assert (s.min, s.max, s.mean, s.median, s.stddev) == (12, 12, 12.0, 12.0, 0.0)
        assert stats.single_line_count == 1
        assert stats.multi_line_count == 0

    def test_fixture_corpus_counts(self, fixture_corpus):
        stats = compute_stats(fixture_corpus)
        assert stats.total_records == 12
        assert stats.single_line_count == 6
        assert stats.multi_line_count == 6
        assert stats.per_article_counts == {5: 2, 6: 3, 7: 1, 9: 1, 25: 1, 32: 4}
        assert stats.per_extension_counts == {
            ".cs": 1,
            ".java": 3,
            ".js": 2,
            ".json": 1,
            ".kt": 2,
            ".php": 2,
            ".xml": 1,
        }

    def test_fixture_length_stats_match_hand_derived_lengths(self, raw_fixture_objects):
        # Lengths read straight from the raw JSON, bypassing the loader.
        snippet_lengths = [len(o["code_snippet"]) for o in raw_fixture_objects]
        note_lengths = [len(o["annotation_note"]) for o in raw_fixture_objects]
        assert snippet_lengths == [62, 62, 399, 71, 387, 82, 137, 124, 247, 247, 208, 480]
        assert note_lengths == [127, 104, 69, 140, 92, 219, 84, 90, 88, 125, 172, 124]

        stats = compute_stats(load_corpus_from_objects(raw_fixture_objects))
        for lengths, got in (
            (snippet_lengths, stats.snippet_length_stats),
            (note_lengths, stats.note_length_stats),
        ):
            assert got.min == min(lengths)
            assert got.max == max(lengths)
            assert got.mean == pytest.approx(statistics.mean(lengths), abs=1e-12)
            assert got.median == pytest.approx(statistics.median(lengths), abs=1e-12)
            assert got.stddev == pytest.approx(statistics.pstdev(lengths), abs=1e-12)

    def test_absent_span_counts_as_multi_line_by_default(self, fixture_corpus):
        unspanned = [r for r in fixture_corpus if r.code_snippet_path == "web/src/analytics.js"]
        malformed = dataclasses.replace(unspanned[0], code_snippet_path="web/src/a.js: line 0")
        stats = compute_stats(unspanned + [malformed])
        assert (stats.single_line_count, stats.multi_line_count) == (0, 2)
        assert stats.per_extension_counts == {".js": 1, ".js: line 0": 1}


def load_corpus_from_objects(objs: list[dict]):
    from gdprkit.corpus import _record_from_obj

    return [_record_from_obj(o, i) for i, o in enumerate(objs)]
