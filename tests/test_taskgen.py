"""Task dataset builders: grouping, module naming, serialization."""

import json
import logging

import pytest

from gdprkit.corpus import ViolationRecord
from gdprkit.errors import InputError
from gdprkit.taskgen import (
    Task1Entry,
    Task2Entry,
    build_task1,
    build_task2,
    dump_entries,
    entries_json,
    load_task1,
    load_task2,
)
from tests.conftest import GOLDEN_DIR

VALID_COMMIT = "cd" * 20


def record(path: str, article: int, snippet: str = "foo();\n", note: str = "A note.") -> ViolationRecord:
    return ViolationRecord(
        app_name="Demo",
        repo_url="https://github.com/x/demo",
        commit_id=VALID_COMMIT,
        violated_article=article,
        code_snippet_path=path,
        code_snippet=snippet,
        annotation_note=note,
    )


class TestBuildTask1:
    def test_camera_pair_collapses_to_one_entry(self, camera_record_pair):
        entries = build_task1(camera_record_pair)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.file_level == frozenset({6, 32})
        assert len(entry.line_level) == 1
        lv = entry.line_level[0]
        assert (lv.span.start_line, lv.span.end_line) == (202, 202)
        assert lv.articles == frozenset({6, 32})

    def test_empty_corpus(self):
        assert build_task1([]) == []

    def test_fixture_corpus_yields_seven_entries(self, fixture_corpus):
        entries = build_task1(fixture_corpus)
        assert len(entries) == 7
        hawk = next(e for e in entries if e.app_name == "HawkCam")
        assert hawk.file_level == frozenset({6, 32})
        assert hawk.module_level == {"MainActivity2": frozenset({6, 32})}
        assert [
            ((lv.span.start_line, lv.span.end_line), set(lv.articles))
            for lv in hawk.line_level
        ] == [((150, 160), {6}), ((202, 202), {6, 32})]

    def test_entries_sorted_by_group_key(self, fixture_corpus):
        entries = build_task1(fixture_corpus)
        keys = [(e.repo_url, e.app_name, e.file_path) for e in entries]
        assert keys == sorted(keys)

    def test_module_is_named_after_the_file_stem(self):
        recs = [
            record("a/b/Other.java: line 3", 6, snippet="public class CameraService {\n"),
            record("config/settings.json", 32, snippet='{"k": 1}\n'),
        ]
        assert [e.module_level for e in build_task1(recs)] == [
            {"Other": frozenset({6})},
            {"settings": frozenset({32})},
        ]

    def test_unspanned_record_contributes_file_level_only(self):
        entries = build_task1([record("src/a.js", 5)])
        assert entries[0].file_level == frozenset({5})
        assert entries[0].line_level == ()

    def test_input_order_does_not_change_labels(self, fixture_corpus):
        forward = build_task1(list(fixture_corpus))
        backward = build_task1(list(reversed(fixture_corpus)))

        def shape(entries):
            return [
                (
                    e.file_path,
                    e.file_level,
                    e.module_level,
                    [(lv.span, lv.articles) for lv in e.line_level],
                )
                for e in entries
            ]

        assert shape(forward) == shape(backward)


class TestBuildTask2:
    def test_camera_pair_collapses_to_multilabel_entry(self, camera_record_pair):
        entries = build_task2(camera_record_pair)
        assert len(entries) == 1
        assert entries[0].violated_articles == (6, 32)

    def test_singleton(self):
        entries = build_task2([record("src/a.kt: line 3", 5)])
        assert len(entries) == 1
        assert entries[0].violated_articles == (5,)

    def test_fixture_corpus_yields_ten_entries(self, fixture_corpus):
        entries = build_task2(fixture_corpus)
        assert len(entries) == 10
        first = entries[0]
        assert first.code_snippet_path.endswith("MainActivity2.java: line 202")
        assert first.violated_articles == (6, 32)

    def test_first_appearance_order_kept(self, fixture_corpus):
        entries = build_task2(fixture_corpus)
        seen = []
        for r in fixture_corpus:
            if r.code_snippet_path not in seen:
                seen.append(r.code_snippet_path)
        assert [e.code_snippet_path for e in entries] == seen

    def test_conflicting_snippet_text_warns_and_keeps_first(self, caplog):
        recs = [
            record("src/a.kt: line 3", 5, snippet="first();\n"),
            record("src/a.kt: line 3", 6, snippet="second();\n"),
        ]
        with caplog.at_level(logging.WARNING, logger="gdprkit.taskgen"):
            entries = build_task2(recs)
        assert entries[0].code_snippet == "first();\n"
        assert entries[0].violated_articles == (5, 6)
        assert any("conflicting" in m for m in caplog.messages)


class TestSerialization:
    def test_task1_round_trip(self, tmp_path, fixture_corpus):
        entries = build_task1(fixture_corpus)
        path = tmp_path / "task1.json"
        dump_entries(entries, path)
        loaded = load_task1(path)
        assert loaded == entries
        assert all(isinstance(e, Task1Entry) for e in loaded)

    def test_task2_round_trip(self, tmp_path, fixture_corpus):
        entries = build_task2(fixture_corpus)
        path = tmp_path / "task2.json"
        dump_entries(entries, path)
        loaded = load_task2(path)
        assert loaded == entries
        assert all(isinstance(e, Task2Entry) for e in loaded)

    def test_task1_generation_matches_golden_bytes(self, fixture_corpus):
        golden = (GOLDEN_DIR / "task1_fixture.json").read_text(encoding="utf-8")
        assert entries_json(build_task1(fixture_corpus)) == golden

    def test_task2_generation_matches_golden_bytes(self, fixture_corpus):
        golden = (GOLDEN_DIR / "task2_fixture.json").read_text(encoding="utf-8")
        assert entries_json(build_task2(fixture_corpus)) == golden

    def test_repeated_generation_is_byte_stable(self, fixture_corpus):
        first = entries_json(build_task1(fixture_corpus))
        second = entries_json(build_task1(fixture_corpus))
        assert first == second
        assert entries_json(build_task2(fixture_corpus)) == entries_json(
            build_task2(fixture_corpus)
        )


class TestLoadValidation:
    """A stored dataset of the wrong shape is an InputError naming the entry and key."""

    @pytest.mark.parametrize("task", [1, 2])
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda entries: {"entries": entries}, "expected a JSON array of entries, got dict"),
            (lambda entries: [entries[0], "t2-0002"], "entry 1: expected a JSON object, got str"),
            (lambda entries: [entries[0], {k: v for k, v in entries[1].items() if k != "app_name"}],
             "entry 1: missing key 'app_name'"),
            (lambda entries: [entries[0], {**entries[1], "file_level": 5, "violated_articles": 5}],
             "entry 1: 'int' object is not iterable"),
        ],
        ids=["not-an-array", "entry-not-an-object", "missing-key", "wrong-type"],
    )
    def test_malformed_dataset_rejected(self, tmp_path, task, damage, message):
        entries = json.loads((GOLDEN_DIR / f"task{task}_fixture.json").read_text(encoding="utf-8"))
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(damage(entries)), encoding="utf-8")
        with pytest.raises(InputError, match=message):
            (load_task1 if task == 1 else load_task2)(path)

    @pytest.mark.parametrize("label", ["6", True, 0, -2, 6.0, None], ids=repr)
    @pytest.mark.parametrize(
        "task, field",
        [(1, "file_level"), (1, "module_level"), (1, "line_level"), (2, "violated_articles")],
    )
    def test_label_that_is_not_an_article_number_rejected(self, tmp_path, task, field, label):
        entries = json.loads((GOLDEN_DIR / f"task{task}_fixture.json").read_text(encoding="utf-8"))
        entry = entries[1]
        if field == "module_level":
            name = next(iter(entry["module_level"]))
            entry["module_level"][name] = [5, label]
            field = f"module_level[{name!r}]"
        elif field == "line_level":
            entry["line_level"][0]["articles"] = [5, label]
            field = "line_level[0].articles"
        else:
            entry[field] = [5, label]
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(InputError) as raised:
            (load_task1 if task == 1 else load_task2)(path)
        assert str(raised.value) == (
            f"{path}: entry 1: {field} must hold positive integer article numbers, got {label!r}"
        )

    @pytest.mark.parametrize(
        "lines",
        [{"start_line": True, "end_line": True}, {"start_line": 2.5, "end_line": 2.5}, {"start_line": 0}],
        ids=["bool", "float", "zero"],
    )
    def test_line_span_that_is_not_a_line_range_rejected(self, tmp_path, lines):
        entries = json.loads((GOLDEN_DIR / "task1_fixture.json").read_text(encoding="utf-8"))
        span = entries[1]["line_level"][0]["span"]
        span.update(lines)
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(InputError) as raised:
            load_task1(path)
        assert str(raised.value) == (
            f"{path}: entry 1: invalid span ({span['start_line']!r}, {span['end_line']!r}) "
            f"for {span['file_path']!r}"
        )

    @pytest.mark.parametrize("task, field", [(1, "file_level"), (2, "violated_articles")])
    def test_labels_that_are_not_an_array_rejected(self, tmp_path, task, field):
        entries = json.loads((GOLDEN_DIR / f"task{task}_fixture.json").read_text(encoding="utf-8"))
        entries[0][field] = "56"
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(InputError) as raised:
            (load_task1 if task == 1 else load_task2)(path)
        assert str(raised.value) == f"{path}: entry 0: {field} must be an array of article numbers, got str"
