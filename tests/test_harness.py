"""Run orchestration: instance catalogs, prediction, evaluation, artifacts."""

import dataclasses
import hashlib
import json
import os
import sqlite3
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdprkit import engine, harness, knowledge, methods
from gdprkit.corpus import SpanRef, ViolationRecord, group_by_file, load_corpus, read_json, write_atomic
from gdprkit.errors import (
    ConfigurationError,
    InputError,
    MethodError,
    ReconciliationError,
    ReplayMissError,
)
from gdprkit.harness import (
    PredictionRecord,
    RunConfig,
    emit_report,
    evaluate_run,
    load_predictions,
    predict_task1,
    predict_task2,
    reconstruct_source,
    run,
    score,
    task1_instances,
    task2_instances,
)
from gdprkit.taskgen import build_task1, build_task2, dump_entries, load_task1, load_task2
from tests.conftest import DATA_DIR


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("harness")
    corpus_path = DATA_DIR / "fixture_corpus.json"
    corpus = load_corpus(corpus_path)
    task1_path = root / "task1.json"
    task2_path = root / "task2.json"
    dump_entries(build_task1(corpus), task1_path)
    dump_entries(build_task2(corpus), task2_path)
    return {
        "root": root,
        "corpus_path": str(corpus_path),
        "task1": str(task1_path),
        "task2": str(task2_path),
    }


def formal_config(workspace, task: int, **fields) -> RunConfig:
    """A formal run over the fixture dataset of ``task``."""
    corpus = {"corpus_path": workspace["corpus_path"]} if task == 1 else {}
    return RunConfig(task=task, method="formal", dataset_path=workspace[f"task{task}"], **corpus, **fields)


def one_file(records):
    """The (record, span) pairs of ``records``, which all lie in one file."""
    (group,) = group_by_file(records).values()
    return group


def _reference_reconstruct(group):
    """Source reconstruction line by line: a dict of placed lines, then the buffer."""
    placed, tail = {}, []
    for record, span in group:
        lines = record.code_snippet.removesuffix("\n").split("\n")
        if span is None:
            tail.extend(lines)
            continue
        for offset, text in enumerate(lines):
            placed.setdefault(span.start_line + offset, text)
    buffer = [placed.get(i, "") for i in range(1, max(placed, default=0) + 1)] + tail
    return "\n".join(buffer or [""]), len(buffer or [""])


_snippet_lines = st.lists(st.sampled_from(["", "a();", "b = 1;", "}"]), min_size=1, max_size=4)
_placements = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(1, 12)), _snippet_lines, st.booleans()), max_size=8
)


class TestReconstructSource:
    @given(placements=_placements)
    @settings(max_examples=300, deadline=None)
    def test_equals_line_by_line_placement(self, placements):
        """Overlapping, unspanned and newline-terminated snippets land as the per-line loop put them."""
        group = []
        for i, (start, lines, final_newline) in enumerate(placements):
            snippet = "\n".join(f"{line} // {i}" for line in lines) + ("\n" if final_newline else "")
            record = ViolationRecord("App", "https://example.org/app", "0" * 40, 6, "A.java", snippet, "note")
            span = None if start is None else SpanRef("A.java", start, start + len(lines) - 1)
            group.append((record, span))
        assert reconstruct_source(group) == _reference_reconstruct(group)

    def test_lines_land_at_recorded_positions(self, camera_record_pair):
        source, line_count = reconstruct_source(one_file(camera_record_pair))
        lines = source.split("\n")
        assert line_count == 202
        assert "openCamera" in lines[201]
        assert lines[0] == ""

    def test_unspanned_snippets_append_after_placed(self, fixture_corpus):
        shoppulse = [r for r in fixture_corpus if r.app_name == "ShopPulse"][:2]
        spanned, unspanned = shoppulse
        assert "line 12" in spanned.code_snippet_path
        source, _ = reconstruct_source(one_file([spanned, unspanned]))
        assert source.index(spanned.code_snippet.strip()) < source.index(
            unspanned.code_snippet.splitlines()[0]
        )

    def test_empty_group(self):
        assert reconstruct_source([]) == ("", 1)

    def test_first_record_wins_shared_lines(self, camera_record_pair):
        source, _ = reconstruct_source(one_file(camera_record_pair))
        assert source.count("openCamera") == 1

    def test_only_newline_ends_a_line(self, camera_record_pair):
        # str.splitlines also breaks at these, which no other layer does
        for separator in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029":
            first = dataclasses.replace(
                camera_record_pair[0],
                code_snippet_path="A.js: lines 1-2",
                code_snippet=f'var s = "x{separator}y";\nsend(s);\n',
            )
            second = dataclasses.replace(first, code_snippet_path="A.js: line 3", code_snippet="log(s);")
            source, line_count = reconstruct_source(one_file([first, second]))
            assert source.split("\n") == [f'var s = "x{separator}y";', "send(s);", "log(s);"]
            assert line_count == 3


class TestInstanceCatalogs:
    def test_task1_fixture_instance_count(self, workspace):
        entries = load_task1(workspace["task1"])
        instances = task1_instances(entries)
        by_granularity = {}
        for inst in instances:
            by_granularity.setdefault(inst.granularity, []).append(inst)
        assert len(by_granularity["file"]) == 7
        assert len(by_granularity["module"]) == 7
        assert len(by_granularity["line"]) == 9
        assert len(instances) == 23

    def test_task1_instance_ids_are_stable_and_unique(self, workspace):
        entries = load_task1(workspace["task1"])
        ids = [inst.instance_id for inst in task1_instances(entries)]
        assert len(ids) == len(set(ids))
        assert ids[0] == "t1-0001::file"
        assert any("::line::202-202" in i for i in ids)

    def test_task2_fixture_instances(self, workspace):
        entries = load_task2(workspace["task2"])
        instances = task2_instances(entries)
        assert len(instances) == 10
        assert instances[0].instance_id == "t2-0001"
        assert instances[0].ground_truth == frozenset({6, 32})


@pytest.fixture(scope="module")
def seed1_workspace(tmp_path_factory, seed1_corpus_path, seed1_corpus):
    root = tmp_path_factory.mktemp("harness-seed1")
    dump_entries(build_task1(seed1_corpus), root / "task1.json")
    dump_entries(build_task2(seed1_corpus), root / "task2.json")
    return {
        "root": root,
        "corpus_path": str(seed1_corpus_path),
        "task1": str(root / "task1.json"),
        "task2": str(root / "task2.json"),
    }


class TestFormalRuns:
    def test_task2_formal_end_to_end(self, workspace):
        config = RunConfig(
            task=2,
            method="formal",
            dataset_path=workspace["task2"],
            output_dir=str(workspace["root"] / "t2-formal"),
        )
        result = run(config)
        counts = result.manifest["counts"]
        assert counts == {"scored": 10, "errored": 0, "skipped": 0}
        labels = result.report.labels
        assert labels.accuracy == pytest.approx(0.75, abs=1e-9)
        assert labels.macro_precision == pytest.approx(0.457143, abs=1e-6)
        assert labels.macro_recall == pytest.approx(0.652778, abs=1e-6)
        assert labels.macro_f1 == pytest.approx(0.497222, abs=1e-6)
        out = result.output_dir
        for name in ("predictions.json", "manifest.json", "report.json", "report.md"):
            assert (out / name).exists()
        # per-instance status and reasons live in predictions.json alone
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest) == ["version", "config", "datasets", "counts", "counters", "timings"]
        assert manifest["counters"] == {"cache_hits": 0, "cache_misses": 0}

    def test_task1_rankings_do_not_depend_on_the_other_files_of_the_dataset(self, seed1_corpus):
        """A dataset of every third file ranks each (file, granularity, span) as the full one does."""
        entries = build_task1(seed1_corpus)
        method = methods.FormalMethod(None)

        def rankings(part):
            records = {r.instance_id: r for r in predict_task1(part, task1_instances(part), seed1_corpus, method)}
            out = {}
            for inst in task1_instances(part):
                entry = part[inst.entry_index]
                scope = inst.instance_id.split("::", 1)[1]  # granularity, then module name or span
                record = records[inst.instance_id]
                out[entry.repo_url, entry.app_name, entry.file_path, scope] = (record.status, record.ranking)
            return out

        full, part = rankings(entries), rankings(entries[::3])
        assert len(part) > 500 and len(full) > 2 * len(part)
        assert part == {key: full[key] for key in part}

    def test_task1_formal_end_to_end(self, workspace):
        config = RunConfig(
            task=1,
            method="formal",
            dataset_path=workspace["task1"],
            corpus_path=workspace["corpus_path"],
            output_dir=str(workspace["root"] / "t1-formal"),
        )
        result = run(config)
        assert result.manifest["counts"] == {"scored": 23, "errored": 0, "skipped": 0}
        ranking = result.report.ranking
        assert ranking["file"].n_instances == 7
        assert ranking["file"].accuracy_at[1] == pytest.approx(2 / 7, abs=1e-9)
        assert ranking["file"].accuracy_at[5] == pytest.approx(6 / 7, abs=1e-9)
        assert ranking["line"].n_instances == 9
        assert ranking["line"].accuracy_at[1] == pytest.approx(4 / 9, abs=1e-9)
        assert ranking["line"].accuracy_at[5] == pytest.approx(7 / 9, abs=1e-9)

    def test_task1_extracts_facts_once_per_entry(self, workspace, monkeypatch):
        sources = []
        extract = engine.extract_facts

        def counted(source, language):
            sources.append(source)
            return extract(source, language)

        monkeypatch.setattr(engine, "extract_facts", counted)
        engine._facts_of.cache_clear()
        result = run(formal_config(workspace, 1, output_dir=str(workspace["root"] / "t1-extract-once")))
        assert result.manifest["counts"] == {"scored": 23, "errored": 0, "skipped": 0}
        assert len(sources) == len(set(sources)) == 7

    @pytest.mark.parametrize("task, scored", [(1, 23), (2, 10)])
    def test_empty_rule_file_gives_empty_rankings(self, workspace, tmp_path, task, scored):
        """An explicitly empty rule catalog is used as given, not replaced by the default one."""
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": []}), encoding="utf-8")
        result = run(
            RunConfig(
                task=task,
                method="formal",
                dataset_path=workspace[f"task{task}"],
                corpus_path=workspace["corpus_path"],
                rules_path=str(rules),
                output_dir=str(tmp_path / "out"),
            )
        )
        assert result.manifest["counts"] == {"scored": scored, "errored": 0, "skipped": 0}
        predictions = json.loads((result.output_dir / "predictions.json").read_text(encoding="utf-8"))
        assert [p["ranking"] for p in predictions["predictions"]] == [[]] * scored

    def test_accuracy_never_decreases_with_k(self, workspace):
        config = RunConfig(
            task=1,
            method="formal",
            dataset_path=workspace["task1"],
            corpus_path=workspace["corpus_path"],
            output_dir=str(workspace["root"] / "t1-mono"),
        )
        result = run(config)
        for metrics in result.report.ranking.values():
            values = [metrics.accuracy_at[k] for k in sorted(metrics.accuracy_at)]
            assert values == sorted(values)

    def test_repeated_runs_are_byte_identical_except_timings(self, workspace):
        outputs = []
        for i in range(2):
            out = workspace["root"] / f"t2-repeat-{i}"
            run(
                RunConfig(
                    task=2,
                    method="formal",
                    dataset_path=workspace["task2"],
                    output_dir=str(out),
                )
            )
            outputs.append(out)
        a, b = outputs
        for name in ("predictions.json", "report.json", "report.md"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("timings")
        mb.pop("timings")
        ma["config"].pop("output_dir")
        mb["config"].pop("output_dir")
        assert ma == mb

    @pytest.mark.parametrize("task", [1, 2])
    def test_one_instance_list_per_run(self, workspace, monkeypatch, task):
        """A run lists its instances once; its directory still re-scores to its report."""
        name = f"task{task}_instances"
        listed = getattr(harness, name)
        calls = []

        def counted(entries):
            calls.append(len(entries))
            return listed(entries)

        monkeypatch.setattr(harness, name, counted)
        result = run(formal_config(workspace, task, output_dir=str(workspace["root"] / f"t{task}-one-list")))
        assert len(calls) == 1
        report = (result.output_dir / "report.json").read_text(encoding="utf-8")
        assert emit_report(evaluate_run(result.output_dir), "json") == report

    def test_manifest_digests_are_of_the_bytes_the_run_read(self, workspace, tmp_path, monkeypatch):
        """A corpus rewritten after load_corpus read it keeps the digest of the bytes scored."""
        scored = Path(workspace["corpus_path"]).read_bytes()
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_bytes(scored)
        load_corpus = harness.load_corpus

        def load_then_rewrite(path, **kwargs):
            records = load_corpus(path, **kwargs)
            Path(path).write_bytes(scored + b"\n")  # still the same corpus, in other bytes
            return records

        monkeypatch.setattr(harness, "load_corpus", load_then_rewrite)
        config = RunConfig(
            task=1,
            method="formal",
            dataset_path=workspace["task1"],
            corpus_path=str(corpus_path),
            rules_path=str(engine._DATA_DIR / "rules.json"),
            articles_path=str(knowledge._DATA_DIR / "articles.json"),
            output_dir=str(tmp_path / "out"),
        )
        datasets = run(config).manifest["datasets"]
        assert datasets.pop("corpus") == {"path": str(corpus_path), "sha256": hashlib.sha256(scored).hexdigest()}
        assert list(datasets) == ["dataset", "rules", "articles"]
        for entry in datasets.values():
            assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()


class TestModuleInstances:
    @pytest.mark.parametrize("method", ["formal", "zero_shot"])
    def test_module_records_equal_their_file_record(self, workspace, monkeypatch, method):
        reasoners = []

        def prompt_dependent_stub(model):
            # answers differ between prompts, so equal records mean equal predictions
            reasoner = methods.ScriptedReasoner(
                lambda prompt: ("5", "6", "25", "32")[
                    hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 4
                ],
                reasoner_id=f"stub:{model}",
            )
            reasoners.append(reasoner)
            return reasoner

        monkeypatch.setattr(harness, "StubReasoner", prompt_dependent_stub)
        out = workspace["root"] / f"t1-modules-{method}"
        run(
            RunConfig(
                task=1,
                method=method,
                dataset_path=workspace["task1"],
                corpus_path=workspace["corpus_path"],
                output_dir=str(out),
            )
        )
        records = json.loads((out / "predictions.json").read_text(encoding="utf-8"))["predictions"]
        by_id = {r["instance_id"]: r for r in records}
        modules = [r for r in records if "::module::" in r["instance_id"]]
        assert len(modules) == 7
        for record in modules:
            file_id = record["instance_id"].split("::module::")[0] + "::file"
            assert {**record, "instance_id": file_id} == by_id[file_id]
        assert len({tuple(r["ranking"]) for r in records}) > 1
        # a prompted method sends each distinct text once: 7 files and 9 line spans
        calls = [prompt for reasoner in reasoners for prompt in reasoner.calls]
        assert len(calls) == len(set(calls)) == {"formal": 0, "zero_shot": 16}[method]


class TestStubZeroShot:
    def test_stub_answers_empty_for_every_snippet(self, workspace):
        config = RunConfig(
            task=2,
            method="zero_shot",
            dataset_path=workspace["task2"],
            reasoner="stub",
            output_dir=str(workspace["root"] / "t2-stub"),
        )
        result = run(config)
        assert result.manifest["counts"]["scored"] == 10
        assert all(r.labels == () for r in result.records)
        assert result.report.labels.accuracy == pytest.approx(0.8, abs=1e-9)

    def test_stub_binding_keeps_no_prompt(self, workspace, monkeypatch):
        built = []
        build = harness._build_reasoner

        def recorded(config, cache):
            built.append(build(config, cache))
            return built[-1]

        monkeypatch.setattr(harness, "_build_reasoner", recorded)
        config = RunConfig(
            task=2,
            method="zero_shot",
            dataset_path=workspace["task2"],
            reasoner="stub",
            output_dir=str(workspace["root"] / "t2-stub-keeps-nothing"),
        )
        assert run(config).manifest["counts"]["scored"] == 10
        assert [vars(reasoner) for reasoner in built] == [{"reasoner_id": "stub:default"}]

    def test_stub_runs_are_deterministic(self, workspace):
        paths = []
        for i in range(2):
            out = workspace["root"] / f"t2-stub-repeat-{i}"
            run(
                RunConfig(
                    task=2,
                    method="zero_shot",
                    dataset_path=workspace["task2"],
                    reasoner="stub",
                    output_dir=str(out),
                )
            )
            paths.append(out / "predictions.json")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_articles_file_is_read_once(self, workspace, monkeypatch):
        articles = str(knowledge._DATA_DIR / "articles.json")
        paths = []
        load_articles = harness.load_articles

        def counted(path, **kwargs):
            paths.append(path)
            return load_articles(path, **kwargs)

        monkeypatch.setattr(harness, "load_articles", counted)
        result = run(
            RunConfig(
                task=2,
                method="zero_shot",
                dataset_path=workspace["task2"],
                reasoner="stub",
                articles_path=articles,
                output_dir=str(workspace["root"] / "t2-stub-catalog"),
            )
        )
        assert paths == [articles]
        assert result.manifest["counts"]["scored"] == 10


class TestCachingAndReplay:
    def test_cached_run_then_replay(self, workspace):
        cache_dir = workspace["root"] / "cache"
        first = RunConfig(
            task=2,
            method="zero_shot",
            dataset_path=workspace["task2"],
            reasoner="stub",
            cache_dir=str(cache_dir),
            output_dir=str(workspace["root"] / "t2-cached"),
        )
        run(first)
        replay = RunConfig(
            task=2,
            method="zero_shot",
            dataset_path=workspace["task2"],
            reasoner="cache_replay",
            cache_dir=str(cache_dir),
            replay_reasoner_id="stub:default",
            output_dir=str(workspace["root"] / "t2-replay"),
        )
        result = run(replay)
        assert result.manifest["counts"] == {"scored": 10, "errored": 0, "skipped": 0}

    @staticmethod
    def _record(workspace, root, task, method):
        """Record a stub run into ``root / "cache"``; return the fields a replay shares."""
        common = dict(
            task=task,
            method=method,
            dataset_path=workspace[f"task{task}"],
            corpus_path=workspace["corpus_path"],
            cache_dir=str(root / "cache"),
        )
        run(RunConfig(reasoner="stub", output_dir=str(root / "record"), **common))
        return dict(common, reasoner="cache_replay", replay_reasoner_id="stub:default")

    @pytest.mark.parametrize("task", [1, 2])
    @pytest.mark.parametrize("method", ["zero_shot", "rag", "react"])
    def test_replay_lists_every_missing_key(self, workspace, method, task):
        root = workspace["root"] / f"partial-{method}-{task}"
        replay = self._record(workspace, root, task, method)
        db = sqlite3.connect(root / "cache" / "responses.sqlite3")
        with db:
            deleted = [key for (key,) in db.execute("SELECT key FROM responses ORDER BY key")][::2]
            db.executemany("DELETE FROM responses WHERE key = ?", [(key,) for key in deleted])
        db.close()
        out = root / "replay"
        with pytest.raises(ReplayMissError) as err:
            run(RunConfig(output_dir=str(out), **replay))
        # the stub answers "0", so each ReAct transcript is its first prompt
        assert sorted(err.value.missing_keys) == sorted(deleted)
        assert not (out / "predictions.json").exists()

    @pytest.mark.parametrize("span_answer", [None, "banana"])
    def test_replay_miss_lists_every_scope(self, tmp_path, fixture_corpus, span_answer):
        """Each scope the cache lacks is listed; an unparseable answer to another scope cannot hide them."""
        entries = build_task1(fixture_corpus)
        recorder = methods.ScriptedReasoner(lambda prompt: "0")
        predict_task1(entries, task1_instances(entries), fixture_corpus, methods.ZeroShotMethod(recorder))
        keys = [methods.ResponseCache.cache_key("run1", prompt) for prompt in recorder.calls]
        assert len(keys) == len(set(keys)) == 16  # 7 files and 9 line spans
        cache = methods.ResponseCache(tmp_path)
        if span_answer is not None:
            # the first line span of the first file; its file's second span comes next
            cache.put("run1", recorder.calls[1], span_answer)
        method = methods.ZeroShotMethod(methods.CacheReplayReasoner(cache, "run1"))
        with pytest.raises(ReplayMissError) as err:
            predict_task1(entries, task1_instances(entries), fixture_corpus, method)
        assert err.value.missing_keys == (keys if span_answer is None else keys[:1] + keys[2:])
        cache.close()

    @pytest.mark.parametrize("task", [1, 2])
    def test_replay_from_missing_cache_dir_lists_every_key_and_creates_nothing(self, workspace, task):
        root = workspace["root"] / f"absent-{task}"
        replay = self._record(workspace, root, task, "zero_shot")
        # the recording run closed its connection, which folds the WAL back into the file
        assert os.listdir(root / "cache") == ["responses.sqlite3"]
        db = sqlite3.connect(root / "cache" / "responses.sqlite3")
        recorded = [key for (key,) in db.execute("SELECT key FROM responses")]
        db.close()
        absent = root / "absent" / "cache"
        with pytest.raises(ReplayMissError) as err:
            run(RunConfig(output_dir=str(root / "replay"), **dict(replay, cache_dir=str(absent))))
        assert sorted(err.value.missing_keys) == sorted(recorded)
        assert not absent.parent.exists()

    @pytest.mark.parametrize("reasoner", ["stub", "cache_replay"])
    def test_old_format_cache_dir_is_refused(self, workspace, reasoner):
        cache_dir = workspace["root"] / f"old-format-{reasoner}"
        cache_dir.mkdir()
        old_entry = cache_dir / f"{'0' * 64}.json"
        old_entry.write_text('{"response": "6"}\n', encoding="utf-8")
        config = RunConfig(
            task=2,
            method="zero_shot",
            dataset_path=workspace["task2"],
            reasoner=reasoner,
            cache_dir=str(cache_dir),
            output_dir=str(cache_dir / "out"),
        )
        with pytest.raises(ConfigurationError, match="old-format"):
            run(config)
        assert sorted(cache_dir.iterdir()) == [old_entry]

    @pytest.mark.parametrize("task", [1, 2])
    def test_cache_dir_that_is_the_output_dir_replays(self, workspace, task):
        """A run's own *.json artifacts in its cache_dir are not old-format cache entries."""
        out = workspace["root"] / f"cache-is-output-{task}"
        common = dict(
            task=task,
            method="zero_shot",
            dataset_path=workspace[f"task{task}"],
            corpus_path=workspace["corpus_path"],
            cache_dir=str(out),
            output_dir=str(out),
        )
        run(RunConfig(reasoner="stub", **common))
        recorded = {name: (out / name).read_bytes() for name in ("predictions.json", "report.json")}
        run(RunConfig(reasoner="cache_replay", replay_reasoner_id="stub:default", **common))
        assert {name: (out / name).read_bytes() for name in recorded} == recorded

    def test_rag_replay_retrieves_once_per_instance(self, workspace, monkeypatch):
        root = workspace["root"] / "rag-retrievals"
        replay = self._record(workspace, root, 2, "rag")
        queries = []
        retrieve = knowledge.KnowledgeBase.retrieve

        def counted(self, query, top_n):
            queries.append(query)
            return retrieve(self, query, top_n)

        monkeypatch.setattr(knowledge.KnowledgeBase, "retrieve", counted)
        result = run(RunConfig(output_dir=str(root / "replay"), **replay))
        assert result.manifest["counts"]["scored"] == len(queries) == 10

    @pytest.mark.parametrize("method", ["zero_shot", "rag", "react"])
    @pytest.mark.parametrize(
        "workspace_name, hits, misses",
        [("workspace", 7, 3), ("seed1_workspace", 887, 0)],
    )
    def test_task2_replays_from_a_task1_recording(self, request, method, workspace_name, hits, misses):
        """A task-2 snippet is sent as the task-1 prompt of its span, so after a
        task-1 recording a task-2 replay misses only the snippets that are not
        the lines of their span: on the fixture, one without a span and two
        with more lines than their span."""
        space = request.getfixturevalue(workspace_name)
        root = space["root"] / f"cross-task-{method}"
        replay = dict(self._record(space, root, 1, method), task=2, dataset_path=space["task2"])
        task1_keys = self._keys(root / "cache")
        missing = []
        try:
            result = run(RunConfig(output_dir=str(root / "replay"), **replay))
            assert result.manifest["counters"] == {"cache_hits": 0, "cache_misses": 0}  # no caching binding
        except ReplayMissError as err:
            missing = err.missing_keys
        recorded = run(RunConfig(**dict(replay, reasoner="stub", output_dir=str(root / "task2"))))
        assert sorted(missing) == sorted(self._keys(root / "cache") - task1_keys)
        assert recorded.manifest["counters"] == {"cache_hits": hits, "cache_misses": misses}

    @staticmethod
    def _keys(cache_dir) -> set[str]:
        db = sqlite3.connect(cache_dir / "responses.sqlite3")
        keys = {key for (key,) in db.execute("SELECT key FROM responses")}
        db.close()
        return keys


def test_offline_runs_never_import_requests(workspace, tmp_path):
    """Formal, stub and replay runs load no HTTP stack: only the live reasoner imports it.
    Formal runs, started from the CLI module, also load no SQLite, datetime or statistics."""
    common = {"dataset_path": workspace["task2"], "corpus_path": workspace["corpus_path"], "task": 2}
    cache = {"method": "zero_shot", "cache_dir": str(tmp_path / "cache")}
    formal = [
        dict(common, method="formal", task=1, dataset_path=workspace["task1"]),
        dict(common, method="formal"),
    ]
    cached = [
        dict(common, reasoner="stub", **cache),
        dict(common, reasoner="cache_replay", replay_reasoner_id="stub:default", **cache),
    ]
    script = (
        "import json, sys\n"
        "import gdprkit.cli\n"
        "from gdprkit.harness import RunConfig, run\n"
        "for config in json.loads(sys.argv[1]):\n"
        "    counts = run(RunConfig(**config)).manifest['counts']\n"
        "    assert counts['scored'] > 0 and counts['errored'] == 0, counts\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in json.loads(sys.argv[2]))))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    for i, (configs, unwanted) in enumerate(
        [(formal, ["sqlite3", "datetime", "statistics", "requests"]), (cached, ["requests"])]
    ):
        for j, config in enumerate(configs):
            config["output_dir"] = str(tmp_path / f"run{i}-{j}")
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(configs), json.dumps(unwanted)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class FailingMethod:
    def __init__(self, error=None):
        self.error = error or MethodError("model exploded")

    def predict_labels(self, snippet, language="java"):
        raise self.error

    def rank(self, text, language, *, span=None):
        raise self.error


class TestAtomicArtifacts:
    """A write that fails before its rename leaves the old file whole and no temporary file."""

    ARTIFACTS = ("predictions.json", "manifest.json", "report.json", "report.md")

    def _write(self, writer, workspace, out):
        """Call ``writer`` on ``out`` and return the files it writes."""
        corpus = load_corpus(workspace["corpus_path"])
        if writer == "run":
            run(RunConfig(task=2, method="formal", dataset_path=workspace["task2"], output_dir=str(out)))
            return [out / name for name in self.ARTIFACTS]
        dump_entries(build_task2(corpus), out / "task2.json")
        return [out / "task2.json"]

    @pytest.mark.parametrize("writer", ["run", "dump_entries"])
    def test_failed_rename_keeps_old_file(self, workspace, tmp_path, monkeypatch, writer):
        targets = self._write(writer, workspace, tmp_path)
        old = {path: path.read_bytes() for path in targets}

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            self._write(writer, workspace, tmp_path)
        assert {path: path.read_bytes() for path in targets} == old
        assert sorted(tmp_path.iterdir()) == sorted(targets)


def _reference_predictions_json(task, method, records):
    """The predictions.json text as json.dumps lays it out."""
    payload = {
        "version": 1,
        "task": task,
        "method": method,
        "predictions": [
            {
                "instance_id": r.instance_id,
                "status": r.status,
                "ranking": list(r.ranking),
                "labels": list(r.labels),
                "error": r.error,
            }
            for r in sorted(records, key=lambda r: r.instance_id)
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


_ids = st.text(max_size=12) | st.sampled_from(["t1-0001::file", "t2-0001", "t1-ü::line::1-2"])
_articles = st.lists(st.integers(min_value=1, max_value=10**6), max_size=40).map(tuple)
_records = st.builds(
    PredictionRecord,
    instance_id=_ids,
    status=st.sampled_from(harness.STATUSES),
    ranking=_articles,
    labels=_articles,
    error=st.none() | st.text() | st.just('say "hi"\n\tüñ \\ \x00 \u2028'),
)


class TestPredictionsWriter:
    """predictions.json is written without json.dumps, byte for byte as json.dumps wrote it."""

    @given(
        task=st.sampled_from([1, 2]),
        method=st.sampled_from(harness.METHOD_NAMES) | st.text(max_size=5),
        records=st.lists(_records, max_size=8),
    )
    @example(task=1, method="formal", records=[])
    @example(task=2, method="rag", records=[PredictionRecord("t2-0001", "scored", tuple(range(1, 100)))])
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, task, method, records):
        assert harness.predictions_json(task, method, records) == _reference_predictions_json(
            task, method, records
        )


class TestErrorAndSkipPaths:
    def test_method_errors_score_as_empty_predictions(self, workspace):
        entries = load_task2(workspace["task2"])
        instances = task2_instances(entries)
        records = predict_task2(entries, instances, FailingMethod())
        assert all(r.status == "errored" for r in records)
        metrics = score(formal_config(workspace, 2), instances, records)[0].labels
        assert metrics.macro_recall == 0.0
        assert metrics.n_instances == 10

    def test_task1_method_error_marks_entry_instances(self, workspace):
        entries = load_task1(workspace["task1"])
        corpus = load_corpus(workspace["corpus_path"])
        instances = task1_instances(entries)
        records = predict_task1(entries, instances, corpus, FailingMethod())
        assert len(records) == 23
        assert all(r.status == "errored" for r in records)
        report, counts = score(formal_config(workspace, 1), instances, records)
        assert report.ranking["file"].accuracy_at[5] == 0.0
        assert counts == {"scored": 0, "errored": 23, "skipped": 0}

    def test_unparseable_file_answer_errors_only_its_file_and_module(self, workspace):
        """Each line instance is scored from its own prompt, whatever its file's answer."""

        def answer(prompt):
            # every file has at least 7 lines, so every whole-file answer is unparseable
            code = prompt.split(methods.CODE_HEADING + "\n", 1)[1]
            return "banana" if code.count("\n") + 1 >= 5 else "6"

        entries = load_task1(workspace["task1"])
        corpus = load_corpus(workspace["corpus_path"])
        method = methods.ZeroShotMethod(methods.ScriptedReasoner(answer))
        records = predict_task1(entries, task1_instances(entries), corpus, method)
        outcomes = Counter((r.instance_id.split("::")[1], r.status) for r in records)
        assert outcomes == {
            ("file", "errored"): 7,
            ("module", "errored"): 7,
            ("line", "scored"): 5,
            ("line", "errored"): 4,
        }
        long_spans = {"150-160", "120-131", "60-70", "3-7"}
        for r in records:
            if "::line::" in r.instance_id:
                long_span = r.instance_id.rsplit("::", 1)[1] in long_spans
                assert (r.status, r.ranking) == (("errored", ()) if long_span else ("scored", (6,)))

    def test_foreign_exceptions_become_errored_records_named_by_type(self, workspace, caplog):
        method = FailingMethod(TypeError("unsupported operand"))
        entries2 = load_task2(workspace["task2"])
        entries1 = load_task1(workspace["task1"])
        corpus = load_corpus(workspace["corpus_path"])
        records = predict_task2(entries2, task2_instances(entries2), method)
        records += predict_task1(entries1, task1_instances(entries1), corpus, method)
        assert len(records) == 10 + 23
        assert {r.status for r in records} == {"errored"}
        assert {r.error for r in records} == {"TypeError: unsupported operand"}
        assert "Traceback" in caplog.text

    def test_replay_miss_still_aborts_prediction(self, workspace):
        entries = load_task2(workspace["task2"])
        with pytest.raises(ReplayMissError) as err:
            predict_task2(entries, task2_instances(entries), FailingMethod(ReplayMissError(["k"])))
        assert err.value.missing_keys == ["k"]

    def test_out_of_range_span_is_skipped_not_scored(self, tmp_path, fixture_corpus):
        doctored = [r for r in fixture_corpus if r.app_name == "TrackNote"]
        import dataclasses

        # Declare a span reaching past the snippet's own line count, so the
        # reconstructed file cannot cover it.
        broken = dataclasses.replace(
            doctored[1],
            code_snippet_path=doctored[1].code_snippet_path.replace(
                "lines 60-70", "lines 60-95"
            ),
        )
        corpus = [doctored[0], broken]
        corpus_path = tmp_path / "corpus.json"
        write_atomic(corpus_path, json.dumps([dataclasses.asdict(r) for r in corpus]))
        dataset_path = tmp_path / "task1.json"
        dump_entries(build_task1(corpus), dataset_path)
        config = RunConfig(
            task=1,
            method="formal",
            dataset_path=str(dataset_path),
            corpus_path=str(corpus_path),
            output_dir=str(tmp_path / "out"),
        )
        result = run(config)
        counts = result.manifest["counts"]
        assert counts["skipped"] == 1
        assert counts["scored"] + counts["errored"] + counts["skipped"] == 4

    def test_missing_dataset_fails_before_prediction(self, workspace):
        config = RunConfig(
            task=2,
            method="formal",
            dataset_path=str(workspace["root"] / "no-such-file.json"),
        )
        with pytest.raises(OSError):
            run(config)


class TestRunConfig:
    def test_unknown_task_rejected(self, workspace):
        with pytest.raises(ConfigurationError):
            RunConfig(task=3, method="formal", dataset_path=workspace["task2"])

    def test_unknown_method_rejected(self, workspace):
        with pytest.raises(ConfigurationError):
            RunConfig(task=2, method="oracle", dataset_path=workspace["task2"])

    def test_task1_requires_corpus(self, workspace):
        with pytest.raises(ConfigurationError):
            RunConfig(task=1, method="formal", dataset_path=workspace["task1"])

    def test_rag_requires_corpus(self, workspace):
        with pytest.raises(ConfigurationError):
            RunConfig(task=2, method="rag", dataset_path=workspace["task2"])

    def test_replay_requires_cache_dir(self, workspace):
        with pytest.raises(ConfigurationError):
            RunConfig(
                task=2,
                method="zero_shot",
                dataset_path=workspace["task2"],
                reasoner="cache_replay",
            )

    def test_from_file_rejects_unknown_keys(self, tmp_path, workspace):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {"task": 2, "method": "formal", "dataset_path": workspace["task2"], "bogus": 1}
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(read_json(path))

    @pytest.mark.parametrize(
        "inference",
        [{"max_tokens": 256, "timeout": 30.0}, {"parallelism": 2}, {"completions": 1}],
    )
    def test_from_file_rejects_unknown_inference_keys(self, tmp_path, workspace, inference):
        # sampling settings are fixed, so an inference block is refused whatever it holds
        message = config_refusal(tmp_path, workspace, {"inference": {"temperature": 0.0, **inference}})
        assert "unknown config keys: ['inference']" in message

    @pytest.mark.parametrize(
        "raw",
        [
            [{"task": 2, "method": "formal"}],
            {"inference": 5},
            {"inference": {"temperature": "hot"}},
            {"inference": {"max_response_tokens": True}},
            {"dataset_path": 5},
            {"corpus_path": ["corpus.json"]},
            {"output_dir": None},
            {"task": "2"},
            {"task": 2.0},
        ],
    )
    def test_from_file_rejects_wrong_types(self, tmp_path, workspace, raw):
        message = config_refusal(tmp_path, workspace, raw)
        if isinstance(raw, dict):
            [key] = raw
            assert key in message
        else:
            assert "must be a JSON object" in message

    @pytest.mark.parametrize(
        "fields",
        [
            {"method": "rag", "kb_top_n": "3"},
            {"kb_top_n": True},
            {"kb_top_n": -1},
            {"max_labels": "2"},
            {"method": "react", "max_iterations": "5"},
            {"max_iterations": 0},
            {"label_threshold": "x"},
            {"label_threshold": float("inf")},
            {"strict_parsing": "no"},
            {"task": True},
            {"inference": {"temperature": float("nan")}},
            {"inference": {"temperature": float("inf")}},
        ],
    )
    def test_from_file_rejects_mistyped_fields(self, tmp_path, workspace, fields):
        # each case but the bool task once gave a deleted setting a mistyped
        # value; the deleted name alone is now refused as an unknown key
        message = config_refusal(tmp_path, workspace, {"corpus_path": workspace["corpus_path"], **fields})
        if "task" in fields:
            assert message == "task must be 1 or 2, got True"
        else:
            deleted = sorted(set(fields) - {"method"})
            assert f"unknown config keys: {deleted}" in message

    def test_from_file_round_trip(self, tmp_path, workspace):
        raw = {
            "task": 2,
            "method": "formal",
            "dataset_path": workspace["task2"],
            "rules_path": "rules.json",
            "articles_path": "articles.json",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert RunConfig.from_dict(read_json(path)) == RunConfig(**raw)


def config_refusal(tmp_path, workspace, fields) -> str:
    """The ConfigurationError text for a formal task-2 config file updated with ``fields``.

    A ``fields`` that is not a dict is written as the whole document.
    """
    raw = fields
    if isinstance(fields, dict):
        raw = {"task": 2, "method": "formal", "dataset_path": workspace["task2"], **fields}
    path = tmp_path / "config.json"
    # json.dumps writes NaN and Infinity, which json.loads reads back
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigurationError) as err:
        RunConfig.from_dict(read_json(path))
    return str(err.value)


@pytest.fixture(scope="module")
def task2_report(workspace):
    return run(
        RunConfig(
            task=2,
            method="formal",
            dataset_path=workspace["task2"],
            output_dir=str(workspace["root"] / "t2-report"),
        )
    ).report


@pytest.fixture(scope="module")
def task1_report(workspace):
    return run(
        RunConfig(
            task=1,
            method="formal",
            dataset_path=workspace["task1"],
            corpus_path=workspace["corpus_path"],
            output_dir=str(workspace["root"] / "t1-report"),
        )
    ).report


class TestReports:
    def test_task2_markdown_has_a_row_per_universe_and_the_ceiling(self, task2_report):
        assert emit_report(task2_report, "markdown") == (
            "# Task 2 results\n\n"
            "| Method | Universe | Accuracy | Macro-Precision | Macro-Recall | Macro-F1 |\n"
            "| --- | --- | --- | --- | --- | --- |\n"
            "| formal | ground truth (6 articles) | 0.750 | 0.457 | 0.653 | 0.497 |\n"
            "| formal | catalog (23 articles) | 0.935 | 0.119 | 0.170 | 0.130 |\n\n"
            "Over the 23-article catalog the macro metrics cannot exceed 6/23 = 0.261.\n"
        )

    def test_catalog_block_is_the_ground_truth_block_times_the_supported_share(self, task2_report):
        truth, catalog = task2_report.labels, task2_report.labels_over_catalog
        assert truth.universe == (5, 6, 7, 9, 25, 32)
        assert catalog.universe == tuple(sorted(knowledge.article_catalog()))
        assert catalog.n_instances == truth.n_instances == 10
        # a catalog article without ground truth scores 0, so each macro mean is scaled by 6/23
        assert catalog.per_article == {a: truth.per_article.get(a, (0.0, 0.0, 0.0)) for a in catalog.universe}
        for name in ("macro_precision", "macro_recall", "macro_f1"):
            assert getattr(catalog, name) == pytest.approx(getattr(truth, name) * 6 / 23, rel=1e-12)
        # the values a run with the catalog as its only universe reported
        assert (round(catalog.accuracy, 4), round(catalog.macro_f1, 4)) == (0.9348, 0.1297)
        assert (round(truth.accuracy, 4), round(truth.macro_f1, 4)) == (0.75, 0.4972)

    def test_task1_markdown_covers_all_granularities(self, task1_report):
        text = emit_report(task1_report, "markdown")
        assert "| Method | @1 | @2 | @3 | @4 | @5 |" in text
        for heading in ("## File granularity", "## Module granularity", "## Line granularity"):
            assert heading in text

    def test_csv_report_has_six_decimal_values_per_universe(self, task2_report):
        assert emit_report(task2_report, "csv") == (
            "method,universe,metric,value\n"
            "formal,ground_truth,accuracy,0.750000\n"
            "formal,ground_truth,macro_precision,0.457143\n"
            "formal,ground_truth,macro_recall,0.652778\n"
            "formal,ground_truth,macro_f1,0.497222\n"
            "formal,catalog,accuracy,0.934783\n"
            "formal,catalog,macro_precision,0.119255\n"
            "formal,catalog,macro_recall,0.170290\n"
            "formal,catalog,macro_f1,0.129710\n"
        )

    def test_unknown_format_rejected(self, task2_report):
        with pytest.raises(ConfigurationError):
            emit_report(task2_report, "yaml")

    def test_report_json_round_trips(self, workspace, task2_report, task1_report):
        for name, report in (("t2-report", task2_report), ("t1-report", task1_report)):
            text = (workspace["root"] / name / "report.json").read_text(encoding="utf-8")
            assert emit_report(report, "json") == text
            assert emit_report(evaluate_run(workspace["root"] / name), "json") == text

    @pytest.mark.parametrize(
        "numbers, tail",
        [
            # articles 5 and 6 have ground truth; 7, 9, 25 and 32 do too but are not in this catalog
            ([5, 6, 8, 12], "| formal | catalog (4 articles) | 0.875 | 0.250 | 0.292 | 0.267 |\n\n"
             "Over the 4-article catalog the macro metrics cannot exceed 2/4 = 0.500.\n"),
            ([], "| formal | ground truth (6 articles) | 0.750 | 0.457 | 0.653 | 0.497 |\n"),
        ],
    )
    def test_catalog_block_follows_the_articles_file(self, workspace, numbers, tail):
        out = workspace["root"] / f"t2-articles-{len(numbers)}"
        out.mkdir()
        builtin = json.loads((knowledge._DATA_DIR / "articles.json").read_text(encoding="utf-8"))["articles"]
        articles = out / "articles.json"
        articles.write_text(json.dumps({"articles": [a for a in builtin if a["number"] in numbers]}))
        result = run(formal_config(workspace, 2, articles_path=str(articles), output_dir=str(out)))
        assert (result.report.labels_over_catalog is None) == (not numbers)  # an empty catalog fails no run
        assert emit_report(result.report, "markdown").endswith(f" |\n{tail}")
        assert emit_report(evaluate_run(out), "json") == (out / "report.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "predictions, message",
        [
            ([{"instance_id": "t2-0001", "status": "done"}], "entry 0: status must be one of"),
            ([{"status": "scored"}], "entry 0: missing key 'instance_id'"),
            (["t2-0001"], "entry 0: expected a JSON object"),
            ([{"instance_id": "t2-0001", "status": "scored", "ranking": 5}], "entry 0: 'int' object"),
            ([{"instance_id": "t2-0001", "status": "scored", "ranking": [6, "6"]}],
             "entry 0: ranking must hold positive integer article numbers, got '6'"),
            ([{"instance_id": "t2-0001", "status": "scored", "labels": [True]}],
             "entry 0: labels must hold positive integer article numbers, got True"),
            ([{"instance_id": "t2-0001", "status": "scored", "labels": [0]}],
             "entry 0: labels must hold positive integer article numbers, got 0"),
            ([{"instance_id": "t2-0001", "status": "scored", "ranking": "56"}],
             "entry 0: ranking must be an array of article numbers, got str"),
        ],
        ids=["unknown-status", "missing-key", "entry-not-an-object", "wrong-type", "string-in-ranking",
             "bool-label", "zero-label", "string-ranking"],
    )
    def test_malformed_predictions_rejected(self, tmp_path, predictions, message):
        path = tmp_path / "predictions.json"
        path.write_text(json.dumps({"version": 1, "predictions": predictions}), encoding="utf-8")
        with pytest.raises(InputError, match=message):
            load_predictions(path)

    def test_predictions_file_round_trips(self, workspace):
        result = run(
            RunConfig(
                task=2,
                method="formal",
                dataset_path=workspace["task2"],
                output_dir=str(workspace["root"] / "t2-roundtrip"),
            )
        )
        loaded = load_predictions(result.output_dir / "predictions.json")
        assert sorted(loaded, key=lambda r: r.instance_id) == sorted(
            result.records, key=lambda r: r.instance_id
        )


class TestReconciliation:
    def test_orphan_and_missing_ids_detected(self, workspace):
        entries = load_task2(workspace["task2"])
        instances = task2_instances(entries)
        records = [
            PredictionRecord(inst.instance_id, "scored", ranking=())
            for inst in instances[:-1]
        ]
        records.append(PredictionRecord("t2-9999", "scored", ranking=()))
        with pytest.raises(ReconciliationError) as err:
            score(formal_config(workspace, 2), instances, records)
        assert "t2-9999" in err.value.orphan_ids
        assert instances[-1].instance_id in err.value.missing_ids

    def test_status_counts_require_one_record_per_instance(self, workspace):
        entries = load_task2(workspace["task2"])
        instances = task2_instances(entries)
        records = [
            PredictionRecord(inst.instance_id, status)
            for inst, status in zip(instances, ("scored", "errored", "skipped"))
        ]
        with pytest.raises(ReconciliationError) as err:
            score(formal_config(workspace, 2), instances, records)
        assert err.value.missing_ids == [inst.instance_id for inst in instances[3:]]
        report, counts = score(formal_config(workspace, 2), instances[:3], records)
        assert counts == {"scored": 1, "errored": 1, "skipped": 1}
        assert report.labels.n_instances == 2

    def test_duplicate_prediction_ids_detected(self, workspace):
        entries = load_task2(workspace["task2"])
        instances = task2_instances(entries)
        records = [
            PredictionRecord(inst.instance_id, "scored", ranking=()) for inst in instances
        ]
        records.append(records[0])
        with pytest.raises(ReconciliationError):
            score(formal_config(workspace, 2), instances, records)
