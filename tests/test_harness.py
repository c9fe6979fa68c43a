"""Run orchestration: instance catalogs, prediction, evaluation, artifacts."""

import hashlib
import importlib.util
import json
import os
import sqlite3

import pytest

from gdprkit import harness, knowledge, methods
from gdprkit.corpus import dump_corpus, load_corpus
from gdprkit.errors import (
    ConfigurationError,
    MethodError,
    ReconciliationError,
    ReplayMissError,
)
from gdprkit.harness import (
    PredictionRecord,
    _status_counts,
    RunConfig,
    emit_report,
    evaluate_task1,
    evaluate_task2,
    load_predictions,
    predict_task1,
    predict_task2,
    reconstruct_source,
    report_from_dict,
    run,
    task1_instances,
    task2_instances,
)
from gdprkit.taskgen import build_task1, build_task2, dump_entries, load_task1, load_task2
from tests.conftest import DATA_DIR, GOLDEN_DIR


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


class TestReconstructSource:
    def test_lines_land_at_recorded_positions(self, camera_record_pair):
        source, line_count = reconstruct_source(camera_record_pair)
        lines = source.split("\n")
        assert line_count == 202
        assert "openCamera" in lines[201]
        assert lines[0] == ""

    def test_unspanned_snippets_append_after_placed(self, fixture_corpus):
        shoppulse = [r for r in fixture_corpus if r.app_name == "ShopPulse"][:2]
        spanned, unspanned = shoppulse
        assert "line 12" in spanned.code_snippet_path
        source, _ = reconstruct_source([spanned, unspanned])
        assert source.index(spanned.code_snippet.strip()) < source.index(
            unspanned.code_snippet.splitlines()[0]
        )

    def test_empty_group(self):
        assert reconstruct_source([]) == ("", 1)

    def test_first_record_wins_shared_lines(self, camera_record_pair):
        source, _ = reconstruct_source(camera_record_pair)
        assert source.count("openCamera") == 1


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

    def test_fixture_predictions_match_golden_hashes(self, workspace):
        """Formal predictions of both fixture tasks keep their recorded bytes."""
        got = {}
        for task in (1, 2):
            out = workspace["root"] / f"golden-formal-t{task}"
            run(
                RunConfig(
                    task=task,
                    method="formal",
                    dataset_path=workspace[f"task{task}"],
                    corpus_path=workspace["corpus_path"],
                    output_dir=str(out),
                )
            )
            got[f"task{task}"] = hashlib.sha256((out / "predictions.json").read_bytes()).hexdigest()
        golden = json.loads((GOLDEN_DIR / "formal_fixture.json").read_text(encoding="utf-8"))
        assert got == golden

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


class TestModuleInstances:
    @pytest.mark.parametrize("method", ["formal", "zero_shot"])
    def test_module_records_equal_their_file_record(self, workspace, monkeypatch, method):
        reasoners = []

        def prompt_dependent_stub(script, reasoner_id):
            # answers differ between prompts, so equal records mean equal predictions
            reasoner = methods.ScriptedReasoner(
                lambda prompt: ("5", "6", "25", "32")[
                    hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 4
                ],
                reasoner_id=reasoner_id,
            )
            reasoners.append(reasoner)
            return reasoner

        monkeypatch.setattr(harness, "ScriptedReasoner", prompt_dependent_stub)
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

    def test_record_then_replay_script_replays_live_recordings(self, tmp_path, monkeypatch):
        class Response:
            def raise_for_status(self):
                pass

            def json(self):
                return {"text": "6"}

        class Session:
            def post(self, *args, **kwargs):
                return Response()

        monkeypatch.setattr(methods.requests, "Session", Session)
        monkeypatch.setenv("GDPRKIT_ENDPOINT", "http://localhost:1/v1")
        path = DATA_DIR.parent.parent / "scripts" / "record_then_replay.py"
        spec = importlib.util.spec_from_file_location("record_then_replay", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        argv = ["--reasoner", "live", "--model", "gpt-4o", "--out", str(tmp_path)]
        assert script.main(argv) == 0


class FailingMethod:
    def __init__(self, error=None):
        self.error = error or MethodError("model exploded")

    def predict_labels(self, snippet, language="java", path=""):
        raise self.error

    def predict_file(self, source, language, *, line_spans=None, path=""):
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
        if writer == "dump_entries":
            dump_entries(build_task2(corpus), out / "task2.json")
            return [out / "task2.json"]
        dump_corpus(corpus, out / "corpus.json")
        return [out / "corpus.json"]

    @pytest.mark.parametrize("writer", ["run", "dump_entries", "dump_corpus"])
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


class TestErrorAndSkipPaths:
    def test_method_errors_score_as_empty_predictions(self, workspace):
        entries = load_task2(workspace["task2"])
        records = predict_task2(entries, FailingMethod())
        assert all(r.status == "errored" for r in records)
        metrics = evaluate_task2(entries, records, None)
        assert metrics.macro_recall == 0.0
        assert metrics.n_instances == 10

    def test_task1_method_error_marks_entry_instances(self, workspace):
        entries = load_task1(workspace["task1"])
        corpus = load_corpus(workspace["corpus_path"])
        records = predict_task1(entries, corpus, FailingMethod())
        assert len(records) == 23
        assert all(r.status == "errored" for r in records)
        ranking = evaluate_task1(entries, records)
        assert ranking["file"].accuracy_at[5] == 0.0

    def test_foreign_exceptions_become_errored_records_named_by_type(self, workspace, caplog):
        method = FailingMethod(TypeError("unsupported operand"))
        entries2 = load_task2(workspace["task2"])
        entries1 = load_task1(workspace["task1"])
        corpus = load_corpus(workspace["corpus_path"])
        records = predict_task2(entries2, method)
        records += predict_task1(entries1, corpus, method)
        assert len(records) == 10 + 23
        assert {r.status for r in records} == {"errored"}
        assert {r.error for r in records} == {"TypeError: unsupported operand"}
        assert "Traceback" in caplog.text

    def test_replay_miss_still_aborts_prediction(self, workspace):
        entries = load_task2(workspace["task2"])
        with pytest.raises(ReplayMissError) as err:
            predict_task2(entries, FailingMethod(ReplayMissError(["k"])))
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
        from gdprkit.corpus import dump_corpus

        dump_corpus(corpus, corpus_path)
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
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "inference", [{"max_tokens": 256, "timeout": 30.0}, {"parallelism": 2}]
    )
    def test_from_file_rejects_unknown_inference_keys(self, tmp_path, workspace, inference):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "task": 2,
                    "method": "formal",
                    "dataset_path": workspace["task2"],
                    "inference": {"temperature": 0.0, **inference},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError) as err:
            RunConfig.from_file(path)
        assert str(sorted(inference)) in str(err.value)

    @pytest.mark.parametrize(
        "raw",
        [
            [{"task": 2, "method": "formal"}],
            {"inference": 5},
            {"inference": {"temperature": "hot"}},
            {"inference": {"max_response_tokens": True}},
        ],
    )
    def test_from_file_rejects_wrong_types(self, tmp_path, workspace, raw):
        if isinstance(raw, dict):
            raw = {"task": 2, "method": "formal", "dataset_path": workspace["task2"], **raw}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            RunConfig.from_file(path)

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
        raw = {
            "task": 2,
            "method": "formal",
            "dataset_path": workspace["task2"],
            "corpus_path": workspace["corpus_path"],
            **fields,
        }
        path = tmp_path / "config.json"
        # json.dumps writes NaN and Infinity, which json.loads reads back
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            RunConfig.from_file(path)

    def test_from_file_round_trip(self, tmp_path, workspace):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "task": 2,
                    "method": "formal",
                    "dataset_path": workspace["task2"],
                    "inference": {"temperature": 0.0},
                }
            ),
            encoding="utf-8",
        )
        config = RunConfig.from_file(path)
        assert config.task == 2
        assert config.inference.temperature == 0.0


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
    def test_task2_markdown_shape(self, task2_report):
        text = emit_report(task2_report, "markdown")
        assert "| Method | Accuracy | Macro-Precision | Macro-Recall | Macro-F1 |" in text
        assert "| formal |" in text

    def test_task1_markdown_covers_all_granularities(self, task1_report):
        text = emit_report(task1_report, "markdown")
        assert "| Method | @1 | @2 | @3 | @4 | @5 |" in text
        for heading in ("## File granularity", "## Module granularity", "## Line granularity"):
            assert heading in text

    def test_csv_report_has_six_decimal_values(self, task2_report):
        text = emit_report(task2_report, "csv")
        assert "method,metric,value" in text
        assert "formal,accuracy,0.750000" in text

    def test_unknown_format_rejected(self, task2_report):
        with pytest.raises(ConfigurationError):
            emit_report(task2_report, "yaml")

    def test_report_json_round_trips(self, task2_report, task1_report):
        for report in (task2_report, task1_report):
            text = emit_report(report, "json")
            again = report_from_dict(json.loads(text))
            assert emit_report(again, "json") == text

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
            evaluate_task2(entries, records, None)
        assert "t2-9999" in err.value.orphan_ids
        assert instances[-1].instance_id in err.value.missing_ids

    def test_status_counts_require_one_record_per_instance(self, workspace):
        instances = task2_instances(load_task2(workspace["task2"]))
        records = [
            PredictionRecord(inst.instance_id, status)
            for inst, status in zip(instances, ("scored", "errored", "skipped"))
        ]
        with pytest.raises(ReconciliationError) as err:
            _status_counts(instances, records)
        assert err.value.missing_ids == [inst.instance_id for inst in instances[3:]]
        assert _status_counts(instances[:3], records) == {"scored": 1, "errored": 1, "skipped": 1}

    def test_duplicate_prediction_ids_detected(self, workspace):
        entries = load_task2(workspace["task2"])
        instances = task2_instances(entries)
        records = [
            PredictionRecord(inst.instance_id, "scored", ranking=()) for inst in instances
        ]
        records.append(records[0])
        with pytest.raises(ReconciliationError):
            evaluate_task2(entries, records, None)
