"""Command-line interface, exercised through main(argv)."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gdprkit
from gdprkit.cli import main
from gdprkit.corpus import detect_language, split_snippet_path
from tests.conftest import DATA_DIR, GOLDEN_DIR

CORPUS = str(DATA_DIR / "fixture_corpus.json")
ARTICLES = Path(gdprkit.__file__).parent / "data" / "articles.json"


@pytest.fixture
def task2_path(tmp_path):
    out = tmp_path / "task2.json"
    assert main(["gen-task2", CORPUS, "-o", str(out)]) == 0
    return out


class TestStats:
    def test_prints_corpus_summary_json(self, capsys):
        assert main(["stats", CORPUS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_records"] == 12
        assert payload["per_article_counts"]["32"] == 4

    def test_missing_corpus_exits_two(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestGeneration:
    def test_gen_task1_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "task1.json"
        assert main(["gen-task1", CORPUS, "-o", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 7

    def test_gen_task2_writes_dataset(self, task2_path):
        entries = json.loads(task2_path.read_text())
        assert len(entries) == 10
        assert entries[0]["violated_articles"] == [6, 32]

    @pytest.mark.parametrize("task, count", [(1, 7), (2, 10)])
    def test_gen_creates_the_output_directory(self, tmp_path, capsys, task, count):
        out = tmp_path / "runs" / "formal-baseline" / f"task{task}.json"
        assert main([f"gen-task{task}", CORPUS, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {count} entries to {out}\n"
        assert len(json.loads(out.read_text(encoding="utf-8"))) == count
        assert [p.name for p in out.parent.iterdir()] == [out.name]


class TestAnalyze:
    def test_inline_snippet(self, capsys):
        snippet = "manager.openCamera(camerId, stateCallback, null);"
        assert main(["analyze", snippet]) == 0
        out = capsys.readouterr().out
        assert "6" in out.splitlines()[0]
        assert "A6-CAMERA" in out

    def test_source_file_with_detected_language(self, tmp_path, capsys):
        src = tmp_path / "Grabber.java"
        src.write_text("class Grabber {\n  manager.openCamera(a, b, c);\n}\n")
        assert main(["analyze", str(src)]) == 0
        assert "A6-CAMERA" in capsys.readouterr().out

    def test_json_output_mode(self, capsys):
        assert main(["analyze", "tm.getDeviceId();", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranking"]["articles"][0] == 6

    def test_clean_snippet_reports_no_findings(self, capsys):
        assert main(["analyze", "int x = 1;"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out.lower() or "[]" in out

    def test_snippet_longer_than_a_file_name_is_analyzed(self, capsys):
        # 300 characters: past the 255-byte file-name limit, so probing it as a path fails
        snippet = "String id = tm.getDeviceId(); " * 10
        assert len(snippet) == 300
        assert main(["analyze", snippet, "--language", "java"]) == 0
        assert capsys.readouterr().out.startswith("articles (most suspect first): 6")

    def test_snippet_with_a_nul_character_is_analyzed(self, capsys):
        assert main(["analyze", "String id = tm.getDeviceId();\0"]) == 0
        assert capsys.readouterr().out.startswith("articles (most suspect first): 6")

    def test_file_that_is_not_utf8_is_an_error_line(self, tmp_path, capsys):
        src = tmp_path / "a.java"
        src.write_bytes(b'String s = "caf\xe9";\n')
        assert main(["analyze", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {src}: 'utf-8' codec can't decode byte 0xe9")
        assert captured.err.count("\n") == 1

    def test_fixture_snippets_match_golden_output(self):
        golden = json.loads((GOLDEN_DIR / "analyze_fixture.json").read_text(encoding="utf-8"))
        assert analyze_outputs() == golden


def analyze_outputs() -> list[dict]:
    """Text and ``--json`` output of ``analyze`` for each distinct fixture snippet.

    ``tests/data/golden/analyze_fixture.json`` holds this list, written with
    ``json.dumps(analyze_outputs(), indent=2)``.
    """
    records = json.loads(Path(CORPUS).read_text(encoding="utf-8"))
    languages = {}
    for record in records:
        file_path, _ = split_snippet_path(record["code_snippet_path"])
        languages.setdefault(record["code_snippet"], detect_language(file_path))
    outputs = []
    for snippet, language in languages.items():
        entry = {"snippet": snippet, "language": language}
        for key, flags in (("text", []), ("json", ["--json"])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["analyze", snippet, "--language", language, *flags]) == 0
            entry[key] = stdout.getvalue()
        outputs.append(entry)
    return outputs


class TestRun:
    def test_formal_task2_run(self, task2_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "run",
                "--task",
                "2",
                "--method",
                "formal",
                "--dataset",
                str(task2_path),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "10 scored, 0 errored, 0 skipped" in printed
        assert "| Method | Universe | Accuracy | Macro-Precision | Macro-Recall | Macro-F1 |" in printed
        assert (out_dir / "report.md").exists()

    def test_run_without_required_args_exits_two(self, capsys):
        assert main(["run", "--task", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_method_is_an_error_line_naming_the_methods(self, capsys):
        assert main(["run", "--task", "2", "--method", "bogus", "--dataset", "X"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: method must be one of ('formal', 'zero_shot', 'rag', 'react'), got 'bogus'\n"
        )

    def test_run_with_config_file(self, task2_path, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "task": 2,
                    "method": "formal",
                    "dataset_path": str(task2_path),
                    "output_dir": str(tmp_path / "cfg-out"),
                }
            )
        )
        assert main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "cfg-out" / "predictions.json").exists()

    def test_task_flag_fills_a_key_the_config_leaves_out(self, task2_path, tmp_path, capsys):
        config_path = tmp_path / "partial.json"
        config_path.write_text(json.dumps({"method": "formal", "dataset_path": str(task2_path)}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--task", "2", "--output-dir", str(out_dir)]) == 0
        assert "10 scored" in capsys.readouterr().out
        assert json.loads((out_dir / "manifest.json").read_text())["config"]["task"] == 2

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"method": "formal", "dataset_path": "task2.json"}, "lacks required keys: ['task']"),
            ({"task": 2, "method": "formal", "dataset_path": 5}, "dataset_path must be a string"),
        ],
        ids=["missing-task", "non-string-path"],
    )
    def test_bad_config_is_an_error_line(self, config, named, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err

    def test_dataset_label_that_is_not_an_article_number_is_an_error_line(self, task2_path, tmp_path, capsys):
        entries = json.loads(task2_path.read_text(encoding="utf-8"))
        entries[0]["violated_articles"] = ["5", True]
        task2_path.write_text(json.dumps(entries), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["run", "--task", "2", "--method", "formal", "--dataset", str(task2_path),
                     "--output-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {task2_path}: entry 0: violated_articles must hold positive integer article numbers, "
            "got '5'\n"
        )
        assert not out_dir.exists()


    @pytest.mark.parametrize(
        "lines",
        [{"start_line": True, "end_line": True}, {"start_line": 2.5, "end_line": 2.5}, {"start_line": 0}],
        ids=["bool", "float", "zero"],
    )
    def test_dataset_span_that_is_not_a_line_range_is_an_error_line(self, lines, tmp_path, capsys):
        task1_path = tmp_path / "task1.json"
        assert main(["gen-task1", CORPUS, "-o", str(task1_path)]) == 0
        entries = json.loads(task1_path.read_text(encoding="utf-8"))
        span = entries[0]["line_level"][0]["span"]
        span.update(lines)
        task1_path.write_text(json.dumps(entries), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "out"
        assert main(["run", "--task", "1", "--method", "formal", "--dataset", str(task1_path),
                     "--corpus", CORPUS, "--output-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {task1_path}: entry 0: invalid span ({span['start_line']!r}, {span['end_line']!r}) "
            f"for {span['file_path']!r}\n"
        )
        assert not out_dir.exists()


def run_formal(tmp_path, task: int, dataset, **fields) -> Path:
    """Run the formal method through ``run --config`` and return the output directory."""
    out_dir = tmp_path / f"task{task}-formal"
    config = {"task": task, "method": "formal", "dataset_path": str(dataset), "output_dir": str(out_dir)}
    if task == 1:
        config["corpus_path"] = CORPUS
    config.update(fields)
    config_path = tmp_path / f"task{task}-config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    return out_dir


class TestEvaluateAndReport:
    def test_evaluate_stored_predictions(self, task2_path, tmp_path, capsys):
        out_dir = run_formal(tmp_path, 2, task2_path)
        capsys.readouterr()
        assert main(["evaluate", str(out_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["labels"]["accuracy"] == pytest.approx(0.75)

    def test_report_reformats_to_markdown(self, task2_path, tmp_path, capsys):
        out_dir = run_formal(tmp_path, 2, task2_path)
        capsys.readouterr()
        assert main(["evaluate", str(out_dir), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "# Task 2 results" in out
        assert out == (out_dir / "report.md").read_text(encoding="utf-8")

    @pytest.mark.parametrize("task", [1, 2])
    def test_evaluate_reproduces_the_runs_own_report(self, task, tmp_path, capsys):
        dataset = tmp_path / f"task{task}.json"
        assert main([f"gen-task{task}", CORPUS, "-o", str(dataset)]) == 0
        out_dir = run_formal(tmp_path, task, dataset)
        capsys.readouterr()
        assert main(["evaluate", str(out_dir)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (out_dir / "report.json").read_bytes()
        assert main(["evaluate", str(out_dir), "--format", "markdown"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (out_dir / "report.md").read_bytes()
        assert (json.loads((out_dir / "report.json").read_text())["labels_over_catalog"] is None) == (task == 1)

    def test_evaluate_refuses_a_dataset_edited_after_the_run(self, task2_path, tmp_path, capsys):
        out_dir = run_formal(tmp_path, 2, task2_path)
        capsys.readouterr()
        task2_path.write_text(task2_path.read_text() + "\n")
        assert main(["evaluate", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "sha256" in captured.err

    def test_evaluate_refuses_an_articles_file_edited_after_the_run(self, task2_path, tmp_path, capsys):
        articles = tmp_path / "articles.json"
        shutil.copy(ARTICLES, articles)
        out_dir = run_formal(tmp_path, 2, task2_path, articles_path=str(articles))
        recorded = json.loads((out_dir / "manifest.json").read_text())["datasets"]
        assert recorded["articles"]["path"] == str(articles)
        catalog = json.loads(articles.read_text())
        catalog["articles"] = catalog["articles"][:-5]
        articles.write_text(json.dumps(catalog))
        capsys.readouterr()
        assert main(["evaluate", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(articles) in captured.err

    def test_evaluate_scores_the_dataset_bytes_it_checked(self, task2_path, tmp_path, capsys, monkeypatch):
        out_dir = run_formal(tmp_path, 2, task2_path)
        entries = json.loads(task2_path.read_text(encoding="utf-8"))
        for entry in entries:
            entry["violated_articles"] = [99]
        altered = json.dumps(entries).encode("utf-8")
        read_bytes, reads = Path.read_bytes, []

        def recorded_then_altered(path):
            if path != task2_path:
                return read_bytes(path)
            reads.append(path)
            return read_bytes(path) if len(reads) == 1 else altered

        monkeypatch.setattr(Path, "read_bytes", recorded_then_altered)
        capsys.readouterr()
        assert main(["evaluate", str(out_dir)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (out_dir / "report.json").read_bytes()

    def test_evaluate_refuses_a_manifest_naming_article_universe(self, task2_path, tmp_path, capsys):
        # a run of an earlier gdprkit, which scored one label universe per run
        out_dir = run_formal(tmp_path, 2, task2_path)
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["article_universe"] = "catalog"
        (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config keys: ['article_universe']\n"

    def test_evaluate_refuses_a_directory_without_a_run_manifest(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[]")
        assert main(["evaluate", str(tmp_path)]) == 2
        assert "not a run manifest" in capsys.readouterr().err


class TestMalformedJson:
    @pytest.mark.parametrize("command", ["run-config", "run-dataset", "stats", "evaluate", "predictions"])
    def test_malformed_json_file_is_an_error_line(self, command, task2_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"task": 2,')
        if command == "run-config":
            argv = ["run", "--config", str(bad)]
        elif command == "run-dataset":
            argv = ["run", "--task", "2", "--method", "formal", "--dataset", str(bad),
                    "--output-dir", str(tmp_path / "out")]
        elif command == "stats":
            argv = ["stats", str(bad)]
        else:
            out_dir = run_formal(tmp_path, 2, task2_path)
            bad = out_dir / ("manifest.json" if command == "evaluate" else "predictions.json")
            bad.write_text('{"config": ')
            argv = ["evaluate", str(out_dir)]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and "Traceback" not in captured.err


class TestMisshapenCatalogs:
    """A rules or articles file that is JSON of another shape is one error line naming it."""

    @pytest.mark.parametrize(
        "document, named",
        [
            ({}, "expected a JSON object with key 'rules'"),
            ({"rules": [{"id": "R1", "article": 6, "weight": 0.5, "message": "m"}]},
             "entry 0: missing key 'when'"),
            ({"rules": [{"id": "R1", "article": 6, "when": "HasConsentCheck", "weight": 5,
                         "message": "m"}]},
             "entry 0: rule 'R1' weight must be in (0, 1], got 5"),
        ],
        ids=["empty-object", "rule-without-when", "weight-out-of-range"],
    )
    def test_analyze_rules(self, document, named, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(document))
        assert main(["analyze", "x();", "--rules", str(rules)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {rules}: {named}\n"

    @pytest.mark.parametrize(
        "document, named",
        [
            ({}, "expected a JSON object with key 'articles'"),
            ({"articles": [5]}, "entry 0: expected a JSON object, got int"),
        ],
        ids=["empty-object", "entry-not-an-object"],
    )
    def test_run_articles(self, document, named, task2_path, tmp_path, capsys):
        articles = tmp_path / "articles.json"
        articles.write_text(json.dumps(document))
        config = {"task": 2, "method": "formal", "dataset_path": str(task2_path),
                  "output_dir": str(tmp_path / "out"), "articles_path": str(articles)}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {articles}: {named}\n"


class TestEntryPoint:
    def test_installed_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gdprkit.cli", "stats", CORPUS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_records"] == 12

    def test_package_loads_each_module_on_first_access(self):
        assert gdprkit.taskgen.build_task2 is not None
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            gdprkit.nope

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "manager.openCamera(camerId, stateCallback, null);"], ["stats", CORPUS]],
        ids=["analyze", "stats"],
    )
    def test_command_loads_only_the_modules_it_uses(self, argv):
        """``analyze`` and ``stats`` load neither the run machinery nor SQLite."""
        script = (
            "import json, sys\n"
            "from gdprkit.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m in json.loads(sys.argv[2]))))\n"
        )
        unwanted = [f"gdprkit.{m}" for m in ("harness", "methods", "knowledge", "metrics", "taskgen")]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv), json.dumps([*unwanted, "sqlite3"])],
            env=dict(os.environ, PYTHONPATH=str(Path(gdprkit.__file__).resolve().parents[1])),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
