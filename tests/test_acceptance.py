"""Acceptance gate: one printed pass/fail line per top-level guarantee.

Each test covers one externally stated guarantee of the toolkit and prints
``ACCEPTANCE <name>: PASS|FAIL|SKIP`` directly to the terminal, bypassing
output capture, so a plain pytest run shows the gate status line by line.
"""

import contextlib
import json
import math
import os
import random
import time

import pytest

from gdprkit.engine import analyze_source, default_catalog
from gdprkit.harness import RunConfig, run
from gdprkit.knowledge import article_lookup
from gdprkit.methods import (
    REACT_MAX_STEPS,
    ScriptedReasoner,
    parse_model_output,
    react_run,
    render_zero_shot_prompt,
)
from gdprkit.metrics import (
    LabeledInstance,
    RankedInstance,
    count_labels,
    evaluate_rankings,
)
from gdprkit.taskgen import build_task1, build_task2, dump_entries, entries_json
from tests.conftest import GOLDEN_DIR, load_script

TOLERANCE = 1e-12


@pytest.fixture
def announce(capsys):
    def _announce(name: str, status: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {status}")

    return _announce


@contextlib.contextmanager
def criterion(announce, name: str):
    try:
        yield
    except pytest.skip.Exception:
        announce(name, "SKIP")
        raise
    except BaseException:
        announce(name, "FAIL")
        raise
    announce(name, "PASS")


# -- brute-force reference scorers, written from the metric definitions -----


def brute_accuracy_at_k(instances, k):
    hits = 0
    for inst in instances:
        hits += any(a in inst.ground_truth for a in inst.prediction[:k])
    return hits / len(instances)


def brute_label_scores(instances, universe):
    universe = sorted(universe)
    agree = 0
    per = []
    for article in universe:
        tp = sum(1 for i in instances if article in i.prediction and article in i.ground_truth)
        fp = sum(1 for i in instances if article in i.prediction and article not in i.ground_truth)
        fn = sum(1 for i in instances if article not in i.prediction and article in i.ground_truth)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        per.append((p, r, f))
    for inst in instances:
        for article in universe:
            agree += (article in inst.prediction) == (article in inst.ground_truth)
    n = len(universe)
    return {
        "accuracy": agree / (len(instances) * n),
        "precision": sum(x[0] for x in per) / n,
        "recall": sum(x[1] for x in per) / n,
        "f1": sum(x[2] for x in per) / n,
    }


def test_metrics_match_brute_force_on_random_sets(announce):
    with criterion(announce, "metrics-oracle-equivalence"):
        rng = random.Random(20260822)
        started = time.perf_counter()
        for _ in range(1000):
            universe = rng.sample(range(1, 40), rng.randint(1, 6))
            n = rng.randint(1, 8)
            ranked = [
                RankedInstance(
                    granularity="file",
                    prediction=tuple(rng.sample(universe, rng.randint(0, len(universe)))),
                    ground_truth=frozenset(rng.sample(universe, rng.randint(1, len(universe)))),
                )
                for _ in range(n)
            ]
            labeled = [
                LabeledInstance(
                    prediction=frozenset(rng.sample(universe, rng.randint(0, len(universe)))),
                    ground_truth=frozenset(rng.sample(universe, rng.randint(0, len(universe)))),
                )
                for _ in range(n)
            ]
            ranking = evaluate_rankings(ranked)
            assert list(ranking) == ["file"] and ranking["file"].n_instances == n
            for k in range(1, 6):
                assert abs(ranking["file"].accuracy_at[k] - brute_accuracy_at_k(ranked, k)) < TOLERANCE
            expected = brute_label_scores(labeled, universe)
            got = count_labels(labeled).over(universe)
            assert abs(got.accuracy - expected["accuracy"]) < TOLERANCE
            assert abs(got.macro_precision - expected["precision"]) < TOLERANCE
            assert abs(got.macro_recall - expected["recall"]) < TOLERANCE
            assert abs(got.macro_f1 - expected["f1"]) < TOLERANCE
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"


def test_worked_metric_fixtures_reproduce_exactly(announce):
    with criterion(announce, "worked-metric-fixtures"):
        ranked = [
            RankedInstance("file", (5,), frozenset({5})),        # rank 1
            RankedInstance("file", (7, 8, 5), frozenset({5})),   # rank 3
            RankedInstance("file", (7,), frozenset({5})),        # absent
        ]
        accuracy_at = evaluate_rankings(ranked)["file"].accuracy_at
        assert accuracy_at[1] == 1 / 3
        assert accuracy_at[3] == 2 / 3
        assert accuracy_at[5] == 2 / 3

        labeled = [
            LabeledInstance(frozenset({5, 6}), frozenset({5})),
            LabeledInstance(frozenset({5}), frozenset({5, 6})),
        ]
        metrics = count_labels(labeled).over({5, 6})
        assert metrics.macro_precision == 0.5
        assert metrics.macro_recall == 0.5
        assert metrics.macro_f1 == 0.5
        assert metrics.accuracy == 0.5


def test_task_generation_fixtures_and_stable_goldens(announce, camera_record_pair, fixture_corpus):
    with criterion(announce, "task-generation-fixtures"):
        task2 = build_task2(camera_record_pair)
        assert len(task2) == 1
        assert list(task2[0].violated_articles) == [6, 32]

        task1 = build_task1(camera_record_pair)
        assert len(task1) == 1
        spans = {
            (lv.span.start_line, lv.span.end_line): set(lv.articles)
            for lv in task1[0].line_level
        }
        assert spans == {(202, 202): {6, 32}}

        golden1 = (GOLDEN_DIR / "task1_fixture.json").read_bytes()
        golden2 = (GOLDEN_DIR / "task2_fixture.json").read_bytes()
        for _ in range(2):
            assert entries_json(build_task1(fixture_corpus)).encode() == golden1
            assert entries_json(build_task2(fixture_corpus)).encode() == golden2


@pytest.mark.parametrize("corpus", ["seed1", "GDPRKIT_CORPUS"])
def test_published_corpus_statistics(announce, request, corpus):
    """``scripts/check_published_corpus.py`` passes on synthetic seed 1, which has the
    published corpus's shape, and on the published corpus when GDPRKIT_CORPUS names it."""
    with criterion(announce, f"published-corpus-statistics[{corpus}]"):
        if corpus == "seed1":
            corpus_path = request.getfixturevalue("seed1_corpus_path")
        else:
            corpus_path = os.environ.get("GDPRKIT_CORPUS")
            if not corpus_path:
                pytest.skip("set GDPRKIT_CORPUS to the published corpus JSON to enable")
        assert load_script("scripts/check_published_corpus.py").main([str(corpus_path)]) == 0


FRAGMENTS = [
    "String id = tm.getDeviceId();",
    "manager.openCamera(camerId, stateCallback, null);",
    'Location loc = lm.getLastKnownLocation("gps");',
    'URL u = new URL("http://collect.example.com/a");',
    "HttpURLConnection c = (HttpURLConnection) u.openConnection();",
    'Log.d("t", value);',
    'getSharedPreferences("prefs", 0).edit();',
    "if (ContextCompat.checkSelfPermission(ctx, P) == G) { }",
    "int counter = 0;",
    "recorder.startRecording();",
    'String note = "see the privacy policy";',
]


def test_formal_engine_fixtures_and_determinism(announce, tmp_path):
    with criterion(announce, "formal-engine-behavior"):
        camera = analyze_source(
            "            manager.openCamera(camerId, stateCallback, null);\n", "java"
        )
        assert 6 in camera.ranking.articles[:2]

        upload = analyze_source(
            'String id = tm.getDeviceId();\n'
            'URL u = new URL("http://collect.example.com/ingest");\n'
            "HttpURLConnection c = (HttpURLConnection) u.openConnection();\n",
            "java",
        )
        assert 32 in upload.ranking.articles[:2]

        guarded = analyze_source(
            "if (ContextCompat.checkSelfPermission(ctx, P) == GRANTED) {\n"
            "    String id = tm.getDeviceId();\n"
            "}\n",
            "java",
        )
        assert all(f.article != 6 for f in guarded.findings)

        assert len(default_catalog().rules) >= 35

        # Deterministic reanalysis of a generated 50-file tree.
        rng = random.Random(7)
        tree = tmp_path / "tree"
        tree.mkdir()
        for i in range(50):
            ext = rng.choice(["java", "kt"])
            body = "\n".join(
                ["class Sample%d {" % i]
                + ["    " + rng.choice(FRAGMENTS) for _ in range(rng.randint(3, 8))]
                + ["}"]
            )
            (tree / f"Sample{i}.{ext}").write_text(body + "\n", encoding="utf-8")
        passes = []
        for _ in range(5):
            blob = {}
            for path in sorted(tree.iterdir()):
                language = path.suffix.lstrip(".")
                result = analyze_source(path.read_text(encoding="utf-8"), language)
                blob[path.name] = result.to_dict(path.name, language)
            passes.append(
                json.dumps(blob, indent=2, ensure_ascii=False, sort_keys=True).encode()
            )
        assert all(p == passes[0] for p in passes[1:])


def test_zero_shot_prompt_protocol_and_round_trip(announce):
    with criterion(announce, "zero-shot-protocol"):
        prompt = render_zero_shot_prompt("int x = 1;")
        required_lines = [
            "You are a GDPR compliance expert. Your task is to determine which "
            "GDPR articles are violated by the following code snippet.",
            "GDPR Article Meanings:",
            "- Article 5: Principles of processing",
            "- Article 6: Lawfulness of processing",
            "Instructions:",
            "- Carefully analyze the code snippet.",
            "- Only output the violated GDPR article numbers, separated by commas "
            "(e.g.,5,6,32).",
            "- If there is no violation, output exactly 0.",
            "Code snippet:",
        ]
        for line in required_lines:
            assert line in prompt, f"missing prompt line: {line!r}"

        rng = random.Random(99)
        for _ in range(200):
            labels = frozenset(rng.sample(range(1, 100), rng.randint(0, 8)))
            text = ",".join(map(str, sorted(labels))) or "0"
            assert frozenset(parse_model_output(text)) == labels
        assert parse_model_output("0") == ()


def test_agent_loop_trace_shape_and_tools(announce):
    with criterion(announce, "agent-loop-contract"):
        scripted = ScriptedReasoner(
            [
                "Check the rules first.\nAction: rule_check\nAction Input: ",
                "Look up the key article.\nAction: gdpr_lookup\nAction Input: 6",
                "Action: finish\nAction Input: 6,32",
            ]
        )
        result = react_run(
            "            manager.openCamera(camerId, stateCallback, null);\n", scripted
        )
        assert result.ranking.articles == (6, 32)
        assert result.trace.truncated is False
        assert [s.action for s in result.trace.steps] == [
            "rule_check",
            "gdpr_lookup",
            "finish",
        ]
        assert "Lawfulness of processing" in result.trace.steps[1].observation
        assert article_lookup(6).title == "Lawfulness of processing"

        loop = ScriptedReasoner(lambda p: "Hmm.\nAction: code_search\nAction Input: x")
        capped = react_run("int x;\n", loop)
        assert len(capped.trace.steps) == len(loop.calls) == REACT_MAX_STEPS == 5
        assert capped.trace.truncated is True


def test_end_to_end_offline_run_and_report(announce, tmp_path, fixture_corpus, fixture_corpus_path):
    with criterion(announce, "end-to-end-offline-run"):
        task1_path = tmp_path / "task1.json"
        task2_path = tmp_path / "task2.json"
        dump_entries(build_task1(fixture_corpus), task1_path)
        dump_entries(build_task2(fixture_corpus), task2_path)

        result2 = run(
            RunConfig(
                task=2,
                method="formal",
                dataset_path=str(task2_path),
                output_dir=str(tmp_path / "t2"),
            )
        )
        report_md = (result2.output_dir / "report.md").read_text(encoding="utf-8")
        assert "| Method | Universe | Accuracy | Macro-Precision | Macro-Recall | Macro-F1 |" in report_md
        rows = [l for l in report_md.splitlines() if l.startswith("| formal |")]
        assert len(rows) == 2  # over the ground-truth articles and over the catalog
        for row in rows:
            cells = [c.strip() for c in row.strip("|").split("|")][2:]
            assert len(cells) == 4
            assert all(math.isfinite(float(c)) for c in cells)

        result1 = run(
            RunConfig(
                task=1,
                method="formal",
                dataset_path=str(task1_path),
                corpus_path=str(fixture_corpus_path),
                output_dir=str(tmp_path / "t1"),
            )
        )
        for metrics in result1.report.ranking.values():
            values = [metrics.accuracy_at[k] for k in sorted(metrics.accuracy_at)]
            assert values == sorted(values), "accuracy@k must not decrease with k"
        counts = result1.manifest["counts"]
        assert counts["scored"] + counts["errored"] + counts["skipped"] == 23
