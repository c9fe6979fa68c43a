"""Prompt protocol, output parsing, reasoner bindings, and method adapters."""

import contextlib
import hashlib
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdprkit
from gdprkit.errors import (
    ConfigurationError,
    MethodError,
    ModelOutputError,
    ReplayMissError,
)
from gdprkit.harness import predict_task1, predict_task2
from gdprkit.knowledge import ArticleInfo, KnowledgeBase, build_kb
from gdprkit.methods import (
    CacheReplayReasoner,
    CachingReasoner,
    FormalMethod,
    InferenceConfig,
    LabelSet,
    LiveHttpReasoner,
    RagMethod,
    ReactMethod,
    ResponseCache,
    ScriptedReasoner,
    ZeroShotMethod,
    format_labels,
    parse_model_output,
    react_run,
    render_rag_prompt,
    render_zero_shot_prompt,
)
from gdprkit.taskgen import build_task1, build_task2
from tests.conftest import GOLDEN_DIR, examples_only_kb

CAMERA_SNIPPET = "            manager.openCamera(camerId, stateCallback, null);\n"


class TestZeroShotPrompt:
    def test_contains_required_instruction_lines_verbatim(self):
        prompt = render_zero_shot_prompt(CAMERA_SNIPPET)
        assert (
            "You are a GDPR compliance expert. Your task is to determine which "
            "GDPR articles are violated by the following code snippet." in prompt
        )
        assert "GDPR Article Meanings:" in prompt
        assert "Instructions:" in prompt
        assert "- Carefully analyze the code snippet." in prompt
        assert (
            "- Only output the violated GDPR article numbers, separated by commas "
            "(e.g.,5,6,32)." in prompt
        )
        assert "- If there is no violation, output exactly 0." in prompt
        assert "Code snippet:" in prompt

    def test_meaning_lines_use_article_titles(self):
        prompt = render_zero_shot_prompt("x")
        assert "- Article 5: Principles of processing" in prompt
        assert "- Article 6: Lawfulness of processing" in prompt
        assert "- Article 7: Conditions for consent" in prompt

    def test_single_article_catalog_renders_one_meaning_line(self):
        catalog = {6: ArticleInfo(6, "Lawfulness of processing", "summary")}
        prompt = render_zero_shot_prompt("x", catalog)
        lines = [l for l in prompt.splitlines() if l.startswith("- Article")]
        assert lines == ["- Article 6: Lawfulness of processing"]

    def test_snippet_embedded_verbatim(self):
        snippet = "   leading spaces kept\n\ttab too"
        prompt = render_zero_shot_prompt(snippet)
        assert prompt.endswith("Code snippet:\n" + snippet)

    def test_meanings_sorted_by_article_number(self):
        prompt = render_zero_shot_prompt("x")
        numbers = [
            int(l.split(":")[0].removeprefix("- Article ").strip())
            for l in prompt.splitlines()
            if l.startswith("- Article")
        ]
        assert numbers == sorted(numbers)


class TestParseModelOutput:
    def test_comma_list(self):
        assert parse_model_output("5,6,32") == (5, 6, 32)

    def test_zero_means_no_violation(self):
        assert parse_model_output("0") == ()

    def test_whitespace_tolerated(self):
        assert parse_model_output("  6 , 32 ") == (6, 32)

    def test_prose_rejected_in_strict_mode(self):
        with pytest.raises(ModelOutputError) as err:
            parse_model_output("Articles 6 and 32 apply")
        assert err.value.raw_text == "Articles 6 and 32 apply"

    def test_prose_read_leniently(self):
        assert parse_model_output("Articles 6 and 32 apply", strict=False) == (6, 32)

    def test_zero_mixed_with_labels_rejected(self):
        with pytest.raises(ModelOutputError):
            parse_model_output("0,6")

    def test_lenient_drops_zeros_and_dedupes(self):
        assert parse_model_output("6, 0, 32, 6", strict=False) == (6, 32)

    def test_empty_text_strict_rejected_lenient_empty(self):
        with pytest.raises(ModelOutputError):
            parse_model_output("")
        assert parse_model_output("", strict=False) == ()

    def test_format_labels(self):
        assert format_labels(LabelSet({32, 6})) == "6,32"
        assert format_labels(LabelSet()) == "0"

    @given(labels=st.frozensets(st.integers(1, 99), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_format_parse_round_trip(self, labels):
        text = format_labels(LabelSet(labels))
        assert frozenset(parse_model_output(text)) == labels

    def test_label_set_rejects_non_positive(self):
        from gdprkit.errors import InputError

        with pytest.raises(InputError):
            LabelSet({0})
        with pytest.raises(InputError):
            LabelSet({-4})


class TestInferenceConfig:
    def test_deterministic_defaults(self):
        config = InferenceConfig()
        assert config.temperature == 0.0
        assert config.top_p == 1.0
        assert config.completions == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"completions": 2},
            {"max_response_tokens": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            InferenceConfig(**kwargs)


class TestReasoners:
    def test_scripted_list_replays_in_order(self):
        reasoner = ScriptedReasoner(["first", "second"])
        assert reasoner.complete("a") == "first"
        assert reasoner.complete("b") == "second"
        assert reasoner.calls == ["a", "b"]

    def test_scripted_mapping_and_callable(self):
        by_prompt = ScriptedReasoner({"p": "answer"})
        assert by_prompt.complete("p") == "answer"
        fn = ScriptedReasoner(lambda prompt: prompt.upper())
        assert fn.complete("ok") == "OK"

    def test_cache_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get("r1", "prompt") is None
        cache.put("r1", "prompt", "6,32")
        assert cache.get("r1", "prompt") == "6,32"
        key = ResponseCache.cache_key("r1", "prompt")
        assert len(key) == 64 and all(c in "0123456789abcdef" for c in key)

    def test_cache_rerecord_keeps_equal_rows_and_replaces_changed_ones(self, tmp_path):
        cache = ResponseCache(tmp_path)

        def rows():
            with contextlib.closing(sqlite3.connect(cache.path)) as db:
                return db.execute("SELECT response, created_at FROM responses").fetchall()

        cache.put("r1", "prompt", "6")
        first = rows()
        cache.put("r1", "prompt", "6")
        assert rows() == first
        cache.put("r1", "prompt", "32")
        assert [response for response, _ in rows()] == ["32"]
        cache.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["responses.sqlite3"]

    def test_cache_keeps_every_put_when_the_writer_dies_unclosed(self, tmp_path):
        """Each put commits on its own, so a process that exits without closing loses none."""
        n = 50
        script = (
            "import os, sys\n"
            "from gdprkit.methods import ResponseCache\n"
            "cache = ResponseCache(sys.argv[1])\n"
            f"for i in range({n}):\n"
            "    cache.put('r1', f'prompt {i}', f'{i}')\n"
            "os._exit(1)\n"
        )
        src = str(Path(gdprkit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=dict(os.environ, PYTHONPATH=src), timeout=60
        )
        assert proc.returncode == 1
        assert (tmp_path / "responses.sqlite3-wal").stat().st_size > 0
        cache = ResponseCache(tmp_path)
        assert [cache.get("r1", f"prompt {i}") for i in range(n)] == [f"{i}" for i in range(n)]
        cache.close()

    def test_cache_key_separates_reasoners(self):
        assert ResponseCache.cache_key("a", "p") != ResponseCache.cache_key("b", "p")

    def test_caching_reasoner_skips_wrapped_on_hit(self, tmp_path):
        wrapped = ScriptedReasoner(lambda prompt: "6")
        caching = CachingReasoner(wrapped, ResponseCache(tmp_path))
        assert caching.complete("p") == "6"
        assert caching.complete("p") == "6"
        assert wrapped.calls == ["p"]
        assert caching.misses == 1
        assert caching.hits == 1

    def test_replay_reasoner_serves_cache_only(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("run1", "known", "5")
        replay = CacheReplayReasoner(cache, "run1")
        assert replay.complete("known") == "5"
        with pytest.raises(ReplayMissError) as err:
            replay.complete("unknown")
        assert err.value.missing_keys == [ResponseCache.cache_key("run1", "unknown")]

    def test_live_reasoner_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("GDPRKIT_ENDPOINT", raising=False)
        with pytest.raises(ConfigurationError):
            LiveHttpReasoner()

    def test_live_reasoner_retries_then_fails(self):
        import requests

        class FailingSession:
            def __init__(self):
                self.posts = 0

            def post(self, *args, **kwargs):
                self.posts += 1
                raise requests.ConnectionError("refused")

        session = FailingSession()
        sleeps = []
        reasoner = LiveHttpReasoner(
            endpoint="http://localhost:1/v1", session=session, sleep=sleeps.append
        )
        with pytest.raises(MethodError):
            reasoner.complete("p")
        assert session.posts == LiveHttpReasoner.MAX_ATTEMPTS
        assert sleeps == [1.0, 2.0]

    def test_live_reasoner_reads_completion_shapes(self):
        class OkResponse:
            def __init__(self, body):
                self.body = body

            def raise_for_status(self):
                pass

            def json(self):
                return self.body

        class OkSession:
            def __init__(self, body):
                self.body = body

            def post(self, *args, **kwargs):
                return OkResponse(self.body)

        for body in (
            {"text": "6,32"},
            {"choices": [{"text": "6,32"}]},
            {"choices": [{"message": {"content": "6,32"}}]},
        ):
            reasoner = LiveHttpReasoner(endpoint="http://x/v1", session=OkSession(body))
            assert reasoner.complete("p") == "6,32"


class TestZeroShotMethodPath:
    def test_stub_round_trip(self):
        reasoner = ScriptedReasoner(lambda p: "6,32")
        labels, ranking = ZeroShotMethod(reasoner).predict_labels(CAMERA_SNIPPET)
        assert labels == LabelSet({6, 32})
        assert ranking.articles == (6, 32)
        assert reasoner.calls == [render_zero_shot_prompt(CAMERA_SNIPPET)]

    def test_unparseable_strict_output_raises_with_raw_text(self):
        with pytest.raises(ModelOutputError) as err:
            ZeroShotMethod(ScriptedReasoner(lambda p: "banana")).predict_labels("x")
        assert err.value.raw_text == "banana"

    def test_zero_answer_is_empty_label_set(self):
        labels, ranking = ZeroShotMethod(ScriptedReasoner(lambda p: "0")).predict_labels("x")
        assert labels == LabelSet()
        assert ranking.articles == ()

    def test_method_adapter_returns_labels_and_ranking(self):
        method = ZeroShotMethod(ScriptedReasoner(lambda p: "5,6"))
        labels, ranking = method.predict_labels("snippet")
        assert labels == LabelSet({5, 6})
        assert ranking.articles == (5, 6)

    @pytest.mark.parametrize("span_answer", [None, "banana"])
    def test_predict_file_replay_miss_lists_every_scope(self, tmp_path, span_answer):
        """Each scope the cache lacks is listed; a later failure of another kind cannot hide them."""
        cache = ResponseCache(tmp_path)
        method = ZeroShotMethod(CacheReplayReasoner(cache, "run1"))
        source = "int a;\nint b;\nint c;"
        spans = [(1, 1), (2, 3)]
        texts = [source, "int a;", "int b;\nint c;"]
        keys = [ResponseCache.cache_key("run1", method.prompt(t)) for t in texts]
        if span_answer is not None:
            cache.put("run1", method.prompt(texts[1]), span_answer)
        with pytest.raises(ReplayMissError) as err:
            method.predict_file(source, "java", line_spans=spans)
        # an unparseable cached answer stops the file at its span, so later keys go unlisted
        assert err.value.missing_keys == (keys if span_answer is None else keys[:1])


class TestRagMethodPath:
    def test_empty_kb_prompt_degrades_to_zero_shot(self):
        assert render_rag_prompt("snip", KnowledgeBase([])) == render_zero_shot_prompt("snip")

    def test_context_entry_count_matches_top_n(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        prompt = render_rag_prompt("location tracking", kb, top_n=3)
        assert "Context:" in prompt
        entries = [l for l in prompt.splitlines() if l[:3] in ("1. ", "2. ", "3. ", "4. ")]
        assert len(entries) == 3

    def test_echo_stub_reads_labels_from_first_example(self, camera_record_pair):
        kb = examples_only_kb(camera_record_pair)

        def echo(prompt: str) -> str:
            for line in prompt.splitlines():
                if line.startswith("1. Example (articles "):
                    return line.removeprefix("1. Example (articles ").rstrip("):")
            return "0"

        reasoner = ScriptedReasoner(echo)
        labels, _ = RagMethod(reasoner, kb).predict_labels(CAMERA_SNIPPET)
        assert labels == LabelSet({6, 32})
        assert "Example (articles 6,32)" in reasoner.calls[0]

    def test_rag_method_adapter(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        method = RagMethod(ScriptedReasoner(lambda p: "5"), kb=kb)
        labels, ranking = method.predict_labels("storage of location data")
        assert labels == LabelSet({5})
        assert ranking.articles == (5,)

    def test_fixture_prompts_match_golden_hashes(self, fixture_corpus):
        """Every rag prompt the harness sends on both fixture tasks keeps its recorded bytes.

        Cached responses are keyed by prompt bytes, so a retrieval change that
        alters any prompt invalidates existing recordings.  The golden file
        lists a task-1 file's prompt once more for each of its modules; module
        instances reuse the file prediction, so each distinct task-1 prompt
        must be sent exactly once, in order of first appearance.
        """
        kb = build_kb(fixture_corpus)
        sent = {}
        for task, predict in (
            ("task1", lambda m: predict_task1(build_task1(fixture_corpus), fixture_corpus, m)),
            ("task2", lambda m: predict_task2(build_task2(fixture_corpus), m)),
        ):
            reasoner = ScriptedReasoner(lambda prompt: "0")
            predict(RagMethod(reasoner, kb, top_n=3))
            sent[task] = [hashlib.sha256(p.encode("utf-8")).hexdigest() for p in reasoner.calls]
        golden = json.loads((GOLDEN_DIR / "rag_prompts_fixture.json").read_text(encoding="utf-8"))
        assert sent["task2"] == golden["task2"]
        assert sent["task1"] == list(dict.fromkeys(golden["task1"]))


class TestReactLoop:
    def test_two_step_scripted_run(self):
        reasoner = ScriptedReasoner(
            [
                "I should check the rules.\nAction: rule_check\nAction Input: ",
                "Rules point at article 6.\nAction: finish\nAction Input: 6",
            ]
        )
        result = react_run(CAMERA_SNIPPET, reasoner)
        assert result.labels == LabelSet({6})
        assert len(result.trace.steps) == 2
        assert result.trace.truncated is False
        assert result.trace.steps[0].action == "rule_check"
        assert result.trace.steps[1].action == "finish"

    def test_gdpr_lookup_observation_names_article_six(self):
        reasoner = ScriptedReasoner(
            [
                "Look up article 6.\nAction: gdpr_lookup\nAction Input: 6",
                "Done.\nAction: finish\nAction Input: 6",
            ]
        )
        result = react_run("x", reasoner)
        assert "Lawfulness of processing" in result.trace.steps[0].observation

    def test_code_search_finds_matching_lines(self):
        reasoner = ScriptedReasoner(
            [
                "Find the call.\nAction: code_search\nAction Input: openCamera",
                "Action: finish\nAction Input: 0",
            ]
        )
        result = react_run(CAMERA_SNIPPET, reasoner)
        assert "openCamera" in result.trace.steps[0].observation

    def test_never_finishing_stub_hits_cap(self):
        reasoner = ScriptedReasoner(
            lambda p: "Still looking.\nAction: code_search\nAction Input: x"
        )
        result = react_run("int x;\n", reasoner, max_iterations=5)
        assert len(result.trace.steps) == 5
        assert result.trace.truncated is True

    def test_cap_never_exceeded_for_any_budget(self):
        for cap in (1, 2, 3, 7):
            reasoner = ScriptedReasoner(
                lambda p: "Again.\nAction: gdpr_lookup\nAction Input: 5"
            )
            result = react_run("x", reasoner, max_iterations=cap)
            assert len(result.trace.steps) <= cap

    def test_unknown_tool_observation_lists_available_tools(self):
        reasoner = ScriptedReasoner(
            [
                "Try something odd.\nAction: grep\nAction Input: x",
                "Action: finish\nAction Input: 0",
            ]
        )
        result = react_run("x", reasoner)
        obs = result.trace.steps[0].observation
        assert "gdpr_lookup" in obs and "finish" in obs

    def test_turn_without_action_finishes_leniently(self):
        reasoner = ScriptedReasoner(["The answer is articles 6 and 32."])
        result = react_run("x", reasoner)
        assert result.labels == LabelSet({6, 32})
        assert result.trace.truncated is False

    def test_reasoner_failure_carries_partial_trace(self):
        calls = {"n": 0}

        def flaky(prompt: str) -> str:
            calls["n"] += 1
            if calls["n"] == 1:
                return "First step.\nAction: gdpr_lookup\nAction Input: 5"
            raise MethodError("endpoint down")

        with pytest.raises(MethodError) as err:
            react_run("x", ScriptedReasoner(flaky))
        assert len(err.value.trace.steps) == 1
        assert err.value.trace.truncated is True

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            react_run("x", ScriptedReasoner(["a"]), max_iterations=0)

    def test_transcript_records_observations(self):
        reasoner = ScriptedReasoner(
            [
                "Check.\nAction: gdpr_lookup\nAction Input: 6",
                "Action: finish\nAction Input: 6",
            ]
        )
        result = react_run("x", reasoner)
        assert "Observation: Article 6:" in result.transcript
        assert result.transcript.count("Thought:") >= 2

    def test_react_method_adapter(self):
        reasoner = ScriptedReasoner(
            [
                "Check rules.\nAction: rule_check\nAction Input: ",
                "Action: finish\nAction Input: 6,32",
            ]
        )
        method = ReactMethod(reasoner)
        labels, ranking = method.predict_labels(CAMERA_SNIPPET)
        assert labels == LabelSet({6, 32})
        assert ranking.articles == (6, 32)

    def test_react_method_rule_check_uses_instance_language(self):
        # `#` starts no comment for the Java scanner: the apostrophes below
        # would open a char literal that hides the getDeviceId call
        snippet = "# the user's handset id\nimei = tm.getDeviceId()\n# don't send it\n"
        reasoner = ScriptedReasoner(
            ["Check rules.\nAction: rule_check\nAction Input: ", "Action: finish\nAction Input: 6"]
            * 2
        )
        method = ReactMethod(reasoner)
        method.predict_labels(snippet, "py")
        method.predict_file(snippet, "py")
        observations = [reasoner.calls[i].rsplit("Observation: ", 1)[1] for i in (1, 3)]
        assert all("(A6-DEVICE-ID," in o for o in observations), observations


class TestFormalMethodAdapter:
    def test_camera_snippet_flags_article_six(self):
        labels, ranking = FormalMethod().predict_labels(CAMERA_SNIPPET)
        assert 6 in labels
        assert ranking.articles[0] == 6

    def test_label_threshold_filters_weak_articles(self):
        strict = FormalMethod(label_threshold=10.0)
        labels, ranking = strict.predict_labels(CAMERA_SNIPPET)
        assert labels == LabelSet()
        assert ranking.articles != ()

    def test_predict_file_produces_all_granularities(self):
        source = "class A {\n    manager.openCamera(a, b, c);\n}\n"
        rankings = FormalMethod().predict_file(source, "java", line_spans=[(2, 2)])
        assert rankings.file.articles[0] == 6
        assert set(rankings.lines) == {(2, 2)}
        assert rankings.lines[(2, 2)].articles[0] == 6
