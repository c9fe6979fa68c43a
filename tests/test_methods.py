"""Prompt protocol, output parsing, reasoner bindings, and method adapters."""

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import sqlite3
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdprkit
from gdprkit.errors import (
    ConfigurationError,
    InputError,
    MethodError,
    ModelOutputError,
    ReplayMissError,
)
from gdprkit.corpus import split_snippet_path
from gdprkit.engine import RuleCatalog, default_catalog
from gdprkit.harness import RunConfig, predict_task1, predict_task2, task1_instances, task2_instances
from gdprkit.knowledge import ArticleInfo, KnowledgeBase, build_kb
from gdprkit.methods import (
    REACT_MAX_STEPS,
    CacheReplayReasoner,
    CachingReasoner,
    FormalMethod,
    LiveHttpReasoner,
    RagMethod,
    ReactMethod,
    ResponseCache,
    ScriptedReasoner,
    ZeroShotMethod,
    _parse_react_step,
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

    def test_meanings_block_is_built_once_per_catalog(self):
        class CountingCatalog(dict):
            builds = 0

            def items(self):  # the block is built from the items
                self.builds += 1
                return super().items()

        # a summary no other test uses, so no earlier prompt had this catalog
        catalog = CountingCatalog({6: ArticleInfo(6, "Lawfulness of processing", "counted")})
        prompts = [render_zero_shot_prompt(s, catalog) for s in ("x", "y")]
        prompts.append(render_rag_prompt("z", KnowledgeBase([]), catalog=catalog))
        assert catalog.builds == 1
        assert all("\n- Article 6: Lawfulness of processing\n\n" in p for p in prompts)
        # a catalog changed in place gets a new block
        catalog[5] = ArticleInfo(5, "Principles of processing", "summary")
        prompt = render_zero_shot_prompt("x", catalog)
        assert catalog.builds == 2
        assert "- Article 5: Principles of processing\n- Article 6: Lawfulness" in prompt


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

    def test_a_digit_run_over_the_int_string_limit_is_a_parse_error_not_a_crash(self):
        long_run = "1" * 5000  # past Python's default limit of 4,300 digits
        with pytest.raises(ModelOutputError):
            parse_model_output(f"6, {long_run}")
        assert parse_model_output(f"6, {long_run}, 32", strict=False) == (6, 32)

    def test_react_finish_reads_an_over_long_number_leniently(self):
        reasoner = ScriptedReasoner([f"Done.\nAction: finish\nAction Input: 6, {'1' * 5000}"])
        assert react_run("x", reasoner).ranking.articles == (6,)

    def test_200000_distinct_numbers_parse_in_linear_time(self):
        text = ", ".join(map(str, range(1, 200_001)))
        started = time.perf_counter()
        assert parse_model_output(text) == parse_model_output(text, strict=False) == tuple(range(1, 200_001))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    @given(labels=st.frozensets(st.integers(1, 99), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_format_parse_round_trip(self, labels):
        text = ",".join(map(str, sorted(labels))) or "0"
        assert frozenset(parse_model_output(text)) == labels


class TestInferenceConfig:
    """The live reasoner's sampling settings are constants; no run config sets them."""

    def test_deterministic_defaults(self):
        assert gdprkit.methods.SAMPLING["temperature"] == 0.0
        assert gdprkit.methods.SAMPLING["top_p"] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"max_response_tokens": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        raw = {"task": 2, "method": "zero_shot", "dataset_path": "task2.json", "inference": kwargs}
        with pytest.raises(ConfigurationError) as err:
            RunConfig.from_dict(raw)
        assert "unknown config keys: ['inference']" in str(err.value)


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

    def test_caching_reasoner_hashes_once_per_miss_and_per_hit(self, tmp_path, monkeypatch):
        hashed = []
        cache_key = ResponseCache.cache_key

        def counting_cache_key(reasoner_id, prompt):
            hashed.append(prompt)
            return cache_key(reasoner_id, prompt)

        monkeypatch.setattr(ResponseCache, "cache_key", staticmethod(counting_cache_key))
        caching = CachingReasoner(ScriptedReasoner(lambda prompt: "6"), ResponseCache(tmp_path))
        for prompt in ["p", "q", "p", "q", "r"]:
            assert caching.complete(prompt) == "6"
        assert (caching.misses, caching.hits) == (3, 2)
        assert hashed == ["p", "q", "p", "q", "r"]

    def test_put_after_get_of_another_prompt_or_reasoner_keys_its_own(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get("r1", "a") is None
        cache.put("r1", "b", "1")
        assert cache.get("r1", "b") == "1"
        cache.put("r2", "b", "2")
        prompt = "".join(["a", "b"])
        assert cache.get("r1", "ab") is None
        cache.put("r1", prompt, "3")
        got = [cache.get("r1", "b"), cache.get("r2", "b"), cache.get("r1", "ab")]
        assert got == ["1", "2", "3"]
        with contextlib.closing(sqlite3.connect(cache.path)) as db:
            rows = db.execute("SELECT key, reasoner_id, prompt FROM responses").fetchall()
        assert all(key == ResponseCache.cache_key(rid, prompt) for key, rid, prompt in rows)
        cache.close()

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
            LiveHttpReasoner("m")

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
            "m", endpoint="http://localhost:1/v1", session=session, sleep=sleeps.append
        )
        with pytest.raises(MethodError):
            reasoner.complete("p")
        assert session.posts == LiveHttpReasoner.MAX_ATTEMPTS
        assert sleeps == [1.0, 2.0]

    def test_live_reasoner_posts_sampling_settings(self):
        class RecordingSession:
            def __init__(self):
                self.payloads = []

            def post(self, url, json, **kwargs):
                self.payloads.append(json)
                return mock.Mock(json=lambda: {"text": "6"})

        session = RecordingSession()
        reasoner = LiveHttpReasoner("m", endpoint="http://x/v1", session=session)
        assert reasoner.complete("p") == "6"
        assert session.payloads == [
            {"model": "m", "prompt": "p", "temperature": 0.0, "top_p": 1.0, "max_tokens": 512, "n": 1}
        ]

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
            reasoner = LiveHttpReasoner("m", endpoint="http://x/v1", session=OkSession(body))
            assert reasoner.complete("p") == "6,32"

    @pytest.mark.parametrize("body", [[], "text", {"choices": ["x"]}], ids=["list", "string", "string-choice"])
    def test_live_reasoner_rejects_a_body_that_is_not_an_object(self, body):
        class OkSession:
            def __init__(self):
                self.posts = 0

            def post(self, *args, **kwargs):
                self.posts += 1
                return mock.Mock(json=lambda: body)

        session = OkSession()
        reasoner = LiveHttpReasoner("m", endpoint="http://x/v1", session=session, sleep=lambda s: None)
        with pytest.raises(MethodError, match="unrecognized completion response shape"):
            reasoner.complete("p")
        assert session.posts == 1


class TestZeroShotMethodPath:
    def test_stub_round_trip(self):
        reasoner = ScriptedReasoner(lambda p: "6,32")
        labels, ranking = ZeroShotMethod(reasoner).predict_labels(CAMERA_SNIPPET)
        assert labels == (6, 32)
        assert ranking.articles == (6, 32)
        assert reasoner.calls == [render_zero_shot_prompt(CAMERA_SNIPPET.removesuffix("\n"))]

    def test_unparseable_strict_output_raises_with_raw_text(self):
        with pytest.raises(ModelOutputError) as err:
            ZeroShotMethod(ScriptedReasoner(lambda p: "banana")).predict_labels("x")
        assert err.value.raw_text == "banana"

    def test_zero_answer_is_empty_label_set(self):
        labels, ranking = ZeroShotMethod(ScriptedReasoner(lambda p: "0")).predict_labels("x")
        assert labels == ()
        assert ranking.articles == ()

    def test_method_adapter_returns_labels_and_ranking(self):
        method = ZeroShotMethod(ScriptedReasoner(lambda p: "5,6"))
        labels, ranking = method.predict_labels("snippet")
        assert labels == (5, 6)
        assert ranking.articles == (5, 6)

    def test_labels_ascend_whatever_the_ranking_order(self):
        labels, ranking = ZeroShotMethod(ScriptedReasoner(lambda p: "32,6,5")).predict_labels("snippet")
        assert (labels, ranking.articles) == ((5, 6, 32), (32, 6, 5))


class TestRagMethodPath:
    def test_empty_kb_prompt_degrades_to_zero_shot(self):
        assert render_rag_prompt("snip", KnowledgeBase([])) == render_zero_shot_prompt("snip")

    def test_context_entry_count_matches_top_n(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        prompt = render_rag_prompt("location tracking", kb)
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
        assert labels == (6, 32)
        assert "Example (articles 6,32)" in reasoner.calls[0]

    def test_rag_method_adapter(self, fixture_corpus):
        kb = build_kb(fixture_corpus)
        method = RagMethod(ScriptedReasoner(lambda p: "5"), kb=kb)
        labels, ranking = method.predict_labels("storage of location data")
        assert labels == (5,)
        assert ranking.articles == (5,)

    def test_fixture_prompts_match_golden_hashes(self, fixture_corpus):
        """Every rag prompt the harness sends on both fixture tasks keeps its recorded bytes.

        Cached responses are keyed by prompt bytes, so a retrieval change that
        alters any prompt invalidates existing recordings.  Module instances
        reuse the file prediction, so each distinct task-1 prompt is sent
        exactly once, in order of first appearance.
        """
        kb = build_kb(fixture_corpus)
        entries1, entries2 = build_task1(fixture_corpus), build_task2(fixture_corpus)
        sent = {}
        for task, predict in (
            ("task1", lambda m: predict_task1(entries1, task1_instances(entries1), fixture_corpus, m)),
            ("task2", lambda m: predict_task2(entries2, task2_instances(entries2), m)),
        ):
            reasoner = ScriptedReasoner(lambda prompt: "0")
            predict(RagMethod(reasoner, kb))
            sent[task] = [hashlib.sha256(p.encode("utf-8")).hexdigest() for p in reasoner.calls]
        golden = json.loads((GOLDEN_DIR / "rag_prompts_fixture.json").read_text(encoding="utf-8"))
        assert sent["task2"] == golden["task2"]
        assert sent["task1"] == golden["task1"]
        # a snippet that is the lines of its span sends that span's task-1 prompt;
        # of the other three, one has no span and two have more lines than their span
        in_task1 = [digest in golden["task1"] for digest in golden["task2"]]
        assert in_task1 == [True, False, True, True, True, False, True, False, True, True]


class TestOnePromptPerSnippet:
    """A task-2 snippet sends the prompt that task 1 sends for the line span it was cut from."""

    @staticmethod
    def _prompts(records, calls) -> dict[str, str]:
        """The prompt each scored file, line or snippet instance sent.

        Every method sends one prompt per scope when the answer is "0", and
        a module instance sends none.
        """
        sent = [r.instance_id for r in records if r.status == "scored" and "::module::" not in r.instance_id]
        assert len(sent) == len(calls)
        return dict(zip(sent, calls))

    @pytest.mark.parametrize("method", ["zero_shot", "rag", "react"])
    @pytest.mark.parametrize(
        "corpus_name, matched, others",
        [
            (
                "fixture_corpus",
                7,
                {  # no span, and two snippets with more lines than their span
                    "web/src/analytics.js",
                    "app/src/main/java/me/hawkshaw/test/MainActivity2.java: lines 150-160",
                    "server/app/Http/UserController.php: line 88",
                },
            ),
            ("seed1_corpus", 887, set()),
        ],
    )
    def test_snippet_prompt_is_its_span_prompt(self, request, method, corpus_name, matched, others):
        corpus = request.getfixturevalue(corpus_name)
        build = {
            "zero_shot": ZeroShotMethod,
            "rag": lambda r: RagMethod(r, build_kb(corpus)),
            "react": ReactMethod,
        }[method]
        entries1, entries2 = build_task1(corpus), build_task2(corpus)
        instances1 = task1_instances(entries1)
        reasoner1, reasoner2 = ScriptedReasoner(lambda p: "0"), ScriptedReasoner(lambda p: "0")
        prompts1 = self._prompts(predict_task1(entries1, instances1, corpus, build(reasoner1)), reasoner1.calls)
        prompts2 = self._prompts(predict_task2(entries2, task2_instances(entries2), build(reasoner2)), reasoner2.calls)
        line_ids = {
            (entries1[inst.entry_index].repo_url, entries1[inst.entry_index].app_name,
             entries1[inst.entry_index].file_path, inst.span): inst.instance_id
            for inst in instances1
            if inst.granularity == "line"
        }
        unmatched = set()
        for inst, entry in zip(task2_instances(entries2), entries2):
            file_path, span = split_snippet_path(entry.code_snippet_path)
            span = span and (span.start_line, span.end_line)
            line_id = line_ids.get((entry.repo_url, entry.app_name, file_path, span))
            if prompts2[inst.instance_id] != prompts1.get(line_id):
                unmatched.add(entry.code_snippet_path)
        assert unmatched == others
        assert len(entries2) - len(unmatched) == matched


# The turn patterns before they were made linear: a lazy group followed by
# `\s*` retries a run of whitespace from each of its characters.
_PLAIN_ACTION_RE = re.compile(r"^Action:\s*(?P<action>.+?)\s*$", re.MULTILINE)
_PLAIN_ACTION_INPUT_RE = re.compile(
    r"Action Input:\s*(?P<value>.*?)\s*(?:\nObservation:|\nThought:|\Z)", re.DOTALL
)
_TURN_PIECES = ["Thought:", "Action:", "Action Input:", "Observation:", "Action", ":", "a", "finish",
                "6, 32", "\n", " ", "\t", "\r", "\x0b", "\x85", "\u2028"]


def _plain_parse(text: str) -> tuple[str, str, str] | None:
    m = _PLAIN_ACTION_RE.search(text)
    if m is None:
        return None
    thought = text[: m.start()].strip()
    if thought.startswith("Thought:"):
        thought = thought[len("Thought:"):].strip()
    input_m = _PLAIN_ACTION_INPUT_RE.search(text, m.end())
    return thought, m.group("action").strip(), input_m.group("value").strip() if input_m else ""


class TestReactTurnParse:
    @given(turn=st.lists(st.sampled_from(_TURN_PIECES), max_size=14).map("".join))
    @settings(max_examples=1000, deadline=None)
    @example(turn="Action:  \n\n")  # only whitespace after the action: the action is ""
    @example(turn="Action:\n\n")  # ... and no match when that whitespace is all newlines
    @example(turn="Action: a \n \nAction Input:\nObservation: x")  # input after its own newline
    @example(turn="Thought: t\nAction: a b \t\nAction Input: 6 \n\nThought: more")
    def test_parse_equals_plain_patterns(self, turn):
        assert _parse_react_step(turn) == _plain_parse(turn)

    @pytest.mark.parametrize(
        "turn",
        [
            "Thought: t\nAction: rule" + " " * 50_000 + "check\nAction Input: x",
            "Thought: t\nAction: finish\nAction Input: 6" + " " * 50_000 + "32",
            "Action:" + " " * 50_000,
        ],
        ids=["in-action", "in-input", "after-action"],
    )
    def test_parse_is_linear_in_a_whitespace_run(self, turn):
        started = time.perf_counter()
        _parse_react_step(turn)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


class TestReactLoop:
    def test_two_step_scripted_run(self):
        reasoner = ScriptedReasoner(
            [
                "I should check the rules.\nAction: rule_check\nAction Input: ",
                "Rules point at article 6.\nAction: finish\nAction Input: 6",
            ]
        )
        result = react_run(CAMERA_SNIPPET, reasoner)
        assert result.ranking.articles == (6,)
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

    def test_code_search_numbers_lines_by_newline_only(self):
        reasoner = ScriptedReasoner(
            ["Action: code_search\nAction Input: send", "Action: finish\nAction Input: 0"]
        )
        result = react_run('var s = "x\u2028y";\r\nsend(s);\n', reasoner)
        assert result.trace.steps[0].observation == "line 2: send(s);"

    def test_never_finishing_stub_hits_cap(self):
        reasoner = ScriptedReasoner(
            lambda p: "Still looking.\nAction: code_search\nAction Input: x"
        )
        result = react_run("int x;\n", reasoner)
        assert len(result.trace.steps) == REACT_MAX_STEPS == 5
        assert len(reasoner.calls) == 5
        assert result.trace.truncated is True

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
        assert result.ranking.articles == (6, 32)
        assert result.trace.truncated is False

    def test_reasoner_failure_propagates(self):
        calls = {"n": 0}

        def flaky(prompt: str) -> str:
            calls["n"] += 1
            if calls["n"] == 1:
                return "First step.\nAction: gdpr_lookup\nAction Input: 5"
            raise MethodError("endpoint down")

        with pytest.raises(MethodError, match="endpoint down"):
            react_run("x", ScriptedReasoner(flaky))
        assert calls["n"] == 2

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
        assert labels == (6, 32)
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
        method.rank(snippet, "py")
        observations = [reasoner.calls[i].rsplit("Observation: ", 1)[1] for i in (1, 3)]
        assert all("(A6-DEVICE-ID," in o for o in observations), observations


class TestFormalMethodAdapter:
    def test_camera_snippet_flags_article_six(self):
        labels, ranking = FormalMethod().predict_labels(CAMERA_SNIPPET)
        assert 6 in labels
        assert ranking.articles[0] == 6
        # the best three articles, ascending
        assert ranking.articles[:3] == (6, 25, 5)
        assert labels == (5, 6, 25)

    def test_label_threshold_filters_weak_articles(self):
        # weight 0.5 keeps one camera fact below confidence 1.0: 0.5 * (1 + ln 2) = 0.85
        weak = RuleCatalog([dataclasses.replace(rule, weight=0.5) for rule in default_catalog().rules])
        labels, ranking = FormalMethod(weak).predict_labels(CAMERA_SNIPPET)
        assert labels == ()
        assert ranking.articles != ()
        assert max(ranking.scores) < gdprkit.methods.LABEL_THRESHOLD == 1.0
        # at full weight the same findings reach the threshold
        strong = RuleCatalog([dataclasses.replace(rule, weight=1.0) for rule in default_catalog().rules])
        assert 6 in FormalMethod(strong).predict_labels(CAMERA_SNIPPET)[0]

    def test_rank_scores_the_file_and_a_line_span(self):
        source = "class A {\n    manager.openCamera(a, b, c);\n}\n"
        assert FormalMethod().rank(source, "java").articles[0] == 6
        assert FormalMethod().rank(source, "java", span=(2, 2)).articles[0] == 6
        assert FormalMethod().rank(source, "java", span=(3, 3)).articles == ()


class TestScopes:
    """Both method families rank one scope per call, behind one span check."""

    SOURCE = "int a;\nint b;\nint c;\n"

    @pytest.mark.parametrize("span", [(0, 1), (2, 1), (4, 5)])
    @pytest.mark.parametrize("family", ["formal", "prompted"])
    def test_span_outside_the_text_is_rejected(self, family, span):
        reasoner = ScriptedReasoner(lambda p: "0")
        method = FormalMethod() if family == "formal" else ZeroShotMethod(reasoner)
        with pytest.raises(InputError, match="outside the text"):
            method.rank(self.SOURCE, "java", span=span)
        assert reasoner.calls == []

    def test_prompted_span_sends_only_its_lines(self):
        reasoner = ScriptedReasoner(lambda p: "0")
        method = ZeroShotMethod(reasoner)
        method.rank(self.SOURCE, "java", span=(2, 3))
        method.rank(self.SOURCE, "java", span=(4, 4))  # the empty line after the last "\n"
        assert reasoner.calls == [method.prompt("int b;\nint c;"), method.prompt("")]

    def test_formal_scopes_of_one_text_extract_its_facts_once(self, monkeypatch):
        calls = []
        extract = gdprkit.engine.extract_facts

        def counted(source, language):
            calls.append(source)
            return extract(source, language)

        monkeypatch.setattr(gdprkit.engine, "extract_facts", counted)
        gdprkit.engine._facts_of.cache_clear()
        method = FormalMethod()
        for span in (None, (1, 1), (2, 3), None):
            method.rank(self.SOURCE, "java", span=span)
        method.predict_labels("int d;", "java")
        assert calls == [self.SOURCE, "int d;"]
