"""Span tracing of gdprkit's layers, installed from outside the package.

The tracer replaces each traced function at the place callers look it up
(the importing module's attribute, the class attribute for methods, and the
entries of the default ``FrontendRegistry``) with a wrapper that records a
span: name, start, end, parent span and run id.  Spans stay in memory and
are written out when the run ends.  ``uninstall`` puts every original back,
so untraced passes in the same process run the unmodified code.

A target that a later version of gdprkit no longer has is skipped and
listed in ``missing``: its time then shows up as self time of its caller.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from time import perf_counter

# span fields
NAME, START, END, PARENT, RUN, VALUE, ERROR = range(7)


def _facts_signature(args, result):
    return len(result), {(f.kind.value, f.symbol, f.data_category) for f in result}


def _targets(gdprkit) -> list[tuple[str, list[tuple[object, str]], object]]:
    """(span name, places that hold the same function, measure) for every traced call."""
    corpus, taskgen, facts, engine = gdprkit.corpus, gdprkit.taskgen, gdprkit.facts, gdprkit.engine
    knowledge, methods, metrics, harness = gdprkit.knowledge, gdprkit.methods, gdprkit.metrics, gdprkit.harness
    registry = facts.default_registry()
    frontends = getattr(registry, "_frontends", {})
    chars = lambda args, result: len(args[0])  # noqa: E731
    return [
        ("corpus.load", [(corpus, "load_corpus"), (harness, "load_corpus")], None),
        ("taskgen.build", [(taskgen, "build_task1")], None),
        ("taskgen.build", [(taskgen, "build_task2")], None),
        ("taskgen.load", [(harness, "load_task1")], None),
        ("taskgen.load", [(harness, "load_task2")], None),
        ("facts.structural",
         [(frontends, lang) for lang in sorted(frontends)] + [(facts, "structural_frontend")], chars),
        ("facts.lexical", [(registry, "_fallback"), (facts, "lexical_fallback")], chars),
        ("facts.regex_pass", [(facts, "_regex_pass")], None),
        ("facts.extract", [(engine, "extract_facts")], _facts_signature),
        ("engine.analyze", [(methods, "analyze_source")], None),
        ("engine.analyze", [(methods, "analyze_multigranularity")], None),
        ("engine.predicates", [(engine, "populate_predicates")], None),
        ("engine.rules", [(engine, "evaluate_rules")],
         lambda args, result: tuple(f.rule_id for f in result)),
        ("engine.rank", [(engine, "rank_articles")], None),
        ("engine.refocus", [(engine, "_refocus")], None),
        ("knowledge.build_kb", [(harness, "build_kb")], lambda args, result: len(result)),
        ("knowledge.retrieve", [(knowledge.KnowledgeBase, "retrieve")], None),
        ("methods.predict", [(methods.FormalMethod, "predict_file")], None),
        ("methods.predict", [(methods.FormalMethod, "predict_labels")], None),
        ("methods.predict", [(methods._PromptedMethod, "predict_file")], None),
        ("methods.predict", [(methods._PromptedMethod, "predict_labels")], None),
        ("methods.render",
         [(methods, "render_zero_shot_prompt"), (harness, "render_zero_shot_prompt")], None),
        ("methods.render", [(methods, "render_rag_prompt"), (harness, "render_rag_prompt")], None),
        ("methods.react", [(methods, "react_run")], lambda args, result: len(result.trace.steps)),
        ("methods.parse", [(methods, "parse_model_output")], None),
        ("methods.reasoner", [(methods.CachingReasoner, "complete")], lambda args, result: hash(args[1])),
        ("methods.reasoner", [(methods.CacheReplayReasoner, "complete")],
         lambda args, result: hash(args[1])),
        ("methods.reasoner", [(methods.ScriptedReasoner, "complete")], lambda args, result: hash(args[1])),
        ("methods.cache_get", [(methods.ResponseCache, "get")], lambda args, result: result is not None),
        ("methods.cache_get", [(methods.ResponseCache, "contains")], lambda args, result: bool(result)),
        ("methods.cache_put", [(methods.ResponseCache, "put")], None),
        ("metrics.score", [(harness, "evaluate_rankings")], None),
        ("metrics.score", [(harness, "evaluate_labels")], None),
        ("harness.run", [(harness, "run")], lambda args, result: dict(result.manifest["counts"])),
        ("harness.predict", [(harness, "predict_task1")], None),
        ("harness.predict", [(harness, "predict_task2")], None),
        ("harness.reconstruct", [(harness, "reconstruct_source")], None),
        ("harness.preflight", [(harness, "_replay_preflight")], None),
        ("harness.evaluate", [(harness, "evaluate_task1")], None),
        ("harness.evaluate", [(harness, "evaluate_task2")], None),
    ]


def _lookup(place, key):
    if isinstance(place, dict):
        return place.get(key)
    if isinstance(place, type):
        return place.__dict__.get(key)
    return getattr(place, key, None)


def _store(place, key, value) -> None:
    if isinstance(place, dict):
        place[key] = value
    else:
        setattr(place, key, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, gdprkit) -> None:
        for name, places, measure in _targets(gdprkit):
            originals = {id(_lookup(p, k)): _lookup(p, k) for p, k in places}
            present = [fn for fn in originals.values() if fn is not None]
            if len(present) != 1:
                self.missing.append(f"{name}: {', '.join(k for _, k in places)}")
                continue
            original = present[0]
            wrapper = self._wrap(name, original, measure)
            for place, key in places:
                if _lookup(place, key) is original:
                    self._saved.append((place, key, original))
                    _store(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, original in reversed(self._saved):
            _store(place, key, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, run, _, error in self.spans:
                out.write(json.dumps([name, start, end, parent, run, error]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(math.ceil(len(ordered) * pct / 100), 1)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 0.0, ordered[-1] if ordered else 0.0


def layer_metrics(spans: list[list], factors: dict[str, float], patterns: list[dict],
                  rule_ids: set[str]) -> dict[str, float]:
    """Per-layer self times and counts of the traced pass (spans whose run id is not 'setup').

    Every span's duration is multiplied by the speed factor of its run id,
    the same factor that speed-scales the wall time of that call.
    ``corpus.load_s`` and ``taskgen.build_s`` also include set-up, where the
    corpus is loaded and the datasets are built.
    """
    factor = [factors[s[RUN]] for s in spans]
    duration = [(s[END] - s[START]) * f for s, f in zip(spans, factor)]
    self_time = list(duration)
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= duration[i]
            children[s[PARENT]].append(i)
    in_pass = [s[RUN] != "setup" for s in spans]
    by_name: dict[tuple[str, bool], list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault((s[NAME], True), []).append(i)
        if in_pass[i]:
            by_name.setdefault((s[NAME], False), []).append(i)

    def select(name: str, everywhere: bool = False) -> list[int]:
        return by_name.get((name, everywhere), [])

    def busy(*names: str, everywhere: bool = False) -> float:
        return sum(self_time[i] for n in names for i in select(n, everywhere))

    m: dict[str, float] = {}
    m["corpus.load_s"] = busy("corpus.load", everywhere=True)
    m["taskgen.build_s"] = busy("taskgen.build", everywhere=True)
    m["taskgen.load_s"] = busy("taskgen.load")

    structural, lexical = select("facts.structural"), select("facts.lexical")
    extract = select("facts.extract")
    m["facts.structural_s"] = busy("facts.structural")
    m["facts.structural_calls"] = len(structural)
    m["facts.lexical_s"] = busy("facts.lexical")
    m["facts.lexical_calls"] = len(lexical)
    m["facts.regex_pass_s"] = busy("facts.regex_pass")
    m["facts.chars_in"] = sum(spans[i][VALUE] for i in structural + lexical if spans[i][VALUE] is not None)
    m["facts.facts_out"] = sum(spans[i][VALUE][0] for i in extract if spans[i][VALUE] is not None)
    m["facts.fallback_calls"] = sum(
        1
        for i in lexical
        if spans[i][PARENT] >= 0
        and any(spans[c][NAME] == "facts.structural" and spans[c][ERROR] for c in children[spans[i][PARENT]])
    )
    seen: set = set()
    for i in extract:
        if spans[i][VALUE] is not None:
            seen |= spans[i][VALUE][1]
    # regex entries name no symbol of their own: match them by fact kind and
    # data category among facts that no word entry explains
    word = {(kind, symbol) for kind, symbol, _ in seen}
    word_entries = {(p["kind"], p["pattern"]) for p in patterns if p.get("match", "word") == "word"}
    shapes = {(kind, category.value if category else None)
              for kind, symbol, category in seen if (kind, symbol) not in word_entries}
    matched = sum(
        1
        for p in patterns
        if ((p["kind"], p["pattern"]) in word if p.get("match", "word") == "word"
            else (p["kind"], p.get("data_category")) in shapes)
    )
    m["facts.patterns_matched_frac"] = matched / len(patterns)

    rules = select("engine.rules")
    fired = {rid for i in rules if spans[i][VALUE] is not None for rid in spans[i][VALUE]}
    m["engine.predicates_s"] = busy("engine.predicates")
    m["engine.rules_s"] = busy("engine.rules")
    m["engine.rank_s"] = busy("engine.rank")
    m["engine.refocus_s"] = busy("engine.refocus")
    m["engine.scopes"] = len(rules)
    m["engine.findings"] = sum(len(spans[i][VALUE] or ()) for i in rules)
    m["engine.rules_fired_frac"] = len(fired & rule_ids) / len(rule_ids)

    builds = select("knowledge.build_kb")
    retrieve_ms = [duration[i] * 1000 for i in select("knowledge.retrieve")]
    m["knowledge.build_kb_s"] = busy("knowledge.build_kb")
    m["knowledge.kb_docs"] = max((spans[i][VALUE] or 0 for i in builds), default=0)
    m["knowledge.retrieve_s"] = busy("knowledge.retrieve")
    m["knowledge.retrieve_calls"] = len(retrieve_ms)
    m["knowledge.retrieve_p50_ms"] = statistics.median(retrieve_ms) if retrieve_ms else 0.0
    m["knowledge.retrieve_tail_pct"], m["knowledge.retrieve_tail_ms"] = _tail(retrieve_ms)

    # only the outermost reasoner of a chain counts as a model call
    calls = [i for i in select("methods.reasoner")
             if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != "methods.reasoner"]
    unique = len({spans[i][VALUE] for i in calls})
    gets, puts = select("methods.cache_get"), select("methods.cache_put")
    m["methods.render_s"] = busy("methods.render", "methods.react")
    m["methods.renders"] = len(select("methods.render")) + len(select("methods.react"))
    m["methods.reasoner_calls"] = len(calls)
    m["methods.unique_prompts"] = unique
    m["methods.unique_prompt_ratio"] = unique / len(calls) if calls else 0.0
    m["methods.duplicate_prompt_frac"] = 1 - unique / len(calls) if calls else 0.0
    m["methods.parse_s"] = busy("methods.parse")
    m["methods.parse_failures"] = sum(1 for i in select("methods.parse") if spans[i][ERROR])
    m["methods.react_steps"] = sum(spans[i][VALUE] or 0 for i in select("methods.react"))
    m["methods.cache_get_s"] = busy("methods.cache_get")
    m["methods.cache_gets"] = len(gets)
    m["methods.cache_hit_ratio"] = sum(1 for i in gets if spans[i][VALUE]) / len(gets) if gets else 0.0
    m["methods.cache_put_s"] = busy("methods.cache_put")
    m["methods.cache_puts"] = len(puts)

    # artifacts: what harness.run does itself once scoring has finished
    runs = select("harness.run")
    artifacts = 0.0
    for r in runs:
        evaluated = [spans[c][END] for c in children[r] if spans[c][NAME] == "harness.evaluate"]
        tail_start = max(evaluated, default=spans[r][END])
        later = sum(duration[c] for c in children[r] if spans[c][START] >= tail_start)
        artifacts += (spans[r][END] - tail_start) * factor[r] - later
    m["harness.reconstruct_s"] = busy("harness.reconstruct")
    m["harness.reconstruct_calls"] = len(select("harness.reconstruct"))
    m["harness.preflight_s"] = busy("harness.preflight")
    m["harness.artifacts_s"] = artifacts
    for status in ("scored", "errored", "skipped"):
        m[f"harness.{status}"] = sum((spans[i][VALUE] or {}).get(status, 0) for i in runs)
    m["metrics.score_s"] = busy("metrics.score")

    for layer in ("corpus", "taskgen", "facts", "engine", "knowledge", "methods", "metrics", "harness"):
        m[f"{layer}.self_s"] = sum(
            self_time[i] for i, s in enumerate(spans) if in_pass[i] and s[NAME].split(".")[0] == layer
        )
    m["trace.self_sum_s"] = sum(self_time[i] for i in range(len(spans)) if in_pass[i])
    return m
