"""Prediction methods and model bindings.

Four interchangeable methods produce article predictions: the formal rule
engine, zero-shot prompting, retrieval-augmented prompting, and a tool-using
agent loop.  Model access goes through a tiny Reasoner interface with three
bindings: live HTTP, scripted (for tests), and cache replay, which serves
previously recorded responses and refuses to go to the network.  All prompts
are byte-stable so cached runs reproduce exactly.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from .engine import RankedPrediction, RuleCatalog, analyze_source, check_span
from .errors import ConfigurationError, InputError, MethodError, ModelOutputError, ReplayMissError
from .knowledge import (
    ArticleInfo,
    KnowledgeBase,
    VIOLATION_EXAMPLE,
    article_catalog,
    article_lookup,
)
from .errors import UnknownArticleError

if TYPE_CHECKING:
    import sqlite3


# ---------------------------------------------------------------------------
# Label sets


class LabelSet(frozenset):
    """Set of violated article numbers; empty means no violation."""

    def __new__(cls, articles: Sequence[int] = ()):
        items = []
        for a in articles:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise InputError(f"article labels must be positive integers, got {a!r}")
            items.append(a)
        return super().__new__(cls, items)


_STRICT_RE = re.compile(r"^\s*(\d+(?:\s*,\s*\d+)*)\s*$")
_INT_RE = re.compile(r"\d+")


def parse_model_output(text: str, *, strict: bool = True) -> tuple[int, ...]:
    """Extract an ordered tuple of distinct article numbers from model text.

    Strict mode requires the whole response to be a comma-separated number
    list (or exactly ``0`` for no violation) and rejects anything else.
    Lenient mode scavenges every integer in order of appearance and drops
    zeros.  First appearance wins for ranking purposes either way.
    """
    if strict:
        m = _STRICT_RE.match(text)
        if m is None:
            raise ModelOutputError(text)
        numbers = [int(p) for p in m.group(1).split(",")]
        if 0 in numbers:
            if numbers == [0]:
                return ()
            raise ModelOutputError(text, "zero mixed with article numbers")
    else:
        numbers = [int(p) for p in _INT_RE.findall(text) if int(p) != 0]
    out: list[int] = []
    for n in numbers:
        if n not in out:
            out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Reasoner bindings


class Reasoner(Protocol):
    reasoner_id: str

    def complete(self, prompt: str) -> str: ...


class StubReasoner:
    """The offline ``stub`` binding: answers "0" (no article) to every prompt and keeps none."""

    def __init__(self, model: str):
        self.reasoner_id = f"stub:{model}"

    def complete(self, prompt: str) -> str:
        return "0"


class ScriptedReasoner:
    """Deterministic test double: answers from a dict, list, or callable."""

    def __init__(self, script, reasoner_id: str = "scripted"):
        self.reasoner_id = reasoner_id
        self._script = script
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if callable(self._script):
            return self._script(prompt)
        if isinstance(self._script, Mapping):
            try:
                return self._script[prompt]
            except KeyError:
                raise MethodError("scripted reasoner has no response for this prompt") from None
        if isinstance(self._script, list):
            if not self._script:
                raise MethodError("scripted reasoner ran out of responses")
            return self._script.pop(0)
        return str(self._script)


# Every live request asks for one greedy completion, so that a recorded run can be replayed.
SAMPLING = {"temperature": 0.0, "top_p": 1.0, "max_tokens": 512, "n": 1}


class LiveHttpReasoner:
    """Completion-over-HTTP binding.

    Endpoint, credential, and model name come from arguments or the
    GDPRKIT_ENDPOINT / GDPRKIT_API_KEY / GDPRKIT_MODEL environment
    variables.  Transient transport failures retry with exponential backoff
    before surfacing as a MethodError.  Requests carry the ``SAMPLING`` settings.
    """

    MAX_ATTEMPTS = 3

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get("GDPRKIT_ENDPOINT")
        if not self.endpoint:
            raise ConfigurationError(
                "no endpoint configured; pass endpoint= or set GDPRKIT_ENDPOINT"
            )
        self.api_key = api_key or os.environ.get("GDPRKIT_API_KEY")
        self.model = model or os.environ.get("GDPRKIT_MODEL", "default")
        if session is None:
            import requests
            session = requests.Session()
        self.session = session
        self.sleep = sleep
        self.reasoner_id = f"http:{self.model}"

    def complete(self, prompt: str) -> str:
        payload = {"model": self.model, "prompt": prompt, **SAMPLING}
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        import requests
        last_error: Exception | None = None
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=60
                )
                resp.raise_for_status()
                return self._extract_text(resp.json())
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt < self.MAX_ATTEMPTS - 1:
                    self.sleep(2.0**attempt)
        raise MethodError(
            f"model endpoint failed after {self.MAX_ATTEMPTS} attempts: {last_error}"
        ) from last_error

    @staticmethod
    def _extract_text(body: dict) -> str:
        if isinstance(body.get("text"), str):
            return body["text"]
        choices = body.get("choices")
        if isinstance(choices, list) and choices:
            first = choices[0]
            if isinstance(first.get("text"), str):
                return first["text"]
            message = first.get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
        raise MethodError(f"unrecognized completion response shape: {sorted(body)}")


class ResponseCache:
    """Responses keyed by ``cache_key`` in one SQLite file, ``<root>/responses.sqlite3``.

    Each ``put`` commits on its own, so a response survives a process crash
    once ``put`` returns.  An equal re-record leaves its row untouched; a
    different one replaces it.  Nothing is created before the first ``put``.
    A directory of old-format ``*.json`` entries raises ConfigurationError.
    SQLite loads on first use, so a run that never reads or writes a
    response does not load it.
    A ``put`` right after a ``get`` of the same reasoner id and the same
    prompt object reuses the key ``get`` computed, so a miss hashes its
    prompt once.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / "responses.sqlite3"
        if self.root.is_dir() and any(self.root.glob("*.json")):
            raise ConfigurationError(
                f"{self.root} holds old-format *.json cache entries; record into a new cache_dir"
            )
        self._db: sqlite3.Connection | None = None
        self._last_key: tuple[str, str, str] | None = None  # (reasoner_id, prompt, key)

    @staticmethod
    def cache_key(reasoner_id: str, prompt: str) -> str:
        digest = hashlib.sha256()
        digest.update(reasoner_id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(prompt.encode("utf-8"))
        return digest.hexdigest()

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        if self._db is None and (create or self.path.exists()):
            import sqlite3
            from datetime import datetime, timezone

            self._now = lambda: datetime.now(timezone.utc).isoformat()
            self.root.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(self.path, isolation_level=None)  # autocommit
            self._db.executescript(
                "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; PRAGMA cache_size=-64;"
                "CREATE TABLE IF NOT EXISTS responses (key TEXT PRIMARY KEY,"
                " reasoner_id TEXT, prompt TEXT, response TEXT, created_at TEXT);"
            )
        return self._db

    def get(self, reasoner_id: str, prompt: str) -> str | None:
        db = self._connect(create=False)
        key = self.cache_key(reasoner_id, prompt)
        self._last_key = (reasoner_id, prompt, key)
        row = db and db.execute("SELECT response FROM responses WHERE key = ?", (key,)).fetchone()
        return row[0] if row else None

    def put(self, reasoner_id: str, prompt: str, response: str) -> None:
        last = self._last_key
        if last is not None and last[1] is prompt and last[0] == reasoner_id:
            key = last[2]
        else:
            key = self.cache_key(reasoner_id, prompt)
        self._connect(create=True).execute(
            "INSERT INTO responses VALUES (?, ?, ?, ?, ?) ON CONFLICT (key) DO UPDATE SET"
            " response = excluded.response, created_at = excluded.created_at"
            " WHERE response != excluded.response",
            (key, reasoner_id, prompt, response, self._now()),
        )

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None


class CachingReasoner:
    """Wraps any reasoner with read-through response caching."""

    def __init__(self, wrapped: Reasoner, cache: ResponseCache):
        self.wrapped = wrapped
        self.cache = cache
        self.reasoner_id = wrapped.reasoner_id
        self.hits = 0
        self.misses = 0

    def complete(self, prompt: str) -> str:
        cached = self.cache.get(self.reasoner_id, prompt)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        response = self.wrapped.complete(prompt)
        self.cache.put(self.reasoner_id, prompt, response)
        return response


class CacheReplayReasoner:
    """Offline binding: every prompt must already be in the cache."""

    def __init__(self, cache: ResponseCache, reasoner_id: str):
        self.cache = cache
        self.reasoner_id = reasoner_id

    def complete(self, prompt: str) -> str:
        response = self.cache.get(self.reasoner_id, prompt)
        if response is None:
            raise ReplayMissError([self.cache.cache_key(self.reasoner_id, prompt)])
        return response


# ---------------------------------------------------------------------------
# Prompt templates

PROMPT_HEADER = (
    "You are a GDPR compliance expert. Your task is to determine which GDPR "
    "articles are violated by the following code snippet."
)
MEANINGS_HEADING = "GDPR Article Meanings:"
CONTEXT_HEADING = "Context:"
INSTRUCTIONS_HEADING = "Instructions:"
INSTRUCTION_LINES = (
    "- Carefully analyze the code snippet.",
    "- Only output the violated GDPR article numbers, separated by commas (e.g.,5,6,32).",
    "- If there is no violation, output exactly 0.",
)
CODE_HEADING = "Code snippet:"


# The meanings block last built, with a copy of the catalog it was built from.
_last_meanings: tuple[dict[int, ArticleInfo], str] = ({}, "")


def _meanings_block(catalog: Mapping[int, ArticleInfo]) -> str:
    """One line per article of ``catalog``, by number.

    The block is built once per catalog: it is rebuilt only when
    ``catalog`` differs from the copy kept of the catalog it was last built
    from, so a catalog changed in place gets a new block.
    """
    global _last_meanings
    last_catalog, block = _last_meanings
    if catalog != last_catalog:
        block = "\n".join(f"- Article {n}: {info.title}" for n, info in sorted(catalog.items()))
        _last_meanings = (dict(catalog), block)
    return block


def _assemble_prompt(
    snippet: str, catalog: Mapping[int, ArticleInfo] | None, context: str
) -> str:
    """The prompt sections in order; an empty context leaves its section out."""
    meanings = _meanings_block(article_catalog() if catalog is None else catalog)
    sections = [PROMPT_HEADER, f"{MEANINGS_HEADING}\n{meanings}"]
    if context:
        sections.append(f"{CONTEXT_HEADING}\n{context}")
    sections.append(f"{INSTRUCTIONS_HEADING}\n" + "\n".join(INSTRUCTION_LINES))
    sections.append(f"{CODE_HEADING}\n{snippet}")
    return "\n\n".join(sections)


def render_zero_shot_prompt(
    snippet: str, catalog: Mapping[int, ArticleInfo] | None = None
) -> str:
    return _assemble_prompt(snippet, catalog, "")


def _context_block(retrieved: Sequence[tuple]) -> str:
    parts = []
    for i, (doc, _score) in enumerate(retrieved, start=1):
        if doc.kind == VIOLATION_EXAMPLE:
            labels = ",".join(str(a) for a in sorted(doc.labels)) or "none"
            parts.append(f"{i}. Example (articles {labels}):\n{doc.body.rstrip()}")
        else:
            parts.append(f"{i}. {doc.body.rstrip()}")
    return "\n".join(parts)


KB_TOP_N = 3  # retrieved documents in a rag prompt's context


def render_rag_prompt(
    snippet: str, kb: KnowledgeBase, *, catalog: Mapping[int, ArticleInfo] | None = None
) -> str:
    """Zero-shot prompt plus the ``KB_TOP_N`` best documents as context.

    With an empty knowledge base the output is byte-identical to the plain
    zero-shot prompt.
    """
    retrieved = kb.retrieve(snippet, KB_TOP_N) if len(kb) else []
    return _assemble_prompt(snippet, catalog, _context_block(retrieved))


# ---------------------------------------------------------------------------
# Tool-using agent loop


@dataclass(frozen=True)
class AgentStep:
    thought: str
    action: str
    action_input: str
    observation: str


@dataclass(frozen=True)
class AgentTrace:
    steps: tuple[AgentStep, ...]
    truncated: bool


@dataclass(frozen=True)
class ReactResult:
    labels: LabelSet
    ranking: RankedPrediction
    trace: AgentTrace
    transcript: str


REACT_TOOLS = ("gdpr_lookup", "code_search", "rule_check", "finish")

_REACT_SCAFFOLD = """You are a GDPR compliance expert investigating a code snippet for GDPR violations.
You can use the following tools:
- gdpr_lookup: look up the meaning of a GDPR article by number.
- code_search: find lines in the snippet that contain a keyword.
- rule_check: run a static rule analysis over the snippet.
- finish: give the final answer.

Use this format:
Thought: what you are thinking
Action: one of gdpr_lookup, code_search, rule_check, finish
Action Input: the input to the action
Observation: the result of the action

When you know the answer, use Action: finish with the violated GDPR article
numbers separated by commas, or 0 if there is no violation.

Code snippet:
{snippet}

Thought:"""

_ACTION_RE = re.compile(r"^Action:\s*(?P<action>.+?)\s*$", re.MULTILINE)
_ACTION_INPUT_RE = re.compile(
    r"Action Input:\s*(?P<value>.*?)\s*(?:\nObservation:|\nThought:|\Z)", re.DOTALL
)


def _parse_react_step(text: str) -> tuple[str, str, str] | None:
    """Split one model turn into (thought, action, action input)."""
    m = _ACTION_RE.search(text)
    if m is None:
        return None
    thought = text[: m.start()].strip()
    if thought.startswith("Thought:"):
        thought = thought[len("Thought:"):].strip()
    action = m.group("action").strip()
    input_m = _ACTION_INPUT_RE.search(text, m.end())
    action_input = input_m.group("value").strip() if input_m else ""
    return thought, action, action_input


def _tool_gdpr_lookup(arg: str, context: "ReactContext") -> str:
    m = _INT_RE.search(arg)
    if m is None:
        return "error: expected an article number"
    number = int(m.group(0))
    try:
        info = article_lookup(number, context.catalog)
    except UnknownArticleError:
        return f"error: article {number} is not in the catalog"
    return f"Article {number}: {info.title}. {info.summary}"


def _tool_code_search(arg: str, context: "ReactContext") -> str:
    keyword = arg.strip()
    if not keyword:
        return "error: expected a keyword"
    hits = [
        f"line {i}: {line.strip()}"
        for i, line in enumerate(context.snippet.split("\n"), start=1)
        if keyword.lower() in line.lower()
    ]
    return "\n".join(hits[:20]) if hits else f"no lines match {keyword!r}"


def _tool_rule_check(arg: str, context: "ReactContext") -> str:
    result = analyze_source(context.snippet, context.language, catalog=context.rules)
    if not result.findings:
        return "no rule findings"
    lines = [
        f"article {f.article} ({f.rule_id}, confidence {f.confidence:.2f}): {f.explanation}"
        for f in sorted(result.findings, key=lambda f: (-f.confidence, f.article, f.rule_id))
    ]
    return "\n".join(lines[:10])


_TOOL_IMPLS = {
    "gdpr_lookup": _tool_gdpr_lookup,
    "code_search": _tool_code_search,
    "rule_check": _tool_rule_check,
}


@dataclass
class ReactContext:
    snippet: str
    language: str = "java"
    catalog: Mapping[int, ArticleInfo] | None = None
    rules: RuleCatalog | None = None


def react_run(
    snippet: str,
    reasoner: Reasoner,
    *,
    language: str = "java",
    catalog: Mapping[int, ArticleInfo] | None = None,
    rules: RuleCatalog | None = None,
    max_iterations: int = 5,
) -> ReactResult:
    """Run the Thought/Action/Observation loop until finish or the cap.

    A turn with no parseable action is treated as an attempt to finish and
    read leniently.  Hitting the iteration cap marks the trace truncated and
    also falls back to a lenient read of the last turn.
    """
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    context = ReactContext(snippet=snippet, language=language, catalog=catalog, rules=rules)
    transcript = _REACT_SCAFFOLD.format(snippet=snippet)
    steps: list[AgentStep] = []
    last_response = ""

    def result(ordered: tuple[int, ...], truncated: bool) -> ReactResult:
        return ReactResult(
            labels=LabelSet(ordered),
            ranking=RankedPrediction(ordered),
            trace=AgentTrace(tuple(steps), truncated),
            transcript=transcript,
        )

    for _ in range(max_iterations):
        last_response = reasoner.complete(transcript)
        transcript += " " + last_response.strip() + "\n"
        parsed = _parse_react_step(last_response)
        if parsed is None:
            ordered = parse_model_output(last_response, strict=False)
            steps.append(AgentStep(last_response.strip(), "finish", "", ""))
            return result(ordered, truncated=False)
        thought, action, action_input = parsed
        if action == "finish":
            try:
                ordered = parse_model_output(action_input, strict=True)
            except ModelOutputError:
                ordered = parse_model_output(action_input, strict=False)
            steps.append(AgentStep(thought, action, action_input, ""))
            return result(ordered, truncated=False)
        tool = _TOOL_IMPLS.get(action)
        if tool is None:
            observation = f"unknown tool {action!r}; available: {', '.join(REACT_TOOLS)}"
        else:
            observation = tool(action_input, context)
        steps.append(AgentStep(thought, action, action_input, observation))
        transcript += f"Observation: {observation}\nThought:"

    ordered = parse_model_output(last_response, strict=False)
    return result(ordered, truncated=True)


# ---------------------------------------------------------------------------
# Method adapters


# A formal snippet label is one of the best MAX_LABELS articles with confidence >= LABEL_THRESHOLD.
LABEL_THRESHOLD = 1.0
MAX_LABELS = 3


class FormalMethod:
    """Rule-engine predictions; no model involved."""

    def __init__(self, rules: RuleCatalog | None = None):
        self.rules = rules

    def rank(
        self, text: str, language: str, *, span: tuple[int, int] | None = None, path: str = ""
    ) -> RankedPrediction:
        """Rank the whole text, or its facts refocused on the lines of ``span``."""
        return analyze_source(text, language, span=span, path=path, catalog=self.rules).ranking

    def predict_labels(
        self, snippet: str, language: str = "java", path: str = ""
    ) -> tuple[LabelSet, RankedPrediction]:
        ranking = self.rank(snippet, language, path=path)
        picked = [a for a, score in zip(ranking.articles, ranking.scores) if score >= LABEL_THRESHOLD]
        return LabelSet(picked[:MAX_LABELS]), ranking


class _PromptedMethod:
    """Shared scope logic for the model-backed methods.

    Zero-shot and retrieval methods turn a text into one prompt (``prompt``)
    and parse the reasoner's answer strictly; ReAct runs its agent loop
    instead.  Under cache replay a prompt the cache lacks raises
    ``ReplayMissError``.
    """

    def __init__(self, reasoner: Reasoner, *, catalog: Mapping[int, ArticleInfo] | None = None):
        self.reasoner = reasoner
        self.catalog = catalog

    def prompt(self, text: str) -> str:
        raise NotImplementedError

    def _predict(self, text: str, language: str) -> tuple[int, ...]:
        """Distinct articles, most suspect first; the answer is parsed strictly."""
        return parse_model_output(self.reasoner.complete(self.prompt(text)))

    def rank(
        self, text: str, language: str, *, span: tuple[int, int] | None = None, path: str = ""
    ) -> RankedPrediction:
        """Rank the whole text, or only the lines of ``span``, which alone are sent."""
        if span is not None:
            check_span(text, span)
            text = "\n".join(text.split("\n")[span[0] - 1 : span[1]])
        return RankedPrediction(self._predict(text, language))

    def predict_labels(
        self, snippet: str, language: str = "java", path: str = ""
    ) -> tuple[LabelSet, RankedPrediction]:
        ranking = self.rank(snippet, language, path=path)
        return LabelSet(ranking.articles), ranking


class ZeroShotMethod(_PromptedMethod):
    def prompt(self, text: str) -> str:
        return render_zero_shot_prompt(text, self.catalog)


class RagMethod(_PromptedMethod):
    def __init__(
        self,
        reasoner: Reasoner,
        kb: KnowledgeBase,
        *,
        catalog: Mapping[int, ArticleInfo] | None = None,
    ):
        super().__init__(reasoner, catalog=catalog)
        self.kb = kb

    def prompt(self, text: str) -> str:
        return render_rag_prompt(text, self.kb, catalog=self.catalog)


class ReactMethod(_PromptedMethod):
    def __init__(
        self,
        reasoner: Reasoner,
        *,
        catalog: Mapping[int, ArticleInfo] | None = None,
        rules: RuleCatalog | None = None,
    ):
        super().__init__(reasoner, catalog=catalog)
        self.rules = rules

    def _predict(self, text: str, language: str) -> tuple[int, ...]:
        # the transcript grows with each response, so there is no one prompt
        outcome = react_run(
            text, self.reasoner, language=language, catalog=self.catalog, rules=self.rules
        )
        return outcome.ranking.articles
