"""Prediction methods and model bindings.

Four interchangeable methods produce article predictions: the formal rule
engine, zero-shot prompting, retrieval-augmented prompting, and a tool-using
agent loop.  Model access goes through a tiny Reasoner interface with three
bindings: live HTTP, scripted (for tests), and cache replay, which serves
previously recorded responses and refuses to go to the network.  Responses
are recorded in one append-only log per cache directory (``ResponseCache``).
All prompts are byte-stable so cached runs reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .engine import RankedPrediction, RuleCatalog, analyze_source, check_span
from .errors import ConfigurationError, MethodError, ModelOutputError, ReplayMissError
from .knowledge import (
    ArticleInfo,
    KnowledgeBase,
    VIOLATION_EXAMPLE,
    article_catalog,
    article_lookup,
)
from .errors import UnknownArticleError


# ---------------------------------------------------------------------------
# Model output


_STRICT_RE = re.compile(r"^\s*(\d+(?:\s*,\s*\d+)*)\s*$")
_INT_RE = re.compile(r"\d+")


def parse_model_output(text: str, *, strict: bool = True) -> tuple[int, ...]:
    """Extract an ordered tuple of distinct article numbers from model text.

    Strict mode requires the whole response to be a comma-separated number
    list (or exactly ``0`` for no violation) and rejects anything else.
    Lenient mode scavenges every integer in order of appearance and drops
    zeros.  First appearance wins for ranking purposes either way.  A digit
    run too long for ``int`` (Python's int-string limit, 4,300 digits by
    default) is no article number: strict mode rejects the response and
    lenient mode skips the run.
    """
    if strict:
        m = _STRICT_RE.match(text)
        if m is None:
            raise ModelOutputError(text)
        try:
            numbers = [int(p) for p in m.group(1).split(",")]
        except ValueError:
            raise ModelOutputError(text, "number longer than the int-string limit") from None
        if 0 in numbers:
            if numbers == [0]:
                return ()
            raise ModelOutputError(text, "zero mixed with article numbers")
    else:
        numbers = []
        for run in _INT_RE.findall(text):
            try:
                n = int(run)
            except ValueError:
                continue  # too long for int
            if n:
                numbers.append(n)
    return tuple(dict.fromkeys(numbers))


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

    Endpoint and credential come from arguments or the GDPRKIT_ENDPOINT /
    GDPRKIT_API_KEY environment variables.  Transient transport failures
    retry with exponential backoff before surfacing as a MethodError.
    Requests carry the ``SAMPLING`` settings.
    """

    MAX_ATTEMPTS = 3

    def __init__(
        self,
        model: str,
        endpoint: str | None = None,
        api_key: str | None = None,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get("GDPRKIT_ENDPOINT")
        if not self.endpoint:
            raise ConfigurationError(
                "no endpoint configured; pass endpoint= or set GDPRKIT_ENDPOINT"
            )
        self.api_key = api_key or os.environ.get("GDPRKIT_API_KEY")
        self.model = model
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
    def _extract_text(body) -> str:
        if not isinstance(body, dict):
            raise MethodError(f"unrecognized completion response shape: {type(body).__name__}")
        if isinstance(body.get("text"), str):
            return body["text"]
        choices = body.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            first = choices[0]
            if isinstance(first.get("text"), str):
                return first["text"]
            message = first.get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
        raise MethodError(f"unrecognized completion response shape: {sorted(body)}")


class ResponseCache:
    """Responses keyed by ``cache_key`` in one append-only file, ``<root>/responses.log``.

    A record is one line of tab-separated fields: the key, the JSON-encoded
    response, reasoner id and prompt, and ``created_at``.  Each ``put`` is one
    ``os.write`` of a whole line to an ``O_APPEND`` descriptor, so a response
    survives a crash or kill of the process once ``put`` returns; an equal
    re-record appends nothing.  The first ``get`` or ``put`` streams the log
    into a dict, without decoding prompts: the last record of a key wins, a
    torn last line is skipped (the next ``put`` ends it first), and records
    appended later by another writer are not seen.  Nothing is created before
    the first ``put``.  A directory holding an old-format cache, SQLite
    ``responses.sqlite*`` files or ``<sha256 hex>.json`` entries, raises
    ConfigurationError; other ``*.json`` files, such as a run's artifacts
    when ``cache_dir`` is also its ``output_dir``, are left alone.
    A ``put`` right after a ``get`` of the same reasoner id and the same
    prompt object reuses the key ``get`` computed, so a miss hashes its
    prompt once.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / "responses.log"
        if self.root.is_dir() and (
            any(self.root.glob("responses.sqlite*")) or any(self.root.glob("[0-9a-f]" * 64 + ".json"))
        ):
            raise ConfigurationError(
                f"{self.root} holds an old-format response cache; record into a new cache_dir"
            )
        self._responses: dict[str, str] | None = None
        self._torn = False  # the log ends in a line without its "\n"
        self._fd: int | None = None
        self._last_key: tuple[str, str, str] | None = None  # (reasoner_id, prompt, key)

    @staticmethod
    def cache_key(reasoner_id: str, prompt: str) -> str:
        digest = hashlib.sha256()
        digest.update(reasoner_id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(prompt.encode("utf-8"))
        return digest.hexdigest()

    def _load(self) -> dict[str, str]:
        responses: dict[str, str] = {}
        line = b"\n"
        try:
            with open(self.path, "rb") as log:
                for line in log:
                    # a line is read once it has ended and its key and response are whole
                    fields = line.split(b"\t", 2)
                    if len(fields) == 3 and line.endswith(b"\n"):
                        try:
                            responses[fields[0].decode("ascii")] = json.loads(fields[1])
                        except ValueError:
                            pass
        except FileNotFoundError:
            pass
        self._torn = not line.endswith(b"\n")
        self._responses = responses
        return responses

    def get(self, reasoner_id: str, prompt: str) -> str | None:
        key = self.cache_key(reasoner_id, prompt)
        self._last_key = (reasoner_id, prompt, key)
        responses = self._load() if self._responses is None else self._responses
        return responses.get(key)

    def put(self, reasoner_id: str, prompt: str, response: str) -> None:
        last = self._last_key
        if last is not None and last[1] is prompt and last[0] == reasoner_id:
            key = last[2]
        else:
            key = self.cache_key(reasoner_id, prompt)
        responses = self._load() if self._responses is None else self._responses
        if responses.get(key) == response:
            return
        if self._fd is None:
            from datetime import datetime, timezone

            self._now = lambda: datetime.now(timezone.utc).isoformat()
            self.root.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        fields = (key, json.dumps(response), json.dumps(reasoner_id), json.dumps(prompt), self._now())
        data = (("\n" if self._torn else "") + "\t".join(fields) + "\n").encode("ascii")
        self._torn = os.write(self._fd, data) < len(data)
        if self._torn:
            raise OSError(f"{self.path}: short write; the response was not recorded")
        responses[key] = response

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._responses = None


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


@dataclass(frozen=True, slots=True)
class AgentStep:
    thought: str
    action: str
    action_input: str
    observation: str


@dataclass(frozen=True, slots=True)
class AgentTrace:
    steps: tuple[AgentStep, ...]
    truncated: bool


@dataclass(frozen=True, slots=True)
class ReactResult:
    ranking: RankedPrediction
    trace: AgentTrace
    transcript: str


REACT_TOOLS = ("gdpr_lookup", "code_search", "rule_check", "finish")
REACT_MAX_STEPS = 5

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

# Both patterns scan a turn in linear time: neither has a lazy group followed
# by `\s*`, which retries a run of whitespace from each of its characters.
# The action is the rest of its line up to its last non-space character, or,
# when only whitespace is left in the turn, its last whitespace character
# that is not a newline (stripped to "").  The match then takes the
# whitespace after it up to the last newline before the next non-space
# character, or to the end of the turn; the input search starts there.  The
# input runs from the first non-space character after "Action Input:" to
# the first "\nObservation:" or "\nThought:" or the end of the turn.
_ACTION_RE = re.compile(r"^Action:\s*(?P<action>\S(?:[^\S\n]*\S)*|[^\S\n])\s*$", re.MULTILINE)
_ACTION_INPUT_RE = re.compile(
    r"Action Input:\s*(?P<value>(?:(?!\n(?:Observation|Thought):).)*)", re.DOTALL
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


def _observe(
    action: str,
    arg: str,
    snippet: str,
    language: str,
    catalog: Mapping[int, ArticleInfo] | None,
    rules: RuleCatalog | None,
) -> str:
    """What the ReAct tool ``action`` observes for the input ``arg`` on ``snippet``."""
    if action == "gdpr_lookup":
        m = _INT_RE.search(arg)
        if m is None:
            return "error: expected an article number"
        number = int(m.group(0))
        try:
            info = article_lookup(number, catalog)
        except UnknownArticleError:
            return f"error: article {number} is not in the catalog"
        return f"Article {number}: {info.title}. {info.summary}"
    if action == "code_search":
        keyword = arg.strip()
        if not keyword:
            return "error: expected a keyword"
        hits = [
            f"line {i}: {line.strip()}"
            for i, line in enumerate(snippet.split("\n"), start=1)
            if keyword.lower() in line.lower()
        ]
        return "\n".join(hits[:20]) if hits else f"no lines match {keyword!r}"
    if action == "rule_check":
        result = analyze_source(snippet, language, catalog=rules)
        if not result.findings:
            return "no rule findings"
        lines = [
            f"article {f.article} ({f.rule_id}, confidence {f.confidence:.2f}): {f.explanation}"
            for f in sorted(result.findings, key=lambda f: (-f.confidence, f.article, f.rule_id))
        ]
        return "\n".join(lines[:10])
    return f"unknown tool {action!r}; available: {', '.join(REACT_TOOLS)}"


def react_run(
    snippet: str,
    reasoner: Reasoner,
    *,
    language: str = "java",
    catalog: Mapping[int, ArticleInfo] | None = None,
    rules: RuleCatalog | None = None,
) -> ReactResult:
    """Run the Thought/Action/Observation loop until finish or ``REACT_MAX_STEPS`` turns.

    A turn with no parseable action is treated as an attempt to finish and
    read leniently.  Hitting the step cap marks the trace truncated and
    also falls back to a lenient read of the last turn.
    """
    transcript = _REACT_SCAFFOLD.format(snippet=snippet)
    steps: list[AgentStep] = []
    last_response = ""

    def result(ordered: tuple[int, ...], truncated: bool) -> ReactResult:
        return ReactResult(
            ranking=RankedPrediction(ordered),
            trace=AgentTrace(tuple(steps), truncated),
            transcript=transcript,
        )

    for _ in range(REACT_MAX_STEPS):
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
        observation = _observe(action, action_input, snippet, language, catalog, rules)
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

    def rank(self, text: str, language: str, *, span: tuple[int, int] | None = None) -> RankedPrediction:
        """Rank the whole text, or the lines of ``span`` with the rest of the text as guards only."""
        return analyze_source(text, language, span=span, catalog=self.rules).ranking

    def predict_labels(
        self, snippet: str, language: str = "java"
    ) -> tuple[tuple[int, ...], RankedPrediction]:
        """The snippet's labels, ascending, and its ranking."""
        ranking = self.rank(snippet, language)
        picked = [a for a, score in zip(ranking.articles, ranking.scores) if score >= LABEL_THRESHOLD]
        return tuple(sorted(picked[:MAX_LABELS])), ranking


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

    def rank(self, text: str, language: str, *, span: tuple[int, int] | None = None) -> RankedPrediction:
        """Rank the whole text, or only the lines of ``span``, which alone are sent.

        The lines of a span are sent joined by "\\n", with no final "\\n".
        """
        if span is not None:
            check_span(text, span)
            text = "\n".join(text.split("\n")[span[0] - 1 : span[1]])
        return RankedPrediction(self._predict(text, language))

    def predict_labels(
        self, snippet: str, language: str = "java"
    ) -> tuple[tuple[int, ...], RankedPrediction]:
        """Label a task-2 snippet with every ranked article, ascending.

        The snippet is sent as its lines: its final "\\n" only ends its last
        line and is not sent.  So a snippet's prompt is the task-1 prompt of
        the line span it was cut from, and a task-2 run that follows task 1
        on the same cache finds that prompt recorded.
        """
        ranking = self.rank(snippet.removesuffix("\n"), language)
        return tuple(sorted(ranking.articles)), ranking


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
