"""Declarative rule engine over extracted facts.

A scope is a fact list and, for a line scope, a span of lines of the text
the facts describe.  Its facts decide which predicates of a fixed
inventory hold, each with the facts that support it; facts outside the
span count only as guards (consent checks, crypto, notice text), never as
evidence.  A catalog of article-tagged rules
(boolean expressions over those predicates) is evaluated once per distinct
set of held predicates.  Each fired rule counts the distinct facts that
support it, and its confidence grows with their number:

    confidence = weight * (1 + ln(1 + n_supporting_facts))

``analyze_facts`` is the one scoring path: it ranks articles by their best
fired-rule confidence, ties broken by ascending article number, and builds
the findings (with their spans and explanations) from the same fired rules
only when they are read.  Nothing here knows the text's path or language:
``AnalysisResult.to_dict`` and ``Finding.to_dict`` take them from the
caller that prints them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import read_entries
from .errors import InputError, RuleLoadError
from .facts import (
    SENSITIVE_CATEGORIES,
    DataCategory,
    Fact,
    FactKind,
    Frontend,
    default_registry,
    extract_facts,
)

_DATA_DIR = Path(__file__).parent / "data"

_PRIVACY_PHRASES = ("privacy policy", "privacy notice", "privacy statement", "data protection")


# ---------------------------------------------------------------------------
# Rule condition expressions


def parse_condition(obj) -> str | tuple:
    """A rule's ``when``, checked, as nested tuples: a predicate name is a
    string, and ``["not", c]``, ``["and", c, ...]`` and ``["or", c, ...]``
    become ``("not", c)``, ``("and", c, ...)`` and ``("or", c, ...)``."""
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple)) and obj:
        op = obj[0]
        args = obj[1:]
        if op == "not":
            if len(args) != 1:
                raise RuleLoadError("'not' takes exactly one operand")
            return (op, parse_condition(args[0]))
        if op in ("and", "or"):
            if not args:
                raise RuleLoadError(f"{op!r} needs at least one operand")
            return (op, *map(parse_condition, args))
        raise RuleLoadError(f"unknown operator {op!r}")
    raise RuleLoadError(f"malformed condition: {obj!r}")


def holds(condition: str | tuple, held: Mapping[str, Sequence[Fact]]) -> bool:
    """Whether a parsed condition holds when exactly the predicates in ``held`` hold."""
    if isinstance(condition, str):
        return condition in held
    op, *args = condition
    if op == "not":
        return not holds(args[0], held)
    values = (holds(arg, held) for arg in args)
    return all(values) if op == "and" else any(values)


def predicates(condition: str | tuple) -> Iterator[tuple[str, bool]]:
    """Each predicate of a parsed condition, in order, with whether it is un-negated."""
    if isinstance(condition, str):
        yield condition, True
    elif condition[0] == "not":
        for name, positive in predicates(condition[1]):
            yield name, not positive
    else:
        for arg in condition[1:]:
            yield from predicates(arg)


# ---------------------------------------------------------------------------
# Predicates


_SENSITIVE_ORDER = sorted(SENSITIVE_CATEGORIES, key=lambda c: c.value)
_EVIDENCE_ATOMS = [f"CollectsData({c.value})" for c in _SENSITIVE_ORDER]
_CREDENTIALS = {DataCategory.CREDENTIALS}
# The predicates that a fact supports by its kind and data category alone:
# name -> (fact kinds, data categories or None for any, evidence only).
# Evidence predicates only take facts inside the scope's span; guard
# predicates (consent, encryption) take every fact, so a guard anywhere in
# the file still covers a narrow focus span.
_DIRECT = {
    **{name: ({FactKind.API_CALL}, {c}, True) for c, name in zip(_SENSITIVE_ORDER, _EVIDENCE_ATOMS)},
    "HasConsentCheck": ({FactKind.CONSENT_GUARD}, None, False),
    "DeclaresPermission": ({FactKind.PERMISSION_DECL}, None, True),
    "SendsDataOffDevice": ({FactKind.NETWORK_SEND}, None, True),
    "StoresDataLocally": ({FactKind.STORAGE_WRITE}, None, True),
    "HandlesCredentials": (set(FactKind), _CREDENTIALS, True),
    "StoresPlaintextCredentials": ({FactKind.STRING_LITERAL, FactKind.STORAGE_WRITE}, _CREDENTIALS, True),
    "UsesEncryption": ({FactKind.CRYPTO_USE}, None, False),
    "WritesLogs": ({FactKind.LOG_WRITE}, None, True),
    "AccessesSpecialCategoryData": ({FactKind.API_CALL}, {DataCategory.GENERIC}, True),
}
_SUPPORTED = {
    (kind, category, contextual): tuple(
        name
        for name, (kinds, categories, evidence) in _DIRECT.items()
        if kind in kinds and (categories is None or category in categories) and not (evidence and contextual)
    )
    for kind in FactKind
    for category in (None, *DataCategory)
    for contextual in (False, True)
}
# The predicates that also read a fact's detail, or other predicates
_DERIVED = ("UsesInsecureTransport", "HasPrivacyNoticeText", "CollectsAnyPersonalData", "LogsSensitiveAccess")


def atom_inventory() -> tuple[str, ...]:
    """Every predicate name a rule condition may reference."""
    return (*_DIRECT, *_DERIVED)


def populate_predicates(facts: Sequence[Fact], span: tuple[int, int] | None = None) -> dict[str, list[Fact]]:
    """The predicates of the inventory that hold over one fact set, each with its support.

    A predicate holds when its support, the facts that show it, is not
    empty; a predicate that does not hold is absent.  Support is in fact
    order, but ``CollectsAnyPersonalData`` groups it by data category and
    ``LogsSensitiveAccess`` lists logs, then personal data, then credentials.
    With ``span``, every fact outside lines start-end is contextual: it
    supports guard predicates only.
    """
    start, end = span or (-math.inf, math.inf)
    held: dict[str, list[Fact]] = {}
    for fact in facts:
        kind = fact.kind
        contextual = not (start <= fact.start_line and fact.end_line <= end)
        names = _SUPPORTED[kind, fact.data_category, contextual]
        if kind is FactKind.URL_LITERAL:
            if not contextual and fact.detail.startswith("http://"):
                names += ("UsesInsecureTransport",)
        elif kind is FactKind.STRING_LITERAL:
            detail = fact.detail.lower()
            if any(phrase in detail for phrase in _PRIVACY_PHRASES):
                names += ("HasPrivacyNoticeText",)
        for name in names:
            if name in held:
                held[name].append(fact)
            else:
                held[name] = [fact]
    collect_all = [f for name in _EVIDENCE_ATOMS if name in held for f in held[name]]
    if collect_all:
        held["CollectsAnyPersonalData"] = collect_all
    if "UsesEncryption" in held:
        held.pop("StoresPlaintextCredentials", None)
    logs, sensitive = held.get("WritesLogs"), collect_all + held.get("HandlesCredentials", [])
    if logs and sensitive:
        held["LogsSensitiveAccess"] = logs + sensitive
    return held


# ---------------------------------------------------------------------------
# Rules and findings


@dataclass(frozen=True, slots=True)
class Rule:
    id: str
    article: int
    condition: str | tuple  # as parse_condition gives it
    weight: float
    message: str


class RuleCatalog:
    """Rules with their un-negated predicates; fired rules are kept per set of held predicates."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        self._compiled: list[tuple[Rule, tuple[str, ...]]] = []
        for rule in self.rules:
            atoms = dict.fromkeys(name for name, positive in predicates(rule.condition) if positive)
            self._compiled.append((rule, tuple(atoms)))
        self._fired: dict[frozenset[str], tuple[tuple[Rule, tuple[str, ...]], ...]] = {}

    def fired(self, held: Mapping[str, Sequence[Fact]]) -> tuple[tuple[Rule, tuple[str, ...]], ...]:
        """The rules whose condition holds when exactly the predicates in ``held`` hold.

        Each comes with its un-negated predicates; the result is kept per
        ``frozenset(held)``.
        """
        key = frozenset(held)
        if key not in self._fired:
            self._fired[key] = tuple(c for c in self._compiled if holds(c[0].condition, held))
        return self._fired[key]


def load_rules(path: str | Path | None = None, *, digests: dict[str, str] | None = None) -> RuleCatalog:
    """The rules file's rules, the built-in file's when ``path`` is None.

    ``digests`` is filled as ``corpus.read_json`` fills it.
    """
    known = set(atom_inventory())
    seen: set[str] = set()

    def rule(obj: dict) -> Rule:
        rule_id = obj["id"]
        if rule_id in seen:
            raise RuleLoadError(f"duplicate rule id {rule_id!r}")
        seen.add(rule_id)
        condition = parse_condition(obj["when"])
        for name, _ in predicates(condition):
            if name not in known:
                raise RuleLoadError(f"rule {rule_id!r} references unknown predicate {name!r}")
        weight = obj["weight"]
        if isinstance(weight, bool) or not (isinstance(weight, (int, float)) and 0 < weight <= 1):
            raise RuleLoadError(f"rule {rule_id!r} weight must be in (0, 1], got {weight!r}")
        article = obj["article"]
        if isinstance(article, bool) or not (isinstance(article, int) and article > 0):
            raise RuleLoadError(f"rule {rule_id!r} article must be a positive integer")
        return Rule(rule_id, article, condition, float(weight), obj["message"])

    return RuleCatalog(read_entries(path or _DATA_DIR / "rules.json", rule, "rules", digests=digests))


_default_catalog: RuleCatalog | None = None


def default_catalog() -> RuleCatalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = load_rules()
    return _default_catalog


@dataclass(frozen=True, slots=True)
class Finding:
    """A fired rule with its supporting facts, each once, in order of first appearance.

    ``spans`` and ``explanation`` are derived from ``support`` and the
    rule's ``message`` each time they are read.
    """

    article: int
    rule_id: str
    confidence: float
    support: tuple[Fact, ...]
    message: str

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """The distinct ``(start_line, end_line)`` pairs of the support, sorted."""
        return tuple(sorted({(f.start_line, f.end_line) for f in self.support}))

    @property
    def explanation(self) -> str:
        """The rule's message, followed by up to five sorted evidence symbols."""
        symbols = sorted({f.symbol for f in self.support})[:5]
        if symbols:
            return f"{self.message} (evidence: {', '.join(symbols)})"
        return self.message

    def to_dict(self, path: str) -> dict:
        """The finding as ``analyze --json`` writes it, each span stamped with ``path``."""
        return {
            "article": self.article,
            "rule_id": self.rule_id,
            "confidence": self.confidence,
            "spans": [{"file_path": path, "start_line": s, "end_line": e} for s, e in self.spans],
            "explanation": self.explanation,
        }


@dataclass(frozen=True, slots=True)
class RankedPrediction:
    """Articles ordered most-suspect first, with their scores."""

    articles: tuple[int, ...]
    scores: tuple[float, ...] = ()

    def __post_init__(self):
        if len(set(self.articles)) != len(self.articles):
            raise InputError("ranked articles must be distinct")
        if self.scores and len(self.scores) != len(self.articles):
            raise InputError("scores and articles must be parallel")

    def to_dict(self) -> dict:
        return {"articles": list(self.articles), "scores": list(self.scores)}


def confidence_for(weight: float, support_count: int) -> float:
    return weight * (1.0 + math.log1p(support_count))


def _ranked(scored: Iterable[tuple[int, float]]) -> RankedPrediction:
    """Order the articles of (article, confidence) pairs by best confidence, ties by article number."""
    best: dict[int, float] = {}
    for article, confidence in scored:
        prev = best.get(article)
        if prev is None or confidence > prev:
            best[article] = confidence
    if not best:
        return RankedPrediction(())
    articles, scores = zip(*sorted(best.items(), key=lambda item: (-item[1], item[0])))
    return RankedPrediction(articles, scores)


# ---------------------------------------------------------------------------
# End-to-end analysis


@dataclass(frozen=True)
class AnalysisResult:
    """A scope's ranking and its fired rules, each as (rule, confidence, un-negated predicates).

    ``facts`` is the scope's whole fact list; with ``span``, the facts
    outside it are written as ``"contextual": true``.  A ranking needs only
    the number of facts that support each fired rule, so no support is kept
    here: ``findings``, with each rule's supporting facts, are built from
    ``fired`` and the predicates of ``facts`` over ``span``, computed again,
    when first read.
    """

    ranking: RankedPrediction
    facts: tuple[Fact, ...]
    span: tuple[int, int] | None
    fired: tuple[tuple[Rule, float, tuple[str, ...]], ...]

    @functools.cached_property
    def findings(self) -> tuple[Finding, ...]:
        held = populate_predicates(self.facts, self.span)
        findings = []
        for rule, confidence, atoms in self.fired:
            # each supporting fact once, first seen first
            support = {id(f): f for name in atoms for f in held.get(name, ())}
            findings.append(Finding(rule.article, rule.id, confidence, tuple(support.values()), rule.message))
        return tuple(findings)

    def to_dict(self, path: str, language: str) -> dict:
        """The result as ``analyze --json`` writes it: every fact and finding span
        stamped with the text's ``path``, and every fact with its ``language``."""
        start, end = self.span or (-math.inf, math.inf)
        return {
            "facts": [
                {
                    "kind": f.kind.value,
                    "symbol": f.symbol,
                    "detail": f.detail,
                    "span": {"file_path": path, "start_line": f.start_line, "end_line": f.end_line},
                    "language": language,
                    "data_category": f.data_category.value if f.data_category else None,
                    "contextual": not (start <= f.start_line and f.end_line <= end),
                }
                for f in self.facts
            ],
            "findings": [f.to_dict(path) for f in self.findings],
            "ranking": self.ranking.to_dict(),
        }


def analyze_facts(
    facts: Sequence[Fact], span: tuple[int, int] | None = None, catalog: RuleCatalog | None = None
) -> AnalysisResult:
    """Score one scope: every rule its held predicates fire, and the articles ranked from them.

    A fired rule's confidence counts the distinct facts (by id) that
    support it; with ``span``, facts outside it count only as guards.
    """
    catalog = default_catalog() if catalog is None else catalog
    held = populate_predicates(facts, span)
    fired = [
        (rule, confidence_for(rule.weight, len({id(f) for name in atoms for f in held.get(name, ())})), atoms)
        for rule, atoms in catalog.fired(held)
    ]
    ranking = _ranked([(rule.article, confidence) for rule, confidence, _ in fired])
    return AnalysisResult(ranking, tuple(facts), span, tuple(fired))


def check_span(text: str, span: tuple[int, int]) -> None:
    """Raise InputError unless ``span`` is a range of lines of ``text``; a line ends at "\\n"."""
    start, end = span
    line_count = text.count("\n") + 1
    if not 1 <= start <= end <= line_count:
        raise InputError(f"line span {start}-{end} is outside the text ({line_count} lines)")


@functools.lru_cache(maxsize=1)
def _facts_of(source: str, language: str, frontend: Frontend) -> tuple[Fact, ...]:
    """The facts of the last text analyzed by ``frontend``, so each scope of one file extracts them once."""
    return tuple(extract_facts(source, language))


def analyze_source(
    source: str,
    language: str,
    *,
    span: tuple[int, int] | None = None,
    catalog: RuleCatalog | None = None,
) -> AnalysisResult:
    """Analyze ``source`` as a whole, or over the lines of ``span`` only, by ``analyze_facts``.

    A line scope sees only facts inside its span as evidence, but file-wide
    guards (consent checks, crypto, notice text) still apply to it.
    """
    if span is not None:
        check_span(source, span)
    facts = _facts_of(source, language, default_registry().frontend_for(language))
    return analyze_facts(facts, span, catalog)
