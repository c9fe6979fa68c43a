"""Declarative rule engine over extracted facts.

Facts populate a fixed inventory of boolean predicates; a catalog of
article-tagged rules (boolean expressions over those predicates) is then
evaluated, once per distinct set of held predicates, to produce findings.
A finding carries the facts that support it, and its confidence grows with
their number:

    confidence = weight * (1 + ln(1 + n_supporting_facts))

Rankings read only each finding's article and confidence, so a finding's
source spans and explanation are derived from its support when read.

Article rankings order articles by their best finding, ties broken by
ascending article number so output is fully deterministic.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import SpanRef, read_entries
from .errors import InputError, RuleLoadError
from .facts import (
    SENSITIVE_CATEGORIES,
    DataCategory,
    Fact,
    FactKind,
    extract_facts,
)

_DATA_DIR = Path(__file__).parent / "data"

_PRIVACY_PHRASES = ("privacy policy", "privacy notice", "privacy statement", "data protection")


# ---------------------------------------------------------------------------
# Rule condition expressions


@dataclass(frozen=True)
class AtomExpr:
    name: str

    def evaluate(self, state: Mapping[str, "Predicate"]) -> bool:
        return state[self.name].holds

    def walk(self, positive: bool, out: list[tuple[str, bool]]) -> None:
        out.append((self.name, positive))


@dataclass(frozen=True)
class NotExpr:
    child: "Expr"

    def evaluate(self, state) -> bool:
        return not self.child.evaluate(state)

    def walk(self, positive, out) -> None:
        self.child.walk(not positive, out)


@dataclass(frozen=True)
class AndExpr:
    children: tuple["Expr", ...]

    def evaluate(self, state) -> bool:
        return all(c.evaluate(state) for c in self.children)

    def walk(self, positive, out) -> None:
        for c in self.children:
            c.walk(positive, out)


@dataclass(frozen=True)
class OrExpr:
    children: tuple["Expr", ...]

    def evaluate(self, state) -> bool:
        return any(c.evaluate(state) for c in self.children)

    def walk(self, positive, out) -> None:
        for c in self.children:
            c.walk(positive, out)


Expr = AtomExpr | NotExpr | AndExpr | OrExpr


def parse_condition(obj) -> Expr:
    if isinstance(obj, str):
        return AtomExpr(obj)
    if isinstance(obj, (list, tuple)) and obj:
        op = obj[0]
        args = obj[1:]
        if op == "not":
            if len(args) != 1:
                raise RuleLoadError("'not' takes exactly one operand")
            return NotExpr(parse_condition(args[0]))
        if op in ("and", "or"):
            if not args:
                raise RuleLoadError(f"{op!r} needs at least one operand")
            children = tuple(parse_condition(a) for a in args)
            return AndExpr(children) if op == "and" else OrExpr(children)
        raise RuleLoadError(f"unknown operator {op!r}")
    raise RuleLoadError(f"malformed condition: {obj!r}")


# ---------------------------------------------------------------------------
# Predicates


@dataclass(frozen=True)
class Predicate:
    name: str
    holds: bool
    support: tuple[Fact, ...] = ()


_SENSITIVE_ORDER = sorted(SENSITIVE_CATEGORIES, key=lambda c: c.value)
_EVIDENCE_ATOMS = [f"CollectsData({c.value})" for c in _SENSITIVE_ORDER]
_EVIDENCE = tuple(zip(_SENSITIVE_ORDER, _EVIDENCE_ATOMS))
_OTHER_ATOMS = [
    "CollectsAnyPersonalData",
    "HasConsentCheck",
    "DeclaresPermission",
    "UsesInsecureTransport",
    "SendsDataOffDevice",
    "StoresDataLocally",
    "HandlesCredentials",
    "StoresPlaintextCredentials",
    "UsesEncryption",
    "LogsSensitiveAccess",
    "WritesLogs",
    "HasPrivacyNoticeText",
    "AccessesSpecialCategoryData",
]
_NOT_HELD = {name: Predicate(name, False) for name in _EVIDENCE_ATOMS + _OTHER_ATOMS}


def atom_inventory() -> tuple[str, ...]:
    """Every predicate name a rule condition may reference."""
    return tuple(_EVIDENCE_ATOMS + _OTHER_ATOMS)


def populate_predicates(facts: Sequence[Fact]) -> dict[str, Predicate]:
    """Evaluate the full predicate inventory over one fact set.

    Every inventory name is present in the result, held or not.  Evidence
    predicates only look at non-contextual facts; guard predicates
    (consent, encryption, privacy notice) look at everything, so a guard
    anywhere in the file still covers a narrow focus span.
    """
    local, anywhere = defaultdict(list), defaultdict(list)
    calls: dict[DataCategory | None, list[Fact]] = defaultdict(list)  # local API calls
    credentials: list[Fact] = []
    for f in facts:
        anywhere[f.kind].append(f)
        if not f.contextual:
            if f.kind is FactKind.API_CALL:
                calls[f.data_category].append(f)
            else:
                local[f.kind].append(f)
            if f.data_category is DataCategory.CREDENTIALS:
                credentials.append(f)
    state = dict(_NOT_HELD)

    def put(name: str, support: Sequence[Fact]) -> None:
        if support:
            state[name] = Predicate(name, True, tuple(support))

    collect_all: list[Fact] = []
    for category, name in _EVIDENCE:
        matches = calls.get(category, ())
        put(name, matches)
        collect_all.extend(matches)
    put("CollectsAnyPersonalData", collect_all)

    put("HasConsentCheck", anywhere[FactKind.CONSENT_GUARD])
    put("DeclaresPermission", local[FactKind.PERMISSION_DECL])
    put(
        "UsesInsecureTransport",
        [f for f in local[FactKind.URL_LITERAL] if f.detail.startswith("http://")],
    )
    put("SendsDataOffDevice", local[FactKind.NETWORK_SEND])
    put("StoresDataLocally", local[FactKind.STORAGE_WRITE])

    put("HandlesCredentials", credentials)
    crypto_anywhere = anywhere[FactKind.CRYPTO_USE]
    plaintext = [
        f for f in credentials if f.kind in (FactKind.STRING_LITERAL, FactKind.STORAGE_WRITE)
    ]
    put("StoresPlaintextCredentials", plaintext if not crypto_anywhere else [])
    put("UsesEncryption", crypto_anywhere)

    logs = local[FactKind.LOG_WRITE]
    put("WritesLogs", logs)
    sensitive = collect_all + credentials
    put("LogsSensitiveAccess", logs + sensitive if logs and sensitive else [])

    notices = [
        f
        for f in anywhere[FactKind.STRING_LITERAL]
        if any(phrase in f.detail.lower() for phrase in _PRIVACY_PHRASES)
    ]
    put("HasPrivacyNoticeText", notices)
    put("AccessesSpecialCategoryData", calls.get(DataCategory.GENERIC, ()))

    return state


# ---------------------------------------------------------------------------
# Rules and findings


@dataclass(frozen=True)
class Rule:
    id: str
    article: int
    condition: Expr
    weight: float
    message: str


class RuleCatalog:
    """Rules with their un-negated predicates; fired rules are kept per set of held predicates."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        self._compiled: list[tuple[Rule, tuple[str, ...]]] = []
        for rule in self.rules:
            atoms: list[tuple[str, bool]] = []
            rule.condition.walk(True, atoms)
            self._compiled.append((rule, tuple(dict.fromkeys(n for n, positive in atoms if positive))))
        self._fired: dict[frozenset[str], tuple[tuple[Rule, tuple[str, ...]], ...]] = {}

    def fired(self, state: Mapping[str, Predicate]) -> tuple[tuple[Rule, tuple[str, ...]], ...]:
        """The rules whose condition holds in ``state``, each with its un-negated predicates."""
        held = frozenset(name for name, p in state.items() if p.holds)
        if held not in self._fired:
            self._fired[held] = tuple(c for c in self._compiled if c[0].condition.evaluate(state))
        return self._fired[held]

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def load_rules(path: str | Path | None = None) -> RuleCatalog:
    known = set(atom_inventory())
    seen: set[str] = set()

    def rule(obj: dict) -> Rule:
        rule_id = obj["id"]
        if rule_id in seen:
            raise RuleLoadError(f"duplicate rule id {rule_id!r}")
        seen.add(rule_id)
        condition = parse_condition(obj["when"])
        atoms: list[tuple[str, bool]] = []
        condition.walk(True, atoms)
        for name, _ in atoms:
            if name not in known:
                raise RuleLoadError(f"rule {rule_id!r} references unknown predicate {name!r}")
        weight = obj["weight"]
        if isinstance(weight, bool) or not (isinstance(weight, (int, float)) and 0 < weight <= 1):
            raise RuleLoadError(f"rule {rule_id!r} weight must be in (0, 1], got {weight!r}")
        article = obj["article"]
        if isinstance(article, bool) or not (isinstance(article, int) and article > 0):
            raise RuleLoadError(f"rule {rule_id!r} article must be a positive integer")
        return Rule(rule_id, article, condition, float(weight), obj["message"])

    return RuleCatalog(read_entries(path or _DATA_DIR / "rules.json", rule, "rules"))


_default_catalog: RuleCatalog | None = None


def default_catalog() -> RuleCatalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = load_rules()
    return _default_catalog


@dataclass(frozen=True)
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
    def spans(self) -> tuple[SpanRef, ...]:
        """The distinct source spans of the support, in line order."""
        return tuple(
            sorted({f.span for f in self.support}, key=lambda s: (s.start_line, s.end_line, s.file_path))
        )

    @property
    def explanation(self) -> str:
        """The rule's message, followed by up to five sorted evidence symbols."""
        symbols = sorted({f.symbol for f in self.support})[:5]
        if symbols:
            return f"{self.message} (evidence: {', '.join(symbols)})"
        return self.message

    def to_dict(self) -> dict:
        return {
            "article": self.article,
            "rule_id": self.rule_id,
            "confidence": self.confidence,
            "spans": [s.to_dict() for s in self.spans],
            "explanation": self.explanation,
        }


@dataclass(frozen=True)
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


def evaluate_rules(
    facts: Sequence[Fact], catalog: RuleCatalog | None = None
) -> list[Finding]:
    """Fire every satisfied rule, one finding per rule."""
    catalog = default_catalog() if catalog is None else catalog
    state = populate_predicates(facts)
    findings: list[Finding] = []
    for rule, atoms in catalog.fired(state):
        # each supporting fact once, in order of first appearance
        support = tuple({id(f): f for name in atoms for f in state[name].support}.values())
        findings.append(
            Finding(rule.article, rule.id, confidence_for(rule.weight, len(support)), support, rule.message)
        )
    return findings


def rank_articles(findings: Sequence[Finding]) -> RankedPrediction:
    """Order articles by best finding confidence, ties by article number."""
    best: dict[int, float] = {}
    for finding in findings:
        prev = best.get(finding.article)
        if prev is None or finding.confidence > prev:
            best[finding.article] = finding.confidence
    ordered = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return RankedPrediction(
        articles=tuple(a for a, _ in ordered), scores=tuple(s for _, s in ordered)
    )


# ---------------------------------------------------------------------------
# End-to-end analysis


@dataclass(frozen=True)
class AnalysisResult:
    facts: tuple[Fact, ...]
    findings: tuple[Finding, ...]
    ranking: RankedPrediction

    def to_dict(self) -> dict:
        return {
            "facts": [f.to_dict() for f in self.facts],
            "findings": [f.to_dict() for f in self.findings],
            "ranking": self.ranking.to_dict(),
        }


def check_span(text: str, span: tuple[int, int]) -> None:
    """Raise InputError unless ``span`` is a range of lines of ``text``; a line ends at "\\n"."""
    start, end = span
    line_count = text.count("\n") + 1
    if not 1 <= start <= end <= line_count:
        raise InputError(f"line span {start}-{end} is outside the text ({line_count} lines)")


@functools.lru_cache(maxsize=1)
def _facts_of(source: str, language: str, path: str) -> tuple[Fact, ...]:
    """The facts of the last text analyzed, so each scope of one file extracts them once."""
    return tuple(extract_facts(source, language, path=path))


def _refocus(facts: Sequence[Fact], start: int, end: int) -> list[Fact]:
    """The same fact set scoped to lines start-end: facts outside are contextual."""
    return [
        fact
        if start <= fact.span.start_line and fact.span.end_line <= end
        else Fact(fact.kind, fact.symbol, fact.detail, fact.span, fact.language, fact.data_category, True)
        for fact in facts
    ]


def analyze_source(
    source: str,
    language: str,
    *,
    span: tuple[int, int] | None = None,
    path: str = "",
    catalog: RuleCatalog | None = None,
) -> AnalysisResult:
    """Analyze ``source`` as a whole, or over the lines of ``span`` only.

    A line scope sees only facts inside its span as evidence, but file-wide
    guards (consent checks, crypto, notice text) still apply to it.
    """
    catalog = default_catalog() if catalog is None else catalog
    facts: Sequence[Fact] = _facts_of(source, language, path)
    if span is not None:
        check_span(source, span)
        facts = _refocus(facts, *span)
    findings = evaluate_rules(facts, catalog)
    return AnalysisResult(tuple(facts), tuple(findings), rank_articles(findings))
