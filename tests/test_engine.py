"""Rule engine: condition parsing, predicates, evaluation, ranking."""

import dataclasses
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdprkit import engine
from gdprkit.engine import (
    AndExpr,
    AtomExpr,
    Finding,
    NotExpr,
    OrExpr,
    Rule,
    RuleCatalog,
    _ranked,
    analyze_facts,
    analyze_source,
    atom_inventory,
    confidence_for,
    default_catalog,
    load_rules,
    parse_condition,
    populate_predicates,
)
from gdprkit.errors import InputError, RuleLoadError
from gdprkit.facts import SENSITIVE_CATEGORIES, DataCategory, Fact, FactKind, default_registry, extract_facts

CAMERA_SOURCE = (
    "public class CameraGrabber {\n"
    "    void grab(CameraManager manager) {\n"
    "        manager.openCamera(camerId, stateCallback, null);\n"
    "    }\n"
    "}\n"
)

HTTP_SOURCE = (
    "class Uploader {\n"
    "    void send(TelephonyManager tm, LocationManager lm) {\n"
    "        String id = tm.getDeviceId();\n"
    '        Location loc = lm.getLastKnownLocation("gps");\n'
    '        URL u = new URL("http://collect.example.com/ingest");\n'
    "        HttpURLConnection c = (HttpURLConnection) u.openConnection();\n"
    "    }\n"
    "}\n"
)

CONSENT_SOURCE = (
    "class Safe {\n"
    "    void run(Context ctx, TelephonyManager tm) {\n"
    "        if (ContextCompat.checkSelfPermission(ctx, READ_PHONE_STATE) == GRANTED) {\n"
    "            String id = tm.getDeviceId();\n"
    "        }\n"
    "    }\n"
    "}\n"
)


class TestCatalog:
    def test_default_catalog_size_and_integrity(self):
        rules = default_catalog().rules
        assert len(rules) >= 35
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert 0 < rule.weight <= 1
            assert rule.article >= 1
            assert rule.message

    def test_catalog_spans_dominant_articles(self):
        assert {rule.article for rule in default_catalog().rules} >= {5, 6, 25, 32}

    def test_unknown_predicate_names_rule_id(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "rules": [
                        {
                            "id": "R-BAD",
                            "article": 6,
                            "when": "Bogus",
                            "weight": 0.5,
                            "message": "m",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(RuleLoadError, match="R-BAD"):
            load_rules(path)

    def test_duplicate_rule_id_rejected(self, tmp_path):
        rule = {
            "id": "R-DUP",
            "article": 6,
            "when": "HasConsentCheck",
            "weight": 0.5,
            "message": "m",
        }
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"version": 1, "rules": [rule, rule]}), encoding="utf-8")
        with pytest.raises(RuleLoadError, match="R-DUP"):
            load_rules(path)

    @pytest.mark.parametrize(
        "change, entry, message",
        [
            ({"id": "R0"}, 1, "duplicate rule id 'R0'"),
            ({"when": "Bogus"}, 1, "rule 'R1' references unknown predicate 'Bogus'"),
            ({"weight": 5}, 1, "rule 'R1' weight must be in (0, 1], got 5"),
            ({"article": 0}, 1, "rule 'R1' article must be a positive integer"),
            ({"article": True}, 1, "rule 'R1' article must be a positive integer"),
            ({"weight": True}, 1, "rule 'R1' weight must be in (0, 1], got True"),
            ({"when": ["not"]}, 1, "'not' takes exactly one operand"),
        ],
        ids=["duplicate-id", "unknown-predicate", "weight", "article", "article-bool", "weight-bool",
             "malformed-when"],
    )
    def test_rule_errors_name_file_and_entry(self, change, entry, message, tmp_path):
        rule = {"article": 6, "when": "HasConsentCheck", "weight": 0.5, "message": "m"}
        rules = [{**rule, "id": "R0"}, {**rule, "id": "R1", **change}]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": rules}), encoding="utf-8")
        with pytest.raises(RuleLoadError) as raised:
            load_rules(path)
        assert str(raised.value) == f"{path}: entry {entry}: {message}"

    def test_empty_rule_file_gives_empty_catalog(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"version": 1, "rules": []}), encoding="utf-8")
        catalog = load_rules(path)
        assert catalog.rules == ()
        assert analyze_facts([], catalog=catalog).findings == ()


    def test_explicit_empty_catalog_is_not_replaced_by_the_default(self):
        empty = RuleCatalog([])
        assert analyze_source(HTTP_SOURCE, "java", catalog=empty).findings == ()
        assert analyze_source(HTTP_SOURCE, "java", span=(3, 6), catalog=empty).findings == ()


class TestConditionParsing:
    def test_nested_condition_parses_to_its_tree(self):
        obj = ["and", "CollectsData(CAMERA)", ["not", "HasConsentCheck"]]
        expr = parse_condition(obj)
        assert expr == AndExpr(
            (AtomExpr("CollectsData(CAMERA)"), NotExpr(AtomExpr("HasConsentCheck")))
        )

    def test_bare_string_is_an_atom(self):
        expr = parse_condition("UsesInsecureTransport")
        assert expr == AtomExpr("UsesInsecureTransport")

    def test_or_condition_evaluates(self):
        expr = parse_condition(["or", "WritesLogs", "HasConsentCheck"])
        held = populate_predicates(extract_facts('Log.d("t", v);', "java"))
        assert expr.evaluate(held) is True

    @pytest.mark.parametrize(
        "obj",
        [[], ["nonsense", "x"], ["not"], ["not", "a", "b"], ["and"], 42, None],
    )
    def test_malformed_condition_rejected(self, obj):
        with pytest.raises(RuleLoadError):
            parse_condition(obj)


class TestPredicates:
    def test_device_id_sets_collects_data(self):
        facts = extract_facts("String id = tm.getDeviceId();", "java")
        held = populate_predicates(facts)
        assert "CollectsData(DEVICE_ID)" in held
        assert "HasConsentCheck" not in held

    def test_no_facts_means_all_existentials_false(self):
        assert populate_predicates([]) == {}

    @pytest.mark.parametrize("crypto", [False, True])
    def test_inventory_complete_when_every_predicate_can_hold(self, crypto):
        def fact(kind, category=None, detail="x"):
            return Fact(kind, "s", detail, 1, 1, category)

        facts = [fact(FactKind.API_CALL, c) for c in DataCategory]
        facts += [
            fact(FactKind.CONSENT_GUARD),
            fact(FactKind.PERMISSION_DECL),
            fact(FactKind.URL_LITERAL, detail="http://example.com"),
            fact(FactKind.NETWORK_SEND),
            fact(FactKind.STORAGE_WRITE),
            fact(FactKind.STRING_LITERAL, DataCategory.CREDENTIALS, "see the privacy policy"),
            fact(FactKind.LOG_WRITE),
        ]
        if crypto:
            facts.append(fact(FactKind.CRYPTO_USE))
        held = populate_predicates(facts)
        # encryption anywhere clears plaintext credentials, so exactly one stays false
        unheld = "StoresPlaintextCredentials" if crypto else "UsesEncryption"
        assert set(held) == set(atom_inventory()) - {unheld}

    def test_guard_plus_camera(self):
        source = "ContextCompat.checkSelfPermission(ctx, p);\nmanager.openCamera(a, b, c);\n"
        held = populate_predicates(extract_facts(source, "java"))
        assert "CollectsData(CAMERA)" in held
        assert "HasConsentCheck" in held

    def test_guard_predicates_see_contextual_facts(self):
        source = (
            "ContextCompat.checkSelfPermission(ctx, p);\n"
            "manager.openCamera(a, b, c);\n"
        )
        held = populate_predicates(extract_facts(source, "java"), (2, 2))
        # evidence predicate restricted to the focus; guard sees the whole file
        assert "CollectsData(CAMERA)" in held
        assert "HasConsentCheck" in held

    def test_evidence_predicates_ignore_contextual_facts(self):
        source = "manager.openCamera(a, b, c);\nint x = 1;\n"
        held = populate_predicates(extract_facts(source, "java"), (2, 2))
        assert "CollectsData(CAMERA)" not in held


class TestEvaluation:
    def test_camera_fixture_confidences_match_hand_formula(self):
        result = analyze_source(CAMERA_SOURCE, "java")
        by_rule = {f.rule_id: f for f in result.findings}
        ln2 = 1 + math.log(2)
        assert by_rule["A6-CAMERA"].confidence == pytest.approx(0.9 * ln2, abs=1e-12)
        assert by_rule["A25-DEFAULT-COLLECT"].confidence == pytest.approx(0.65 * ln2, abs=1e-12)
        assert by_rule["A5-NOTICE-CAMERA"].confidence == pytest.approx(0.6 * ln2, abs=1e-12)
        assert by_rule["A32-NOSEC-CAMERA"].confidence == pytest.approx(0.6 * ln2, abs=1e-12)
        assert by_rule["A13-NO-NOTICE"].confidence == pytest.approx(0.55 * ln2, abs=1e-12)

    def test_camera_fixture_ranking(self):
        result = analyze_source(CAMERA_SOURCE, "java")
        assert result.ranking.articles == (6, 25, 5, 32, 13)
        assert 6 in result.ranking.articles[:2]

    def test_http_fixture_flags_article_32_in_top_two(self):
        result = analyze_source(HTTP_SOURCE, "java")
        assert 32 in result.ranking.articles[:2]
        by_rule = {f.rule_id: f for f in result.findings}
        assert by_rule["A32-HTTP"].confidence == pytest.approx(
            0.95 * (1 + math.log(2)), abs=1e-12
        )
        assert by_rule["A6-EXFIL"].confidence == pytest.approx(
            0.85 * (1 + math.log(4)), abs=1e-12
        )

    def test_consent_guard_suppresses_article_6(self):
        result = analyze_source(CONSENT_SOURCE, "java")
        assert all(f.article != 6 for f in result.findings)
        assert sorted({f.article for f in result.findings}) == [5, 13]

    def test_findings_carry_evidence_in_explanation(self):
        result = analyze_source(CAMERA_SOURCE, "java")
        finding = next(f for f in result.findings if f.rule_id == "A6-CAMERA")
        assert "evidence" in finding.explanation
        assert "openCamera" in finding.explanation

    def test_empty_source_has_no_findings(self):
        result = analyze_source("", "java")
        assert result.findings == ()
        assert result.ranking.articles == ()


class TestRanking:
    def test_max_confidence_per_article_then_sort(self):
        ranked = _ranked([(6, 0.9), (32, 0.6), (6, 0.4)])
        assert ranked.articles == (6, 32)
        assert ranked.scores == (0.9, 0.6)

    def test_tie_breaks_by_ascending_article(self):
        assert _ranked([(6, 0.5), (5, 0.5)]).articles == (5, 6)

    def test_no_findings_empty_prediction(self):
        ranked = _ranked([])
        assert ranked.articles == ()
        assert ranked.scores == ()

    def test_confidence_grows_with_support(self):
        assert confidence_for(0.5, 0) == pytest.approx(0.5)
        values = [confidence_for(0.5, n) for n in range(6)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestMultiGranularity:
    def test_single_line_file_agrees_across_scopes(self):
        source = "manager.openCamera(a, b, c);\n"
        whole = analyze_source(source, "java")
        assert whole.ranking.articles[0] == 6
        assert analyze_source(source, "java", span=(1, 1)).ranking == whole.ranking

    def test_guard_above_still_covers_focused_line(self):
        source = (
            "if (ContextCompat.checkSelfPermission(ctx, CAMERA) == GRANTED) {\n"
            "    manager.openCamera(camerId, stateCallback, null);\n"
            "}\n"
        )
        line_result = analyze_source(source, "java", span=(2, 2))
        assert all(f.article != 6 for f in line_result.findings)

    def test_unguarded_focused_line_flags_article_6(self):
        source = "int x = 1;\nmanager.openCamera(camerId, stateCallback, null);\n"
        assert 6 in analyze_source(source, "java", span=(2, 2)).ranking.articles

    def test_empty_file_empty_everywhere(self):
        assert analyze_source("", "java").ranking.articles == ()
        assert analyze_source("", "java", span=(1, 1)).ranking.articles == ()

    def test_span_out_of_bounds_rejected(self):
        # "int x;\n" has two lines: the second one, after its "\n", is empty
        for span in [(5, 9), (3, 3), (0, 1), (2, 1)]:
            with pytest.raises(InputError, match="outside the text"):
                analyze_source("int x;\n", "java", span=span)
        assert analyze_source("int x;\n", "java", span=(2, 2)).findings == ()

    def test_frontend_registered_later_sees_the_same_text_again(self, monkeypatch):
        """The per-text facts cache does not serve facts of a frontend no longer in use."""
        registry = default_registry()
        # register on a copy, so the default registry is as before once the test ends
        monkeypatch.setattr(registry, "_frontends", dict(registry._frontends))
        source = "camera.open(handler);\n"
        assert analyze_source(source, "rb").facts == ()
        fact = Fact(FactKind.API_CALL, "open", "camera.open", 1, 1, DataCategory.CAMERA)
        registry.register("rb", lambda text: [fact])
        again = analyze_source(source, "rb")
        assert again.facts == (fact,)
        assert 6 in again.ranking.articles


def positive_only(rule: Rule) -> bool:
    """No predicate of the rule's condition appears under a negation."""
    atoms: list[tuple[str, bool]] = []
    rule.condition.walk(True, atoms)
    return all(positive for _, positive in atoms)


class TestInvariants:
    @given(factor=st.floats(0.05, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_rescaling_preserves_ranking_order(self, factor):
        base = analyze_source(HTTP_SOURCE, "java")
        scaled_catalog = RuleCatalog(
            [dataclasses.replace(r, weight=r.weight * factor) for r in default_catalog().rules]
        )
        scaled = analyze_source(HTTP_SOURCE, "java", catalog=scaled_catalog)
        assert scaled.ranking.articles == base.ranking.articles

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_positive_only_rules_are_monotone_in_facts(self, data):
        pool_source = (
            "String id = tm.getDeviceId();\n"
            'URL u = new URL("http://a.example/x");\n'
            "HttpURLConnection c = (HttpURLConnection) u.openConnection();\n"
            'Log.d("t", id);\n'
            "Location l = lm.getLastKnownLocation(p);\n"
        )
        pool = extract_facts(pool_source, "java")
        subset = data.draw(st.sets(st.sampled_from(range(len(pool))), max_size=len(pool)))
        extra = data.draw(st.sets(st.sampled_from(range(len(pool))), max_size=len(pool)))
        small = [pool[i] for i in sorted(subset)]
        large = [pool[i] for i in sorted(subset | extra)]
        catalog = RuleCatalog([r for r in default_catalog().rules if positive_only(r)])
        fired_small = {rule.id for rule, *_ in analyze_facts(small, catalog=catalog).fired}
        fired_large = {rule.id for rule, *_ in analyze_facts(large, catalog=catalog).fired}
        assert fired_small <= fired_large

    def test_repeated_analysis_serializes_identically(self):
        first = json.dumps(analyze_source(HTTP_SOURCE, "java").to_dict("A.java", "java"), sort_keys=True)
        second = json.dumps(analyze_source(HTTP_SOURCE, "java").to_dict("A.java", "java"), sort_keys=True)
        assert first == second


# ---------------------------------------------------------------------------
# The catalog's fired-rule memo against the plain tree evaluator

_REFERENCE_PHRASES = ("privacy policy", "privacy notice", "privacy statement", "data protection")


def reference_predicates(facts, span=None) -> dict[str, list[Fact]]:
    """``populate_predicates`` as one list comprehension per predicate, held ones only.

    With ``span``, only the facts that lie within it are local evidence.
    """
    local = [f for f in facts if span is None or span[0] <= f.start_line <= f.end_line <= span[1]]
    held = {}

    def put(name, support):
        if support:
            held[name] = list(support)

    collect_all = []
    for category in sorted(SENSITIVE_CATEGORIES, key=lambda c: c.value):
        matches = [f for f in local if f.kind is FactKind.API_CALL and f.data_category is category]
        put(f"CollectsData({category.value})", matches)
        collect_all.extend(matches)
    put("CollectsAnyPersonalData", collect_all)
    put("HasConsentCheck", [f for f in facts if f.kind is FactKind.CONSENT_GUARD])
    put("DeclaresPermission", [f for f in local if f.kind is FactKind.PERMISSION_DECL])
    put(
        "UsesInsecureTransport",
        [f for f in local if f.kind is FactKind.URL_LITERAL and f.detail.startswith("http://")],
    )
    put("SendsDataOffDevice", [f for f in local if f.kind is FactKind.NETWORK_SEND])
    put("StoresDataLocally", [f for f in local if f.kind is FactKind.STORAGE_WRITE])
    credentials = [f for f in local if f.data_category is DataCategory.CREDENTIALS]
    put("HandlesCredentials", credentials)
    crypto_anywhere = [f for f in facts if f.kind is FactKind.CRYPTO_USE]
    plaintext = [f for f in credentials if f.kind in (FactKind.STRING_LITERAL, FactKind.STORAGE_WRITE)]
    put("StoresPlaintextCredentials", plaintext if not crypto_anywhere else [])
    put("UsesEncryption", crypto_anywhere)
    logs = [f for f in local if f.kind is FactKind.LOG_WRITE]
    put("WritesLogs", logs)
    sensitive = collect_all + credentials
    put("LogsSensitiveAccess", logs + sensitive if logs and sensitive else [])
    put(
        "HasPrivacyNoticeText",
        [
            f
            for f in facts
            if f.kind is FactKind.STRING_LITERAL
            and any(phrase in f.detail.lower() for phrase in _REFERENCE_PHRASES)
        ],
    )
    put(
        "AccessesSpecialCategoryData",
        [f for f in local if f.kind is FactKind.API_CALL and f.data_category is DataCategory.GENERIC],
    )
    return held


def reference_holds(condition, held) -> bool:
    """A rule condition evaluated by matching on its tree, not through ``Expr.evaluate``."""
    if isinstance(condition, AtomExpr):
        return condition.name in held
    if isinstance(condition, NotExpr):
        return not reference_holds(condition.child, held)
    values = [reference_holds(child, held) for child in condition.children]
    return all(values) if isinstance(condition, AndExpr) else any(values)


def reference_findings(facts, rules, span=None) -> list[tuple]:
    """``reference_holds`` per rule, ``walk`` for its positive atoms, support deduplicated by id.

    Each finding is ``(article, rule_id, confidence, support, spans, explanation)``,
    with its spans and explanation built eagerly.
    """
    held = reference_predicates(facts, span)
    findings = []
    for rule in rules:
        if not reference_holds(rule.condition, held):
            continue
        atoms: list[tuple[str, bool]] = []
        rule.condition.walk(True, atoms)
        support, seen = [], set()
        for name, positive in atoms:
            if positive and name in held:
                for fact in held[name]:
                    if id(fact) not in seen:
                        seen.add(id(fact))
                        support.append(fact)
        spans = tuple(sorted({(f.start_line, f.end_line) for f in support}))
        symbols = sorted({f.symbol for f in support})[:5]
        explanation = f"{rule.message} (evidence: {', '.join(symbols)})" if symbols else rule.message
        findings.append(
            (rule.article, rule.id, confidence_for(rule.weight, len(support)), tuple(support), spans, explanation)
        )
    return findings


def finding_fields(finding: Finding) -> tuple:
    return (
        finding.article,
        finding.rule_id,
        finding.confidence,
        finding.support,
        finding.spans,
        finding.explanation,
    )


def _pool_fact(kind, category=None, detail="x", line=1):
    return Fact(kind, f"{kind.value}-{line}", detail, line, line, category)


FACT_POOL = extract_facts(HTTP_SOURCE + CONSENT_SOURCE, "java") + [
    _pool_fact(FactKind.API_CALL, DataCategory.CAMERA, line=20),
    _pool_fact(FactKind.API_CALL, DataCategory.GENERIC, line=21),
    _pool_fact(FactKind.URL_LITERAL, detail="https://safe.example.com", line=22),
    _pool_fact(FactKind.URL_LITERAL, detail="http://plain.example.com", line=22),
    _pool_fact(FactKind.STRING_LITERAL, DataCategory.CREDENTIALS, "hunter2", line=23),
    _pool_fact(FactKind.STORAGE_WRITE, DataCategory.CREDENTIALS, line=24),
    _pool_fact(FactKind.STRING_LITERAL, detail="Read our Privacy Policy", line=25),
    _pool_fact(FactKind.PERMISSION_DECL, line=26),
    _pool_fact(FactKind.NETWORK_SEND, line=27),
    _pool_fact(FactKind.LOG_WRITE, line=28),
    _pool_fact(FactKind.CRYPTO_USE, line=29),
    _pool_fact(FactKind.CONSENT_GUARD, line=30),
    _pool_fact(FactKind.API_CALL, line=31),
    _pool_fact(FactKind.API_CALL, DataCategory.CREDENTIALS, line=32),
    _pool_fact(FactKind.API_CALL, DataCategory.MICROPHONE, line=33),
    _pool_fact(FactKind.API_CALL, DataCategory.CONTACTS, line=34),
    _pool_fact(FactKind.API_CALL, DataCategory.SMS, line=35),
    _pool_fact(FactKind.API_CALL, DataCategory.KEYSTROKES, line=36),
]
_POOL_LINES = 36

_conditions = st.recursive(
    st.sampled_from(atom_inventory()).map(AtomExpr),
    lambda children: st.one_of(
        children.map(NotExpr),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: AndExpr(tuple(cs))),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: OrExpr(tuple(cs))),
    ),
    max_leaves=8,
)
_rules = st.lists(
    st.tuples(_conditions, st.sampled_from([5, 6, 25, 32]), st.floats(0.05, 1.0)),
    min_size=1,
    max_size=8,
).map(lambda drawn: [Rule(f"R{i}", a, c, w, f"rule {i}") for i, (c, a, w) in enumerate(drawn)])
_fact_sets = st.lists(st.sampled_from(range(len(FACT_POOL))), unique=True).map(
    lambda picked: [FACT_POOL[i] for i in picked]
)
_pool_spans = st.none() | st.tuples(st.integers(1, _POOL_LINES), st.integers(0, _POOL_LINES)).map(
    lambda drawn: (drawn[0], drawn[0] + drawn[1])
)


class TestFiredRuleMemo:
    @given(facts=_fact_sets, span=_pool_spans)
    @settings(max_examples=200, deadline=None)
    def test_predicate_support_matches_reference(self, facts, span):
        assert populate_predicates(facts, span) == reference_predicates(facts, span)

    @given(condition=_conditions, facts=_fact_sets, span=_pool_spans)
    @settings(max_examples=200, deadline=None)
    def test_condition_evaluates_as_the_tree_evaluator(self, condition, facts, span):
        expected = reference_holds(condition, reference_predicates(facts, span))
        assert condition.evaluate(populate_predicates(facts, span)) == expected

    @given(rules=_rules, fact_sets=st.lists(_fact_sets, min_size=1, max_size=4), span=_pool_spans)
    @settings(max_examples=200, deadline=None)
    def test_findings_match_tree_evaluation(self, rules, fact_sets, span):
        catalog = RuleCatalog(rules)
        first = [analyze_facts(facts, span, catalog).findings for facts in fact_sets]
        assert [[finding_fields(f) for f in findings] for findings in first] == [
            reference_findings(facts, rules, span) for facts in fact_sets
        ]
        # the second pass takes every fired-rule tuple from the memo
        assert [analyze_facts(facts, span, catalog).findings for facts in fact_sets] == first


# ---------------------------------------------------------------------------
# A scope's ranking and findings against the reference analysis of its facts

_DETAILS = ("x", "http://plain.example.com", "https://safe.example.com", "Read our Privacy Policy")
_LINES = 12
_random_facts = st.lists(
    st.builds(
        lambda kind, category, detail, start, extent: Fact(
            kind, f"{kind.value}-{start}", detail, start, start + extent, category
        ),
        st.sampled_from(FactKind),
        st.sampled_from([None, *DataCategory]),
        st.sampled_from(_DETAILS),
        st.integers(1, _LINES),
        st.integers(0, 3),  # a fact may straddle a span border or run past the text
    ),
    max_size=14,
)
_spans = st.none() | st.tuples(st.integers(1, _LINES), st.integers(0, _LINES - 1)).map(
    lambda drawn: (drawn[0], min(_LINES, drawn[0] + drawn[1]))
)


def reference_analysis(facts, span, rules) -> tuple[list[tuple], tuple]:
    """(findings, ranking) of one scope.

    Each finding is ``reference_findings``' tuple, and the ranking is each
    article's best finding confidence, ties by article number, as
    (articles, scores).
    """
    findings = reference_findings(facts, rules, span)
    best: dict[int, float] = {}
    for article, _, confidence, *_ in findings:
        best[article] = max(best.get(article, confidence), confidence)
    ordered = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return findings, (tuple(a for a, _ in ordered), tuple(c for _, c in ordered))


def best_finding_per_article(result) -> dict[int, float]:
    best: dict[int, float] = {}
    for finding in result.findings:
        best[finding.article] = max(best.get(finding.article, finding.confidence), finding.confidence)
    return best


class TestRankFromHeldPredicates:
    @given(
        facts=_random_facts,
        repeat=st.integers(0, 3),
        span=_spans,
        rules=st.just(list(default_catalog().rules)) | _rules,
    )
    @settings(max_examples=300, deadline=None)
    def test_ranking_findings_and_facts_match_the_refocused_analysis(self, facts, repeat, span, rules):
        facts = facts + facts[:repeat]  # a fact object listed twice still supports a rule once
        catalog = RuleCatalog(rules)
        with mock.patch.object(engine, "_facts_of", lambda *args: tuple(facts)):
            result = analyze_source("\n" * (_LINES - 1), "java", span=span, catalog=catalog)
        expected_findings, expected_ranking = reference_analysis(facts, span, rules)
        assert (result.ranking.articles, result.ranking.scores) == expected_ranking
        assert [finding_fields(f) for f in result.findings] == expected_findings
        assert dict(zip(result.ranking.articles, result.ranking.scores)) == best_finding_per_article(result)
        assert result.facts == tuple(facts)
        start, end = span or (1, math.inf)
        assert [f["contextual"] for f in result.to_dict("A.java", "java")["facts"]] == [
            not start <= f.start_line <= f.end_line <= end for f in facts
        ]

    def test_a_fact_listed_twice_in_one_predicate_counts_once(self):
        # a log write of credentials supports WritesLogs and HandlesCredentials,
        # so LogsSensitiveAccess lists it twice
        fact = Fact(FactKind.LOG_WRITE, "d", "Log.d(tag, password)", 1, 1,
                    DataCategory.CREDENTIALS)
        assert populate_predicates([fact])["LogsSensitiveAccess"] == [fact, fact]
        rule = next(r for r in default_catalog().rules if r.id == "A5-COVERT-LOG")
        with mock.patch.object(engine, "_facts_of", lambda *args: (fact,)):
            result = analyze_source("x\n", "java", span=(1, 1), catalog=RuleCatalog([rule]))
        once = confidence_for(rule.weight, 1)
        assert result.ranking.scores == (once,)
        assert [(f.confidence, f.support) for f in result.findings] == [(once, (fact,))]

    def test_ranking_and_findings_agree_on_a_guard_listed_twice_outside_the_span(self):
        guard = Fact(FactKind.CONSENT_GUARD, "checkSelfPermission", "ContextCompat.checkSelfPermission",
                     1, 1)
        rule = Rule("R-CONSENT", 6, AtomExpr("HasConsentCheck"), 0.5, "consent is checked")
        with mock.patch.object(engine, "_facts_of", lambda *args: (guard, guard)):
            result = analyze_source("x\ny\nz\n", "java", span=(2, 2), catalog=RuleCatalog([rule]))
        once = confidence_for(rule.weight, 1)
        assert best_finding_per_article(result) == dict(zip(result.ranking.articles, result.ranking.scores))
        assert best_finding_per_article(result) == {6: once}

    def test_facts_and_findings_are_built_once_when_read(self):
        result = analyze_source(HTTP_SOURCE, "java", span=(3, 3))
        assert "findings" not in vars(result)
        assert result.findings is result.findings
        # the scope keeps the file's facts as extracted, with no copy per span
        assert result.facts is analyze_source(HTTP_SOURCE, "java").facts
        facts = result.to_dict("A.java", "java")["facts"]
        assert all(f["contextual"] is (f["span"]["start_line"] != 3) for f in facts)


# ---------------------------------------------------------------------------
# Supports built when read against the eager dict-based analysis


def eager_analysis(facts, span, catalog) -> tuple[tuple, list[tuple]]:
    """``analyze_facts`` as it was when each fired rule kept its ``{id: fact}`` support.

    Returns the ranking as (articles, scores) and each fired rule as
    (rule id, confidence, support).
    """
    held = populate_predicates(facts, span)
    fired = []
    for rule, atoms in catalog.fired(held):
        support = {id(f): f for name in atoms for f in held.get(name, ())}
        fired.append((rule, confidence_for(rule.weight, len(support)), support))
    best: dict[int, float] = {}
    for rule, confidence, _ in fired:
        prev = best.get(rule.article)
        if prev is None or confidence > prev:
            best[rule.article] = confidence
    ordered = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    ranking = (tuple(a for a, _ in ordered), tuple(s for _, s in ordered))
    return ranking, [(rule.id, confidence, tuple(support.values())) for rule, confidence, support in fired]


# a log write of credentials: LogsSensitiveAccess lists it twice, once as a
# log and once as credentials
_CREDENTIAL_LOG = Fact(FactKind.LOG_WRITE, "d", "Log.d(tag, password)", 2, 2,
                       DataCategory.CREDENTIALS)
_TWICE_RULE = Rule("R-TWICE", 5, AtomExpr("LogsSensitiveAccess"), 0.7, "logs what it collects")


class TestSupportsBuiltWhenRead:
    @given(
        facts=_random_facts,
        repeat=st.integers(0, 3),
        log_at=st.integers(0, 14),
        span=_spans,
        rules=st.just(list(default_catalog().rules)) | _rules,
    )
    @settings(max_examples=300, deadline=None)
    def test_ranking_confidences_and_findings_equal_the_eager_analysis(
        self, facts, repeat, log_at, span, rules
    ):
        facts = facts[:log_at] + [_CREDENTIAL_LOG] + facts[log_at:]
        facts = facts + facts[:repeat]
        catalog = RuleCatalog([*rules, _TWICE_RULE])
        result = analyze_facts(facts, span, catalog)
        ranking, fired = eager_analysis(facts, span, catalog)
        assert (result.ranking.articles, result.ranking.scores) == ranking
        assert [(rule.id, confidence) for rule, confidence, _ in result.fired] == [f[:2] for f in fired]
        assert [(f.rule_id, f.confidence, f.support) for f in result.findings] == fired
