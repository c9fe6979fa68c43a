"""Fact extraction: pattern table, lexical fallback, structural frontend."""

import dataclasses
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdprkit
from gdprkit import facts as facts_module
from gdprkit.corpus import SpanRef, detect_language, group_by_file, split_snippet_path
from gdprkit.engine import analyze_source
from gdprkit.errors import ConfigurationError
from gdprkit.facts import (
    DataCategory,
    Fact,
    FactKind,
    FrontendRegistry,
    default_pattern_table,
    default_registry,
    extract_facts,
    lexical_fallback,
    structural_frontend,
)
from gdprkit.harness import reconstruct_source


class TestApiCallExtraction:
    def test_get_device_id_call(self):
        facts = extract_facts("String deviceId = telephonyManager.getDeviceId();", "java")
        assert len(facts) == 1
        fact = facts[0]
        assert fact.kind is FactKind.API_CALL
        assert fact.symbol == "getDeviceId"
        assert fact.data_category is DataCategory.DEVICE_ID
        assert (fact.start_line, fact.end_line) == (1, 1)

    def test_open_camera_call(self):
        facts = extract_facts(
            "            manager.openCamera(camerId, stateCallback, null);\n", "java"
        )
        assert [(f.kind, f.symbol, f.data_category) for f in facts] == [
            (FactKind.API_CALL, "openCamera", DataCategory.CAMERA)
        ]

    def test_whitespace_source_gives_no_facts(self):
        assert extract_facts("   \n \t \n", "java") == []

    def test_word_boundary_blocks_substring_match(self):
        assert extract_facts("int widgetDeviceIdx = 0;", "java") == []

    def test_line_numbers_track_position(self):
        source = "int a;\nint b;\nloc = manager.getLastKnownLocation(p);\n"
        facts = extract_facts(source, "java")
        assert facts[0].symbol == "getLastKnownLocation"
        assert facts[0].start_line == 3

    def test_call_inside_comment_ignored(self):
        source = "// manager.openCamera(a, b, c);\nint x = 1;\n"
        assert extract_facts(source, "java") == []

    def test_call_inside_block_comment_ignored(self):
        source = "/* manager.openCamera(a, b, c);\n   more */\nint x = 1;\n"
        assert extract_facts(source, "java") == []


class TestLiteralExtraction:
    def test_http_url_literal(self):
        facts = extract_facts('url = "http://x.example/upload";', "java")
        assert [(f.kind, f.detail) for f in facts] == [
            (FactKind.URL_LITERAL, "http://x.example/upload")
        ]

    def test_plain_string_literal(self):
        facts = extract_facts('String s = "hello";', "java")
        assert [(f.kind, f.symbol, f.detail) for f in facts] == [
            (FactKind.STRING_LITERAL, "literal", "hello")
        ]

    def test_json_credential_key(self):
        facts = extract_facts('{"password": "hunter2"}', "json")
        assert len(facts) == 1
        fact = facts[0]
        assert fact.kind is FactKind.STRING_LITERAL
        assert fact.data_category is DataCategory.CREDENTIALS
        assert fact.detail == "hunter2"

    def test_credential_assignment_form(self):
        facts = extract_facts('api_key = "sk-123456"', "py")
        assert any(f.data_category is DataCategory.CREDENTIALS for f in facts)

    def test_permission_constant(self):
        facts = extract_facts(
            'requestPermissions(new String[]{"android.permission.READ_CONTACTS"}, 1);',
            "java",
        )
        perm = [f for f in facts if f.kind is FactKind.PERMISSION_DECL]
        assert len(perm) == 1
        assert perm[0].symbol == "READ_CONTACTS"

    def test_privacy_phrase_in_literal(self):
        facts = extract_facts('String msg = "See our privacy policy.";', "java")
        kinds = [(f.kind, f.detail) for f in facts]
        assert (FactKind.STRING_LITERAL, "hello") not in kinds
        assert any("privacy policy" in f.detail.lower() for f in facts)


class TestGuardAndStructure:
    def test_consent_guard_call(self):
        source = "if (ContextCompat.checkSelfPermission(ctx, p) != GRANTED) return;\n"
        facts = extract_facts(source, "java")
        assert any(f.kind is FactKind.CONSENT_GUARD for f in facts)

    @pytest.mark.parametrize("language", ["java", "kt"])
    @pytest.mark.parametrize("keyword", ["class", "interface", "enum", "object"])
    def test_declarations_yield_no_facts(self, keyword, language):
        assert extract_facts(f"public {keyword} CameraGrabber {{\n}}\n", language) == []

    def test_kotlin_uses_structural_frontend(self):
        # the structural frontend skips comments; the lexical fallback does not
        source = "// getDeviceId();\n"
        assert extract_facts(source, "kt") == []
        assert [f.symbol for f in extract_facts(source, "rb")] == ["getDeviceId"]

    def test_network_and_storage_kinds(self):
        source = (
            'HttpURLConnection c = (HttpURLConnection) u.openConnection();\n'
            'getSharedPreferences("p", 0).edit();\n'
        )
        kinds = {f.kind for f in extract_facts(source, "java")}
        assert FactKind.NETWORK_SEND in kinds
        assert FactKind.STORAGE_WRITE in kinds

    def test_log_write_qualified_call(self):
        facts = extract_facts('Log.d("tag", value);', "java")
        assert any(f.kind is FactKind.LOG_WRITE for f in facts)


class TestFocus:
    SOURCE = (
        "if (ContextCompat.checkSelfPermission(ctx, CAMERA) == GRANTED) {\n"
        "    manager.openCamera(camerId, stateCallback, null);\n"
        "}\n"
    )

    def test_focus_marks_out_of_span_facts_contextual(self):
        focused = analyze_source(self.SOURCE, "java", span=(2, 2)).to_dict("A.java", "java")["facts"]
        by_symbol = {f["symbol"]: f for f in focused}
        assert by_symbol["openCamera"]["contextual"] is False
        assert by_symbol["checkSelfPermission"]["contextual"] is True

    def test_focus_never_changes_fact_content(self):
        focused = analyze_source(self.SOURCE, "java", span=(2, 2)).facts
        assert focused == tuple(extract_facts(self.SOURCE, "java"))


class TestRegistry:
    def test_double_registration_is_configuration_error(self):
        registry = FrontendRegistry()
        registry.register("java", structural_frontend)
        with pytest.raises(ConfigurationError):
            registry.register("java", structural_frontend)

    def test_custom_frontend_dispatch(self, monkeypatch):
        marker = Fact(kind=FactKind.API_CALL, symbol="FromCustom", detail="", start_line=1, end_line=1)

        def custom(source):
            return [marker]

        registry = default_registry()
        # register on a copy, so the default registry is as before once the test ends
        monkeypatch.setattr(registry, "_frontends", dict(registry._frontends))
        registry.register("zz", custom)
        assert extract_facts("anything", "zz") == [marker]

    def test_raising_frontend_degrades_to_lexical_fallback(self, monkeypatch):
        def broken(source):
            raise ValueError("parser exploded")

        monkeypatch.setattr(default_registry(), "_frontends", {"java": broken})
        facts = extract_facts("String deviceId = telephonyManager.getDeviceId();", "java")
        assert [f.symbol for f in facts] == ["getDeviceId"]


source_text = st.text(
    alphabet=st.sampled_from(list("abcdefgh ._();{}\"'\n=:/")), max_size=200
)


class TestProperties:
    @given(source=source_text, language=st.sampled_from(["java", "kt", "js", "json"]))
    @settings(max_examples=100, deadline=None)
    def test_extraction_is_deterministic(self, source, language):
        assert extract_facts(source, language) == extract_facts(source, language)

    @given(source=source_text, language=st.sampled_from(["java", "kt", "js"]))
    @settings(max_examples=100, deadline=None)
    def test_facts_sorted_and_deduplicated(self, source, language):
        facts = extract_facts(source, language)
        keys = [
            (f.start_line, f.end_line, f.kind.value, f.symbol, f.detail)
            for f in facts
        ]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @given(source=source_text)
    @settings(max_examples=100, deadline=None)
    def test_spans_stay_within_source(self, source):
        line_count = max(1, source.count("\n") + 1)
        for fact in extract_facts(source, "java"):
            assert 1 <= fact.start_line <= fact.end_line <= line_count

    @given(source=source_text, start=st.integers(1, 5), extent=st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_focus_only_toggles_contextual_flag(self, source, start, extent):
        line_count = source.count("\n") + 1
        start = min(start, line_count)
        plain = analyze_source(source, "java").to_dict("A.java", "java")["facts"]
        focused = analyze_source(source, "java", span=(start, min(start + extent, line_count)))
        focused = focused.to_dict("A.java", "java")["facts"]
        strip = lambda fs: [{k: v for k, v in f.items() if k != "contextual"} for f in fs]
        assert strip(plain) == strip(focused)
        assert not any(f["contextual"] for f in plain)


_WORD_PATTERNS = sorted(e.pattern for e in default_pattern_table().entries if e.match == "word")
# pieces that match a word entry only with help (spaced dots), or must not
# match at all (longer identifiers, other case, non-ASCII word characters)
_NEAR_MISSES = [
    "widgetDeviceIdx", "getDeviceIdé", "ügetDeviceId", "$getDeviceId", "_getDeviceId",
    "getDeviceId2", "getdeviceid", "GETDEVICEID", "FETCH", "Log . d", "Log\n.\nd", "Log .\n d",
    "Log.\td", "log.d", "LOG.D", "console .log", "Camera\t. open", "uses-permission",
    "uses_permission", "requestPermissions", "requestPermission", "requestPermissionz",
    "consentGivenX", "Лог.d", "ｇetDeviceId", "日本getImei",
]
_SYNTAX = [" ", "\n", "\t", ".", "(", ")", ";", "=", "//", "/*", "*/", '"', "'", "#", "x", "é"]
_word_text = st.lists(
    st.sampled_from(_WORD_PATTERNS)
    | st.sampled_from(sorted({part for pat in _WORD_PATTERNS for part in pat.split(".")}))
    | st.sampled_from(_NEAR_MISSES)
    | st.sampled_from(_SYNTAX),
    max_size=40,
).map("".join)


def _word_fact(entry, m, index):
    line = index.line_of(m.start())
    return Fact(
        kind=entry.kind,
        symbol=entry.pattern,
        detail=m.group(0),
        start_line=line,
        end_line=line,
        data_category=entry.data_category,
    )


# References for TestWordPrefilter: the word-entry loops the token index
# replaced, which run every entry's regex over the whole text.
def _reference_lexical(source: str) -> list[Fact]:
    table = default_pattern_table()
    index = facts_module._LineIndex(source)
    facts = []
    for entry in table.word_entries:
        for m in entry.compiled.finditer(source):
            facts.append(_word_fact(entry, m, index))
    facts.extend(facts_module._regex_pass(source, table, index))
    return facts_module._finalize(facts)


def _reference_structural(source: str) -> list[Fact]:
    # the frontend without its bare-identifier walk, plus that walk as a loop
    with mock.patch.object(facts_module, "_GUARD_KINDS", ()):
        facts = structural_frontend(source)
    index = facts_module._LineIndex(source)
    blanked, _ = facts_module._scan_java_like(source, index)
    for entry in default_pattern_table().word_entries:
        if entry.kind not in (FactKind.CONSENT_GUARD, FactKind.PERMISSION_DECL):
            continue
        for m in entry.compiled.finditer(blanked):
            tail = blanked[m.end():].lstrip(" \t")
            if tail.startswith("("):
                continue
            facts.append(_word_fact(entry, m, index))
    return facts_module._finalize(facts)


class TestWordPrefilter:
    """The token index finds exactly the matches of every word entry's regex."""

    @given(source=_word_text)
    @settings(max_examples=300, deadline=None)
    @example(source="$getDeviceId _getDeviceId getDeviceId2 getdeviceid")
    @example(source="Log .\n d(x); uses_permission uses-permission")
    @example(source="if (consentGiven) x = consentGivenX;\nhasConsent ()\nconsentGiven\n(x)")
    def test_frontends_equal_unfiltered_scan(self, source):
        fast = [lexical_fallback(source), structural_frontend(source)]
        slow = [_reference_lexical(source), _reference_structural(source)]
        assert fast == slow


# Reference for TestRegexPrefilter: the regex-entry loop before the literal
# pre-check, which runs every entry over every text.
def _reference_regex_pass(source: str) -> list[Fact]:
    index = facts_module._LineIndex(source)
    facts = []
    defaults = {FactKind.URL_LITERAL: "url", FactKind.STRING_LITERAL: "literal"}
    for entry in default_pattern_table().regex_entries:
        for m in entry.compiled.finditer(source):
            groups = m.groupdict()
            symbol = groups.get("symbol") or defaults.get(entry.kind, entry.kind.value.lower())
            detail = groups.get("detail")
            if detail is None:
                detail = m.group(0)
            line = index.line_of(m.start())
            end_line = index.line_of(max(m.start(), m.end() - 1))
            facts.append(
                Fact(
                    kind=entry.kind,
                    symbol=symbol,
                    detail=detail,
                    start_line=line,
                    end_line=end_line,
                    data_category=entry.data_category,
                )
            )
    return facts


def _regex_pass(source: str) -> list[Fact]:
    index = facts_module._LineIndex(source)
    return facts_module._regex_pass(source, default_pattern_table(), index)


@pytest.fixture(scope="module")
def seed1_texts(seed1_corpus) -> list[tuple[str, str]]:
    """(text, language) of every snippet and reconstructed file of synthetic corpus seed 1."""
    texts = {
        (r.code_snippet, detect_language(split_snippet_path(r.code_snippet_path)[0]))
        for r in seed1_corpus
    }
    for (_, _, file_path), group in group_by_file(seed1_corpus).items():
        texts.add((reconstruct_source(group)[0], detect_language(file_path)))
    return sorted(texts)


# Texts for TestRegexPrefilter: credential assignments and notice phrases with
# each letter in lower or upper case, or as the non-ASCII character that
# re.IGNORECASE also folds onto it (and str.lower does not), among other pieces.
_CREDENTIAL_KEYS = [
    "password", "passwd", "pwd", "secret", "api_key", "api-key", "apikey", "auth_token",
    "auth-token", "access_token", "access-token", "credential", "credentials", "private_key",
    "private-key",
]
_NOTICES = ["privacy policy", "privacy  notice", "privacy\nstatement", "data protection notice"]
_FOLDS = {"s": "ſ", "k": "\u212a", "i": "ı"}


def _spelled(word_and_cases: tuple[str, list[int]]) -> str:
    word, cases = word_and_cases
    return "".join((c, c.upper(), _FOLDS.get(c, c))[k] for c, k in zip(word, cases))


_spelling = st.tuples(
    st.sampled_from(_CREDENTIAL_KEYS + _NOTICES),
    st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=25, max_size=25),
).map(_spelled)
_assignment = st.tuples(
    st.sampled_from(['"', "", " "]),
    _spelling,
    st.sampled_from(['"', ""]),
    st.sampled_from([" = ", ": ", "="]),
    st.sampled_from(['"v"', "'v'", '""', "x"]),
).map("".join)
_REGEX_PIECES = [
    "pass", "api", "auth", "access", "private", "data", "notice", "İ", "é", '"', "'", "=", ":",
    " ", "\n", "x", "http://a.io", "android.permission.CAMERA",
]
_regex_text = st.lists(_assignment | st.sampled_from(_REGEX_PIECES), max_size=8).map("".join)


class TestRegexPrefilter:
    """The literal pre-check skips only entries that cannot match."""

    def test_fixture_texts_equal_unfiltered_loop(self, fixture_corpus):
        for record in fixture_corpus:
            text = record.code_snippet
            assert _regex_pass(text) == _reference_regex_pass(text)

    def test_seed1_texts_equal_unfiltered_loop(self, seed1_texts):
        assert len(seed1_texts) > 1000
        for text, _ in seed1_texts:
            assert _regex_pass(text) == _reference_regex_pass(text)

    @pytest.mark.parametrize("key", _CREDENTIAL_KEYS + _NOTICES)
    @pytest.mark.parametrize("case", [str.lower, str.upper, str.title])
    def test_every_match_form_equals_unfiltered_loop(self, key, case):
        for source in (f'"{key}": "v"', f"{key} = 'v'", key):
            source = case(source)
            assert _regex_pass(source) == _reference_regex_pass(source)
        assert _regex_pass(case(f'"{key}": "v" {key} = "v"'))

    @given(source=_regex_text)
    @example(source="paſsword = 'x'")
    @example(source='"Access-Token": "t"')
    @example(source='"private_\u212aey":"t" Data Protection Notice')
    @settings(max_examples=500, deadline=None)
    def test_random_texts_equal_unfiltered_loop(self, source):
        assert _regex_pass(source) == _reference_regex_pass(source)

    @pytest.mark.parametrize(
        "source,symbol",
        [("paſsword = 'x'", "paſsword"), ("prıvacy policy", "literal")],
    )
    def test_case_folds_outside_ascii_still_match(self, source, symbol):
        # "paſsword".lower() holds no literal: only the isascii() gate keeps the entry
        found = [(f.kind, f.symbol) for f in _regex_pass(source)]
        assert (FactKind.STRING_LITERAL, symbol) in found

    @pytest.mark.parametrize(
        "extra",
        [
            {"match": "word", "literals": ["pass"]},
            {"match": "regex", "literals": ["pass"]},
            {"match": "regex", "ignore_case": True, "literals": []},
            {"match": "regex", "ignore_case": True, "literals": [""]},
            {"match": "regex", "ignore_case": True, "literals": ["Pass"]},
            {"match": "regex", "ignore_case": True, "literals": "pass"},
        ],
        ids=["word", "case-sensitive", "empty-list", "empty-string", "upper-case", "not-a-list"],
    )
    def test_loader_rejects_bad_literals(self, extra):
        with pytest.raises(ConfigurationError, match="literals"):
            facts_module._pattern_entry({"pattern": "pass", "kind": "StringLiteral", **extra})

    def test_default_table_gives_literals_to_every_case_insensitive_entry(self):
        entries = default_pattern_table().regex_entries
        assert [bool(e.literals) for e in entries] == [
            bool(e.compiled.flags & re.IGNORECASE) for e in entries
        ]


# Reference for TestJavaLikeScan: a character-by-character scan that the one
# regex of _scan_java_like must agree with.
def _reference_scan(source: str) -> tuple[str, list[tuple[int, int, str]]]:
    """Blank out comments and string contents, preserving offsets.

    Returns the blanked text plus extracted literals as
    ``(start_line, end_line, content)``.
    """
    out = list(source)
    literals = []
    line = 1
    i = 0
    n = len(source)

    def blank(j: int) -> None:
        if out[j] != "\n":
            out[j] = " "

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                blank(i)
                i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            blank(i)
            blank(i + 1)
            i += 2
            while i < n and not (source[i] == "*" and i + 1 < n and source[i + 1] == "/"):
                if source[i] == "\n":
                    line += 1
                blank(i)
                i += 1
            if i < n:
                blank(i)
                blank(i + 1)
                i += 2
            continue
        if ch == '"':
            if source.startswith('"""', i):
                start_line, start = line, i + 3
                i += 3
                while i < n and not source.startswith('"""', i):
                    if source[i] == "\n":
                        line += 1
                    blank(i)
                    i += 1
                literals.append((start_line, line, source[start:i]))
                i = min(i + 3, n)
                continue
            start_line, start = line, i + 1
            i += 1
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    blank(i)
                    i += 1
                if source[i] == "\n":
                    line += 1
                blank(i)
                i += 1
            literals.append((start_line, line, source[start:i]))
            i += 1
            continue
        if ch == "'":
            i += 1
            while i < n and source[i] != "'":
                if source[i] == "\\" and i + 1 < n:
                    blank(i)
                    i += 1
                if source[i] == "\n":
                    line += 1
                blank(i)
                i += 1
            i += 1
            continue
        i += 1
    return "".join(out), literals


_SCAN_TOKENS = ['"', "'", "\\", "/*", "*/", "//", '"""', "/", "*", "\n", "\t", " ", "x", "é", "日"]


class TestJavaLikeScan:
    """The one-regex scan blanks and returns exactly what the loop did."""

    @given(source=st.lists(st.sampled_from(_SCAN_TOKENS), max_size=40).map("".join))
    @example('"abc')  # unterminated string
    @example("a /* never closed\n x")  # unterminated block comment
    @example('"""text\nblock')  # unterminated text block
    @example('s = "say \\"hi\\"";')  # escaped quote inside a string
    @example('"ends with \\')  # backslash as the last character
    @example("c = '\\")  # ... and in a character literal
    @example('"a\\\nb" + c')  # backslash before a newline inside a string
    @example("c = '\"'; d = \"x\";")
    @example('u = "//"; call();')
    @example('/* "x" */ y = "z";')
    @example('""""x"""')
    @settings(max_examples=500, deadline=None)
    def test_matches_character_loop(self, source):
        index = facts_module._LineIndex(source)
        assert facts_module._scan_java_like(source, index) == _reference_scan(source)


# Texts for TestLineNumbers: three placed lines, each giving facts of its own
# kind, between filler lines that give none; only "\n" ends a line.
_LINE_ENDS = ["\n", "\r\n", "\r", "\u2028"]
_FILLER = ["", "int a = 1;", "  x += 2;", "}"]
_PLACED = {
    FactKind.API_CALL: "id = tm.getDeviceId();",
    FactKind.STRING_LITERAL: 'password = "hunter2";',
    FactKind.URL_LITERAL: 'u = "http://example.com/a";',
}
_gaps = st.lists(
    st.lists(st.tuples(st.sampled_from(_FILLER), st.sampled_from(_LINE_ENDS)), max_size=6),
    min_size=len(_PLACED) + 1,
    max_size=len(_PLACED) + 1,
)


class TestLineNumbers:
    """Fact lines equal 1 plus the "\\n" before the offset, counted straight from the text."""

    @given(
        order=st.permutations(list(_PLACED)),
        gaps=_gaps,
        ends=st.lists(st.sampled_from(_LINE_ENDS), min_size=len(_PLACED), max_size=len(_PLACED)),
        language=st.sampled_from(["java", "js"]),
    )
    # the call before the literals: in java the call pass asks for an offset
    # before the literal scan's last, and the regex pass for one before the call's
    @example(
        order=list(_PLACED),
        gaps=[[("", "\n")], [("int a = 1;", "\r\n"), ("", "\n")], [("}", "\u2028")], [("", "\r")]],
        ends=["\n", "\r", "\n"],
        language="java",
    )
    @example(
        order=[FactKind.URL_LITERAL, FactKind.STRING_LITERAL, FactKind.API_CALL],
        gaps=[[], [("", "\n")], [("  x += 2;", "\n")], []],
        ends=["\n", "\u2028", "\n"],
        language="js",
    )
    @settings(max_examples=300, deadline=None)
    def test_placed_facts_carry_their_line(self, order, gaps, ends, language):
        text = ""
        expected = {}
        for kind, gap, end in zip(order, gaps, ends):
            text += "".join(filler + line_end for filler, line_end in gap)
            expected[kind] = 1 + text.count("\n")
            text += _PLACED[kind] + end
        text += "".join(filler + line_end for filler, line_end in gaps[-1])
        frontend = {"java": structural_frontend, "js": lexical_fallback}[language]
        facts = frontend(text)
        assert {fact.kind for fact in facts} == set(_PLACED)
        for fact in facts:
            assert (fact.start_line, fact.end_line) == (expected[fact.kind],) * 2

    @given(
        text=st.lists(st.sampled_from(["a", "\n", "\r\n", "\r", "\u2028", "bc"]), max_size=30).map("".join),
        picks=st.lists(st.floats(0, 1), max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_queries_in_any_order(self, text, picks):
        index = facts_module._LineIndex(text)
        for pick in picks:  # forwards, backwards, repeated and at the end of the text
            offset = round(pick * len(text))
            assert index.line_of(offset) == 1 + text.count("\n", 0, offset)


class TestPatternTable:
    def test_qualified_lookup_wins_over_bare_name(self):
        table = default_pattern_table()
        entry = table.lookup_call("Log", "d")
        assert entry is not None
        assert entry.kind is FactKind.LOG_WRITE

    def test_table_loads_with_categories(self):
        table = default_pattern_table()
        cats = {e.data_category for e in table.word_entries if e.data_category}
        assert DataCategory.CAMERA in cats
        assert DataCategory.LOCATION in cats

    def test_fact_to_dict_round_shape(self):
        result = analyze_source("manager.openCamera(a, b, c);", "java")
        obj = result.to_dict("A.java", "java")["facts"][0]
        assert obj["kind"] == "ApiCall"
        assert obj["symbol"] == "openCamera"
        assert obj["span"] == {"file_path": "A.java", "start_line": 1, "end_line": 1}
        assert obj["language"] == "java"
        assert obj["data_category"] == "CAMERA"


# The call pattern as it was before it was anchored at runs of [\w$]: a
# leftmost scan with it retries a run from each of its characters.
_PLAIN_CALL_RE = re.compile(r"(?:(?P<recv>[A-Za-z_$][\w$]*)\s*\.\s*)?(?P<name>[A-Za-z_$][\w$]*)\s*\(")
_call_text = st.text(alphabet="aZq09_$\u00e9. \t\n(", max_size=40)


class TestLinearScan:
    """Extraction is linear in the input and finds what the unanchored scans found."""

    @given(source=_call_text)
    @settings(max_examples=1000, deadline=None)
    @example(source="1a1$b(")
    @example(source="\u00e9x . y (")
    @example(source="a1a1.b2(c$(")
    @example(source="9 $ . _(")
    def test_call_scan_equals_unanchored_pattern(self, source):
        plain = [(m.span(), m.group("recv"), m.group("name")) for m in _PLAIN_CALL_RE.finditer(source)]
        anchored = [
            (m.span("call"), m.group("recv"), m.group("name"))
            for m in facts_module._CALL_RE.finditer(source)
        ]
        assert anchored == plain

    @given(source=st.text(alphabet=st.characters(max_codepoint=127), max_size=60))
    @settings(max_examples=300, deadline=None)
    @example(source="getDeviceId x_getDeviceId getDeviceId9 Log.d(")
    def test_ascii_token_scan_equals_unicode_scan(self, source):
        def spans(token_re):
            return [m.span() for m in token_re.finditer(source)]

        assert spans(facts_module._ASCII_TOKEN_RE) == spans(facts_module._TOKEN_RE)
        index = default_pattern_table().word_index
        with mock.patch.object(facts_module, "_ASCII_TOKEN_RE", facts_module._TOKEN_RE):
            unicode_scan = [(e.pattern, m.span()) for e, m in index.matches(source)]
        assert [(e.pattern, m.span()) for e, m in index.matches(source)] == unicode_scan

    @pytest.mark.parametrize("source", ["x = \u00e9getDeviceId;", "x = getDeviceId\u00e9;"])
    def test_adjacent_non_ascii_letter_blocks_a_table_word(self, source):
        assert lexical_fallback(source) == []
        assert lexical_fallback(source.replace("\u00e9", " ")) != []

    @pytest.mark.parametrize(
        "run", ["a" * 50_000, "$" * 50_000, "a1" * 25_000, "a\u00e9" * 25_000], ids=["a", "$", "a1", "a\u00e9"]
    )
    def test_structural_frontend_is_linear_in_a_run(self, run):
        started = time.perf_counter()
        facts = structural_frontend(f"x = {run};\ny = tm.getDeviceId();")
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert [fact.symbol for fact in facts] == ["getDeviceId"]

    def test_frozen_value_classes_are_slotted(self):
        frozen = [
            cls
            for name in ("corpus", "engine", "facts", "harness", "knowledge", "methods", "metrics", "taskgen")
            for cls in vars(getattr(gdprkit, name)).values()
            if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
        ]
        assert len(frozen) > 20
        for cls in frozen:
            # AnalysisResult keeps its __dict__ for the findings cached_property
            assert hasattr(cls, "__slots__") == (cls.__name__ != "AnalysisResult"), cls
        span = SpanRef("A.java", 1, 1)
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(span, "note", "x")


def _unfiltered_structural(source: str) -> list[Fact]:
    """``structural_frontend`` without its two prefilters.

    Every call candidate but a control keyword goes through the declaration
    check and ``lookup_call``, and the guard pass runs over every text.
    """
    table = default_pattern_table()
    index = facts_module._LineIndex(source)
    blanked, literals = facts_module._scan_java_like(source, index)
    facts = []
    for m in facts_module._CALL_RE.finditer(blanked):
        name, recv = m.group("name"), m.group("recv")
        if name in facts_module._CONTROL_KEYWORDS:
            continue
        if recv is None:
            word = facts_module._preceding_word(blanked, m.start("call"))
            if word is not None and word not in facts_module._CALL_PRECEDING_WORDS:
                continue
        entry = table.lookup_call(None if recv in facts_module._CONTROL_KEYWORDS else recv, name)
        if entry is not None:
            line = index.line_of(m.start("name"))
            symbol = entry.pattern if "." in entry.pattern else name
            detail = m.group("call").rstrip("( \t")
            facts.append(Fact(entry.kind, symbol, detail, line, line, entry.data_category))
    for entry, m in table.word_index.matches(blanked):
        if entry.kind in (FactKind.CONSENT_GUARD, FactKind.PERMISSION_DECL) and not re.match(
            r"[ \t]*\(", blanked[m.end():]
        ):
            facts.append(_word_fact(entry, m, index))
    for start_line, end_line, content in literals:
        facts.extend(facts_module._literal_facts(content, start_line, end_line))
    facts.extend(facts_module._regex_pass(source, table, index))
    return facts_module._finalize(facts)


def _placements(pattern: str) -> str:
    """A text that holds ``pattern`` as a call, a bare identifier, a declaration, a comment and a string."""
    receiver = "" if "." in pattern else "obj."
    return (
        f"class A {{\n"
        f"  void run() {{ x = {receiver}{pattern}(a, b);\n"
        f"    {pattern}(c);\n"
        f"    if ({pattern}) {{ y = {pattern}; }}\n"
        f"  }}\n"
        f"  public static int {pattern}(int a) {{ return 1; }}\n"
        f"  // {pattern}(d)\n"
        f"  /* {pattern} */\n"
        f'  String s = "{pattern}(e)";\n'
        f"}}\n"
    )


class TestStructuralPrefilters:
    """The structural frontend's skips are exact.

    They skip a call name that ends no pattern, and the guard pass over a
    text without a guard word.
    """

    def test_fixture_snippets(self, fixture_corpus):
        texts = {(r.code_snippet, detect_language(split_snippet_path(r.code_snippet_path)[0]))
                 for r in fixture_corpus}
        checked = [text for text, lang in sorted(texts) if lang in ("java", "kt")]
        assert checked
        for text in checked:
            assert structural_frontend(text) == _unfiltered_structural(text)

    def test_seed1_java_and_kt_texts(self, seed1_texts):
        checked = [text for text, lang in seed1_texts if lang in ("java", "kt")]
        assert len(checked) > 300
        for text in checked:
            assert structural_frontend(text) == _unfiltered_structural(text)

    @pytest.mark.parametrize("pattern", _WORD_PATTERNS)
    def test_every_table_name_in_every_place(self, pattern):
        text = _placements(pattern)
        assert structural_frontend(text) == _unfiltered_structural(text)

    def test_the_prefilters_skip_what_they_claim(self):
        table = default_pattern_table()
        assert {"getDeviceId", "d", "uses-permission"} <= table.call_names
        assert not table.call_names & facts_module._CONTROL_KEYWORDS
        assert {"consentGiven", "uses-permission"} <= table.guard_words
        assert "getDeviceId" not in table.guard_words
