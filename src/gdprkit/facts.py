"""Extraction of analysis facts from source code.

Facts are small, language-independent observations ("this file calls
``getDeviceId``", "this string literal is an http:// URL") that the rule
engine later combines into findings.  Extraction runs through per-language
frontends; languages without a structural frontend fall back to a lexical
scan driven by the same pattern table, so every input yields *some* facts.

Both frontends find word-entry matches the same way: the pattern table
keys its word entries by token when it is built, and one ``\\w+`` pass
over a text looks every token up in that index, instead of testing every
entry against the text (see ``_WordIndex``).

A fact describes lines of the one text it was extracted from, and carries
nothing else about that text: no path, no language.  A frontend takes only
the text; ``extract_facts`` uses the language only to choose it.  A fact's
``start_line`` and ``end_line`` are 1 plus the number of "\\n" before the
offsets where its match starts and ends: only "\\n" ends a line, as in task
generation and source reconstruction, so "\\r" and "\\u2028" do not.  Each
frontend counts them with one ``_LineIndex`` per text, a cursor that counts
the "\\n" between the previous offset asked about and the next.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import read_entries
from .errors import ConfigurationError

_DATA_DIR = Path(__file__).parent / "data"


class FactKind(str, Enum):
    API_CALL = "ApiCall"
    STRING_LITERAL = "StringLiteral"
    URL_LITERAL = "UrlLiteral"
    PERMISSION_DECL = "PermissionDecl"
    CONSENT_GUARD = "ConsentGuard"
    CRYPTO_USE = "CryptoUse"
    STORAGE_WRITE = "StorageWrite"
    NETWORK_SEND = "NetworkSend"
    LOG_WRITE = "LogWrite"


class DataCategory(str, Enum):
    DEVICE_ID = "DEVICE_ID"
    LOCATION = "LOCATION"
    CAMERA = "CAMERA"
    MICROPHONE = "MICROPHONE"
    CONTACTS = "CONTACTS"
    SMS = "SMS"
    KEYSTROKES = "KEYSTROKES"
    CREDENTIALS = "CREDENTIALS"
    GENERIC = "GENERIC"


# Categories that count as personal data collection when observed in a call.
SENSITIVE_CATEGORIES: frozenset[DataCategory] = frozenset(
    {
        DataCategory.DEVICE_ID,
        DataCategory.LOCATION,
        DataCategory.CAMERA,
        DataCategory.MICROPHONE,
        DataCategory.CONTACTS,
        DataCategory.SMS,
        DataCategory.KEYSTROKES,
    }
)


@dataclass(frozen=True, slots=True)
class Fact:
    """One observation about lines ``start_line``-``end_line`` of the text it was extracted from."""

    kind: FactKind
    symbol: str
    detail: str
    start_line: int
    end_line: int
    data_category: DataCategory | None = None


# ---------------------------------------------------------------------------
# Pattern table


@dataclass(frozen=True, slots=True)
class PatternEntry:
    pattern: str
    kind: FactKind
    data_category: DataCategory | None
    match: str  # "word" or "regex"
    compiled: re.Pattern = field(compare=False)
    parts: tuple[str, ...] = field(compare=False)  # literal dot-separated parts of the pattern
    # for an ignore_case regex entry: lower-case strings, one of which occurs
    # in every match once the match is lower-cased (see ``_regex_pass``)
    literals: tuple[str, ...] = ()


def _compile_word(pattern: str) -> re.Pattern:
    # qualified names ("Log.d") tolerate whitespace around the dot
    parts = [re.escape(p) for p in pattern.split(".")]
    return re.compile(r"\b" + r"\s*\.\s*".join(parts) + r"\b")


_TOKEN_RE = re.compile(r"\w+")
# the same tokens over ASCII text: there Unicode and ASCII \w agree
_ASCII_TOKEN_RE = re.compile(r"\w+", re.ASCII)


class _WordIndex:
    """Word entries keyed by token, so one ``\\w+`` pass finds their matches.

    A single-part entry (its pattern is one ``\\w+`` word, e.g.
    ``getDeviceId``) matches exactly where a whole token equals the word:
    ``\\bP\\b`` needs a non-word character or an end of text on both sides
    of P, and ``\\b`` and ``\\w`` share one (Unicode) definition of a word
    character.  The token's own match is then the entry's match, and no
    regex runs.  A dotted entry (``Log.d``) is keyed by its last part: each
    part of a match is a whole token, so the entry's regex runs only over a
    text in which that part occurs as a token.  Any other entry
    (``uses-permission``) runs its regex only over a text that holds each of
    its dot-separated parts.  All three checks are exact: ``_compile_word``
    joins the escaped parts only with ``\\s*\\.\\s*`` and never ignores
    case, so every match holds each part verbatim.

    ``matches`` scans an ASCII text with ``re.ASCII`` ``\\w+``, which
    finds the same tokens there and runs faster; any other text keeps the
    Unicode scan, so ``é`` next to a table word still joins its token and
    blocks the match, as ``\\b`` does.
    """

    def __init__(self, entries: Iterable[PatternEntry]):
        self.by_token: dict[str, tuple[list[PatternEntry], list[PatternEntry]]] = {}
        self.other: list[PatternEntry] = []
        for entry in entries:
            if not all(_TOKEN_RE.fullmatch(part) for part in entry.parts):
                self.other.append(entry)
                continue
            single, dotted = self.by_token.setdefault(entry.parts[-1], ([], []))
            (single if len(entry.parts) == 1 else dotted).append(entry)

    def matches(self, text: str) -> Iterator[tuple[PatternEntry, re.Match]]:
        """Every match of every indexed entry in ``text``, as ``(entry, match)``."""
        dotted: dict[str, list[PatternEntry]] = {}  # last part -> its dotted entries
        get = self.by_token.get
        token_re = _ASCII_TOKEN_RE if text.isascii() else _TOKEN_RE
        for m in token_re.finditer(text):
            hit = get(m.group())
            if hit is not None:
                for entry in hit[0]:
                    yield entry, m
                if hit[1]:
                    dotted[m.group()] = hit[1]
        for entries in dotted.values():
            for entry in entries:
                for m in entry.compiled.finditer(text):
                    yield entry, m
        for entry in self.other:
            if all(part in text for part in entry.parts):
                for m in entry.compiled.finditer(text):
                    yield entry, m


class PatternTable:
    """Indexed view over the sensitive-API pattern list.

    Everything is built here, once: the call lookup by name, the word and
    regex entries, and the token index of the word entries (see
    ``_WordIndex``).  Both frontends share that index: the lexical fallback
    over the source, the bare-identifier walk of the structural frontend
    over the blanked text.  Every entry applies to every language.

    An ``ignore_case`` regex entry may list ``literals``: lower-case strings,
    one of which occurs in every match of the entry once the match is
    lower-cased.  ``_regex_pass`` skips the entry over an ASCII text whose
    lower-cased form holds none of them.

    Two word sets let the structural frontend skip work that cannot match.
    ``call_names`` holds the last dot-part of every word entry, less the
    control keywords: ``lookup_call`` finds an entry only for a name in it.
    ``guard_words`` holds the last part of every consent-guard and
    permission word entry: each match of such an entry holds its last part
    verbatim, so a text without any of them has no guard match.
    """

    def __init__(self, entries: Sequence[PatternEntry]):
        self.entries = tuple(entries)
        self.word_entries = tuple(e for e in self.entries if e.match == "word")
        self._by_name = {entry.pattern: entry for entry in self.word_entries}
        self.regex_entries = tuple(e for e in self.entries if e.match == "regex")
        self.word_index = _WordIndex(self.word_entries)
        self.call_names = frozenset(e.parts[-1] for e in self.word_entries) - _CONTROL_KEYWORDS
        self.guard_words = frozenset(e.parts[-1] for e in self.word_entries if e.kind in _GUARD_KINDS)

    def lookup_call(self, receiver: str | None, name: str) -> PatternEntry | None:
        """Match a call expression against the table, most-qualified first."""
        if receiver is not None:
            entry = self._by_name.get(f"{receiver}.{name}")
            if entry is not None:
                return entry
        entry = self._by_name.get(name)
        if entry is not None and "." not in entry.pattern:
            return entry
        return None


def _pattern_entry(obj: dict) -> PatternEntry:
    match = obj.get("match", "word")
    pattern = obj["pattern"]
    ignore_case = match == "regex" and obj.get("ignore_case")
    if match == "word":
        compiled = _compile_word(pattern)
    elif match == "regex":
        compiled = re.compile(pattern, re.IGNORECASE if ignore_case else 0)
    else:
        raise ConfigurationError(f"unknown match mode {match!r} for pattern {pattern!r}")
    literals = obj.get("literals")
    if literals is not None:
        if not ignore_case:
            raise ConfigurationError(f"literals need an ignore_case regex entry: {pattern!r}")
        if not (
            isinstance(literals, list)
            and literals
            and all(isinstance(lit, str) and lit and lit == lit.lower() for lit in literals)
        ):
            raise ConfigurationError(
                f"literals must be a non-empty list of non-empty lower-case strings: {pattern!r}"
            )
    category = obj.get("data_category")
    return PatternEntry(
        pattern=pattern,
        kind=FactKind(obj["kind"]),
        data_category=DataCategory(category) if category else None,
        match=match,
        compiled=compiled,
        parts=tuple(pattern.split(".")),
        literals=tuple(literals or ()),
    )


_default_table: PatternTable | None = None


def default_pattern_table() -> PatternTable:
    """The pattern table of ``data/patterns.json``, loaded on first use."""
    global _default_table
    if _default_table is None:
        entries = read_entries(_DATA_DIR / "patterns.json", _pattern_entry, "patterns")
        _default_table = PatternTable(entries)
    return _default_table


# ---------------------------------------------------------------------------
# Shared scanning helpers


class _LineIndex:
    """The 1-based line of an offset in one text, counted from a cursor.

    The cursor is the last offset asked about and its line.  The next query
    counts the "\\n" between the cursor and its offset with ``str.count``,
    forwards or backwards: the queries of one ascending pass scan the text
    once in all, and nothing is built per line.
    """

    __slots__ = ("text", "offset", "line")

    def __init__(self, text: str):
        self.text = text
        self.offset = 0
        self.line = 1

    def line_of(self, offset: int) -> int:
        if offset >= self.offset:
            line = self.line + self.text.count("\n", self.offset, offset)
        else:
            line = self.line - self.text.count("\n", offset, self.offset)
        self.offset = offset
        self.line = line
        return line


_URL_RE = re.compile(r"https?://[^\s\"'<>\\]+")


def _literal_facts(content: str, start_line: int, end_line: int) -> list[Fact]:
    url = _URL_RE.search(content)
    if url is not None:
        return [Fact(FactKind.URL_LITERAL, "url", url.group(0), start_line, end_line)]
    if not content.strip():
        return []
    return [Fact(FactKind.STRING_LITERAL, "literal", content, start_line, end_line)]


# the symbol of a regex-entry fact whose match has no "symbol" group, by kind;
# any other kind uses its lower-cased value
_DEFAULT_SYMBOLS = {FactKind.URL_LITERAL: "url", FactKind.STRING_LITERAL: "literal"}


def _regex_pass(source: str, table: PatternTable, index: _LineIndex) -> list[Fact]:
    """Run every regex-mode entry over the raw text.

    An entry with ``literals`` is skipped when the text is ASCII and its
    lower-cased form holds none of them.  The skip is exact: over ASCII
    text ``re.IGNORECASE`` folds only ASCII case, which ``str.lower``
    folds the same way, so the lower-cased text holds each lower-cased
    match.  A non-ASCII text runs every entry, because ``re.IGNORECASE``
    also matches ``s`` to ``ſ`` and ``i`` to ``ı``, which ``str.lower``
    leaves apart (``re.search("pass", "paſs", re.I)`` matches).
    """
    facts = []
    lowered = source.lower() if source.isascii() else None
    for entry in table.regex_entries:
        if (
            entry.literals
            and lowered is not None
            and not any(map(lowered.__contains__, entry.literals))
        ):
            continue
        for m in entry.compiled.finditer(source):
            groups = m.groupdict()
            symbol = groups.get("symbol") or _DEFAULT_SYMBOLS.get(entry.kind, entry.kind.value.lower())
            detail = groups.get("detail")
            if detail is None:
                detail = m.group(0)
            line = index.line_of(m.start())
            end_line = index.line_of(max(m.start(), m.end() - 1))
            facts.append(Fact(entry.kind, symbol, detail, line, end_line, entry.data_category))
    return facts


def _finalize(facts: Iterable[Fact]) -> list[Fact]:
    """The facts sorted by (lines, kind, symbol, detail), each such key once: its first fact."""
    by_key: dict[tuple[int, int, str, str, str], Fact] = {}
    for fact in facts:
        by_key.setdefault((fact.start_line, fact.end_line, fact.kind.value, fact.symbol, fact.detail), fact)
    return [by_key[key] for key in sorted(by_key)]


# ---------------------------------------------------------------------------
# Lexical fallback frontend


def lexical_fallback(source: str) -> list[Fact]:
    """Pattern-table scan with no parsing at all.

    Word entries match on identifier boundaries, so ``getDeviceId`` does not
    fire inside ``widgetDeviceIdx``.  They are found in one ``\\w+`` token
    pass through ``PatternTable.word_index``: a one-word entry matches
    where a token equals it, and a dotted entry's regex runs only when its
    last part occurs as a token (see ``_WordIndex``).  Used
    for every language that has no structural frontend registered, and as
    the safety net when a structural frontend raises.
    """
    table = default_pattern_table()
    index = _LineIndex(source)
    facts = []
    for entry, m in table.word_index.matches(source):
        line = index.line_of(m.start())
        facts.append(Fact(entry.kind, entry.pattern, m.group(0), line, line, entry.data_category))
    facts.extend(_regex_pass(source, table, index))
    return _finalize(facts)


# ---------------------------------------------------------------------------
# Structural frontend (java / kt)

# A call is `recv.name(` or `name(`.  A match of the plain pattern
# `(?:(?P<recv>[A-Za-z_$][\w$]*)\s*\.\s*)?(?P<name>[A-Za-z_$][\w$]*)\s*\(`
# that starts inside a run of [\w$] characters must take recv or name to the
# end of that run (a shorter one is followed by [\w$], not by `.`, `(` or
# whitespace), and what follows the run is the same from every start.  So
# each start in a run succeeds or fails alike, a leftmost scan matches at the
# run's first [A-Za-z_$] if anywhere, and the other starts are only retries:
# the plain pattern retries a run of n characters n times, O(n^2) in all.
# This pattern tries each run once.  The lookarounds admit only the start of
# a run, the `[^\WA-Za-z_]*` prefix (digits, non-ASCII word characters) steps
# to its first [A-Za-z_$], and the `call` group is the plain pattern's match:
# the same span, recv and name.  (A lookbehind of `[A-Za-z_$]` alone is exact
# too, but still retries `a1a1a1...` from every `a`.)  A failed try backs off
# over its run, the whitespace after it and the run after a `.` only, so the
# scan is linear in the length of the text.
_CALL_RE = re.compile(
    r"(?=[\w$])(?<![\w$])[^\WA-Za-z_]*"
    r"(?P<call>(?:(?P<recv>[A-Za-z_$][\w$]*)\s*\.\s*)?(?P<name>[A-Za-z_$][\w$]*)\s*\()"
)

# keywords that look like calls when followed by '('
_CONTROL_KEYWORDS = frozenset(
    {"if", "for", "while", "switch", "catch", "when", "synchronized", "return",
     "throw", "do", "else", "try", "assert", "using", "foreach", "lock", "super", "this"}
)
# words before `name(` that still mean `name(` is a call, not a declaration
_CALL_PRECEDING_WORDS = frozenset(
    {"return", "new", "throw", "else", "case", "do", "in", "is", "await",
     "yield", "typeof", "delete", "not", "and", "or", "instanceof"}
)


# comments, text blocks, strings, character literals, tried in that order; the
# body of each quoted form is its only named group, so a match without one is
# a comment
_JAVA_LIKE_RE = re.compile(
    r"//[^\n]*|/\*.*?(?:\*/|\Z)"
    r'|"""(?P<text>.*?)(?:"""|\Z)'
    r'|"(?P<string>(?:\\.?|[^"\\])*)"?'
    r"|'(?P<char>(?:\\.?|[^'\\])*)'?",
    re.DOTALL,
)


def _blank(text: str) -> str:
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _scan_java_like(source: str, index: _LineIndex) -> tuple[str, list[tuple[int, int, str]]]:
    """Blank out comments and quoted text, preserving offsets and newlines.

    Comments (``//`` to the end of the line, ``/* ... */``) are blanked
    whole; text blocks (triple-quoted), strings and character literals keep
    their quotes and have their body blanked.  Every character but a
    newline becomes a space.  Strings and text blocks may span lines; in a
    string or character literal a backslash escapes the next character,
    newline included.  Text that is not terminated runs to the end of the
    source.

    Returns the blanked text plus the body of each string and text block as
    ``(start_line, end_line, content)``; character literals are blanked but
    not returned.
    """
    literals = []

    def blank(m: re.Match) -> str:
        name = m.lastgroup
        if name is None:
            return _blank(m.group())
        start, end = m.span(name)
        if name != "char":
            literals.append((index.line_of(m.start()), index.line_of(end), source[start:end]))
        return source[m.start():start] + _blank(source[start:end]) + source[end:m.end()]

    return _JAVA_LIKE_RE.sub(blank, source), literals


# kinds whose bare identifiers the structural frontend reports
_GUARD_KINDS = (FactKind.CONSENT_GUARD, FactKind.PERMISSION_DECL)
# a call's opening parenthesis after a name, across spaces and tabs only
_OPEN_PAREN_RE = re.compile(r"[ \t]*\(")


def _preceding_word(text: str, pos: int) -> str | None:
    j = pos
    while j > 0 and text[j - 1] in " \t":
        j -= 1
    if j == 0 or not (text[j - 1].isalnum() or text[j - 1] in "_$>]"):
        return None
    end = j
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_$"):
        j -= 1
    return text[j:end]


def structural_frontend(source: str) -> list[Fact]:
    """Comment/string-aware scan for curly-brace languages.

    Emits table-matched call expressions, guard identifiers, string/URL
    literals, and the shared regex-entry facts.  Declarations (classes,
    methods) yield no fact of their own.  Guard identifiers (consent-guard
    and permission entries not followed by ``(``) come from one token pass
    over the blanked text through ``PatternTable.word_index``, the index the
    lexical fallback uses.
    """
    table = default_pattern_table()
    index = _LineIndex(source)
    blanked, literals = _scan_java_like(source, index)
    facts = []

    call_names = table.call_names
    for m in _CALL_RE.finditer(blanked):
        name = m.group("name")
        if name not in call_names:
            continue  # no entry ends in it, nor does a control keyword call
        recv = m.group("recv")
        if recv is None:
            word = _preceding_word(blanked, m.start("call"))
            if word is not None and word not in _CALL_PRECEDING_WORDS:
                continue  # `void foo(` style declaration
        if recv in _CONTROL_KEYWORDS:
            recv = None
        entry = table.lookup_call(recv, name)
        if entry is None:
            continue
        line = index.line_of(m.start("name"))
        symbol = entry.pattern if "." in entry.pattern else name
        detail = m.group("call").rstrip("( \t")
        facts.append(Fact(entry.kind, symbol, detail, line, line, entry.data_category))

    # bare identifiers still count for consent guards and permission strings:
    # `if (consentGiven)` has no call expression but is a guard all the same;
    # a text that holds no guard word has no guard match
    guard_text = any(map(blanked.__contains__, table.guard_words))
    for entry, m in table.word_index.matches(blanked) if guard_text else ():
        if entry.kind not in _GUARD_KINDS:
            continue
        if _OPEN_PAREN_RE.match(blanked, m.end()):
            continue  # call form is covered by the call pass above
        line = index.line_of(m.start())
        facts.append(Fact(entry.kind, entry.pattern, m.group(0), line, line, entry.data_category))

    for start_line, end_line, content in literals:
        facts.extend(_literal_facts(content, start_line, end_line))

    facts.extend(_regex_pass(source, table, index))
    return _finalize(facts)


# ---------------------------------------------------------------------------
# Frontend registry

# a frontend takes one source text and gives its facts
Frontend = Callable[[str], list[Fact]]


class FrontendRegistry:
    """Maps language tags to extraction frontends.

    Languages with no registered frontend use the fallback.  Re-binding a
    tag is a configuration error.
    """

    def __init__(self, fallback: Frontend = lexical_fallback):
        self._frontends: dict[str, Frontend] = {}
        self._fallback = fallback

    def register(self, language: str, frontend: Frontend) -> None:
        if language in self._frontends:
            raise ConfigurationError(f"frontend for {language!r} already registered")
        self._frontends[language] = frontend

    def frontend_for(self, language: str) -> Frontend:
        return self._frontends.get(language, self._fallback)


def _make_default_registry() -> FrontendRegistry:
    registry = FrontendRegistry()
    registry.register("java", structural_frontend)
    registry.register("kt", structural_frontend)
    return registry


_DEFAULT_REGISTRY = _make_default_registry()


def default_registry() -> FrontendRegistry:
    return _DEFAULT_REGISTRY


def extract_facts(source: str, language: str) -> list[Fact]:
    """Extract facts from one source text; ``language`` only chooses the frontend.

    A structural frontend that raises degrades to the lexical fallback
    instead of failing the caller.
    """
    frontend = _DEFAULT_REGISTRY.frontend_for(language)
    try:
        return frontend(source)
    except Exception:
        if frontend is lexical_fallback:
            raise
        return lexical_fallback(source)
