"""Seeded synthetic violation corpus in the shape of the published one.

The published corpus is not redistributable, so the benchmark generates a
stand-in with the same record, file and snippet counts, the same single- and
multi-line split, the same article and extension mixes, and the same snippet
and note length statistics (min, max, mean, median, population stddev) as
``scripts/check_published_corpus.py`` expects.  Snippets are built from the
entries of ``patterns.json`` and every snippet location has distinct text, so
prompts do not collapse into a few repeated strings.

Only the standard library is used; the same seed always gives byte-identical
output.  Run as a script to write a corpus file:

    python3 perfbench/corpus_gen.py --seed 1 -o corpus.json
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATTERNS_PATH = ROOT / "src" / "gdprkit" / "data" / "patterns.json"

RECORDS = 1951
FILES = 368
SNIPPETS = 887
SINGLE_LINE_RECORDS = 957
EXTENSIONS = {
    ".js": 528, ".json": 474, ".java": 298, ".kt": 244, ".cs": 174,
    ".php": 126, ".xml": 63, ".html": 26, ".py": 17, ".h": 1,
}
MAJOR_ARTICLES = {6: 442, 5: 430, 25: 311, 32: 254}
# The remaining 514 records go to other catalog articles, most to 7, 9 and 13.
OTHER_ARTICLES = {7: 96, 9: 74, 13: 88, 12: 41, 15: 37, 17: 35, 21: 30, 30: 33, 35: 28, 8: 22, 28: 30}
# (min, max, mean, median, population stddev) in characters
SNIPPET_LENGTHS = (12, 1717, 171.01, 95.0, 206.58)
NOTE_LENGTHS = (60, 684, 224.38, 208.0, 90.00)
MAX_RECORDS_PER_LOCATION = 6

STEMS = ("Main", "Camera", "Location", "Profile", "Sync", "Upload", "Login", "Settings",
         "Tracker", "Analytics", "Contacts", "Message", "Record", "Session", "Account",
         "Device", "Health", "Payment", "Report", "Backup")
SUFFIXES = ("Activity", "Service", "Manager", "Helper", "Controller", "Fragment", "Client",
            "Repository", "Handler", "Worker")
# Filler vocabulary, checked against patterns.json so it never matches a pattern.
WORDS = {
    1: ("a",), 2: ("to", "on", "of", "in"), 3: ("the", "row", "key", "map"),
    4: ("flow", "view", "item", "node"), 5: ("value", "state", "queue", "frame"),
    6: ("stored", "buffer", "layout", "result"), 7: ("handler", "adapter", "counter", "payload"),
    8: ("observed", "callback", "instance", "resource"),
    9: ("component", "attribute", "container", "reference"),
    10: ("background", "controller", "processing", "activation"),
}
NOTE_SENTENCES = {
    6: ("The app collects {what} through {p} before any lawful basis is established.",
        "No consent is requested and no contract or legal obligation covers this processing.",
        "Data flows from {file} as soon as the screen opens, without the user agreeing to it."),
    5: ("The user is never told that {what} is read with {p}, so processing is not transparent.",
        "Values are kept longer than needed and written to logs that are never rotated.",
        "Collection in {file} goes beyond what the feature needs, against data minimisation."),
    25: ("Privacy is not built in: {p} runs by default and stores {what} unprotected.",
         "Nothing in {file} limits collection to what the default configuration requires.",
         "A permission is declared up front instead of being requested when it is needed."),
    32: ("{what} leaves the device over a channel that is not secured, see {p}.",
         "Secrets are kept in plain text in {file} and nothing is encrypted at rest.",
         "Captured data is handled with no safeguards and access is never audited."),
}
GENERIC_SENTENCES = (
    "The processing in {file} touches {what} through {p} without the safeguards article {a} requires.",
    "Reviewers flagged {p} in {file} as a breach of article {a}.",
    "The code path reaches {p} with no check tied to article {a}.",
)
SENSITIVE = ("DEVICE_ID", "LOCATION", "CAMERA", "MICROPHONE", "CONTACTS", "SMS", "KEYSTROKES")
WHAT = {"DEVICE_ID": "the device identifier", "LOCATION": "the precise location",
        "CAMERA": "camera frames", "MICROPHONE": "microphone audio", "CONTACTS": "the contact list",
        "SMS": "text messages", "KEYSTROKES": "keystrokes", "GENERIC": "health and biometric data"}
PERMISSIONS = ("CAMERA", "RECORD_AUDIO", "READ_CONTACTS", "ACCESS_FINE_LOCATION", "READ_SMS",
               "READ_PHONE_STATE")


def load_patterns(path: Path = PATTERNS_PATH) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["patterns"]


def _split(total: int, parts: int, rng: random.Random, lo: int = 1, hi: int | None = None) -> list[int]:
    """Random composition of ``total`` into ``parts`` values in [lo, hi]."""
    sizes = [lo] * parts
    open_slots = [i for i in range(parts) if hi is None or sizes[i] < hi]
    for _ in range(total - lo * parts):
        i = rng.choice(open_slots)
        sizes[i] += 1
        if hi is not None and sizes[i] == hi:
            open_slots.remove(i)
    return sizes


def _apportion(total: int, weights: dict[str, int], floor: dict[str, int]) -> dict[str, int]:
    """Largest-remainder split of ``total`` proportional to ``weights``, at least ``floor``."""
    wsum = sum(weights.values())
    exact = {k: max(floor[k], total * w / wsum) for k, w in weights.items()}
    out = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: exact[k] - out[k], reverse=True)[: total - sum(out.values())]:
        out[k] += 1
    return out


# ---------------------------------------------------------------------------
# Length fitting


def fit_lengths(raw: list[float], weights: list[int], target: tuple, rng: random.Random) -> list[int]:
    """Integer lengths, ordered like ``raw``, whose weighted statistics hit ``target``.

    The lowest raw value maps to the minimum, the highest to the maximum and
    the item holding the weighted median to the median.  Each tail keeps the
    raw log-distances to the median, stretched by a factor of its own; the
    two factors are solved so the weighted mean and population stddev match,
    and rounding is then corrected one character at a time.  Raises
    ValueError when the draw needs an implausible stretch.
    """
    lo, hi, mean, median, sd = target
    n = sum(weights)
    order = sorted(range(len(raw)), key=lambda i: raw[i])
    acc = 0
    for mid_pos, i in enumerate(order):
        acc += weights[i]
        if acc >= (n + 1) // 2:
            break
    mid, first, last = order[mid_pos], order[0], order[-1]
    below, above = order[1:mid_pos], order[mid_pos + 1 : -1]
    z_below = [math.log(raw[i] / raw[mid]) for i in below]
    z_above = [math.log(raw[i] / raw[mid]) for i in above]
    w_below = [weights[i] for i in below]
    w_above = [weights[i] for i in above]
    fixed_s = weights[first] * lo + weights[last] * hi + weights[mid] * median
    fixed_q = weights[first] * lo * lo + weights[last] * hi * hi + weights[mid] * median * median

    # the lower tail approaches the minimum smoothly; the upper one is capped
    def value(z: float, a: float, b: float) -> float:
        return lo + (median - lo) * math.exp(b * z) if z < 0 else min(median * math.exp(a * z), hi)

    def moments(a: float, b: float) -> tuple[float, float]:
        s, q = fixed_s, fixed_q
        for w, z in zip(w_below, z_below):
            v = lo + (median - lo) * math.exp(b * z)
            s += w * v
            q += w * v * v
        for w, z in zip(w_above, z_above):
            v = min(median * math.exp(a * z), hi)
            s += w * v
            q += w * v * v
        m = s / n
        return m, math.sqrt(max(q / n - m * m, 0.0))

    def bisect(f, goal: float) -> float:
        # f is increasing on [0.2, 4]
        lo_x, hi_x = 0.2, 4.0
        for _ in range(14):
            mid_x = (lo_x + hi_x) / 2
            if f(mid_x) < goal:
                lo_x = mid_x
            else:
                hi_x = mid_x
        return (lo_x + hi_x) / 2

    # a larger b pulls the lower tail toward the minimum and lowers the mean; with the
    # mean held, a larger a stretches the upper tail and raises the stddev
    def b_for(a: float) -> float:
        return bisect(lambda b: -moments(a, b)[0], -mean)

    a = bisect(lambda a: moments(a, b_for(a))[1], sd)
    b = b_for(a)
    got_mean, got_sd = moments(a, b)
    if abs(got_mean - mean) > 0.5 or abs(got_sd - sd) > 0.5:
        raise ValueError("the raw values cannot be shaped to the target")
    lengths = [round(median)] * len(raw)
    lengths[first], lengths[last] = lo, hi
    for i, z in zip(below, z_below):
        lengths[i] = min(round(value(z, a, b)), round(median))
    for i, z in zip(above, z_above):
        lengths[i] = max(round(value(z, a, b)), round(median))

    # Correct rounding: move single-weight items by one character within their tail.
    movable = [i for i in below + above if weights[i] == 1]
    low_side = set(below)
    s = sum(w * v for w, v in zip(weights, lengths))
    q = sum(w * v * v for w, v in zip(weights, lengths))

    def can_move(i: int, step: int) -> bool:
        new = lengths[i] + step
        return lo <= new <= median if i in low_side else median <= new <= hi

    def move(i: int, step: int) -> None:
        nonlocal s, q
        q += (lengths[i] + step) ** 2 - lengths[i] ** 2
        s += step
        lengths[i] += step

    for _ in range(100000):
        m = s / n
        d = math.sqrt(q / n - m * m)
        if abs(m - mean) < 0.004 and abs(d - sd) < 0.004:
            return lengths
        if abs(m - mean) >= 0.004:
            step = 1 if m < mean else -1
            i = rng.choice(movable)
            if can_move(i, step):
                move(i, step)
            continue
        # keep the sum, move two values apart (or together)
        big, small = rng.sample(movable, 2)
        if lengths[big] < lengths[small]:
            big, small = small, big
        step = 1 if d < sd else -1
        if lengths[big] - lengths[small] > 2 and can_move(big, step) and can_move(small, -step):
            move(big, step)
            move(small, -step)
    raise ValueError("rounding could not be corrected")


# ---------------------------------------------------------------------------
# Text synthesis


def _fill(n: int, rng: random.Random) -> str:
    """Exactly ``n`` characters of filler words separated by single spaces."""
    parts = []
    while n > 10:
        w = min(10, n - 2)
        parts.append(rng.choice(WORDS[w]))
        n -= w + 1
    if n > 0:
        parts.append(rng.choice(WORDS[n]))
    return " ".join(parts)


def _exact_text(sentences: list[str], length: int, rng: random.Random) -> str:
    """Cut or extend prose to exactly ``length`` characters, ending in a period."""
    acc: list[str] = []
    size = -1
    for token in " ".join(sentences).split():
        if size + 1 + len(token) > length - 1:
            break
        acc.append(token)
        size += 1 + len(token)
    while True:
        text = " ".join(acc).rstrip(".,")
        gap = length - 1 - len(text)
        if gap != 1 or not acc:
            break
        acc.pop()
    if gap > 0:
        text = text + " " + _fill(gap - 1, rng) if text else _fill(gap, rng)
    return text + "."


COMMENT = {"py": "#", "xml": "<!--", "html": "<!--", "json": None}


def _comment(language: str, n: int, rng: random.Random) -> str:
    """A trailing comment (a padding key in JSON) of exactly ``n`` >= 12 characters."""
    marker = COMMENT.get(language, "//")
    if marker is None:
        return ' "' + _fill(n - 7, rng) + '": 0,'
    if marker == "<!--":
        return " <!-- " + _fill(n - 10, rng) + " -->"
    return f" {marker} " + _fill(n - len(marker) - 2, rng)


def _statement(entry: dict | str, language: str, uid: str, rng: random.Random) -> str:
    """One source line that contains ``entry`` in the syntax of ``language``."""
    if isinstance(entry, str):  # special ingredients
        host = f"api{uid}.example.net"
        special = {
            "url": {
                "json": f'"endpoint_{uid}": "http://{host}/collect",',
                "xml": f'<string name="endpoint_{uid}">http://{host}/collect</string>',
                "html": f'<form action="http://{host}/collect" id="f{uid}">',
                "py": f'URL_{uid} = "http://{host}/collect"',
                "php": f'$url{uid} = "http://{host}/collect";',
            },
            "creds": {
                "json": f'"apiKey": "k{uid}live",',
                "xml": f'<string name="api_key">k{uid}live</string>',
                "html": f'<input name="password" value="pw{uid}">',
                "py": f'password = "pw{uid}"',
                "php": f'$password = "pw{uid}";',
            },
            "perm": {
                "json": f'"permission_{uid}": "android.permission.{rng.choice(PERMISSIONS)}",',
                "xml": f'<uses-permission android:name="android.permission.{rng.choice(PERMISSIONS)}" />',
                "html": f'<meta name="permission" content="android.permission.{rng.choice(PERMISSIONS)}" id="m{uid}">',
            },
            "notice": {
                "json": f'"notice_{uid}": "Read the privacy policy first",',
                "xml": f'<string name="notice_{uid}">Read the privacy policy first</string>',
                "html": f'<p id="n{uid}">Read the privacy policy first</p>',
                "py": f'NOTICE_{uid} = "Read the privacy policy first"',
            },
        }[entry]
        if language in special:
            return special[language]
        value = {"url": f'"http://{host}/collect"', "creds": f'"pw{uid}"',
                 "perm": f'"android.permission.{rng.choice(PERMISSIONS)}"',
                 "notice": '"Read the privacy policy first"'}[entry]
        name = "password" if entry == "creds" else f"{entry}{uid}"
        decl = {"java": "String ", "kt": "val ", "cs": "string ", "js": "const ", "h": "const char* "}
        return f"{decl.get(language, '')}{name} = {value};".replace(";", "" if language == "kt" else ";")
    p = entry["pattern"]
    if language == "json":
        return f'"{rng.choice(WORDS[5])}_{uid}": "{p}",'
    if language == "xml":
        if p == "uses-permission":
            return f'<uses-permission android:name="android.permission.{rng.choice(PERMISSIONS)}" />'
        return f'<meta-data android:name="{p}" android:value="v{uid}" />'
    if p == "uses-permission":
        return f'String decl{uid} = "uses-permission";' if language in ("java", "cs") else f'decl{uid} = "uses-permission"'
    arg = f"ctx{uid}"
    if "." in p:  # qualified call: Log.d, console.log, Camera.open
        call = f"{p}({arg})"
    elif p.isupper() or p.startswith("TYPE_"):
        call = f"Sensors.{p}"
    elif p[0].isupper():
        call = f"new {p}({arg})" if language in ("java", "cs", "js", "php") else f"{p}({arg})"
    elif language == "php":
        call = f"$mgr{uid}->{p}(${arg})" if "_" not in p else f"{p}(${arg})"
    else:
        call = f"mgr{uid}.{p}({arg})"
    return {
        "java": f"Object v{uid} = {call};", "kt": f"val v{uid} = {call}", "cs": f"var v{uid} = {call};",
        "js": f"const v{uid} = {call};", "php": f"$v{uid} = {call};", "h": f"void* v{uid} = {call};",
        "py": f"v{uid} = {call}", "html": f'<button id="b{uid}" onclick="{call}">',
    }[language]


FILLERS = {
    "json": ('"{w}_{u}": {n},', '"{w}": "{w2}",', "}},", '"{w}_{u}": {{'),
    "xml": ('<item name="{w}_{u}">{n}</item>', "</{w}>", '<{w} android:id="@+id/{w2}{u}">'),
    "html": ('<div class="{w}-{u}">', "</div>", '<span id="{w}{u}">{w2}</span>'),
    "py": ("{w}_{u} = {n}", "if {w}_{u}:", "    return {w2}", "{w}.append({w2})"),
    "c": ("{w}{u} = {w2} + {n};", "if ({w}{u} != null) {{", "}}", "return {w2}{u};"),
}


def _filler(language: str, uid: str, rng: random.Random) -> str:
    family = language if language in FILLERS else "c"
    template = rng.choice(FILLERS[family])
    line = template.format(w=rng.choice(WORDS[rng.randint(4, 8)]), w2=rng.choice(WORDS[rng.randint(3, 7)]),
                           u=uid, n=rng.randint(0, 999))
    return line.rstrip(";") if language in ("kt", "py") else line


def build_snippet(ingredients: list, language: str, uid: str, length: int, lines: int,
                  rng: random.Random) -> str:
    """Snippet text of exactly ``length`` characters on ``lines`` lines (trailing newline)."""
    stmts = [_statement(e, language, uid, rng) for e in ingredients]
    if lines == 1:
        while len(" ".join(stmts)) + 1 > length and len(stmts) > 1:
            stmts.pop()
        body = [" ".join(stmts)]
    else:
        body = stmts[:lines]
        while len(body) < lines:
            body.insert(rng.randint(1, len(body)), _filler(language, uid, rng))
        # shrink fillers and later statements, longest first, until the text fits
        for i in sorted(range(1, lines), key=lambda i: -len(body[i])):
            if sum(len(b) + 1 for b in body) <= length:
                break
            body[i] = "}"
    indent = 4 if lines > 1 else rng.randint(0, 8)
    text_len = sum(len(b) + 1 for b in body)
    if text_len > length:
        # last resort for tiny targets: bare pattern calls
        short = min((e["pattern"] for e in ingredients if isinstance(e, dict)), key=len, default="f")
        body = [short + "()"] + ["}"] * (lines - 1)
        text_len = sum(len(b) + 1 for b in body)
        indent = 0
        if text_len > length:
            raise ValueError(f"cannot fit {lines} lines into {length} characters")
    gap = length - text_len
    out = []
    for b in body:
        pad = min(indent, gap)
        gap -= pad
        out.append(" " * pad + b)
    # spread what is left as trailing comments of at most 72 characters per line
    for i in range(len(out)):
        if gap < 12:
            break
        take = gap if gap <= 72 else (72 if gap >= 84 else gap - 12)
        tail = _comment(language, take, rng)
        if tail:
            out[i] += tail
            gap -= len(tail)
    if gap:
        out[0] = " " * gap + out[0]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Corpus


def _ingredients(articles: list[int], by_kind: dict, rng: random.Random) -> tuple[list, str]:
    """Pattern entries (or special ingredients) that plausibly explain the articles."""
    category = rng.choice(SENSITIVE)
    api = rng.choice(by_kind["ApiCall", category])
    out: list = [api]
    for a in articles:
        if a == 5:
            out.append(rng.choice(by_kind["LogWrite", None]))
        elif a == 25:
            out.append(rng.choice([rng.choice(by_kind["StorageWrite", None]), "perm"]))
        elif a == 32:
            out.append(rng.choice(["url", "creds", rng.choice(by_kind["NetworkSend", None])]))
        elif a == 7:
            out.append(rng.choice(by_kind["ConsentGuard", None]))
        elif a == 9:
            out[0] = rng.choice(by_kind["ApiCall", "GENERIC"])
            category = "GENERIC"
        elif a not in (6, 13):
            out.append(rng.choice(by_kind["any"]))
    extra = rng.random()
    if extra < 0.12:
        out.append(rng.choice(by_kind["ConsentGuard", None]))
    elif extra < 0.22:
        out.append(rng.choice(by_kind["CryptoUse", None]))
    elif extra < 0.26:
        out.append("notice")
    rng.shuffle(out)
    return out, category


def generate(seed: int, patterns: list[dict] | None = None) -> list[dict]:
    """Return the corpus as a list of JSON-ready record objects."""
    rng = random.Random(seed)
    patterns = patterns if patterns is not None else load_patterns()
    by_kind: dict = {"any": [p for p in patterns if p.get("match", "word") == "word"]}
    for p in by_kind["any"]:
        by_kind.setdefault((p["kind"], p.get("data_category")), []).append(p)

    exts = list(EXTENSIONS)
    files_per = _apportion(FILES, EXTENSIONS, {e: 1 for e in exts})
    locs_per = _apportion(SNIPPETS, EXTENSIONS, files_per)

    # locations: (ext, file index, multiplicity)
    locations = []
    files = []  # (ext, number of locations)
    for ext in exts:
        mult = _split(EXTENSIONS[ext], locs_per[ext], rng, hi=MAX_RECORDS_PER_LOCATION)
        per_file = _split(locs_per[ext], files_per[ext], rng)
        k = 0
        for n_locs in per_file:
            fid = len(files)
            files.append((ext, n_locs))
            for _ in range(n_locs):
                locations.append({"ext": ext, "file": fid, "m": mult[k]})
                k += 1

    # single-line locations carry exactly SINGLE_LINE_RECORDS records
    order = list(range(len(locations)))
    rng.shuffle(order)
    need = SINGLE_LINE_RECORDS
    for i in order:
        single = locations[i]["m"] <= need
        locations[i]["single"] = single
        need -= locations[i]["m"] if single else 0
    assert need == 0, "single-line split failed"

    # articles: greedy by largest remaining count keeps every location distinct
    remaining = dict(MAJOR_ARTICLES)
    remaining.update(OTHER_ARTICLES)
    for i in sorted(order, key=lambda i: -locations[i]["m"]):
        pick = sorted(remaining, key=lambda a: (-remaining[a], rng.random()))[: locations[i]["m"]]
        for a in pick:
            remaining[a] -= 1
        locations[i]["articles"] = sorted(pick)
    assert not any(remaining.values()), "article split failed"

    # lengths: snippets weighted by records per location, notes per record
    def fitted(draw, weights: list[int], target: tuple) -> list[int]:
        for _ in range(20):
            try:
                return fit_lengths([draw(i) for i in range(len(weights))], weights, target, rng)
            except ValueError:  # an unlucky draw; draw again
                continue
        raise RuntimeError(f"no length fit for {target}")

    snippet_len = fitted(
        lambda i: rng.lognormvariate(math.log(60), 0.55) if locations[i]["single"]
        else rng.lognormvariate(math.log(190), 0.8),
        [loc["m"] for loc in locations], SNIPPET_LENGTHS)
    note_len = iter(fitted(lambda i: rng.lognormvariate(math.log(208), 0.39), [1] * RECORDS, NOTE_LENGTHS))

    # apps and file paths
    apps = []
    for a in range(52):
        name = rng.choice(STEMS) + rng.choice(("Cam", "Go", "Hub", "Pal", "Box", "Fit", "Pay", "Me")) + str(a)
        apps.append((name, f"https://github.com/{name.lower()}dev/{name.lower()}",
                     f"{rng.getrandbits(160):040x}", rng.random() < 0.3))
    paths = []
    for fid, (ext, _) in enumerate(files):
        app = rng.choice(apps)
        stem = rng.choice(STEMS) + rng.choice(SUFFIXES) + str(fid)
        pkg = app[0].lower()
        path = {
            ".java": f"app/src/main/java/com/{pkg}/{stem}.java", ".kt": f"app/src/main/java/com/{pkg}/{stem}.kt",
            ".js": f"src/{pkg}/{stem[0].lower() + stem[1:]}.js", ".json": f"config/{stem.lower()}.json",
            ".cs": f"Assets/Scripts/{stem}.cs", ".php": f"app/Http/{stem}.php",
            ".xml": f"app/src/main/res/xml/{stem.lower()}.xml", ".html": f"public/{stem.lower()}.html",
            ".py": f"{pkg}/{stem.lower()}.py", ".h": f"include/{stem.lower()}.h",
        }[ext]
        paths.append((app, path, [rng.randint(3, 60)]))

    records = []
    seen: set[str] = set()
    for n, (loc, length) in enumerate(zip(locations, snippet_len)):
        app, path, cursor = paths[loc["file"]]
        language = loc["ext"][1:]  # gdprkit's language tag is the extension
        lines = 1 if loc["single"] else max(2, min(round(length / 38), 48))
        short = [p for p in by_kind["any"] if len(p["pattern"]) + 3 + 2 * (lines - 1) <= length]
        for attempt in range(50):
            ingredients, category = _ingredients(loc["articles"], by_kind, rng)
            if attempt >= 25:  # a tiny target: one short pattern call
                ingredients = [rng.choice(short)]
            try:
                text = build_snippet(ingredients, language, f"{n}{'x' * attempt}", length, lines, rng)
            except ValueError:  # the patterns drawn are too long for a tiny target
                continue
            if text not in seen:
                break
        else:
            raise RuntimeError(f"no distinct snippet text for location {n}")
        seen.add(text)
        start = cursor[0]
        cursor[0] = start + lines + rng.randint(2, 40)
        span = f"line {start}" if lines == 1 else f"lines {start}-{start + lines - 1}"
        first = ingredients[0]
        p = first["pattern"] if isinstance(first, dict) else "a hard-coded value"
        for a in loc["articles"]:
            fmt = {"what": WHAT[category], "p": p, "file": Path(path).name, "a": a}
            pool = list(NOTE_SENTENCES.get(a, GENERIC_SENTENCES))
            rng.shuffle(pool)
            sentences = [s.format(**fmt) for s in pool] * 4
            name, repo, commit, alt_key = app
            records.append({
                "app_name": name, "repo_url": repo, ("Commit_ID" if alt_key else "commit_id"): commit,
                "violated_article": a, "code_snippet_path": f"{path}: {span}", "code_snippet": text,
                "annotation_note": _exact_text(sentences, next(note_len), rng),
            })
    return records


def shape_report(records: list[dict]) -> dict:
    """Counts and length statistics of a generated corpus, with gaps to the published values."""
    def lengths(key: str, target: tuple) -> dict:
        values = [len(r[key]) for r in records]
        got = (min(values), max(values), statistics.fmean(values), statistics.median(values),
               statistics.pstdev(values))
        names = ("min", "max", "mean", "median", "stddev")
        return {n: {"got": round(g, 3), "gap": round(g - t, 3)} for n, g, t in zip(names, got, target)}

    single = sum(1 for r in records if ": line " in r["code_snippet_path"])
    return {
        "records": len(records),
        "files": len({(r["repo_url"], r["app_name"], r["code_snippet_path"].rsplit(":", 1)[0]) for r in records}),
        "snippets": len({r["code_snippet_path"] for r in records}),
        "single_line": single,
        "multi_line": len(records) - single,
        "snippet_length": lengths("code_snippet", SNIPPET_LENGTHS),
        "note_length": lengths("annotation_note", NOTE_LENGTHS),
    }


def write_corpus(records: list[dict], path: Path) -> None:
    path.write_text(json.dumps(records, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--output", required=True, help="corpus JSON to write")
    args = parser.parse_args(argv)
    records = generate(args.seed)
    write_corpus(records, Path(args.output))
    print(json.dumps(shape_report(records), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
