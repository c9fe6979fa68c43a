"""Formal's task-2 labels do not depend on a snippet's layout.

Each transform rewrites every snippet of a corpus's task-2 dataset without
changing its code: line ends, indentation, trailing blanks or one leading
blank line.  The formal method must label every transformed snippet as it
labels the original, over the fixture corpus and synthetic corpus seed 1.
"""

import re

import pytest

from gdprkit.corpus import detect_language, split_snippet_path
from gdprkit.methods import FormalMethod
from gdprkit.taskgen import build_task2

_INDENT = re.compile(r"^(?:    )+", re.MULTILINE)

TRANSFORMS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tab-indents": lambda text: _INDENT.sub(lambda m: "\t" * (len(m.group(0)) // 4), text),
    "trailing-spaces": lambda text: "\n".join(line + "  " for line in text.split("\n")),
    "leading-blank-line": lambda text: "\n" + text,
}


@pytest.fixture(scope="module", params=["fixture", "seed1"])
def snippets(request) -> list[tuple[str, str, tuple[int, ...]]]:
    """(snippet, language, formal labels) of each task-2 entry of the corpus."""
    corpus = request.getfixturevalue(f"{request.param}_corpus")
    method = FormalMethod()
    out = []
    for entry in build_task2(corpus):
        language = detect_language(split_snippet_path(entry.code_snippet_path)[0])
        out.append((entry.code_snippet, language, method.predict_labels(entry.code_snippet, language)[0]))
    return out


@pytest.mark.parametrize("name", TRANSFORMS)
def test_formal_labels_survive_the_transform(snippets, name):
    transform, method = TRANSFORMS[name], FormalMethod()
    changed = [
        (snippet, labels, got)
        for snippet, language, labels in snippets
        if (got := method.predict_labels(transform(snippet), language)[0]) != labels
    ]
    assert not changed, f"{len(changed)} of {len(snippets)} snippets change labels; first: {changed[0]!r}"
    # the transform rewrites text that it applies to, so the check is not vacuous
    assert any(transform(snippet) != snippet for snippet, _, _ in snippets)
