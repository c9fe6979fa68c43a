"""Transforms of the input that must not move a prediction.

Each snippet transform rewrites every snippet of a corpus's task-2 dataset
without changing its code: line ends, indentation, trailing blanks or one
leading blank line.  The formal method must label every transformed snippet
as it labels the original, over the fixture corpus and synthetic corpus
seed 1.

Permuting a ``gen-task1``/``gen-task2`` dataset renumbers its instances and
nothing else: every method, run offline over the fixture corpus and seed 1,
must predict the same for each instance, matched by what it is about rather
than by its id, write the same report.json and send the same prompts.
"""

import json
import random
import re

import pytest

from gdprkit.corpus import detect_language, split_snippet_path
from gdprkit.harness import METHOD_NAMES, RunConfig, run
from gdprkit.methods import FormalMethod
from gdprkit.taskgen import build_task2
from tests.conftest import cache_log_records

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


def _by_content(run_dir, entries: list[dict]) -> dict[tuple[str, ...], dict]:
    """The predictions of ``run_dir``, keyed by the (repo_url, app_name, file or snippet path)
    of their dataset entry in ``entries`` and by their ``::file``/``::module``/``::line`` suffix."""
    predictions = json.loads((run_dir / "predictions.json").read_text(encoding="utf-8"))["predictions"]
    out = {}
    for prediction in predictions:
        number, _, suffix = prediction.pop("instance_id").partition("::")  # t1-NNNN::... or t2-NNNN
        entry = entries[int(number[3:]) - 1]
        where = entry.get("file_path", entry.get("code_snippet_path"))
        out[entry["repo_url"], entry["app_name"], where, suffix] = prediction
    assert len(out) == len(predictions)
    return out


@pytest.mark.parametrize("task", [1, 2])
@pytest.mark.parametrize("corpus", ["fixture", "seed1"])
def test_dataset_order_moves_no_prediction(offline_runs, request, tmp_path, corpus, task):
    root, _ = offline_runs[corpus]
    entries = json.loads((root / f"gen-task{task}.json").read_text(encoding="utf-8"))
    shuffled = list(entries)
    random.Random(7).shuffle(shuffled)
    assert shuffled != entries
    dataset = tmp_path / f"gen-task{task}.json"
    dataset.write_text(json.dumps(shuffled), encoding="utf-8")
    corpus_path = request.getfixturevalue(f"{corpus}_corpus_path")
    for method in METHOD_NAMES:
        label = f"{method}-task{task}"
        out, original = tmp_path / label, root / label
        prompted = method != "formal"
        run(RunConfig(task=task, method=method, dataset_path=str(dataset), corpus_path=str(corpus_path),
                      output_dir=str(out), reasoner="stub", cache_dir=str(out / "cache") if prompted else None))
        assert _by_content(out, shuffled) == _by_content(original, entries), label
        assert (out / "report.json").read_bytes() == (original / "report.json").read_bytes(), label
        if prompted:
            keys = [{record[0] for record in cache_log_records(d / "cache")} for d in (out, original)]
            assert keys[0] == keys[1], label
