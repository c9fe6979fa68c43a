"""Every output of an offline run, pinned by its sha256.

Each of ``formal``, ``zero_shot``, ``rag`` and ``react`` runs both tasks
with the stub reasoner and a fresh cache, over the fixture corpus and over
synthetic corpus seed 1.  The sha256 of every ``predictions.json`` and
``report.json``, of the ``gen-task1``/``gen-task2`` datasets they run on,
and of the seed-1 corpus file must equal ``tests/data/golden/digests.json``.
A change that moves an output on purpose rewrites that file with

    GDPRKIT_UPDATE_DIGESTS=1 python -m pytest tests/test_digests.py

and says in CHANGES.md why each artifact in the diff moved.
"""

import hashlib
import json
import os

from gdprkit.corpus import load_corpus
from gdprkit.harness import METHOD_NAMES, RunConfig, run
from gdprkit.taskgen import build_task1, build_task2, dump_entries
from tests.conftest import GOLDEN_DIR

DIGESTS = GOLDEN_DIR / "digests.json"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_digests(name: str, corpus_path, root) -> dict[str, str]:
    """Digests of the datasets of ``corpus_path`` and of every method's run on them, keyed by path."""
    corpus = load_corpus(corpus_path)
    got = {}
    for task, build in ((1, build_task1), (2, build_task2)):
        dataset = root / f"gen-task{task}.json"
        dump_entries(build(corpus), dataset)
        got[f"{name}/gen-task{task}.json"] = _sha256(dataset)
        for method in METHOD_NAMES:
            label = f"{method}-task{task}"
            run(
                RunConfig(
                    task=task,
                    method=method,
                    dataset_path=str(dataset),
                    corpus_path=str(corpus_path),
                    output_dir=str(root / label),
                    reasoner="stub",
                    cache_dir=None if method == "formal" else str(root / label / "cache"),
                )
            )
            for artifact in ("predictions.json", "report.json"):
                got[f"{name}/{label}/{artifact}"] = _sha256(root / label / artifact)
    return got


def test_every_output_matches_its_recorded_digest(fixture_corpus_path, seed1_corpus_path, tmp_path):
    got = {"seed1/corpus.json": _sha256(seed1_corpus_path)}
    for name, corpus_path in (("fixture", fixture_corpus_path), ("seed1", seed1_corpus_path)):
        (tmp_path / name).mkdir()
        got.update(corpus_digests(name, corpus_path, tmp_path / name))
    got = dict(sorted(got.items()))
    if os.environ.get("GDPRKIT_UPDATE_DIGESTS") == "1":
        DIGESTS.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = sorted(key for key in got.keys() | recorded.keys() if got.get(key) != recorded.get(key))
    assert not moved, f"outputs whose sha256 differs from {DIGESTS.name}: {moved}"
