"""Every output of an offline run, pinned by its sha256.

Each of ``formal``, ``zero_shot``, ``rag`` and ``react`` runs both tasks
with the stub reasoner and a fresh cache, over the fixture corpus and over
synthetic corpus seed 1.  The sha256 of every ``predictions.json`` and
``report.json``, of the ``gen-task1``/``gen-task2`` datasets they run on,
and of the seed-1 corpus file must equal ``tests/data/golden/digests.json``.
Each run directory must also re-score to its own report.json, and its
manifest's input digests must be those of the files it names.  The seed-1
outputs must keep their digests in fresh interpreters under two hash seeds,
the second replaying the first's recordings.
A change that moves an output on purpose rewrites that file with

    GDPRKIT_UPDATE_DIGESTS=1 python -m pytest tests/test_digests.py

and says in CHANGES.md why each artifact in the diff moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import gdprkit
from gdprkit.corpus import load_corpus
from gdprkit.harness import METHOD_NAMES, RunConfig, emit_report, evaluate_run, run
from gdprkit.taskgen import build_task1, build_task2, dump_entries
from tests.conftest import GOLDEN_DIR, REPO_DIR

DIGESTS = GOLDEN_DIR / "digests.json"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_digests(name: str, corpus_path, root, replay_from=None) -> dict[str, str]:
    """Digests of the datasets of ``corpus_path`` and of every method's run on them, keyed by path.

    The prompted methods record with the stub reasoner into a fresh cache, or,
    given the ``root`` of an earlier call as ``replay_from``, replay its recordings.
    """
    corpus = load_corpus(corpus_path)
    got = {}
    for task, build in ((1, build_task1), (2, build_task2)):
        dataset = root / f"gen-task{task}.json"
        dump_entries(build(corpus), dataset)
        got[f"{name}/gen-task{task}.json"] = _sha256(dataset)
        for method in METHOD_NAMES:
            label = f"{method}-task{task}"
            out = root / label
            if method == "formal":
                binding = {"reasoner": "stub"}
            elif replay_from is None:
                binding = {"reasoner": "stub", "cache_dir": str(out / "cache")}
            else:
                binding = {"reasoner": "cache_replay", "replay_reasoner_id": "stub:default",
                           "cache_dir": str(Path(replay_from) / label / "cache")}
            run(RunConfig(task=task, method=method, dataset_path=str(dataset), corpus_path=str(corpus_path),
                          output_dir=str(out), **binding))
            report = (out / "report.json").read_text(encoding="utf-8")
            assert emit_report(evaluate_run(out), "json") == report, f"{out} does not re-score to its report"
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            for entry in manifest["datasets"].values():
                assert _sha256(Path(entry["path"])) == entry["sha256"], f"{out}/manifest.json: {entry}"
            for artifact in ("predictions.json", "report.json"):
                got[f"{name}/{label}/{artifact}"] = _sha256(out / artifact)
    return got


def _moved(got: dict[str, str], recorded: dict[str, str]) -> list[str]:
    return sorted(key for key in got.keys() | recorded.keys() if got.get(key) != recorded.get(key))


def test_every_output_matches_its_recorded_digest(offline_runs, seed1_corpus_path):
    got = {"seed1/corpus.json": _sha256(seed1_corpus_path)}
    for _, digests in offline_runs.values():
        got.update(digests)
    got = dict(sorted(got.items()))
    if os.environ.get("GDPRKIT_UPDATE_DIGESTS") == "1":
        DIGESTS.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = _moved(got, recorded)
    assert not moved, f"outputs whose sha256 differs from {DIGESTS.name}: {moved}"


_DIGESTS_IN_A_FRESH_INTERPRETER = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "from tests.test_digests import corpus_digests\n"
    "print(json.dumps(corpus_digests('seed1', *map(Path, sys.argv[1:]))))\n"
)


def test_seed1_outputs_do_not_depend_on_the_hash_seed(seed1_corpus_path, tmp_path):
    """String hashes, and so set order, change with PYTHONHASHSEED.  Under 0, and then under
    12345 replaying every prompted method from the recordings made under 0, each seed-1
    output has its recorded digest."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    del recorded["seed1/corpus.json"]  # seed1_corpus_path's file, which corpus_digests does not hash
    recorded = {key: value for key, value in recorded.items() if key.startswith("seed1/")}
    path = os.pathsep.join([str(Path(gdprkit.__file__).resolve().parents[1]), str(REPO_DIR)])
    replay_from = []
    for hashseed in ("0", "12345"):
        root = tmp_path / f"hashseed-{hashseed}"
        root.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _DIGESTS_IN_A_FRESH_INTERPRETER, str(seed1_corpus_path), str(root)]
            + replay_from,
            env=dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        moved = _moved(json.loads(proc.stdout), recorded)
        assert not moved, f"PYTHONHASHSEED={hashseed}: sha256 differs from {DIGESTS.name} for {moved}"
        replay_from = [str(root)]
