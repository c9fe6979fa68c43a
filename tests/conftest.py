"""Shared fixtures: the hand-built corpus, a pair of camera records, and synthetic seed 1."""

import importlib.util
import json
from pathlib import Path

import pytest

from gdprkit.corpus import ViolationRecord, load_corpus
from gdprkit.knowledge import VIOLATION_EXAMPLE, KnowledgeBase, build_kb

REPO_DIR = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_DIR / "tests" / "data"
GOLDEN_DIR = DATA_DIR / "golden"

CAMERA_SNIPPET = "            manager.openCamera(camerId, stateCallback, null);\n"
CAMERA_PATH = "app/src/main/java/me/hawkshaw/test/MainActivity2.java: line 202"


@pytest.fixture(scope="session")
def fixture_corpus_path() -> Path:
    return DATA_DIR / "fixture_corpus.json"


@pytest.fixture(scope="session")
def fixture_corpus(fixture_corpus_path) -> list[ViolationRecord]:
    return load_corpus(fixture_corpus_path)


@pytest.fixture(scope="session")
def raw_fixture_objects(fixture_corpus_path) -> list[dict]:
    return json.loads(fixture_corpus_path.read_text(encoding="utf-8"))


def load_script(relative_path: str):
    """The module of a script that is not part of the package, such as ``perfbench/corpus_gen.py``."""
    path = REPO_DIR / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def seed1_corpus_path(tmp_path_factory) -> Path:
    """The file ``perfbench/corpus_gen.py`` writes for synthetic corpus seed 1."""
    corpus_gen = load_script("perfbench/corpus_gen.py")
    corpus_path = tmp_path_factory.mktemp("seed1") / "corpus.json"
    corpus_gen.write_corpus(corpus_gen.generate(1), corpus_path)
    return corpus_path


@pytest.fixture(scope="session")
def seed1_corpus(seed1_corpus_path) -> list[ViolationRecord]:
    """Synthetic corpus seed 1, as ``load_corpus`` reads it."""
    return load_corpus(seed1_corpus_path)


@pytest.fixture
def camera_record_pair(fixture_corpus) -> list[ViolationRecord]:
    """The two records annotating the same openCamera line with articles 6 and 32."""
    pair = [r for r in fixture_corpus if r.code_snippet_path == CAMERA_PATH]
    assert len(pair) == 2
    return pair


def examples_only_kb(records) -> KnowledgeBase:
    """The knowledge base of ``records`` without its article texts."""
    return KnowledgeBase([d for d in build_kb(records).docs if d.kind == VIOLATION_EXAMPLE])
