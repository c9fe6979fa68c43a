"""The JSON examples and the quick-start output in README.md hold as shown."""

import argparse
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest
import requests

from gdprkit.cli import build_parser, main
from gdprkit.corpus import load_corpus, read_json
from gdprkit.engine import load_rules
from gdprkit.harness import RunConfig
from tests.conftest import DATA_DIR, REPO_DIR

README = REPO_DIR / "README.md"


def readme_section(heading: str, level: int = 2) -> str:
    """The text under a README heading, up to the next heading of its level or above."""
    section = README.read_text(encoding="utf-8").split(f"\n{'#' * level} {heading}\n", 1)[1]
    return re.split(rf"\n#{{1,{level}}} ", section, maxsplit=1)[0]


def json_block(heading: str) -> str:
    """The first fenced JSON block under a second-level README heading."""
    return re.search(r"```json\n(.*?)```", readme_section(heading), re.DOTALL).group(1)


def test_readme_json_examples_load(tmp_path):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json_block("Corpus format"), encoding="utf-8")
    [record] = load_corpus(corpus_path)
    assert record.violated_article == 6

    config_path = tmp_path / "config.json"
    config_path.write_text(json_block("Run configuration"), encoding="utf-8")
    # the block lists every field at its default
    assert RunConfig.from_dict(read_json(config_path)) == RunConfig(
        task=2, method="zero_shot", dataset_path="runs/task2.json", corpus_path="corpus.json"
    )

    rules_path = tmp_path / "rules.json"
    rule = json.loads(json_block("Library layout"))
    rules_path.write_text(json.dumps({"rules": [rule]}), encoding="utf-8")
    assert [r.id for r in load_rules(rules_path).rules] == [rule["id"]]


def test_readme_cli_table_lists_every_subcommand():
    documented = re.findall(r"^\| `([a-z0-9-]+)[ `]", readme_section("CLI"), re.MULTILINE)
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == list(subparsers.choices)


def test_readme_quick_start_prints_the_block_shown(capsys):
    command, shown = re.search(
        r"```sh\n(gdprkit analyze .*?)\n```\n\n```\n(.*?)```", readme_section("Quick start"), re.DOTALL
    ).groups()
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == shown


def test_readme_formal_baseline_runs_as_shown(tmp_path, monkeypatch, capsys):
    """The quick start's baseline commands run from a directory without ``runs/``, each as shown."""
    [commands] = re.findall(r"```sh\n(gdprkit stats .*?)```", readme_section("Quick start"), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tests" / "data").mkdir(parents=True)
    shutil.copy(DATA_DIR / "fixture_corpus.json", tmp_path / "tests" / "data")
    argvs = [shlex.split(line) for line in commands.splitlines()]
    names = ["stats", "gen-task1", "gen-task2", "run", "run"]
    assert [argv[:2] for argv in argvs] == [["gdprkit", name] for name in names]
    for program, *args in argvs:
        assert main(args) == 0, args
    out = capsys.readouterr().out
    assert "task 1 / formal: 23 scored, 0 errored, 0 skipped" in out
    assert "task 2 / formal: 10 scored, 0 errored, 0 skipped" in out
    for task in (1, 2):
        run_dir = tmp_path / "runs" / "formal-baseline" / f"task{task}-formal"
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json", "predictions.json", "report.json", "report.md"
        ]


class FakeSession:
    """A ``requests.Session`` whose completion API answers "6, 32" to every prompt."""

    def __init__(self):
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return {"text": "6, 32"}


@pytest.mark.parametrize("task", [1, 2])
@pytest.mark.parametrize("reasoner", ["stub", "live"])
def test_readme_record_and_replay_recipe(tmp_path, monkeypatch, reasoner, task):
    """The recipe's configs and commands, for either task, record on the fixture corpus and
    replay byte for byte; a live recording replays under the default id ``http:<model>``."""
    section = readme_section("Recording and replaying", level=3)
    record, replay = (json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.DOTALL))
    session = FakeSession()
    if reasoner == "live":
        monkeypatch.setattr(requests, "Session", lambda: session)
        monkeypatch.setenv("GDPRKIT_ENDPOINT", "http://localhost:1/v1")
        record["reasoner"] = "live"
        del replay["replay_reasoner_id"]
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATA_DIR / "fixture_corpus.json", "corpus.json")
    Path("record.json").write_text(json.dumps(record), encoding="utf-8")
    Path("replay.json").write_text(json.dumps(replay), encoding="utf-8")
    [commands] = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    for line in commands.splitlines():
        program, *args = shlex.split(line.replace("task2", f"task{task}").replace("--task 2", f"--task {task}"))
        if program == "gdprkit":
            assert main(args) == 0, line
        else:
            assert program == "cmp", line
            assert Path(args[0]).read_bytes() == Path(args[1]).read_bytes(), line
    assert (session.posts > 0) == (reasoner == "live")
