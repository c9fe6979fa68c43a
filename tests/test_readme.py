"""The JSON examples and the quick-start output in README.md hold as shown."""

import argparse
import json
import re
import shlex
from pathlib import Path

from gdprkit.cli import build_parser, main
from gdprkit.corpus import load_corpus, read_json
from gdprkit.engine import load_rules
from gdprkit.harness import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(heading: str) -> str:
    """The text under a second-level README heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("\n## ", 1)[0]


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
    assert [r.id for r in load_rules(rules_path)] == [rule["id"]]


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
