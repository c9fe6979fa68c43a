"""Command line interface.

Subcommands cover the whole workflow: corpus statistics, dataset
generation, one-off analysis of a file or snippet, configured benchmark
runs, and re-scoring of a stored run into any report format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corpus import compute_stats, detect_language, load_corpus, read_json
from .engine import analyze_source, load_rules
from .errors import GdprKitError, InputError


def _cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_stats(corpus)
    print(json.dumps(stats.to_dict(), indent=2))
    return 0


def _cmd_gen(args) -> int:
    from .taskgen import build_task1, build_task2, dump_entries

    corpus = load_corpus(args.corpus)
    entries = (build_task1 if args.task == 1 else build_task2)(corpus)
    dump_entries(entries, args.output)
    print(f"wrote {len(entries)} entries to {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    # isfile, unlike Path.exists, is False for a snippet too long or odd to be a path
    if os.path.isfile(args.target):
        target = Path(args.target)
        try:
            source = target.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{target}: {exc}") from None
        language = args.language or detect_language(str(target))
        path = str(target)
    else:
        source = args.target
        language = args.language or "java"
        path = "<snippet>"
    catalog = load_rules(args.rules) if args.rules else None
    result = analyze_source(source, language, path=path, catalog=catalog)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    if not result.findings:
        print("no findings")
        return 0
    print(f"articles (most suspect first): {', '.join(str(a) for a in result.ranking.articles)}")
    ordered = sorted(result.findings, key=lambda f: (-f.confidence, f.article, f.rule_id))
    for finding in ordered:
        spans = ", ".join(
            f"{s.start_line}" if s.start_line == s.end_line else f"{s.start_line}-{s.end_line}"
            for s in finding.spans
        )
        where = f" [lines {spans}]" if spans else ""
        print(
            f"  article {finding.article}  {finding.rule_id}  "
            f"confidence {finding.confidence:.2f}{where}  {finding.explanation}"
        )
    return 0


def _cmd_run(args) -> int:
    from .harness import RunConfig, emit_report, run

    flags = {
        "task": args.task,
        "method": args.method,
        "dataset_path": args.dataset,
        "corpus_path": args.corpus,
        "output_dir": args.output_dir,
    }
    config = RunConfig.from_dict(
        read_json(args.config) if args.config else {},
        **{key: value for key, value in flags.items() if value is not None},
    )
    result = run(config)
    counts = result.manifest["counts"]
    print(
        f"task {config.task} / {config.method}: "
        f"{counts['scored']} scored, {counts['errored']} errored, "
        f"{counts['skipped']} skipped -> {result.output_dir}"
    )
    print(emit_report(result.report, "markdown"))
    return 0


def _cmd_evaluate(args) -> int:
    from .harness import emit_report, evaluate_run

    sys.stdout.write(emit_report(evaluate_run(args.run_dir), args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdprkit",
        description="Source-level GDPR violation analysis and benchmark tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="summarize a violation corpus")
    p.add_argument("corpus")
    p.set_defaults(func=_cmd_stats)

    for task, dataset in ((1, "localization"), (2, "snippet classification")):
        p = sub.add_parser(f"gen-task{task}", help=f"build the {dataset} dataset")
        p.add_argument("corpus")
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=_cmd_gen, task=task)

    p = sub.add_parser("analyze", help="analyze a source file or inline snippet")
    p.add_argument("target", help="path to a source file, or snippet text")
    p.add_argument("--language", help="language tag override (e.g. java, js)")
    p.add_argument("--rules", help="alternative rule catalog JSON")
    p.add_argument("--json", action="store_true", help="emit full JSON result")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("run", help="run one method over one task dataset")
    p.add_argument("--task", type=int, choices=(1, 2))
    p.add_argument("--method")
    p.add_argument("--config", help="run configuration JSON file")
    p.add_argument("--dataset", help="dataset path (overrides config)")
    p.add_argument("--corpus", help="corpus path (overrides config)")
    p.add_argument("--output-dir", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("evaluate", help="re-score a run directory with the run's own config")
    p.add_argument("run_dir", help="output directory of an earlier run")
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GdprKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
