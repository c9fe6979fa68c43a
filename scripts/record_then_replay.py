"""Record prompted-method responses to a cache, then re-run offline from it.

Demonstrates the reproducibility workflow for the prompted baselines: the
first pass answers every prompt through a reasoner and records each response
in the one-file cache ``<out>/cache/responses.sqlite3``, the second pass
replays the run with the network binding swapped out entirely.  Both passes
must produce identical reports.  Each response is committed as it is
recorded, so a recording cut short by a crash keeps what it was paid for.
An ``<out>/cache`` holding per-file ``*.json`` entries of the old cache
format is refused with a ConfigurationError; record into a fresh ``--out``.

Uses the built-in stub reasoner by default so the demo runs offline; point
GDPRKIT_ENDPOINT at a completion API and pass --reasoner live to record
real model output.
"""

import argparse
import sys
from pathlib import Path

from gdprkit.harness import RunConfig, run
from gdprkit.taskgen import build_task2, dump_entries
from gdprkit.corpus import load_corpus

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "fixture_corpus.json"
# Responses are cached under the id of the binding that recorded them: the
# stub records as "stub:<model>", the live HTTP binding as "http:<model>".
RECORDED_ID_PREFIX = {"stub": "stub", "live": "http"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(DEFAULT_CORPUS))
    parser.add_argument("--method", default="zero_shot", choices=["zero_shot", "rag", "react"])
    parser.add_argument("--reasoner", default="stub", choices=["stub", "live"])
    parser.add_argument("--model", default="default")
    parser.add_argument("--out", default="runs/record-replay")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = out / "task2.json"
    dump_entries(build_task2(load_corpus(args.corpus)), dataset)
    cache_dir = out / "cache"

    common = dict(
        task=2,
        method=args.method,
        dataset_path=str(dataset),
        corpus_path=args.corpus,
        cache_dir=str(cache_dir),
        model=args.model,
    )
    recorded = run(
        RunConfig(reasoner=args.reasoner, output_dir=str(out / "recorded"), **common)
    )
    print(f"recorded {recorded.manifest['counts']['scored']} instances via {args.reasoner}")

    replayed = run(
        RunConfig(
            reasoner="cache_replay",
            replay_reasoner_id=f"{RECORDED_ID_PREFIX[args.reasoner]}:{args.model}",
            output_dir=str(out / "replayed"),
            **common,
        )
    )
    print(f"replayed {replayed.manifest['counts']['scored']} instances from {cache_dir}")

    first = (recorded.output_dir / "report.json").read_bytes()
    second = (replayed.output_dir / "report.json").read_bytes()
    matches = first == second
    print(f"reports identical: {matches}")
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
