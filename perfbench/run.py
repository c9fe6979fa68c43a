"""Offline end-to-end benchmark of gdprkit.

    python3 perfbench/run.py --workload {formal,rag-replay,prompted-record} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports gdprkit from ``src/``;
nothing is installed and nothing goes to the network.  Each repetition is a
fresh interpreter (``rep.py``) started by this single closed-loop caller, one
at a time, until ``--seconds`` are used up (at least three repetitions).
Workloads, metrics and caveats are described in ``perfbench/NOTES.md``.

Prints the corpus shape, the sha256 of every predictions.json and
report.json, the reported accuracy, and every metric by name with its unit,
then, as the last line, one JSON object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Exits 1 if an output check fails (the line then says ``"correct": false``)
or a repetition crashes, and 2, printing no result, if gdprkit's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
# A repetition takes under 15 s; with these two limits a run ends within 180 s.
REP_TIMEOUT_S = 50
# stop starting repetitions once this much time has gone, whatever --seconds says
HARD_LIMIT_S = 110


def unit_of(name: str) -> str:
    """Unit of a printed metric that BENCHMARK.json does not list."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_pct", "%"), ("_frac", "ratio"), ("_ratio", "ratio"),
                         ("_per_instance", "ratio"), ("_bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_reps(args, work: Path) -> list[dict]:
    reps: list[dict] = []
    durations: list[float] = []
    started = time.monotonic()
    while True:
        rep_dir = work / f"rep{len(reps)}"
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--rep", str(len(reps)), "--workdir", str(rep_dir),
               "--spans", str(work / "spans.jsonl"), "--spawned-at", repr(spawned)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=REP_TIMEOUT_S)
        durations.append(time.monotonic() - spawned)
        if proc.returncode != 0:
            raise SystemExit(f"repetition {len(reps)} exited with code {proc.returncode}")
        reps.append(json.loads((rep_dir / "result.json").read_text(encoding="utf-8")))
        shutil.rmtree(rep_dir)
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and (
            elapsed + statistics.median(durations) > args.seconds or elapsed > HARD_LIMIT_S
        ):
            return reps


def consistency_problems(reps: list[dict], trace: bool) -> list[str]:
    """Outputs and counts that must repeat exactly across repetitions of one seed."""
    problems = []
    if any(r["digests"] != reps[0]["digests"] for r in reps):
        problems.append("predictions.json or report.json differ between repetitions of the same seed")
    if trace:
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith(("_s", "_ms"))} for r in reps]
        for name in counts[0]:
            values = {c[name] for c in counts}
            if len(values) > 1:
                problems.append(f"count {name} differs between repetitions: {sorted(values)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("formal", "rag-replay", "prompted-record"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gdprkit" / "harness.py").is_file():
        print(f"gdprkit sources not found under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps = run_reps(args, work)

    first = reps[0]
    shape = first["shape"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    print(f"corpus: {shape['records']} records, {shape['files']} files, {shape['snippets']} snippets, "
          f"{shape['single_line']} single-line / {shape['multi_line']} multi-line")
    for key in ("snippet_length", "note_length"):
        gaps = ", ".join(f"{k} {v['got']} ({v['gap']:+})" for k, v in shape[key].items())
        print(f"  {key} (gap to published): {gaps}")
    for label, files in first["digests"].items():
        for name, digest in files.items():
            print(f"sha256 {label}/{name} {digest}")
    for label, values in first["accuracy"].items():
        print(f"reported {label}: " + ", ".join(f"{k} {v:.4f}" for k, v in values.items()))

    problems = sorted({p for r in reps for p in r["problems"]}) + consistency_problems(reps, bool(args.trace))
    metrics: dict[str, list[float]] = {}
    if args.trace:
        for r in reps:
            for name, value in r["layers"].items():
                metrics.setdefault(name, []).append(value)
        if first["not_traced"]:
            print("not traced (missing in this gdprkit): " + "; ".join(first["not_traced"]))
    else:
        for r in reps:
            for name in ("setup_s", "setup_wall_s", "peak_rss_mb"):
                metrics.setdefault(name, []).append(r[name])
            metrics.setdefault("failed_frac", []).append(r["failed"] / r["attempted"])
            for rd in r["rounds"]:
                for name in ("task1_s", "task2_s", "task1_wall_s", "task2_wall_s", "calibration_s"):
                    metrics.setdefault(name, []).append(rd[name])
                metrics.setdefault("instances_per_s", []).append(rd["instances"] / (rd["task1_s"] + rd["task2_s"]))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = {}
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    for name, values in metrics.items():
        q1, med, q3 = quartiles(values)
        table[name] = {"median": med, "q1": q1, "q3": q3, "samples": len(values), "unit": units.get(name) or unit_of(name)}
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g}  {table[name]['unit']}")

    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m["name"]: {"value": statistics.median(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "repetitions": len(reps),
               "problems": problems, "shape": shape, "digests": first["digests"], "accuracy": first["accuracy"],
               "metrics": table}
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
