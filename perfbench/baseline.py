"""Record a baseline of the benchmark into perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Runs ``run.py`` once per workload and seed (1 to 10) with tracing off, and
once per workload and traced seed (1 to 3) with tracing on, one run at a
time, each for the ``run_seconds`` of BENCHMARK.json.  For every end-to-end
metric it stores the median and quartiles of the per-run medians over the
seeds (the sample count is the number of seeds) and their spread,
(q3 - q1) / median.  For the traced seeds it stores the per-layer table
(median over repetitions) and the shares of patterns matched, rules fired and
duplicate prompts.  It also stores the line count of ``src/gdprkit``.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("formal", "rag-replay", "prompted-record")
COVERAGE = ("facts.patterns_matched_frac", "engine.rules_fired_frac", "methods.duplicate_prompt_frac")
SEEDS = list(range(1, 11))
TRACED_SEEDS = list(range(1, 4))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    summary = json.loads(
        (ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}" / "summary.json").read_text(encoding="utf-8")
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed: {summary['problems']}")
    print(f"{workload} seed {seed} trace {trace}: {summary['repetitions']} repetitions", flush=True)
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "gdprkit").glob("*.py"))
    baseline = {
        "machine": f"shared 2-core virtual machine, Python {platform.python_version()}",
        "seconds_per_run": seconds,
        "src_gdprkit_lines": lines,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        e2e = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["median"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            e2e[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "samples": len(values),
                                   "spread": (q3 - q1) / median, "bound": metric["bound"], "unit": metric["unit"]}
        traced = {seed: run(workload, seed, seconds, 1) for seed in TRACED_SEEDS}
        first = traced[min(traced)]
        baseline["workloads"][workload] = {
            "seeds": SEEDS,
            "end_to_end": e2e,
            "per_layer": {k: {"median": v["median"], "unit": v["unit"]} for k, v in first["metrics"].items()},
            "per_layer_seed": min(traced),
            "coverage_per_seed": {seed: {k: t["metrics"][k]["median"] for k in COVERAGE} for seed, t in traced.items()},
            "accuracy_first_seed": runs[0]["accuracy"],
        }
    (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
