"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so gdprkit's module-level
lazy caches are rebuilt every time and count as set-up.  Set-up generates the
seeded corpus, loads it, builds and writes the two datasets, warms the lazy
caches and, for ``rag-replay``, records the response cache with the stub
reasoner.  Then the workload's ``harness.run`` calls are timed exactly as a
user makes them, in a few passes so that one repetition yields several
samples.  With tracing on, one untraced pass is followed (or, on odd
repetitions, preceded) by one pass with the tracer installed.  Every pass
must write byte-identical predictions.json and report.json.

The result, including every output check that failed, goes to
``<workdir>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus_gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# rag-replay queries: a seeded sample of fixed size and fixed query text, so
# retrieval work is the same for every seed while the KB stays at full size.
# A retrieval costs a constant per KB document plus a share per query
# character, so both the instance count and the characters of the prompted
# text (whole file for file and module instances, the span for line
# instances) are held to these targets.
RAG_TASK1_INSTANCES, RAG_TASK1_CHARS = 10, 2400
RAG_TASK2_QUERIES, RAG_TASK2_CHARS = 8, 1400
SAMPLE_TOLERANCE = 0.03
REPLAY_ID = "stub:default"
# Speed calibration.  On a shared 2-core virtual machine the cores change
# speed by up to 40 % from one minute to the next, so every timing is scaled
# by CAL_REF_S over the time of a fixed regex-scanning workload (the kind of
# work that dominates gdprkit), measured right before and after it: the
# result is in seconds at the speed the machine had when CAL_REF_S was
# measured.  Raw wall times are reported beside the scaled ones.
CAL_REF_S = 0.065
_CAL_TEXT = "value state getDeviceId(ctx) Log.d(tag, msg) fetch(url) buffer result handler http://x.y/z\n" * 3000
_CAL_PATTERNS = [re.compile(rf"\b{w}\b") for w in ("getDeviceId", "fetch", "buffer", "handler", "value",
                                                   "state", "result", "Cipher", "encrypt", "println")]
# untraced passes per repetition, a few seconds of timed calls each
ROUNDS = {"formal": 3, "rag-replay": 3, "prompted-record": 2}


def calibrate() -> float:
    """Seconds this core needs now for a fixed regex-scanning workload."""
    start = time.perf_counter()
    for pattern in _CAL_PATTERNS:
        for _ in pattern.finditer(_CAL_TEXT):
            pass
    return time.perf_counter() - start


def _sample(sizes: list[int], chars: list[int], count: int, target: int, rng: random.Random) -> list[int]:
    """Indices, ascending, whose sizes add up to ``count`` and whose chars come closest to ``target``."""
    best: tuple[float, list[int]] = (float("inf"), [])
    for _ in range(4000):
        picked, total = set(), 0
        for _ in range(50):
            i = rng.randrange(len(sizes))
            if i not in picked and total + sizes[i] <= count:
                picked.add(i)
                total += sizes[i]
        if total != count:
            continue
        miss = abs(sum(chars[i] for i in picked) - target) / target
        if miss < best[0]:
            best = (miss, sorted(picked))
        if miss <= SAMPLE_TOLERANCE:
            break
    return best[1]


def _rag_samples(records: list[dict], entries1: list, entries2: list, rng: random.Random) -> tuple[list, list]:
    span_text: dict[tuple[str, int], str] = {}
    file_chars: dict[str, int] = {}
    for r in records:
        file_path, spec = r["code_snippet_path"].rsplit(": ", 1)
        start = int(spec.split()[1].split("-")[0])
        if (file_path, start) not in span_text:
            span_text[file_path, start] = r["code_snippet"]
            file_chars[file_path] = file_chars.get(file_path, 0) + len(r["code_snippet"])
    chars1 = []
    for e in entries1:
        spans = [lv.span for lv in e.line_level]
        whole = max(s.end_line for s in spans) + file_chars[e.file_path]
        chars1.append(2 * whole + sum(len(span_text[e.file_path, s.start_line]) for s in spans))
    sizes1 = [1 + len(e.module_level) + len(e.line_level) for e in entries1]
    pick1 = _sample(sizes1, chars1, RAG_TASK1_INSTANCES, RAG_TASK1_CHARS, rng)
    pick2 = _sample([1] * len(entries2), [len(e.code_snippet) for e in entries2],
                    RAG_TASK2_QUERIES, RAG_TASK2_CHARS, rng)
    return [entries1[i] for i in pick1], [entries2[i] for i in pick2]


def setup(workload: str, seed: int, work: Path) -> dict:
    import gdprkit.corpus
    import gdprkit.engine
    import gdprkit.facts
    import gdprkit.knowledge
    import gdprkit.taskgen

    records = corpus_gen.generate(seed)
    paths = {"corpus": work / "corpus.json", "task1": work / "task1.json", "task2": work / "task2.json"}
    corpus_gen.write_corpus(records, paths["corpus"])
    corpus = gdprkit.corpus.load_corpus(paths["corpus"])
    entries1 = gdprkit.taskgen.build_task1(corpus)
    entries2 = gdprkit.taskgen.build_task2(corpus)
    gdprkit.taskgen.dump_entries(entries1, paths["task1"])
    gdprkit.taskgen.dump_entries(entries2, paths["task2"])
    gdprkit.facts.default_pattern_table()
    gdprkit.engine.default_catalog()
    gdprkit.knowledge.article_catalog()
    ctx = {"paths": paths, "shape": corpus_gen.shape_report(records)}
    if workload == "rag-replay":
        rng = random.Random(seed)
        paths["task1_sample"] = work / "task1-sample.json"
        paths["task2_sample"] = work / "task2-sample.json"
        paths["cache"] = work / "cache"
        sample1, sample2 = _rag_samples(records, entries1, entries2, rng)
        gdprkit.taskgen.dump_entries(sample1, paths["task1_sample"])
        gdprkit.taskgen.dump_entries(sample2, paths["task2_sample"])
        ctx["record"] = run_pass(calls(workload, ctx, work / "record", record=True), work / "record")
    return ctx


def calls(workload: str, ctx: dict, pass_dir: Path, record: bool = False) -> list[tuple[str, dict]]:
    """(label, RunConfig fields) of every timed harness.run call, in order."""
    p = {k: str(v) for k, v in ctx["paths"].items()}
    if workload == "formal":
        return [
            ("formal-task1", dict(task=1, method="formal", dataset_path=p["task1"], corpus_path=p["corpus"])),
            ("formal-task2", dict(task=2, method="formal", dataset_path=p["task2"])),
        ]
    if workload == "rag-replay":
        binding = {"reasoner": "stub"} if record else {"reasoner": "cache_replay", "replay_reasoner_id": REPLAY_ID}
        common = dict(method="rag", corpus_path=p["corpus"], cache_dir=p["cache"], **binding)
        return [
            ("rag-task1", dict(task=1, dataset_path=p["task1_sample"], **common)),
            ("rag-task2", dict(task=2, dataset_path=p["task2_sample"], **common)),
        ]
    cache = str(pass_dir / "cache")  # fresh for every pass
    return [
        (f"{method}-task{task}", dict(task=task, method=method, dataset_path=p[f"task{task}"],
                                     corpus_path=p["corpus"] if task == 1 else None, cache_dir=cache))
        for method in ("zero_shot", "react")
        for task in (1, 2)
    ]


def run_pass(pass_calls: list[tuple[str, dict]], pass_dir: Path, tracer: Tracer | None = None,
             calibration: float | None = None) -> dict:
    """Run and time the calls.  Given the time of a calibration made just before,
    each call is bracketed by calibrations and its time is also speed-scaled;
    ``factors`` maps the tracer's run id of each call to its speed factor."""
    import gdprkit.harness as harness

    seconds, scaled, calibrations = {1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}, []
    runs, factors = {}, {}
    for label, fields in pass_calls:
        config = harness.RunConfig(output_dir=str(pass_dir / label), **fields)
        if tracer is not None:
            tracer.run_id = f"{pass_dir.name}:{label}"
        start = time.perf_counter()
        result = harness.run(config)
        wall = time.perf_counter() - start
        seconds[config.task] += wall
        if calibration is not None:
            after = calibrate()
            factors[f"{pass_dir.name}:{label}"] = 2 * CAL_REF_S / (calibration + after)
            scaled[config.task] += wall * factors[f"{pass_dir.name}:{label}"]
            calibrations.append(after)
            calibration = after
        runs[label] = {"task": config.task, "dataset": fields["dataset_path"], "out": pass_dir / label,
                       "counts": dict(result.manifest["counts"])}
    return {"seconds": seconds, "scaled": scaled, "calibration": calibration, "calibrations": calibrations,
            "factors": factors, "runs": runs}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cache_bytes(cache_dir: Path) -> int:
    """Bytes of the cache files, with each created_at value counted at its usual 32 characters.

    The timestamp drops its microseconds when they are zero, which would make
    the count differ between repetitions for no reason in the cache layer.
    """
    total = 0
    for path in sorted(cache_dir.glob("*.json")) if cache_dir.is_dir() else ():
        data = path.read_bytes()
        stamp = json.loads(data).get("created_at", "")
        total += len(data) - len(stamp) + (32 if stamp else 0)
    return total


def check_pass(result: dict) -> list[str]:
    problems = []
    for run in result["runs"].values():
        problems += oracle.check_run(run["task"], Path(run["dataset"]), run["out"], run["counts"])
    return problems


def artifact_digests(result: dict) -> dict[str, dict[str, str]]:
    return {
        label: {name: _digest(run["out"] / name) for name in ("predictions.json", "report.json")}
        for label, run in result["runs"].items()
    }


def accuracy(result: dict) -> dict[str, dict[str, float]]:
    """accuracy@1/@3 per granularity (task 1) and accuracy / macro-F1 (task 2), as reported."""
    out = {}
    for label, run in result["runs"].items():
        report = json.loads((run["out"] / "report.json").read_text(encoding="utf-8"))
        if report["ranking"]:
            out[label] = {f"{g}@{k}": m["accuracy_at"][str(k)] for g, m in report["ranking"].items() for k in (1, 3)}
        else:
            out[label] = {"accuracy": report["labels"]["accuracy"], "macro_f1": report["labels"]["macro_f1"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("formal", "rag-replay", "prompted-record"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced repetition writes its spans")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    args = parser.parse_args(argv)

    start_calibration = calibrate()
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import gdprkit

        tracer = Tracer()
        tracer.install(gdprkit)
    ctx = setup(args.workload, args.seed, work)
    if tracer is not None:
        tracer.uninstall()
    setup_wall_s = time.monotonic() - args.spawned_at - start_calibration
    calibration = calibrate()

    # Untraced passes are timed; a traced repetition adds one traced pass,
    # which runs first on odd repetitions.  Every pass must write the same
    # predictions.json and report.json.
    if tracer is None:
        names = [f"untraced{i}" for i in range(ROUNDS[args.workload])]
    else:
        names = ["untraced", "traced"][:: -1 if args.rep % 2 else 1]
    setup_factor = 2 * CAL_REF_S / (start_calibration + calibration)
    out = {"setup_s": setup_wall_s * setup_factor, "setup_wall_s": setup_wall_s,
           "shape": ctx["shape"], "rounds": [], "attempted": 0, "failed": 0}
    problems: list[str] = []
    for name in names:
        traced = name == "traced"
        if traced:
            tracer.install(sys.modules["gdprkit"])
        result = run_pass(calls(args.workload, ctx, work / name), work / name, tracer if traced else None,
                          calibration)
        calibration = result["calibration"]
        if traced:
            tracer.uninstall()
            traced_pass = result
        problems += check_pass(result)
        digests = artifact_digests(result)
        if "digests" not in out:
            out["digests"], out["accuracy"] = digests, accuracy(result)
        elif digests != out["digests"]:
            problems.append(f"{name} pass wrote a different predictions.json or report.json than {names[0]}")
        for label, run in ctx.get("record", {"runs": {}})["runs"].items():
            if (run["out"] / "report.json").read_bytes() != (result["runs"][label]["out"] / "report.json").read_bytes():
                problems.append(f"{label}: replayed report.json differs from the recorded one")
        counts = [run["counts"] for run in result["runs"].values()]
        out["attempted"] += sum(sum(c.values()) for c in counts)
        out["failed"] += sum(c["errored"] + c["skipped"] for c in counts)
        if not traced:
            out["rounds"].append({"task1_s": result["scaled"][1], "task2_s": result["scaled"][2],
                                  "task1_wall_s": result["seconds"][1], "task2_wall_s": result["seconds"][2],
                                  "calibration_s": statistics.fmean(result["calibrations"]),
                                  "instances": sum(sum(c.values()) for c in counts)})
            shutil.rmtree(work / name)

    if tracer is not None:
        rules = json.loads((ROOT / "src" / "gdprkit" / "data" / "rules.json").read_text(encoding="utf-8"))
        layers = layer_metrics(tracer.spans, {"setup": setup_factor, **traced_pass["factors"]},
                               corpus_gen.load_patterns(), {r["id"] for r in rules["rules"]})
        instances = sum(sum(r["counts"].values()) for r in traced_pass["runs"].values())
        layers["knowledge.retrieve_per_instance"] = (
            layers["knowledge.retrieve_calls"] / instances if layers["knowledge.retrieve_calls"] else 0.0
        )
        cache = ctx["paths"].get("cache", work / "traced" / "cache")
        layers["methods.cache_bytes_written"] = cache_bytes(Path(cache))
        untraced_s = out["rounds"][0]["task1_s"] + out["rounds"][0]["task2_s"]
        traced_s = sum(traced_pass["scaled"].values())
        layers["trace.untraced_s"] = untraced_s
        layers["trace.traced_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        # Self times partition the spans of the traced calls, so they sum to
        # the traced wall time less the little that no span covers, and thus
        # to the untraced wall time plus the overhead.
        layers["trace.uncovered_s"] = traced_s - layers["trace.self_sum_s"]
        if not 0 <= layers["trace.uncovered_s"] <= 0.01 * traced_s:
            problems.append(f"per-layer self times do not add up to the traced wall time: "
                            f"{layers['trace.self_sum_s']:.4f} s of {traced_s:.4f} s")
        out["layers"] = layers
        out["not_traced"] = tracer.missing
        if args.spans:
            tracer.write(Path(args.spans))

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["problems"] = problems
    (work / "result.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
