"""End-to-end benchmark of the cwemap CLI on generated workloads.

Usage, from the repository root:

    python3 bench/run.py --workload deep-short --seed 1 --seconds 42 --trace 0

``--workload all`` runs every workload in turn, and ``python3 -m pytest
bench/tests`` tests the benchmark's own code.

One cycle is a closed-loop batch job, one fresh interpreter per command, as
users run the program:

1. ``cwemap train`` at the workload's fixed epoch count (below the plateau
   patience, so every node trains the same number of epochs) with
   ``--jobs`` equal to the usable cores;
2. ``cwemap classify --corpus`` on the held-out stream;
3. ``cwemap eval`` on a prefix of that stream;
4. timed ``modelstore.load`` calls, the first of which also checks the model
   fingerprint and re-evaluates the predictions of the prefix.

Cycles repeat while the next one fits in ``--seconds`` (at least one runs);
each timing is the median over its samples.  With ``--trace 1`` the commands
run under the span recorder and the run reports per-layer numbers instead,
plus one untraced training per cycle to measure the tracing overhead.

Every cycle checks the outputs (see ``checks.py``).  The last line printed
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a JSON report with the environment, the realised workload shape, the model
fingerprint and the sha256 of the predictions file.  An operation is one
record through one command; a command that exits non-zero fails all of its
records, and so do the commands it leaves unrun.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
WORK_DIR = ROOT / ".bench_work"

LOADS_PER_CYCLE = 4
RUN_LIMIT_S = 170.0
MAX_PROBLEMS_SHOWN = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "classify_rps": "1/s",
    "eval_s": "s",
    "fine_acc": "ratio",
    "coarse_acc": "ratio",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
# failed_frac is 0 on a correct program; the result line carries it as
# ``attempted``/``failed``, so it is printed but not a gated metric.
GATED_END_TO_END = [m for m in END_TO_END_UNITS if m != "failed_frac"]

PER_LAYER_UNITS = {
    "ingest.load_cve_corpus_s": "s",
    "ingest.load_taxonomy_s": "s",
    "textprep.preprocess_s": "s",
    "textprep.preprocess_calls": "count",
    "textprep.redundant_frac": "ratio",
    "stemmer.stem_s": "s",
    "stemmer.stem_calls": "count",
    "stemmer.distinct_frac": "ratio",
    "features.build_dictionary_s": "s",
    "features.encode_s": "s",
    "features.encode_calls": "count",
    "features.dictionary_size": "count",
    "scoring.init_weights_s": "s",
    "scoring.init_weights_calls": "count",
    "hierarchy.build_class_documents_s": "s",
    "hierarchy.assemble_training_sets_s": "s",
    "hierarchy.classify_s": "s",
    "hierarchy.classify_calls": "count",
    "hierarchy.nodes_scored_per_record": "nodes/record",
    "netcore.gradient_s": "s",
    "netcore.batch_loss_s": "s",
    "netcore.minibatches": "count",
    "netcore.adam_step_s": "s",
    "netcore.train_node_s": "s",
    "netcore.train_node_overlap": "ratio",
    "netcore.forward_scores_s": "s",
    "netcore.forward_scores_calls": "count",
    "modelstore.save_s": "s",
    "modelstore.load_s": "s",
    "modelstore.weight_bytes": "bytes",
    "modelstore.files": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.evaluate_calls": "count",
    "trace.coverage.train": "ratio",
    "trace.coverage.classify": "ratio",
    "trace.coverage.eval": "ratio",
    "trace.overhead_frac": "ratio",
}

_FINGERPRINT_RE = re.compile(r"fingerprint ([0-9a-f]{12})")


class Run:
    """One workload at one seed: generated inputs, a work directory and a deadline."""

    def __init__(self, workload: workloads.Workload, seed: int, trace: bool, work: Path):
        self.workload = workload
        self.trace = trace
        self.work = work
        self.data = work / "data"
        self.shape = workloads.generate(workload, seed, self.data)
        self.stream_ids = [row["id"] for row in checks.read_jsonl(self.data / "stream.jsonl")]
        self.children, self.top = checks.taxonomy_children(self.data / "taxonomy.json")
        self.jobs = len(os.sched_getaffinity(0))
        self.started = time.perf_counter()

    def child(self, request: dict, log: Path) -> dict | None:
        """Run the worker to completion; its result, or None when it failed."""
        result_path = log.with_suffix(".json")
        request = dict(request, src=str(SRC), result=str(result_path))
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with log.open("w", encoding="utf-8") as out:
            try:
                done = subprocess.run([sys.executable, str(WORKER), json.dumps(request)],
                                      stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                                      timeout=timeout, check=False)
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                return None
        if done.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def command(self, argv: list[str], log: Path, trace: bool) -> dict | None:
        """Run one CLI command; None when it did not exit with 0."""
        result = self.child({"action": "cli", "argv": argv, "trace": trace}, log)
        if result is None or result["exit_code"] != 0:
            return None
        result["stdout"] = log.read_text(encoding="utf-8")
        return result

    def cycle(self, index: int) -> dict:
        w, data = self.workload, self.data
        d = self.work / f"cycle{index}"
        d.mkdir()
        model, predictions, report = d / "model", d / "predictions.jsonl", d / "report"
        stream, heldout = str(data / "stream.jsonl"), str(data / "heldout.jsonl")
        train_argv = ["train", "--corpus", str(data / "train.jsonl"),
                      "--taxonomy", str(data / "taxonomy.json"),
                      "--max-epochs", str(w.epochs), "--jobs", str(self.jobs), "--model"]
        steps = [
            ("train", train_argv + [str(model)], w.train_records),
            ("classify", ["classify", "--model", str(model), "--corpus", stream,
                          "--out", str(predictions)], w.stream_records),
            ("eval", ["eval", "--model", str(model), "--corpus", heldout,
                      "--out", str(report)], w.heldout_records),
        ]
        if self.trace:
            steps.insert(0, ("untraced_train", train_argv + [str(d / "untraced-model")],
                             w.train_records))
        out = {"attempted": sum(n for *_, n in steps), "failed": 0, "problems": [],
               "commands": {}}
        for position, (name, argv, records) in enumerate(steps):
            traced = self.trace and name != "untraced_train"
            result = self.command(argv, d / f"{name}.log", traced)
            if result is None:
                out["failed"] = sum(n for *_, n in steps[position:])
                out["problems"].append(f"{name} did not exit with 0 (see {d / name}.log)")
                return out
            out["commands"][name] = result

        loads = 1 if self.trace else LOADS_PER_CYCLE
        verify = {"predictions": str(predictions), "corpus": heldout}
        out["load_s"] = []
        for k in range(loads):
            request = {"action": "load", "model": str(model), "verify": verify if k == 0 else None}
            result = self.child(request, d / f"load{k}.log")
            if result is None:
                out["problems"].append(f"model load failed (see {d / f'load{k}.log'})")
                return out
            out["load_s"].append(result["load_s"])
            if k == 0:
                out["verify"] = result
        out["report"] = json.loads((report / "report.json").read_text(encoding="utf-8"))
        out["predictions_sha256"] = hashlib.sha256(predictions.read_bytes()).hexdigest()
        out["problems"] += self.check(out, predictions)
        if self.trace:
            out["model_bytes"] = sum(p.stat().st_size for p in model.rglob("*") if p.is_file())
            out["model_files"] = sum(1 for p in model.rglob("*") if p.is_file())
        return out

    def check(self, out: dict, predictions: Path) -> list[str]:
        problems = checks.check_predictions(checks.read_jsonl(predictions), self.stream_ids,
                                            self.children, self.top)
        verify = out["verify"]
        for name in out["commands"]:
            if "train" not in name:
                continue
            printed = _FINGERPRINT_RE.search(out["commands"][name]["stdout"])
            if printed is None or not verify["fingerprint"].startswith(printed.group(1)):
                problems.append(f"{name}: printed fingerprint does not match the loaded model")
        for mode in ("fine", "coarse"):
            if out["report"][mode]["accuracy"] != verify[f"{mode}_acc"]:
                problems.append(f"eval {mode} accuracy {out['report'][mode]['accuracy']} != "
                                f"evaluate() over the predictions file {verify[f'{mode}_acc']}")
        return problems


def end_to_end_samples(cycles: list[dict], workload: workloads.Workload) -> dict:
    """Every sample of each end-to-end metric; the metric is their median."""
    commands = [c["commands"] for c in cycles]
    return {
        "setup_s": [t for c in cycles for t in c["load_s"]],
        "train_s": [c["train"]["wall_s"] for c in commands],
        "classify_rps": [workload.stream_records / c["classify"]["wall_s"] for c in commands],
        "eval_s": [c["eval"]["wall_s"] for c in commands],
        "fine_acc": [c["report"]["fine"]["accuracy"] for c in cycles],
        "coarse_acc": [c["report"]["coarse"]["accuracy"] for c in cycles],
        "peak_rss_mb": [max(c[n]["peak_rss_mb"] for n in ("train", "classify", "eval"))
                        for c in commands],
    }


def per_layer(cycle: dict) -> dict:
    """Per-layer numbers of one traced cycle, summed over its three commands.

    A layer whose wrapped function no longer exists is None, never 0.
    """
    traced = {n: cycle["commands"][n] for n in ("train", "classify", "eval")}
    absent = {name for r in traced.values() for name in r["absent"]}

    def total(name: str, field: str = "busy_s"):
        if name in absent:
            return None
        return sum(r["layers"][name][field] for r in traced.values())

    def ratio(a, b):
        return None if a is None or b is None or b == 0 else a / b

    pre, stem = "textprep.preprocess", "stemmer.stem"
    pre_calls, stem_calls = total(pre, "calls"), total(stem, "calls")
    pre_distinct = total(pre, "distinct")
    train_node = None if "netcore.train_node" in absent else \
        traced["train"]["layers"]["netcore.train_node"]
    untraced = cycle["commands"]["untraced_train"]["wall_s"]
    return {
        "ingest.load_cve_corpus_s": total("ingest.load_cve_corpus"),
        "ingest.load_taxonomy_s": total("ingest.load_taxonomy"),
        "textprep.preprocess_s": total(pre, "self_s"),
        "textprep.preprocess_calls": pre_calls,
        "textprep.redundant_frac": ratio(None if pre_calls is None else pre_calls - pre_distinct,
                                         pre_calls),
        "stemmer.stem_s": total(stem),
        "stemmer.stem_calls": stem_calls,
        "stemmer.distinct_frac": ratio(total(stem, "distinct"), stem_calls),
        "features.build_dictionary_s": total("features.build_dictionary"),
        "features.encode_s": total("features.encode"),
        "features.encode_calls": total("features.encode", "calls"),
        "features.dictionary_size": cycle["verify"]["dictionary_size"],
        "scoring.init_weights_s": total("scoring.init_weights"),
        "scoring.init_weights_calls": total("scoring.init_weights", "calls"),
        "hierarchy.build_class_documents_s": total("hierarchy.build_class_documents", "self_s"),
        "hierarchy.assemble_training_sets_s": total("hierarchy.assemble_training_sets", "self_s"),
        "hierarchy.classify_s": total("hierarchy.classify", "self_s"),
        "hierarchy.classify_calls": total("hierarchy.classify", "calls"),
        "hierarchy.nodes_scored_per_record": ratio(total("netcore.forward_scores", "calls"),
                                                   total("hierarchy.classify", "calls")),
        "netcore.gradient_s": total("netcore.gradient"),
        "netcore.batch_loss_s": total("netcore.batch_loss"),
        "netcore.minibatches": total("netcore.gradient", "calls"),
        "netcore.adam_step_s": total("netcore.adam_step"),
        "netcore.train_node_s": total("netcore.train_node", "self_s"),
        "netcore.train_node_overlap": None if train_node is None else
            ratio(train_node["busy_s"], train_node["window_s"]),
        "netcore.forward_scores_s": total("netcore.forward_scores"),
        "netcore.forward_scores_calls": total("netcore.forward_scores", "calls"),
        "modelstore.save_s": total("modelstore.save"),
        "modelstore.load_s": total("modelstore.load"),
        # Bytes and files of the whole saved model directory (weights dominate).
        "modelstore.weight_bytes": cycle["model_bytes"],
        "modelstore.files": cycle["model_files"],
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.evaluate_calls": total("evaluation.evaluate", "calls"),
        "trace.coverage.train": traced["train"]["coverage"],
        "trace.coverage.classify": traced["classify"]["coverage"],
        "trace.coverage.eval": traced["eval"]["coverage"],
        "trace.overhead_frac": traced["train"]["wall_s"] / untraced - 1.0,
    }


def _median_or_none(values: list):
    return None if any(v is None for v in values) else statistics.median(values)


def run_workload(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, seed, trace, work)
        deadline = run.started + seconds
        cycles = []
        while True:
            began = time.perf_counter()
            cycles.append(run.cycle(len(cycles)))
            if cycles[-1]["failed"] or cycles[-1]["problems"]:
                break
            now = time.perf_counter()
            if now + (now - began) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for c in cycles for p in c["problems"]]
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    complete = [c for c in cycles if not c["failed"] and "verify" in c]
    fingerprints = {c["verify"]["fingerprint"] for c in complete}
    digests = {c["predictions_sha256"] for c in complete}
    if len(fingerprints) > 1 or len(digests) > 1:
        problems.append("repeated cycles gave different models or predictions")

    samples: dict = {}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if not problems:
        if trace:
            layers = [per_layer(c) for c in cycles]
            samples = {name: [m[name] for m in layers] for name in units}
        else:
            samples = end_to_end_samples(cycles, workload)
    metrics = {name: _median_or_none(values) for name, values in samples.items()}
    if not trace:
        metrics["failed_frac"] = failed / attempted
    last = complete[-1]["verify"] if complete else {}
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "jobs": run.jobs,
        },
        "shape": {**asdict(workload), **run.shape, "dictionary_size": last.get("dictionary_size")},
        "cycles": len(cycles),
        "model_fingerprint": last.get("fingerprint"),
        "predictions_sha256": complete[-1]["predictions_sha256"] if complete else None,
        "problem_count": len(problems),
        "problems": problems[:MAX_PROBLEMS_SHOWN],
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
        "samples": samples,
    }
    return {"report": report, "correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_table(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['cycles']} cycles, "
          f"{'traced' if report['trace'] else 'untraced'})")
    for name, entry in report["metrics"].items():
        value = entry["value"]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {entry['unit']}")
    print(f"  model fingerprint  {report['model_fingerprint']}")
    print(f"  predictions sha256 {report['predictions_sha256']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if report["problem_count"] > len(report["problems"]):
        print(f"  ... {report['problem_count'] - len(report['problems'])} more failed checks")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name.split(":")[-1]]}
                    for name, value in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cwemap" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'cwemap'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    units = PER_LAYER_UNITS if trace else {m: END_TO_END_UNITS[m] for m in GATED_END_TO_END}
    results = []
    for name in names:
        result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, trace)
        _print_table(result["report"])
        print(json.dumps(result["report"]))
        results.append((name, result))

    correct = all(r["correct"] for _, r in results)
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    prefix = len(results) > 1
    metrics = {(f"{name}:{m}" if prefix else m): v
               for name, r in results for m, v in r["metrics"].items() if m in units}
    print(_result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
