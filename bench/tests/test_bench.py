"""Tests of the benchmark's own code: generator, span arithmetic, correctness gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import worker
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --- generator ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_same_seed_writes_identical_files(tmp_path, name):
    w = workloads.WORKLOADS[name]
    first = workloads.generate(w, 7, tmp_path / "a")
    second = workloads.generate(w, 7, tmp_path / "b")
    assert first == second
    for file in ("taxonomy.json", "train.jsonl", "stream.jsonl", "heldout.jsonl"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    workloads.generate(w, 8, tmp_path / "c")
    assert (tmp_path / "a" / "train.jsonl").read_bytes() != \
        (tmp_path / "c" / "train.jsonl").read_bytes()


def test_generator_realises_the_requested_shape(tmp_path):
    w = replace(workloads.WORKLOADS["dag-multilabel"], train_records=400, stream_records=100,
                heldout_records=50)
    shape = workloads.generate(w, 3, tmp_path)
    children, top = checks.taxonomy_children(tmp_path / "taxonomy.json")
    assert shape["nodes"] == 8 + 8 * 5 + 8 * 5 * 4 + 8 * 5 * 4 * 3 == len(children)
    assert len(top) == 8
    assert shape["internal_nodes"] == 1 + sum(1 for kids in children.values() if kids)
    assert 0.05 < shape["multi_parent_nodes"] / (shape["nodes"] - 8) < 0.3
    records = checks.read_jsonl(tmp_path / "train.jsonl")
    assert len(records) == 400
    two = sum(1 for r in records if len(r["cwe_labels"]) == 2)
    assert 0.15 < two / len(records) < 0.35
    internal_labels = {label for r in records for label in r["cwe_labels"] if children[label]}
    assert internal_labels, "labels must also sit above the leaves"
    assert all(len(r["description"].split()) == w.tokens_per_record for r in records)
    stream = (tmp_path / "stream.jsonl").read_text(encoding="utf-8").splitlines()
    heldout = (tmp_path / "heldout.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(stream) == 100 and heldout == stream[:50]


def test_generator_inflects_and_mixes_in_zipf_filler(tmp_path):
    w = replace(workloads.WORKLOADS["wide-long"], train_records=200, stream_records=10,
                heldout_records=10)
    workloads.generate(w, 1, tmp_path)
    tokens = [t for r in checks.read_jsonl(tmp_path / "train.jsonl")
              for t in r["description"].split()]
    inflected = sum(1 for t in tokens if t.endswith(w.suffixes))
    assert 0.4 < inflected / len(tokens) < 0.8
    counts = sorted(np.unique(tokens, return_counts=True)[1], reverse=True)
    assert counts[0] > 20 * counts[len(counts) // 2], "filler should be heavy-tailed"


# --- spans ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock, cpu_clock=clock)
    leaf = rec.wrap(lambda: clock.advance(2), "leaf")

    def middle():
        clock.advance(1)
        leaf()
        clock.advance(3)
        leaf()

    outer = rec.wrap(rec.wrap(middle, "middle"), "outer")
    outer()
    summary = spans.summarize(rec.spans())
    assert summary["outer"] == {"calls": 1, "busy_s": 8.0, "self_s": 0.0, "wall_s": 8.0,
                                "window_s": 8.0}
    assert summary["middle"] == {"calls": 1, "busy_s": 8.0, "self_s": 4.0, "wall_s": 8.0,
                                 "window_s": 8.0}
    assert summary["leaf"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "wall_s": 4.0,
                               "window_s": 7.0}
    assert spans.root_coverage(rec.spans(), 10.0) == 0.8


def test_spans_on_worker_threads_are_their_own_roots():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock, cpu_clock=clock)
    work = rec.wrap(lambda: clock.advance(5), "work")

    def submit():
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.advance(1)

    rec.wrap(submit, "outer")()
    recorded = rec.spans()
    summary = spans.summarize(recorded)
    assert summary["outer"]["self_s"] == 6.0  # the worker's span is not its child
    assert summary["work"]["self_s"] == 5.0
    assert len(set(recorded.thread.tolist())) == 2
    assert (recorded.parent == -1).all()


def test_busy_time_sums_over_overlapping_threads():
    # Two threads run "work" over the same 5 s of wall time.  Thread 2 spends
    # 2 s of it waiting (CPU 3 s), and its call has a child busy for 1 s.
    recorded = spans.Spans(
        names=["work", "inner"],
        name=np.array([0, 0, 1]),
        start=np.array([0.0, 0.0, 1.0]),
        end=np.array([5.0, 5.0, 3.0]),
        cpu=np.array([5.0, 3.0, 1.0]),
        thread=np.array([1, 2, 2]),
        parent=np.array([-1, -1, 1]),
    )
    summary = spans.summarize(recorded)
    assert summary["work"] == {"calls": 2, "busy_s": 8.0, "self_s": 7.0, "wall_s": 10.0,
                               "window_s": 5.0}
    assert summary["inner"]["self_s"] == 1.0
    assert summary["work"]["busy_s"] / summary["work"]["window_s"] == 1.6
    assert spans.root_coverage(recorded, 10.0) == 0.5


def test_waiting_inside_a_span_is_not_busy_time():
    rec = spans.SpanRecorder()
    rec.wrap(lambda: time.sleep(0.05), "wait")()
    summary = spans.summarize(rec.spans())["wait"]
    assert summary["wall_s"] >= 0.05
    assert summary["busy_s"] < 0.02


def test_union_length_merges_overlaps():
    assert spans.union_length(np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 6.0])) == 4.0
    assert spans.union_length(np.array([]), np.array([])) == 0.0


def test_patch_restores_and_reports_missing_names_as_absent():
    def original(x):
        return x + 1

    module = types.SimpleNamespace(present=original)
    rec = spans.SpanRecorder()
    rec.patch(module, "present", "mod.present", keyed=True)
    rec.patch(module, "gone", "mod.gone")
    assert module.present(1) == 2 and module.present(1) == 2 and module.present(5) == 6
    rec.restore()
    assert module.present is original
    assert rec.absent == ["mod.gone"]
    summary = spans.summarize(rec.spans())
    assert summary["mod.present"]["calls"] == 3
    assert rec.distinct["mod.present"] == {1, 5}


def test_per_layer_reports_absent_layers_as_none():
    names = [name for name, *_ in worker.TARGETS]
    absent = ["netcore.gradient"]
    stats = {"calls": 4, "busy_s": 2.0, "self_s": 1.0, "window_s": 1.0, "distinct": 2}
    command = {"layers": {n: dict(stats) for n in names if n not in absent},
               "absent": absent, "coverage": 0.9, "wall_s": 3.0}
    cycle = {"commands": {"train": command, "classify": command, "eval": command,
                          "untraced_train": {"wall_s": 2.0}},
             "verify": {"dictionary_size": 10}, "model_bytes": 100, "model_files": 3}
    metrics = run.per_layer(cycle)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["netcore.gradient_s"] is None
    assert metrics["netcore.minibatches"] is None
    assert metrics["netcore.batch_loss_s"] == 6.0
    assert metrics["textprep.redundant_frac"] == 0.5
    assert metrics["trace.overhead_frac"] == 0.5


# --- correctness gate -----------------------------------------------------

CHILDREN = {"CWE-1": {"CWE-3", "CWE-4"}, "CWE-2": set(), "CWE-3": {"CWE-5"},
            "CWE-4": set(), "CWE-5": set()}
TOP = {"CWE-1", "CWE-2"}


def _row(cve, paths):
    return {"id": cve, "candidates": [{"cwe": c, "score": 0.9} for p in paths for c in p],
            "paths": paths, "mode": "threshold:0.75"}


def _good_rows():
    return [_row("CVE-2021-0001", [["CWE-1", "CWE-3", "CWE-5"]]),
            _row("CVE-2021-0002", [["CWE-1", "CWE-4"], ["CWE-2"]]),
            _row("CVE-2021-0003", [])]


IDS = ["CVE-2021-0001", "CVE-2021-0002", "CVE-2021-0003"]


def test_gate_accepts_well_formed_predictions():
    assert checks.check_predictions(_good_rows(), IDS, CHILDREN, TOP) == []


def test_gate_rejects_dropped_and_duplicated_records():
    rows = _good_rows()
    assert checks.check_predictions(rows[:-1], IDS, CHILDREN, TOP)
    assert checks.check_predictions(rows + rows[:1], IDS, CHILDREN, TOP)
    assert checks.check_predictions(rows + [_row("CVE-2021-0009", [])], IDS, CHILDREN, TOP)


def test_gate_rejects_a_path_that_skips_a_level():
    rows = _good_rows()
    rows[0] = _row("CVE-2021-0001", [["CWE-1", "CWE-5"]])
    assert checks.check_predictions(rows, IDS, CHILDREN, TOP)


def test_gate_rejects_a_path_not_starting_at_a_root_child():
    rows = _good_rows()
    rows[0] = _row("CVE-2021-0001", [["CWE-3", "CWE-5"]])
    assert checks.check_predictions(rows, IDS, CHILDREN, TOP)


def test_gate_rejects_a_candidate_off_every_path():
    rows = _good_rows()
    rows[2]["candidates"] = [{"cwe": "CWE-4", "score": 0.8}]
    assert checks.check_predictions(rows, IDS, CHILDREN, TOP)


def test_gate_reads_a_corrupted_predictions_file(tmp_path):
    path = tmp_path / "predictions.jsonl"
    rows = _good_rows()
    rows[1]["paths"] = [["CWE-1", "CWE-5"]]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows[1:]), encoding="utf-8")
    problems = checks.check_predictions(checks.read_jsonl(path), IDS, CHILDREN, TOP)
    assert len(problems) >= 3  # dropped record, skipped level, off-path candidates


# --- the command ----------------------------------------------------------

def test_benchmark_json_matches_the_metrics_the_command_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {m: run.END_TO_END_UNITS[m] for m in run.GATED_END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
