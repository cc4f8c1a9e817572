"""Fine-grain and coarse-grain evaluation of predictions.

An instance is fine-grain correct when one of its labels has a full
root-to-label path covered by a predicted path (predictions may continue
deeper); it is coarse-grain correct when any reported candidate lies on a
root-to-label path.  Accuracy is correct/total; recall and precision are
macro-averages over label classes (micro variants are reported as
supplementary numbers).  When an instance is incorrect, one false positive
is charged to the deepest predicted candidate.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .hierarchy import Prediction, resolve_labels
from .ingest import CveRecord, Taxonomy, paths_to_root, read_input_lines
from .jsonread import Optional, parse

logger = logging.getLogger(__name__)

MODES = ("fine", "coarse")


@dataclass
class ClassTally:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class EvalReport:
    mode: str
    accuracy: float
    error: float
    recall: float
    precision: float
    f1: float
    per_class: dict[str, ClassTally]
    n_instances: int
    deeper_than_label_fraction: float
    micro_recall: float = 0.0
    micro_precision: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "accuracy": self.accuracy,
            "error": self.error,
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
            "n_instances": self.n_instances,
            "deeper_than_label_fraction": self.deeper_than_label_fraction,
            "micro_recall": self.micro_recall,
            "micro_precision": self.micro_precision,
            "per_class": {
                c: {"tp": t.tp, "fp": t.fp, "fn": t.fn} for c, t in sorted(self.per_class.items())
            },
        }


def _label_correct(pred: Prediction, label: str, taxonomy: Taxonomy, mode: str) -> bool:
    if mode == "fine":
        for full_path in paths_to_root(taxonomy, label):
            for predicted in pred.paths:
                if len(predicted) >= len(full_path) and predicted[: len(full_path)] == full_path:
                    return True
        return False
    if mode == "coarse":
        if not pred.candidates:
            return False
        on_label_path = taxonomy.ancestors(label) | {label}
        return bool(pred.candidates & on_label_path)
    raise ValidationError(f"unknown evaluation mode {mode!r}")


def evaluate(
    predictions: list[Prediction],
    test_set: list[CveRecord],
    taxonomy: Taxonomy,
    mode: str,
) -> EvalReport:
    """Aggregate metrics over a prediction stream matched to labeled records.

    Records without resolvable labels are skipped with a warning; an empty
    effective test set is an error.  Metrics are invariant under
    permutation of the input.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown evaluation mode {mode!r}")
    if not test_set:
        raise ValidationError("empty test set")
    by_id = {p.cve_id: p for p in predictions}
    per_class: dict[str, ClassTally] = {}
    n = 0
    n_correct = 0
    n_deeper = 0
    for record, resolved in zip(test_set, resolve_labels(test_set, taxonomy)):
        labels = sorted(resolved)
        if not labels:
            logger.warning("%s: no resolvable labels, record skipped", record.id)
            continue
        pred = by_id.get(record.id)
        if pred is None:
            raise ValidationError(f"no prediction for test record {record.id}")
        n += 1
        satisfied = [l for l in labels if _label_correct(pred, l, taxonomy, mode)]
        for label in labels:
            tally = per_class.setdefault(label, ClassTally())
            if label in satisfied:
                tally.tp += 1
            else:
                tally.fn += 1
        if satisfied:
            n_correct += 1
            if _predicts_deeper(pred, satisfied, taxonomy):
                n_deeper += 1
        else:
            deepest = pred.deepest_candidate()
            if deepest is not None:
                per_class.setdefault(deepest, ClassTally()).fp += 1
    if n == 0:
        raise ValidationError("no test records with resolvable labels")

    labeled_classes = [c for c, t in per_class.items() if t.tp + t.fn > 0]
    recalls = [per_class[c].tp / (per_class[c].tp + per_class[c].fn) for c in labeled_classes]
    precisions = []
    for c in labeled_classes:
        t = per_class[c]
        precisions.append(t.tp / (t.tp + t.fp) if t.tp + t.fp > 0 else 0.0)
    recall = float(np.mean(recalls)) if recalls else 0.0
    precision = float(np.mean(precisions)) if precisions else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    tp_total = sum(t.tp for t in per_class.values())
    fn_total = sum(t.fn for t in per_class.values())
    fp_total = sum(t.fp for t in per_class.values())
    micro_recall = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
    micro_precision = tp_total / (tp_total + fp_total) if tp_total + fp_total else 0.0

    accuracy = n_correct / n
    return EvalReport(
        mode=mode,
        accuracy=accuracy,
        error=1.0 - accuracy,
        recall=recall,
        precision=precision,
        f1=f1,
        per_class=per_class,
        n_instances=n,
        deeper_than_label_fraction=(n_deeper / n_correct) if n_correct else 0.0,
        micro_recall=micro_recall,
        micro_precision=micro_precision,
    )


def _predicts_deeper(pred: Prediction, satisfied: list[str], taxonomy: Taxonomy) -> bool:
    """True when some candidate is a strict descendant of a satisfied label."""
    for label in satisfied:
        descendants = taxonomy.descendants(label)
        if pred.candidates & descendants:
            return True
    return False


def split_corpus(
    records: list[CveRecord], train_fraction: float, seed: int
) -> tuple[list[CveRecord], list[CveRecord]]:
    """Deterministic seeded train/test partition."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must lie in (0, 1)")
    if seed < 0:
        raise ValidationError("the split seed must be non-negative")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_train = int(round(len(records) * train_fraction))
    train = [records[i] for i in sorted(order[:n_train])]
    test = [records[i] for i in sorted(order[n_train:])]
    return train, test


_TABLE_ROWS = (
    ("Accuracy", "accuracy"),
    ("Error rate", "error"),
    ("Recall", "recall"),
    ("Precision", "precision"),
    ("F1-score", "f1"),
)


def format_report_table(fine: EvalReport, coarse: EvalReport) -> str:
    """Fixed-order metric table with fine-grain and coarse-grain columns."""
    lines = [f"{'Metric':<12} {'fine-grain':>12} {'coarse-grain':>14}"]
    for title, attr in _TABLE_ROWS:
        lines.append(f"{title:<12} {getattr(fine, attr):>12.4f} {getattr(coarse, attr):>14.4f}")
    return "\n".join(lines)


def write_report(fine: EvalReport, coarse: EvalReport, json_path: str | Path,
                 text_path: str | Path | None = None) -> None:
    doc = {"fine": fine.to_json_dict(), "coarse": coarse.to_json_dict()}
    Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if text_path is not None:
        Path(text_path).write_text(format_report_table(fine, coarse) + "\n", encoding="utf-8")


#: One line of the classify output (``Prediction.to_json_dict``).
PREDICTION = {
    "id": Optional(str, ""),
    "candidates": Optional([{"cwe": str, "score": Optional(float, 0.0)}], []),
    "paths": Optional([[str]], []),
    "mode": Optional(str, ""),
}


def load_predictions(path: str | Path) -> list[Prediction]:
    """Read a predictions JSONL file written by the CLI classify command.

    A line that is not a ``PREDICTION`` raises FormatError naming the path
    and line.
    """
    path = Path(path)
    out = []
    for lineno, line in read_input_lines(path):
        if not line.strip():
            continue
        row = parse(line, PREDICTION, path, lineno)
        scores = {c["cwe"]: c["score"] for c in row["candidates"]}
        out.append(Prediction(row["id"], frozenset(scores), tuple(map(tuple, row["paths"])),
                              scores, row["mode"]))
    return out
