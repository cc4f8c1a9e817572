"""Record-at-a-time classification: the reference for the batched descent.

This is the descent ``cwemap.hierarchy.classify`` ran before it scored a
batch of records per node: one breadth-first walk per text, one
``forward_logits`` per (record, node) pair, and one-shot selection for the
flat baseline.  Tests compare the batched path against it.
"""

from __future__ import annotations

import numpy as np

from cwemap.errors import ValidationError
from cwemap.hierarchy import (
    FlatModel,
    Prediction,
    TwoLayerModel,
    _maximal_paths,
    encode_text,
    threshold,
)
from cwemap.netcore import sigmoid, two_layer_logits


def forward_logits(weights, fv):
    """Sum of the weight rows selected by the on-bits."""
    if not fv.on_positions:
        return np.zeros(weights.shape[1], dtype=np.float64)
    return weights[list(fv.on_positions)].sum(axis=0)


def node_scores(model, node_id, fv):
    clf = model.classifiers.get(node_id)
    if clf is None:
        return None
    if isinstance(model, TwoLayerModel):
        return clf.child_ids, sigmoid(two_layer_logits(clf, fv))
    return clf.child_ids, sigmoid(forward_logits(clf.weights, fv))


def select(mode, child_ids, scores):
    if mode.kind == "threshold":
        return [c for c, s in zip(child_ids, scores) if s >= mode.tau]
    ranked = sorted(zip(child_ids, scores), key=lambda cs: (-cs[1], cs[0]))
    return [c for c, _ in ranked[: mode.k]]


def descend(model, fv, mode):
    """Top-down frontier walk; scores each selected node once."""
    taxonomy = model.taxonomy
    selected: set[str] = set()
    scores: dict[str, float] = {}
    truncated: set[str] = set()
    queue = [taxonomy.root_id]
    visited: set[str] = set()
    while queue:
        node_id = queue.pop(0)
        if node_id in visited:
            continue
        visited.add(node_id)
        if not taxonomy.children.get(node_id, ()):
            continue
        result = node_scores(model, node_id, fv)
        if result is None:
            truncated.add(node_id)
            continue
        child_ids, child_scores = result
        for child, score in zip(child_ids, child_scores):
            scores[child] = max(scores.get(child, 0.0), float(score))
        for child in select(mode, child_ids, child_scores):
            selected.add(child)
            queue.append(child)
    return selected, scores, truncated


def classify_one(model, text, mode=None, cve_id=""):
    """One record through the hierarchy, or one-shot for the flat baseline."""
    if not text.strip():
        raise ValidationError("empty description")
    if mode is None:
        mode = threshold(model.config.decision_threshold)
    fv = encode_text(model, text)
    if isinstance(model, FlatModel):
        raw = sigmoid(forward_logits(model.classifier.weights, fv))
        selected = set(select(mode, model.classifier.child_ids, raw))
        scores = {c: float(s) for c, s in zip(model.classifier.child_ids, raw)}
        truncated: set[str] = set()
    else:
        selected, scores, truncated = descend(model, fv, mode)
    paths = _maximal_paths(model.taxonomy, selected)
    return Prediction(
        cve_id=cve_id,
        candidates=frozenset(node for path in paths for node in path),
        paths=paths,
        scores=scores,
        mode=mode.label(),
        truncated=frozenset(truncated),
    )
