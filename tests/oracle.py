"""Reference implementations the tests compare the program against.

* The record-at-a-time descent ``cwemap.hierarchy.classify`` ran before it
  scored a batch of records per node: one breadth-first walk per text, one
  forward pass per (record, node) pair, and one-shot selection for the
  flat baseline.
* The per-example two-layer forward pass, the scalar TF-IDF formulas, and
  the per-prediction correctness rule of the evaluation.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from cwemap.errors import ConfigurationError, ValidationError
from cwemap.evaluation import _label_correct
from cwemap.hierarchy import Prediction, _maximal_paths, encode_text, threshold
from cwemap.netcore import _bce_terms, sigmoid

logger = logging.getLogger(__name__)


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy over classes, stable for large |logit|."""
    return float(_bce_terms(np.asarray(logits, float), np.asarray(targets, float)).mean())


def two_layer_logits(clf, fv):
    """One record through a two-layer scorer: sigmoid hidden layer, then ``w_out``."""
    if fv.on_positions:
        pre = clf.w_hidden[list(fv.on_positions)].sum(axis=0)
    else:
        pre = np.zeros(clf.w_hidden.shape[1], dtype=np.float64)
    return sigmoid(pre) @ clf.w_out


def term_frequency(term, doc):
    """Augmented TF in [0, 1]; 0 when the term is absent from the document."""
    count = doc.term_counts.get(term, 0)
    if count == 0:
        return 0.0
    return 0.5 + 0.5 * count / doc.max_count


def inverse_document_frequency(term, docs):
    """log10(M / (1 + df)) over the document list, 0 when df = M."""
    if not docs:
        raise ConfigurationError("document list must be non-empty")
    m = len(docs)
    df = sum(1 for doc in docs if term in doc)
    if df >= m:
        return 0.0
    return math.log10(m / (1 + df))


def tfidf(term, doc, docs):
    return term_frequency(term, doc) * inverse_document_frequency(term, docs)


def is_correct(pred, labels, taxonomy, mode):
    """Whether the prediction satisfies the mode's rule for any label."""
    resolvable = [label for label in labels if label in taxonomy]
    for label in labels:
        if label not in taxonomy:
            logger.warning("%s: label %s not in taxonomy, skipped", pred.cve_id, label)
    if not resolvable:
        raise ValidationError(f"{pred.cve_id}: no labels resolvable in the taxonomy")
    return any(_label_correct(pred, label, taxonomy, mode) for label in resolvable)


def forward_logits(weights, fv):
    """Sum of the weight rows selected by the on-bits."""
    if not fv.on_positions:
        return np.zeros(weights.shape[1], dtype=np.float64)
    return weights[list(fv.on_positions)].sum(axis=0)


def node_scores(model, node_id, fv):
    clf = model.classifiers.get(node_id)
    if clf is None:
        return None
    if model.kind == "two-layer":
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
    if model.kind == "flat":
        flat = model.classifiers[model.taxonomy.root_id]
        raw = sigmoid(forward_logits(flat.weights, fv))
        selected = set(select(mode, flat.child_ids, raw))
        scores = {c: float(s) for c, s in zip(flat.child_ids, raw)}
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
