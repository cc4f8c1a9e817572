"""Per-node classifiers: forward pass, loss, gradients, Adam, training.

A node classifier is a bias-free single-layer network: one output neuron
per child class, each fully connected to the binary feature vector.  The
logit for class i is the sparse dot product of the feature vector with
weight column i; a sigmoid turns it into an independent per-class score
(multi-label, classes are not mutually exclusive).  Training minimizes
mean binary cross-entropy computed in the numerically stable logit form.

Training packs a node's examples once into a CSR batch (the on-positions
of all rows back to back, row offsets, and a targets matrix), and each
minibatch is a vectorized row gather from it.  ``loss_and_gradient``
computes the minibatch logits in one pass and derives both the loss and
the gradient from them.  Inference scores a batch of records the same way
(``forward_scores``).  Both accumulate with ``np.add.at`` in row order: the
order in which ``weights[rows].sum(axis=0)`` adds the rows of one record
for two or more children, so the weights match per-example training bit
for bit.  A BLAS product would reorder the sums and move the weights by
ulps.  (For a single child NumPy sums a one-column slice pairwise, so a
record-at-a-time sum there can differ from the batch in the last bit.)

A two-layer variant (one sigmoid hidden layer) backs the over-fitting
baseline; it shares the loss, the Adam update, and the training loop
structure.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TrainingError
from .features import FeatureVector

LOSS_PLATEAU_DELTA = 1e-5


@dataclass
class TrainConfig:
    """Optimization and inference settings shared across the model."""

    learning_rate: float = 0.02
    max_epochs: int = 500
    batch_size: int = 32
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    decision_threshold: float = 0.75
    early_stop_patience: int = 20
    seed: int = 0
    weight_init: str = "tfidf"
    min_term_count: int = 3

    def __post_init__(self):
        if not 0.0 < self.adam_beta1 < 1.0 or not 0.0 < self.adam_beta2 < 1.0:
            raise ConfigurationError("adam betas must lie in (0, 1)")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ConfigurationError("decision_threshold must lie in (0, 1)")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ConfigurationError("learning_rate must be positive and finite")
        if not math.isfinite(self.adam_epsilon) or self.adam_epsilon <= 0.0:
            raise ConfigurationError("adam_epsilon must be positive and finite")
        if self.max_epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("bad epoch/batch settings")
        if self.weight_init not in ("tfidf", "random"):
            raise ConfigurationError(f"unknown weight_init {self.weight_init!r}")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "max_epochs": self.max_epochs,
            "batch_size": self.batch_size,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_epsilon": self.adam_epsilon,
            "decision_threshold": self.decision_threshold,
            "early_stop_patience": self.early_stop_patience,
            "seed": self.seed,
            "weight_init": self.weight_init,
            "min_term_count": self.min_term_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class NodeClassifier:
    """Single-layer, bias-free classifier over one node's children."""

    node_id: str
    child_ids: tuple[str, ...]
    weights: np.ndarray  # shape (D, C), float64
    dictionary_fingerprint: str = ""

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] != len(self.child_ids):
            raise ConfigurationError(
                f"{self.node_id}: weights shape {self.weights.shape} does not match "
                f"{len(self.child_ids)} children"
            )


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros_like(cls, weights: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(weights), np.zeros_like(weights), 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_dimension(clf: "TwoLayerClassifier", fv: FeatureVector) -> None:
    d = clf.w_hidden.shape[0]
    if fv.dimension != d:
        raise ConfigurationError(
            f"{clf.node_id}: feature dimension {fv.dimension} != weight rows {d}"
        )


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy over classes, stable for large |logit|."""
    x = np.asarray(logits, dtype=np.float64)
    z = np.asarray(targets, dtype=np.float64)
    if x.shape != z.shape:
        raise ConfigurationError(f"logits shape {x.shape} != targets shape {z.shape}")
    return float(_bce_terms(x, z).mean())


def _bce_terms(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))


Example = tuple[FeatureVector, np.ndarray]


@dataclass(frozen=True)
class CsrBatch:
    """Feature vectors of one dimension in compressed-sparse-row form.

    Row r's on-positions are ``positions[offsets[r]:offsets[r + 1]]`` and
    its multi-hot targets are ``targets[r]``; a batch packed for inference
    has no targets (``targets`` is ``(n, 0)``).
    """

    positions: np.ndarray  # (nnz,) int64 feature positions, row after row
    offsets: np.ndarray  # (n + 1,) int64 row starts into positions
    targets: np.ndarray  # (n, C) float64
    dimension: int  # length of every packed feature vector

    @classmethod
    def from_features(
        cls, features: list[FeatureVector], dimension: int, node_id: str = ""
    ) -> "CsrBatch":
        """Pack feature vectors without targets, checking their dimension."""
        return cls.from_examples([(fv, ()) for fv in features], dimension, 0, node_id)

    @classmethod
    def from_examples(
        cls, examples: list[Example], dimension: int, n_classes: int, node_id: str = ""
    ) -> "CsrBatch":
        """Pack (feature vector, targets) pairs, checking their sizes."""
        for fv, targets in examples:
            if fv.dimension != dimension:
                raise ConfigurationError(
                    f"{node_id}: feature dimension {fv.dimension} != weight rows {dimension}"
                )
            if len(targets) != n_classes:
                raise ConfigurationError(
                    f"{node_id}: target length {len(targets)} != {n_classes}"
                )
        n = len(examples)
        offsets = np.zeros(n + 1, dtype=np.int64)
        lengths = np.fromiter((len(fv.on_positions) for fv, _ in examples), np.int64, count=n)
        np.cumsum(lengths, out=offsets[1:])
        positions = np.fromiter(
            itertools.chain.from_iterable(fv.on_positions for fv, _ in examples),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
        targets = np.array([z for _, z in examples], dtype=np.float64).reshape(n, n_classes)
        return cls(positions=positions, offsets=offsets, targets=targets, dimension=dimension)

    @property
    def size(self) -> int:
        return self.targets.shape[0]

    def rows(self) -> np.ndarray:
        """Row number of every entry of ``positions``."""
        return np.repeat(np.arange(self.size), np.diff(self.offsets))

    def take(self, index: np.ndarray) -> "CsrBatch":
        """The rows at the integer array ``index``, in that order (repeats allowed)."""
        starts = self.offsets[index]
        lengths = self.offsets[index + 1] - starts
        offsets = np.zeros(len(index) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return CsrBatch(self.positions[gather], offsets, self.targets[index], self.dimension)


def _row_sums(matrix: np.ndarray, batch: CsrBatch, node_id: str) -> np.ndarray:
    """Per row of ``batch``, the sum of the rows of ``matrix`` at its on-positions.

    Each row's sum runs over its positions in order (``np.add.at``).
    """
    if batch.dimension != matrix.shape[0]:
        raise ConfigurationError(
            f"{node_id}: feature dimension {batch.dimension} != weight rows {matrix.shape[0]}"
        )
    sums = np.zeros((batch.size, matrix.shape[1]), dtype=np.float64)
    np.add.at(sums, batch.rows(), matrix[batch.positions])
    return sums


def forward_logits(clf: NodeClassifier, batch: CsrBatch) -> np.ndarray:
    """Pre-sigmoid outputs, ``(n, C)``: per row, the weight rows its on-bits select."""
    return _row_sums(clf.weights, batch, clf.node_id)


def forward_scores(clf: NodeClassifier, batch: CsrBatch) -> np.ndarray:
    """Per-child sigmoid scores of every row of ``batch``, ``(n, C)``."""
    return sigmoid(forward_logits(clf, batch))


def loss_and_gradient(weights: np.ndarray, batch: CsrBatch) -> tuple[float, np.ndarray]:
    """Batch-mean BCE loss and its exact gradient from one forward pass."""
    if batch.size == 0:
        raise ConfigurationError("loss and gradient of an empty batch")
    n, c = batch.targets.shape
    rows = batch.rows()
    logits = np.zeros((n, c), dtype=np.float64)
    np.add.at(logits, rows, weights[batch.positions])
    loss = float(_bce_terms(logits, batch.targets).mean(axis=1).mean())
    residual = (sigmoid(logits) - batch.targets) * (1.0 / (c * n))
    grad = np.zeros_like(weights)
    np.add.at(grad, batch.positions, residual[rows])
    return loss, grad


def _pack(clf: NodeClassifier, batch: list[Example]) -> CsrBatch:
    return CsrBatch.from_examples(batch, *clf.weights.shape, node_id=clf.node_id)


def gradient(clf: NodeClassifier, batch: list[Example]) -> np.ndarray:
    """Exact gradient of the batch-mean BCE loss with respect to the weights."""
    return loss_and_gradient(clf.weights, _pack(clf, batch))[1]


def batch_loss(clf: NodeClassifier, batch: list[Example]) -> float:
    return loss_and_gradient(clf.weights, _pack(clf, batch))[0]


def adam_step(
    weights: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new weights and state."""
    t = state.step_count + 1
    m = cfg.adam_beta1 * state.first_moment + (1.0 - cfg.adam_beta1) * grads
    v = cfg.adam_beta2 * state.second_moment + (1.0 - cfg.adam_beta2) * grads**2
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    v_hat = v / (1.0 - cfg.adam_beta2**t)
    new_weights = weights - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
    return new_weights, AdamState(first_moment=m, second_moment=v, step_count=t)


def _write_loss_log(log_path, losses: list[float]) -> None:
    with Path(log_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(losses):
            writer.writerow([epoch, f"{loss:.10g}"])


def _epoch_order(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.permutation(n)


def _check_finite(node_id: str, epoch: int, loss: float, weights: np.ndarray) -> None:
    if not math.isfinite(loss) or not np.isfinite(weights).all():
        raise TrainingError(
            f"{node_id}: non-finite loss or weights after epoch {epoch} "
            "(lower the learning rate)"
        )


def train_node(
    clf: NodeClassifier,
    examples: list[Example],
    cfg: TrainConfig,
    log_path: str | Path | None = None,
) -> tuple[NodeClassifier, list[float]]:
    """Mini-batch Adam training with a training-loss plateau stop.

    Deterministic for a fixed (seed, data, config): shuffling is driven by a
    generator seeded from cfg.seed.  Stops early when the mean epoch loss
    has not improved by at least LOSS_PLATEAU_DELTA for
    ``early_stop_patience`` consecutive epochs (patience <= 0 disables).
    Raises TrainingError as soon as an epoch leaves the loss or the weights
    non-finite.  Returns the trained classifier and the per-epoch loss
    history.
    """
    if not examples:
        raise ConfigurationError(f"{clf.node_id}: no training examples")
    data = CsrBatch.from_examples(examples, *clf.weights.shape, node_id=clf.node_id)

    weights = clf.weights.copy()
    state = AdamState.zeros_like(weights)
    rng = np.random.default_rng(cfg.seed)
    n = data.size
    losses: list[float] = []
    best = np.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = _epoch_order(rng, n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = data.take(order[start : start + cfg.batch_size])
            loss, grads = loss_and_gradient(weights, batch)
            total += loss * batch.size
            weights, state = adam_step(weights, grads, state, cfg)
        epoch_loss = total / n
        _check_finite(clf.node_id, epoch, epoch_loss, weights)
        losses.append(epoch_loss)
        if epoch_loss < best - LOSS_PLATEAU_DELTA:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                break
    if log_path is not None:
        _write_loss_log(log_path, losses)
    return replace(clf, weights=weights), losses


@dataclass
class TwoLayerClassifier:
    """Baseline node classifier with one sigmoid hidden layer (no biases)."""

    node_id: str
    child_ids: tuple[str, ...]
    w_hidden: np.ndarray  # shape (D, H)
    w_out: np.ndarray  # shape (H, C)
    dictionary_fingerprint: str = ""

    def __post_init__(self):
        self.w_hidden = np.asarray(self.w_hidden, dtype=np.float64)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        if self.w_hidden.shape[1] != self.w_out.shape[0]:
            raise ConfigurationError(f"{self.node_id}: hidden width mismatch")
        if self.w_out.shape[1] != len(self.child_ids):
            raise ConfigurationError(f"{self.node_id}: output width != number of children")


def two_layer_logits(clf: TwoLayerClassifier, fv: FeatureVector) -> np.ndarray:
    _check_dimension(clf, fv)
    if fv.on_positions:
        pre = clf.w_hidden[list(fv.on_positions)].sum(axis=0)
    else:
        pre = np.zeros(clf.w_hidden.shape[1], dtype=np.float64)
    return sigmoid(pre) @ clf.w_out


def two_layer_scores(clf: TwoLayerClassifier, batch: CsrBatch) -> np.ndarray:
    """``two_layer_logits`` of every row of ``batch`` through a sigmoid, ``(n, C)``.

    The output layer is one vector-matrix product per row (a stacked
    ``matmul``), the product ``two_layer_logits`` computes; a single
    matrix-matrix product would sum in another order.
    """
    hidden = sigmoid(_row_sums(clf.w_hidden, batch, clf.node_id))
    return sigmoid(np.matmul(hidden[:, np.newaxis, :], clf.w_out)[:, 0, :])


def two_layer_gradient(
    clf: TwoLayerClassifier, batch: list[Example]
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagated gradients (d_hidden, d_out) of the batch-mean BCE."""
    if not batch:
        raise ConfigurationError("gradient of an empty batch")
    g_hidden = np.zeros_like(clf.w_hidden)
    g_out = np.zeros_like(clf.w_out)
    c = clf.w_out.shape[1]
    scale = 1.0 / (c * len(batch))
    for fv, targets in batch:
        if fv.on_positions:
            pre = clf.w_hidden[list(fv.on_positions)].sum(axis=0)
        else:
            pre = np.zeros(clf.w_hidden.shape[1], dtype=np.float64)
        hidden = sigmoid(pre)
        residual = (sigmoid(hidden @ clf.w_out) - targets) * scale
        g_out += np.outer(hidden, residual)
        d_pre = (clf.w_out @ residual) * hidden * (1.0 - hidden)
        if fv.on_positions:
            g_hidden[list(fv.on_positions)] += d_pre
    return g_hidden, g_out


def two_layer_batch_loss(clf: TwoLayerClassifier, batch: list[Example]) -> float:
    return float(
        np.mean([bce_with_logits(two_layer_logits(clf, fv), z) for fv, z in batch])
    )


def train_two_layer(
    clf: TwoLayerClassifier,
    examples: list[Example],
    cfg: TrainConfig,
) -> tuple[TwoLayerClassifier, list[float]]:
    """Same loop as train_node, updating both layers with separate Adam state."""
    if not examples:
        raise ConfigurationError(f"{clf.node_id}: no training examples")
    w_hidden = clf.w_hidden.copy()
    w_out = clf.w_out.copy()
    state_h = AdamState.zeros_like(w_hidden)
    state_o = AdamState.zeros_like(w_out)
    rng = np.random.default_rng(cfg.seed)
    n = len(examples)
    losses: list[float] = []
    best = np.inf
    stale = 0
    for _ in range(cfg.max_epochs):
        order = _epoch_order(rng, n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [examples[i] for i in order[start : start + cfg.batch_size]]
            work = replace(clf, w_hidden=w_hidden, w_out=w_out)
            total += two_layer_batch_loss(work, batch) * len(batch)
            g_h, g_o = two_layer_gradient(work, batch)
            w_hidden, state_h = adam_step(w_hidden, g_h, state_h, cfg)
            w_out, state_o = adam_step(w_out, g_o, state_o, cfg)
        epoch_loss = total / n
        losses.append(epoch_loss)
        if epoch_loss < best - LOSS_PLATEAU_DELTA:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                break
    return replace(clf, w_hidden=w_hidden, w_out=w_out), losses
