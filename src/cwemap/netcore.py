"""Node scorers, their loss and gradients, Adam, and the one training loop.

A model is one scorer per scoring node.  A scorer maps the binary feature
vector of a record to one logit per child class; a sigmoid turns each into
an independent per-class score (multi-label, classes are not mutually
exclusive).  Two scorers share one protocol:

* ``NodeClassifier``: bias-free single layer, the logit for class i is the
  sparse dot product of the feature vector with weight column i;
* ``TwoLayerClassifier``: one bias-free sigmoid hidden layer before the
  output layer (the over-fitting baseline).

Each has ``child_ids``, ``params()`` (its named weight matrices), batched
``logits`` and a fused ``loss_and_grads`` on a ``CsrBatch``, the
mean binary cross-entropy (in the stable logit form) and its gradient per
parameter from one forward pass.  ``train_node`` is the only training
loop: mini-batch Adam on every entry of ``params()``, with a loss-plateau
stop and a non-finite check after every epoch.

A ``CsrBatch`` holds records in compressed-sparse-row form: the ascending
on-positions of all rows back to back, row offsets, and a targets matrix.
``CsrBatch.pack`` builds one from per-record position arrays, for
inference and for a training corpus alike.  ``train_node`` takes a node's
training set as one such batch, checks its shape once, and each minibatch
is a vectorized row gather (``take``) from it.  Sums over a row's
on-positions use ``np.add.at`` in row order: the order in which
``weights[rows].sum(axis=0)`` adds the rows of one record for two or more
columns, so the weights match per-example training bit for bit.  A BLAS
product would reorder the sums and move the weights by ulps.  (NumPy sums
a one-column slice pairwise, so a record-at-a-time sum there can differ
from the batch in the last bit.)  The two-layer output layer is one
vector-matrix product per row (a stacked ``matmul``) for the same reason.

**Block fit.**  ``train_node`` fits each node on its support S, the
feature positions set in at least one of its examples.  It takes the rows
S of the row-indexed parameter (``ROW_PARAM``: the single layer's
``weights``, the hidden layer's ``w_hidden``), renumbers the examples'
positions to rows of that block, runs Adam on the ``|S| x C`` block (and
on any other parameter whole), and scatters the block back into a copy of
the full matrix.  This is exact, not an approximation: a row outside S
gets a zero gradient at every step, so its Adam moments stay exactly 0 and
its update is ``lr * 0 / (sqrt(0) + eps) = 0``; the rows in S see the same
values in the same ``np.add.at`` order as in the full matrix.  Those rows
never change, so their finiteness is checked once, before the fit.

**Adam in place.**  ``adam_step`` overwrites the weights and the state's
moments it is given, with ``out=`` arguments and two work arrays, and
keeps the out-of-place formula's operations and their order, so every
value is rounded as before.  ``train_node`` therefore fits copies and
never touches the arrays of the scorer it is given.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TrainingError

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
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """The settings in ``data``, unknown keys ignored.

        ConfigurationError when a value's JSON type differs from its
        default's (an integer passes for a float; a boolean for nothing).
        """
        kwargs = {}
        for f in fields(cls):
            if f.name in data:
                value, kind = data[f.name], type(f.default)
                allowed = (int, float) if kind is float else kind
                if isinstance(value, bool) or not isinstance(value, allowed):
                    raise ConfigurationError(f"config {f.name} is not a {kind.__name__}")
                kwargs[f.name] = value
        return cls(**kwargs)


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


def _bce_terms(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))


@dataclass(frozen=True)
class CsrBatch:
    """Binary feature vectors of one dimension in compressed-sparse-row form.

    Row r's on-positions are ``positions[offsets[r]:offsets[r + 1]]``, in
    ascending order, and its multi-hot targets are ``targets[r]``; a packed
    batch has no targets (``targets`` is ``(n, 0)``) until a training set
    gives it some.
    """

    positions: np.ndarray  # (nnz,) int64 feature positions, row after row
    offsets: np.ndarray  # (n + 1,) int64 row starts into positions
    targets: np.ndarray  # (n, C) float64
    dimension: int  # length of every packed feature vector

    @classmethod
    def pack(cls, rows: list[np.ndarray], dimension: int) -> "CsrBatch":
        """One row per array of ascending int64 positions, without targets."""
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, count=len(rows)), out=offsets[1:])
        positions = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        return cls(positions, offsets, np.zeros((len(rows), 0)), dimension)

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


def _loss_and_residual(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean BCE of ``logits`` and its gradient with respect to them."""
    n, c = targets.shape
    if n == 0:
        raise ConfigurationError("loss and gradient of an empty batch")
    loss = float(_bce_terms(logits, targets).mean(axis=1).mean())
    return loss, (sigmoid(logits) - targets) * (1.0 / (c * n))


def loss_and_gradient(weights: np.ndarray, batch: CsrBatch) -> tuple[float, np.ndarray]:
    """Batch-mean BCE loss of a single layer and its exact gradient, one forward pass."""
    rows = batch.rows()
    logits = np.zeros((batch.size, weights.shape[1]), dtype=np.float64)
    np.add.at(logits, rows, weights[batch.positions])
    loss, residual = _loss_and_residual(logits, batch.targets)
    grad = np.zeros_like(weights)
    np.add.at(grad, batch.positions, residual[rows])
    return loss, grad


@dataclass
class NodeClassifier:
    """Single-layer, bias-free scorer over one node's children."""

    node_id: str
    child_ids: tuple[str, ...]
    weights: np.ndarray  # shape (D, C), float64

    PARAMS = ("weights",)
    ROW_PARAM = "weights"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] != len(self.child_ids):
            raise ConfigurationError(
                f"{self.node_id}: weights shape {self.weights.shape} does not match "
                f"{len(self.child_ids)} children"
            )

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights}

    def logits(self, batch: CsrBatch) -> np.ndarray:
        """Pre-sigmoid outputs, ``(n, C)``: per row, the weight rows its on-bits select."""
        return _row_sums(self.weights, batch, self.node_id)

    def loss_and_grads(self, batch: CsrBatch) -> tuple[float, dict[str, np.ndarray]]:
        loss, grad = loss_and_gradient(self.weights, batch)
        return loss, {"weights": grad}


@dataclass
class TwoLayerClassifier:
    """Scorer with one sigmoid hidden layer, no biases (over-fitting baseline)."""

    node_id: str
    child_ids: tuple[str, ...]
    w_hidden: np.ndarray  # shape (D, H)
    w_out: np.ndarray  # shape (H, C)

    PARAMS = ("w_hidden", "w_out")
    ROW_PARAM = "w_hidden"

    def __post_init__(self):
        self.w_hidden = np.asarray(self.w_hidden, dtype=np.float64)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        if self.w_hidden.ndim != 2 or self.w_out.ndim != 2 or (
            self.w_hidden.shape[1] != self.w_out.shape[0]
        ):
            raise ConfigurationError(f"{self.node_id}: hidden width mismatch")
        if self.w_out.shape[1] != len(self.child_ids):
            raise ConfigurationError(f"{self.node_id}: output width != number of children")

    @property
    def dimension(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"w_hidden": self.w_hidden, "w_out": self.w_out}

    def _forward(self, batch: CsrBatch) -> tuple[np.ndarray, np.ndarray]:
        hidden = sigmoid(_row_sums(self.w_hidden, batch, self.node_id))
        return hidden, np.matmul(hidden[:, np.newaxis, :], self.w_out)[:, 0, :]

    def logits(self, batch: CsrBatch) -> np.ndarray:
        """Pre-sigmoid outputs, ``(n, C)``: the hidden layer's activations times ``w_out``."""
        return self._forward(batch)[1]

    def loss_and_grads(self, batch: CsrBatch) -> tuple[float, dict[str, np.ndarray]]:
        """Backpropagated gradients of both layers; every product runs per row,
        in the order a record-at-a-time pass would take."""
        hidden, logits = self._forward(batch)
        loss, residual = _loss_and_residual(logits, batch.targets)
        g_out = (hidden[:, :, np.newaxis] * residual[:, np.newaxis, :]).sum(axis=0)
        d_out = np.matmul(self.w_out, residual[:, :, np.newaxis])[:, :, 0]
        d_pre = d_out * hidden * (1.0 - hidden)
        g_hidden = np.zeros_like(self.w_hidden)
        np.add.at(g_hidden, batch.positions, d_pre[batch.rows()])
        return loss, {"w_hidden": g_hidden, "w_out": g_out}


Scorer = NodeClassifier | TwoLayerClassifier


def forward_scores(clf: Scorer, batch: CsrBatch) -> np.ndarray:
    """Per-child sigmoid scores of every row of ``batch``, ``(n, C)``."""
    return sigmoid(clf.logits(batch))


def _check_fits(clf: Scorer, batch: CsrBatch) -> None:
    """ConfigurationError unless ``batch`` has ``clf``'s dimension and one
    target column per child."""
    if batch.dimension != clf.dimension:
        raise ConfigurationError(
            f"{clf.node_id}: feature dimension {batch.dimension} != weight rows {clf.dimension}"
        )
    if batch.targets.shape[1] != len(clf.child_ids):
        raise ConfigurationError(
            f"{clf.node_id}: target length {batch.targets.shape[1]} != {len(clf.child_ids)}"
        )


def gradient(clf: NodeClassifier, batch: CsrBatch) -> np.ndarray:
    """Exact gradient of the batch-mean BCE loss with respect to the weights."""
    _check_fits(clf, batch)
    return loss_and_gradient(clf.weights, batch)[1]


def batch_loss(clf: NodeClassifier, batch: CsrBatch) -> float:
    _check_fits(clf, batch)
    return loss_and_gradient(clf.weights, batch)[0]


def adam_step(
    weights: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of ``weights`` and ``state``, in place.

    Returns the same two objects; ``grads`` is only read.  Every value is
    rounded as in the out-of-place ``m = b1 * m + (1 - b1) * g``,
    ``v = b2 * v + (1 - b2) * g**2`` and
    ``w - lr * m_hat / (sqrt(v_hat) + eps)``, evaluated left to right.
    """
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    m, v = state.first_moment, state.second_moment
    state.step_count += 1
    t = state.step_count
    term = np.multiply(grads, 1.0 - b1)
    np.multiply(m, b1, out=m)
    np.add(m, term, out=m)
    np.square(grads, out=term)
    np.multiply(term, 1.0 - b2, out=term)
    np.multiply(v, b2, out=v)
    np.add(v, term, out=v)
    # term becomes the denominator sqrt(v_hat) + eps, then the step.
    np.divide(v, 1.0 - b2**t, out=term)
    np.sqrt(term, out=term)
    np.add(term, cfg.adam_epsilon, out=term)
    step = np.divide(m, 1.0 - b1**t)
    np.multiply(step, cfg.learning_rate, out=step)
    np.divide(step, term, out=step)
    np.subtract(weights, step, out=weights)
    return weights, state


def _write_loss_log(log_path, losses: list[float]) -> None:
    with Path(log_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(losses):
            writer.writerow([epoch, f"{loss:.10g}"])


def train_node(
    clf: Scorer,
    examples: CsrBatch,
    cfg: TrainConfig,
    log_path: str | Path | None = None,
) -> tuple[Scorer, list[float]]:
    """Mini-batch Adam on every parameter of ``clf`` over the rows of ``examples``,
    with a training-loss plateau stop.

    Deterministic for a fixed (seed, data, config): shuffling is driven by a
    generator seeded from cfg.seed, and each parameter keeps its own Adam
    state.  Stops early when the mean epoch loss has not improved by at
    least LOSS_PLATEAU_DELTA for ``early_stop_patience`` consecutive epochs
    (patience <= 0 disables).  Raises TrainingError as soon as an epoch
    leaves the loss or any parameter non-finite.  Returns a trained scorer
    with arrays of its own (``clf`` is left unchanged) and the per-epoch
    loss history.

    The fit runs on the support block: the rows of the row-indexed
    parameter at the positions some example sets (see the module doc).
    """
    if examples.size == 0:
        raise ConfigurationError(f"{clf.node_id}: no training examples")
    _check_fits(clf, examples)
    support, local = np.unique(examples.positions, return_inverse=True)
    data = CsrBatch(local.astype(np.int64, copy=False), examples.offsets, examples.targets,
                    len(support))
    full = getattr(clf, clf.ROW_PARAM)
    # The rows outside the support never change: one check covers every epoch.
    rest_finite = bool(np.isfinite(full).all())

    work = replace(clf, **{name: value[support] if name == clf.ROW_PARAM else value.copy()
                           for name, value in clf.params().items()})
    states = {name: AdamState.zeros_like(value) for name, value in work.params().items()}
    rng = np.random.default_rng(cfg.seed)
    n = data.size
    losses: list[float] = []
    best = np.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = data.take(order[start : start + cfg.batch_size])
            loss, grads = work.loss_and_grads(batch)
            total += loss * batch.size
            for name, grad in grads.items():
                adam_step(getattr(work, name), grad, states[name], cfg)
        epoch_loss = total / n
        if not (math.isfinite(epoch_loss) and rest_finite and all(
            np.isfinite(value).all() for value in work.params().values()
        )):
            raise TrainingError(
                f"{clf.node_id}: non-finite loss or weights after epoch {epoch} "
                "(lower the learning rate)"
            )
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
    trained = full.copy()
    trained[support] = getattr(work, clf.ROW_PARAM)
    return replace(work, **{clf.ROW_PARAM: trained}), losses
