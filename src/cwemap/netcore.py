"""Node scorers, their loss and gradients, Adam, and the one training loop.

A model is one scorer per scoring node.  A scorer maps the binary feature
vector of a record to one logit per child class; a sigmoid turns each into
an independent per-class score (multi-label, classes are not mutually
exclusive).  Two scorers share one protocol:

* ``NodeClassifier``: bias-free single layer, the logit for class i is the
  sparse dot product of the feature vector with weight column i;
* ``TwoLayerClassifier``: one bias-free sigmoid hidden layer before the
  output layer (the over-fitting baseline).

Each has ``child_ids``, ``params()`` (its named fitted arrays), batched
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
is a vectorized row selection (``take``) from it.  Every sum over a row's
on-positions is an ``np.bincount``, which adds into each bin in input
order from 0.0, as a sequential scatter-add would: the order in which
``weights[rows].sum(axis=0)`` adds the rows of one record for two or more
columns, so the weights match per-example training bit for bit.  Every
such sum, forward and gradient alike, goes through ``_key_sums``: one
``np.bincount`` over the keys ``index * C + column``, taken over groups of
columns when the keys would pass ``KEY_LIMIT``.  A BLAS product, or
``np.add.reduceat``, would reorder the sums and move the weights by ulps.
(NumPy sums a one-column slice pairwise, so a record-at-a-time sum there
can differ from the batch in the last bit.)  The two-layer output layer is
one vector-matrix product per row (a stacked ``matmul``) for the same
reason.

**Row-sparse weights.**  The row-indexed parameter (``ROW_PARAM``: the
single layer's ``weights``, the hidden layer's ``w_hidden``) is a
``RowBlock``: the ascending positions ``rows`` it stores and their
``(len(rows), C)`` block, every other row being exactly +0.0.  A TF-IDF
node stores the terms of its children's class documents
(``scoring.init_weights``); random init, the flat baseline and the hidden
layer store every row.  A row sum skips the positions outside ``rows``,
and its logits are still the dense ones to the bit: ``np.bincount``
starts every bin at +0.0, a sum that starts at +0.0 is never -0.0
(``+0.0 + -0.0`` and ``x + -x`` are +0.0), and adding +0.0 to anything
but -0.0 leaves its bits alone, so the +0.0 rows that the dense matrix
would add change nothing.

**Block fit.**  ``train_node`` fits each node on its support S, the
feature positions set in at least one of its examples.  S lies in the
stored rows of a TF-IDF node, because a record reaches a node only
through a child whose class document holds the record's terms (rows that
are missing are added as zeros).  The fit copies the S rows of the block,
renumbers the examples' positions to rows of that work block, runs Adam
on the ``|S| x C`` work block (and on any other parameter whole), and
writes it back into a copy of the block.  This is exact, not an
approximation: a row outside S gets a zero gradient at every step, so its
Adam moments stay exactly 0 and its update is
``lr * 0 / (sqrt(0) + eps) = 0``; the rows in S see the same values in
the same order as in the dense matrix.  The block's other rows never
change, so their finiteness is checked once, before the fit.

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
from .jsonread import Optional, read

LOSS_PLATEAU_DELTA = 1e-5
# The most keys ``_key_sums`` builds in one ``np.bincount`` (512 kB of int64).
KEY_LIMIT = 1 << 16


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
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.weight_init not in ("tfidf", "random"):
            raise ConfigurationError(f"unknown weight_init {self.weight_init!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """The settings in the JSON object ``data``: an unknown key is ignored,
        and an absent or null one takes its default.  FormatError names a
        value of another JSON type than its default's."""
        spec = {f.name: Optional(type(f.default), f.default) for f in fields(cls)}
        return cls(**read(data, spec, "config"))


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros_like(cls, weights: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(weights), np.zeros_like(weights), 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, from ``exp(-|x|)`` so that nothing overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        entries = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return CsrBatch(self.positions[entries], offsets, self.targets[index], self.dimension)


@dataclass(frozen=True, eq=False)
class RowBlock:
    """A ``dimension x C`` matrix whose rows outside ``rows`` are exactly +0.0.

    ``rows`` holds the ascending, distinct positions of the stored rows and
    ``block`` their values, ``(len(rows), C)``.  A TF-IDF node stores the
    terms of its children's class documents; every other scorer stores
    every row.
    """

    rows: np.ndarray  # (R,) ascending distinct int64 positions below dimension
    block: np.ndarray  # (R, C) float64
    dimension: int

    def __post_init__(self):
        rows, block = self.rows, self.block
        if rows.ndim != 1 or rows.dtype.kind != "i" or (
            rows.size and (rows[0] < 0 or rows[-1] >= self.dimension or (np.diff(rows) <= 0).any())
        ):
            raise ConfigurationError(
                f"rows are not ascending distinct positions below {self.dimension}")
        if block.ndim != 2 or block.dtype.kind != "f" or block.shape[0] != rows.size:
            raise ConfigurationError(f"a block of {rows.size} rows cannot have shape {block.shape}")

    @classmethod
    def full(cls, matrix: np.ndarray) -> "RowBlock":
        """The 2-D ``matrix``, every row stored."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError(f"weights of shape {matrix.shape} are not a matrix")
        return cls(np.arange(matrix.shape[0], dtype=np.int64), matrix, matrix.shape[0])

    @property
    def columns(self) -> int:
        return self.block.shape[1]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dimension, self.columns), dtype=np.float64)
        dense[self.rows] = self.block
        return dense

    def including(self, positions: np.ndarray) -> "RowBlock":
        """The same matrix storing the rows ``rows`` and ``positions`` (ascending,
        distinct); itself when it stores them already."""
        missing = np.setdiff1d(positions, self.rows, assume_unique=True)
        if not missing.size:
            return self
        rows = np.union1d(self.rows, missing)
        block = np.zeros((len(rows), self.columns), dtype=np.float64)
        block[np.searchsorted(rows, self.rows)] = self.block
        return RowBlock(rows, block, self.dimension)


def _row_sums(matrix: RowBlock, batch: CsrBatch, node_id: str) -> np.ndarray:
    """Per row of ``batch``, the sum of the rows of ``matrix`` at its on-positions.

    The stored rows are summed by ``_key_sums`` in position order, and a
    position outside them is skipped: its +0.0 row would change no sum (see
    the module doc), so the sums equal the dense ones to the bit, signed
    zeros included.  A lookup of length ``dimension``, built per call, maps
    each position to its stored row or to -1; keeping one per scorer would
    hold four bytes per dictionary term for every node.
    """
    if batch.dimension != matrix.dimension:
        raise ConfigurationError(
            f"{node_id}: feature dimension {batch.dimension} != weight rows {matrix.dimension}"
        )
    index, positions = batch.rows(), batch.positions
    if matrix.rows.size != matrix.dimension:
        lookup = np.full(matrix.dimension, -1, dtype=np.int32)
        lookup[matrix.rows] = np.arange(matrix.rows.size, dtype=np.int32)
        positions = lookup[positions]
        stored = positions >= 0
        index, positions = index[stored], positions[stored]
    return _key_sums(index, matrix.block[positions], batch.size)


def _loss_and_residual(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean BCE of ``logits`` and its gradient with respect to them."""
    n, c = targets.shape
    if n == 0:
        raise ConfigurationError("loss and gradient of an empty batch")
    loss = float(_bce_terms(logits, targets).mean(axis=1).mean())
    return loss, (sigmoid(logits) - targets) * (1.0 / (c * n))


def _key_sums(index: np.ndarray, values: np.ndarray, bins: int) -> np.ndarray:
    """``(bins, C)``: per bin, the sum of the rows of ``values`` whose ``index``
    is that bin, from one ``np.bincount`` over the keys ``index * C + column``.

    ``np.bincount`` adds into each bin in input order from 0.0, as a
    sequential scatter-add does, so the sums are the same to the bit.  When
    the keys would pass ``KEY_LIMIT``, the columns are summed in groups of
    as many as fit (at least one), which changes no sum, so the key array
    stays small on long texts.
    """
    entries, columns = values.shape
    width = max(1, KEY_LIMIT // max(entries, 1))
    if columns > width:
        return np.hstack([_key_sums(index, values[:, start:start + width], bins)
                          for start in range(0, columns, width)])
    # Keys and weights column by column: each bin, one (index, column) pair,
    # still sees its entries in input order, and for few columns these keys
    # build faster than row by row.
    keys = index * columns + np.arange(columns)[:, np.newaxis]
    sums = np.bincount(keys.ravel(), weights=values.T.ravel(), minlength=bins * columns)
    # With no entries at all, np.bincount returns integer zeros.
    return sums.astype(np.float64, copy=False).reshape(bins, columns)


def loss_and_gradient(weights: np.ndarray, batch: CsrBatch) -> tuple[float, np.ndarray]:
    """Batch-mean BCE loss of a single layer and its exact gradient, one forward pass."""
    rows = batch.rows()
    logits = _key_sums(rows, weights[batch.positions], batch.size)
    loss, residual = _loss_and_residual(logits, batch.targets)
    return loss, _key_sums(batch.positions, residual[rows], weights.shape[0])


def _fitted_block(matrix: RowBlock, batch: CsrBatch, node_id: str) -> np.ndarray:
    """The block of ``matrix``, whose rows ``batch``'s positions index.

    ``loss_and_grads`` runs on a matrix that stores every row, as
    ``train_node``'s work block does, so block rows and positions agree.
    """
    if matrix.rows.size != matrix.dimension or batch.dimension != matrix.dimension:
        raise ConfigurationError(f"{node_id}: loss_and_grads needs all {matrix.dimension} "
                                 f"rows stored and a batch over them, not {batch.dimension}")
    return matrix.block


@dataclass
class NodeClassifier:
    """Single-layer, bias-free scorer over one node's children.

    ``weights`` may be given as a dense ``(D, C)`` array, which stores every row.
    """

    node_id: str
    child_ids: tuple[str, ...]
    weights: RowBlock  # (D, C)

    PARAMS = ("weights",)
    ROW_PARAM = "weights"

    def __post_init__(self):
        if not isinstance(self.weights, RowBlock):
            self.weights = RowBlock.full(self.weights)
        if self.weights.columns != len(self.child_ids):
            raise ConfigurationError(
                f"{self.node_id}: weights of {self.weights.columns} columns do not match "
                f"{len(self.child_ids)} children"
            )

    @property
    def dimension(self) -> int:
        return self.weights.dimension

    def params(self) -> dict[str, np.ndarray]:
        """The fitted arrays by name: ``weights``' block."""
        return {"weights": self.weights.block}

    def logits(self, batch: CsrBatch) -> np.ndarray:
        """Pre-sigmoid outputs, ``(n, C)``: per row, the weight rows its on-bits select."""
        return _row_sums(self.weights, batch, self.node_id)

    def loss_and_grads(self, batch: CsrBatch) -> tuple[float, dict[str, np.ndarray]]:
        """Loss and gradient per entry of ``params()``; every row must be stored."""
        loss, grad = loss_and_gradient(_fitted_block(self.weights, batch, self.node_id), batch)
        return loss, {"weights": grad}


@dataclass
class TwoLayerClassifier:
    """Scorer with one sigmoid hidden layer, no biases (over-fitting baseline).

    ``w_hidden`` may be given as a dense ``(D, H)`` array, which stores every row.
    """

    node_id: str
    child_ids: tuple[str, ...]
    w_hidden: RowBlock  # (D, H)
    w_out: np.ndarray  # shape (H, C)

    PARAMS = ("w_hidden", "w_out")
    ROW_PARAM = "w_hidden"

    def __post_init__(self):
        if not isinstance(self.w_hidden, RowBlock):
            self.w_hidden = RowBlock.full(self.w_hidden)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        if self.w_out.ndim != 2 or self.w_hidden.columns != self.w_out.shape[0]:
            raise ConfigurationError(f"{self.node_id}: hidden width mismatch")
        if self.w_out.shape[1] != len(self.child_ids):
            raise ConfigurationError(f"{self.node_id}: output width != number of children")

    @property
    def dimension(self) -> int:
        return self.w_hidden.dimension

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.columns

    def params(self) -> dict[str, np.ndarray]:
        """The fitted arrays by name: ``w_hidden``'s block and ``w_out``."""
        return {"w_hidden": self.w_hidden.block, "w_out": self.w_out}

    def _forward(self, batch: CsrBatch) -> tuple[np.ndarray, np.ndarray]:
        hidden = sigmoid(_row_sums(self.w_hidden, batch, self.node_id))
        return hidden, np.matmul(hidden[:, np.newaxis, :], self.w_out)[:, 0, :]

    def logits(self, batch: CsrBatch) -> np.ndarray:
        """Pre-sigmoid outputs, ``(n, C)``: the hidden layer's activations times ``w_out``."""
        return self._forward(batch)[1]

    def loss_and_grads(self, batch: CsrBatch) -> tuple[float, dict[str, np.ndarray]]:
        """Backpropagated gradients of both layers; every product runs per row,
        in the order a record-at-a-time pass would take.  Every row of
        ``w_hidden`` must be stored."""
        block = _fitted_block(self.w_hidden, batch, self.node_id)
        hidden, logits = self._forward(batch)
        loss, residual = _loss_and_residual(logits, batch.targets)
        g_out = (hidden[:, :, np.newaxis] * residual[:, np.newaxis, :]).sum(axis=0)
        d_out = np.matmul(self.w_out, residual[:, :, np.newaxis])[:, :, 0]
        d_pre = d_out * hidden * (1.0 - hidden)
        g_hidden = _key_sums(batch.positions, d_pre[batch.rows()], block.shape[0])
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
    """Exact ``(D, C)`` gradient of the batch-mean BCE loss with respect to the weights."""
    _check_fits(clf, batch)
    return loss_and_gradient(clf.weights.to_dense(), batch)[1]


def batch_loss(clf: NodeClassifier, batch: CsrBatch) -> float:
    _check_fits(clf, batch)
    return loss_and_gradient(clf.weights.to_dense(), batch)[0]


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
    matrix = getattr(clf, clf.ROW_PARAM).including(support)
    at = np.searchsorted(matrix.rows, support)
    # The block's rows outside the support never change: one check covers every epoch.
    rest_finite = bool(np.isfinite(matrix.block).all())

    work_rows = RowBlock(np.arange(len(support), dtype=np.int64), matrix.block[at],
                         len(support))
    work = replace(clf, **{name: work_rows if name == clf.ROW_PARAM else value.copy()
                           for name, value in clf.params().items()})
    fitted = work.params()  # views: Adam updates ``work`` in place
    states = {name: AdamState.zeros_like(value) for name, value in fitted.items()}
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
                adam_step(fitted[name], grad, states[name], cfg)
        epoch_loss = total / n
        if not (math.isfinite(epoch_loss) and rest_finite and all(
            np.isfinite(value).all() for value in fitted.values()
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
    trained = matrix.block.copy()
    trained[at] = fitted[clf.ROW_PARAM]
    trained = RowBlock(matrix.rows, trained, matrix.dimension)
    return replace(work, **{clf.ROW_PARAM: trained}), losses
