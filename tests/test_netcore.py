import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwemap import netcore
from cwemap.errors import ConfigurationError, TrainingError
from cwemap.netcore import (
    AdamState,
    CsrBatch,
    NodeClassifier,
    RowBlock,
    TrainConfig,
    TwoLayerClassifier,
    _key_sums,
    _row_sums,
    adam_step,
    batch_loss,
    forward_scores,
    gradient,
    loss_and_gradient,
    sigmoid,
    train_node,
)
import oracle
from oracle import bce_with_logits, two_layer_logits


def vec(*positions):
    """One record's on-positions: an ascending int64 array."""
    return np.array(sorted(positions), dtype=np.int64)


def pack(examples, dimension, n_classes):
    """A training batch of (on-positions, targets) pairs."""
    targets = np.array([t for _, t in examples], dtype=np.float64)
    return replace(CsrBatch.pack([p for p, _ in examples], dimension),
                   targets=targets.reshape(len(examples), n_classes))


def clf(weights, node_id="CWE-1"):
    weights = np.asarray(weights, dtype=np.float64)
    children = tuple(f"CWE-{i + 10}" for i in range(weights.shape[1]))
    return NodeClassifier(node_id=node_id, child_ids=children, weights=weights)


def dense_logits_oracle(weights, feature):
    dense = np.zeros(weights.shape[0])
    dense[feature] = 1.0
    return dense @ weights


def rows(dimension, *features):
    """A CsrBatch of one row per tuple of on-positions."""
    return CsrBatch.pack([vec(*f) for f in features], dimension)


class TestForward:
    def test_zero_vector_gives_zero_logits(self):
        c = clf(np.ones((4, 3)))
        np.testing.assert_array_equal(c.logits(rows(4, ())), np.zeros((1, 3)))

    def test_single_row_selection(self):
        c = clf([[0.2, -0.1], [9.0, 9.0]])
        np.testing.assert_array_equal(c.logits(rows(2, (0,))), [[0.2, -0.1]])

    def test_matches_dense_oracle(self, rng):
        weights = rng.normal(size=(5, 3))
        c = clf(weights)
        features = [vec(0, 3), vec(), vec(1, 2, 4)]
        np.testing.assert_allclose(
            c.logits(CsrBatch.pack(features, 5)),
            [dense_logits_oracle(weights, f) for f in features],
            atol=1e-12,
        )

    def test_dimension_mismatch_rejected(self):
        c = clf(np.ones((4, 2)))
        with pytest.raises(ConfigurationError):
            c.logits(rows(5, (1,)))

    def test_linearity_over_disjoint_supports(self, rng):
        weights = rng.normal(size=(8, 3))
        c = clf(weights)
        a, b, union = c.logits(rows(8, (0, 2), (5, 7), (0, 2, 5, 7)))
        np.testing.assert_allclose(union, a + b, atol=1e-12)

    def test_scores(self):
        c = clf(np.zeros((3, 2)))
        np.testing.assert_allclose(forward_scores(c, rows(3, (1,))), [[0.5, 0.5]], atol=1e-15)
        c2 = clf([[20.0, -20.0]])
        (scores,) = forward_scores(c2, rows(1, (0,)))
        assert scores[0] >= 1 - 1e-8
        assert scores[1] <= 1e-8

    def test_each_row_scored_on_its_own(self, rng):
        weights = rng.normal(size=(6, 4))
        c = clf(weights)
        features = [(0, 5), (), (1, 2, 3), (0, 5)]
        together = forward_scores(c, rows(6, *features))
        for row, feature in zip(together, features):
            np.testing.assert_array_equal(row, forward_scores(c, rows(6, feature))[0])


def bce(logits, targets):
    """The loss ``batch_loss`` charges one record whose logits are ``logits``."""
    return batch_loss(clf([logits]), pack([(vec(0), targets)], 1, len(targets)))


class TestBce:
    def test_zero_logits_cost_ln2(self):
        value = bce(np.zeros(4), np.array([1.0, 0.0, 1.0, 0.0]))
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_near_zero(self):
        value = bce(np.array([20.0]), np.array([1.0]))
        assert value == pytest.approx(math.log1p(math.exp(-20.0)), abs=1e-15)
        assert value < 3e-9

    def test_confident_wrong_costs_logit(self):
        value = bce(np.array([20.0]), np.array([0.0]))
        assert value == pytest.approx(20.0 + math.log1p(math.exp(-20.0)), abs=1e-12)

    def test_stable_for_huge_logits(self):
        value = bce(np.array([1000.0, -1000.0]), np.array([0.0, 1.0]))
        assert value == pytest.approx(1000.0, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(50):
            x = rng.normal(scale=5, size=4)
            z = rng.integers(0, 2, size=4).astype(float)
            assert bce(x, z) >= 0.0


class TestGradient:
    def test_zero_residual_gives_zero_gradient(self):
        # zero weights -> sigma = 0.5 everywhere; targets of 0.5 cancel exactly
        c = clf(np.zeros((3, 2)))
        batch = pack([(vec(0, 1), np.array([0.5, 0.5]))], 3, 2)
        np.testing.assert_array_equal(gradient(c, batch), np.zeros((3, 2)))

    def test_gradient_localized_to_on_rows(self, rng):
        c = clf(rng.normal(size=(5, 2)))
        batch = pack([(vec(3), np.array([1.0, 0.0]))], 5, 2)
        g = gradient(c, batch)
        assert np.all(g[[0, 1, 2, 4]] == 0)
        assert np.any(g[3] != 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            gradient(clf(np.zeros((2, 1))), pack([], 2, 1))

    def test_matches_finite_differences(self, rng):
        d, c_out = 6, 2
        weights = rng.normal(size=(d, c_out))
        c = clf(weights)
        batch = pack([
            (vec(0, 2), np.array([1.0, 0.0])),
            (vec(1, 3, 5), np.array([0.0, 1.0])),
            (vec(4), np.array([1.0, 1.0])),
        ], d, c_out)
        analytic = gradient(c, batch)
        h = 1e-4
        numeric = np.zeros_like(weights)
        for k in range(d):
            for i in range(c_out):
                plus = weights.copy()
                plus[k, i] += h
                minus = weights.copy()
                minus[k, i] -= h
                numeric[k, i] = (
                    batch_loss(clf(plus), batch) - batch_loss(clf(minus), batch)
                ) / (2 * h)
        denom = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / denom <= 1e-5


def reference_loss_and_gradient(weights, batch):
    """Per-example loss and gradient, one forward pass per example.

    Logits add the selected weight rows one by one, in position order: the
    order in which ``weights[rows].sum(axis=0)`` sums a matrix of two or
    more columns.
    """
    d, c = weights.shape
    grad = np.zeros((d, c))
    scale = 1.0 / (c * len(batch))
    losses = []
    for feature, targets in batch:
        logits = np.zeros(c)
        for position in feature:
            logits = logits + weights[position]
        losses.append(bce_with_logits(logits, targets))
        residual = (sigmoid(logits) - targets) * scale
        grad[feature] += residual
    return float(np.mean(losses)), grad


@st.composite
def weights_and_batches(draw, entries=st.floats(-60.0, 60.0)):
    d = draw(st.integers(1, 12))
    c = draw(st.integers(1, 5))
    values = draw(st.lists(entries, min_size=d * c, max_size=d * c))
    weights = np.array(values, dtype=np.float64).reshape(d, c)
    distinct = draw(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, d - 1)),  # may be empty
                st.lists(st.sampled_from([0.0, 1.0]), min_size=c, max_size=c),
            ),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    batch = [(vec(*distinct[i][0]), np.array(distinct[i][1])) for i in picks]
    return weights, batch


class TestLossAndGradient:
    @settings(max_examples=200, deadline=None)
    @given(weights_and_batches())
    def test_matches_per_example_reference(self, case):
        weights, batch = case
        d, c = weights.shape
        loss, grad = loss_and_gradient(weights, pack(batch, d, c))
        ref_loss, ref_grad = reference_loss_and_gradient(weights, batch)
        np.testing.assert_array_equal(grad, ref_grad)
        assert abs(loss - ref_loss) <= 1e-15 * max(1.0, abs(ref_loss))

    @settings(max_examples=100, deadline=None)
    @given(weights_and_batches())
    def test_reference_forward_is_the_row_sum(self, case):
        # Batched logits add each row's weight rows in position order, for
        # any number of columns, exactly as the reference does.
        weights, batch = case
        d, c = weights.shape
        batched = clf(weights).logits(pack(batch, d, c))
        for (feature, _), row in zip(batch, batched):
            logits = np.zeros(c)
            for position in feature:
                logits = logits + weights[position]
            np.testing.assert_array_equal(logits, row)

    @settings(max_examples=60, deadline=None)
    @given(weights_and_batches(), st.data())
    def test_take_gathers_the_chosen_rows(self, case, data):
        weights, batch = case
        d, c = weights.shape
        packed = pack(batch, d, c)
        index = data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=20))
        chosen = [batch[i] for i in index]
        taken = packed.take(np.array(index))
        expected = pack(chosen, d, c)
        np.testing.assert_array_equal(taken.positions, expected.positions)
        np.testing.assert_array_equal(taken.offsets, expected.offsets)
        np.testing.assert_array_equal(taken.targets, expected.targets)

    def test_wrappers_agree_with_fused_pass(self, rng):
        weights = rng.normal(size=(6, 3))
        batch = [(vec(0, 4), np.array([1.0, 0.0, 1.0])), (vec(), np.array([0.0, 1.0, 0.0]))]
        loss, grad = loss_and_gradient(weights, pack(batch, 6, 3))
        assert batch_loss(clf(weights), pack(batch, 6, 3)) == loss
        np.testing.assert_array_equal(gradient(clf(weights), pack(batch, 6, 3)), grad)

    def test_target_length_mismatch_rejected(self):
        batch = pack([(vec(1), np.array([1.0, 0.0, 0.0]))], 3, 3)
        with pytest.raises(ConfigurationError):
            gradient(clf(np.zeros((3, 2))), batch)
        with pytest.raises(ConfigurationError):
            train_node(clf(np.zeros((3, 2))), batch, TrainConfig())

    def test_dimension_mismatch_rejected(self):
        batch = pack([(vec(1), np.array([1.0, 0.0]))], 4, 2)
        with pytest.raises(ConfigurationError):
            gradient(clf(np.zeros((3, 2))), batch)
        with pytest.raises(ConfigurationError):
            train_node(clf(np.zeros((3, 2))), batch, TrainConfig())


def same_bits(a, b):
    """Equal shapes and float64 bit patterns: ``-0.0`` and ``0.0`` differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Values whose sums include signed zeros: -0.0 + -0.0 is -0.0, and 0.0 + -0.0 is 0.0.
SIGNED_ZEROS = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5]), st.floats(-60.0, 60.0))


@st.composite
def bin_sum_cases(draw):
    """Row bins (some left empty, some hit repeatedly) and the value rows added into them."""
    bins = draw(st.integers(1, 8))
    columns = draw(st.integers(1, 3))
    n = draw(st.integers(0, 20))
    index = draw(st.lists(st.integers(0, bins - 1), min_size=n, max_size=n))
    values = draw(st.lists(SIGNED_ZEROS, min_size=n * columns, max_size=n * columns))
    return (np.array(index, dtype=np.int64),
            np.array(values, dtype=np.float64).reshape(n, columns), bins)


class TestBincountKernel:
    """The ``np.bincount`` sums equal the ``np.add.at`` form bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(bin_sum_cases(), st.integers(1, 70))
    def test_bin_sums_equal_add_at(self, case, key_limit):
        """Column groups of any width, from one column up to every column."""
        index, values, bins = case
        with patch.object(netcore, "KEY_LIMIT", key_limit):
            sums = _key_sums(index, values, bins)
        assert same_bits(sums, oracle.add_at_sums(index, values, bins))

    @settings(max_examples=300, deadline=None)
    @given(bin_sum_cases())
    def test_key_sums_equal_add_at(self, case):
        index, values, bins = case
        assert same_bits(_key_sums(index, values, bins), oracle.add_at_sums(index, values, bins))

    @pytest.mark.parametrize("index, values", [
        ([], np.zeros((0, 2))),  # every bin empty
        ([1, 1], [[-0.0], [-0.0]]),  # one column; a bin of negative zeros sums to 0.0
        ([0, 2, 0], [[1e16, 1.0], [2.0, -0.0], [1.0, 1e-16]]),  # repeated bin, in order
    ])
    def test_edge_cases(self, index, values):
        index, values = np.array(index, dtype=np.int64), np.array(values, dtype=np.float64)
        for key_limit in (1, netcore.KEY_LIMIT):
            with patch.object(netcore, "KEY_LIMIT", key_limit):
                sums = _key_sums(index, values, 3)
            assert same_bits(sums, oracle.add_at_sums(index, values, 3))
            assert not np.signbit(sums).any()

    @settings(max_examples=200, deadline=None)
    @given(weights_and_batches(entries=SIGNED_ZEROS))
    def test_loss_and_gradient_equal_add_at_form(self, case):
        weights, batch = case
        packed = pack(batch, *weights.shape)
        loss, grad = loss_and_gradient(weights, packed)
        ref_loss, ref_grad = oracle.loss_and_gradient(weights, packed)
        assert loss == ref_loss
        assert same_bits(grad, ref_grad)

    @settings(max_examples=150, deadline=None)
    @given(weights_and_batches(entries=SIGNED_ZEROS), st.integers(0, 2**16))
    def test_two_layer_gradients_equal_add_at_form(self, case, seed):
        # The drawn weights are the hidden layer, one hidden unit per column.
        w_hidden, batch = case
        d, c = w_hidden.shape
        out = np.random.default_rng(seed).normal(size=(c, c))
        net = TwoLayerClassifier("CWE-1", tuple(f"CWE-{i + 10}" for i in range(c)), w_hidden, out)
        packed = pack(batch, d, c)
        loss, grads = net.loss_and_grads(packed)
        ref_loss, ref_grads = oracle.two_layer_loss_and_grads(net, packed)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert same_bits(grad, ref_grads[name]), name


@st.composite
def row_blocks(draw, entries=SIGNED_ZEROS):
    """A matrix stored on a random subset of its rows, some of them all -0.0,
    and its dense form; the batch's rows set positions inside and outside
    the stored rows alike."""
    weights, batch = draw(weights_and_batches(entries=entries))
    d, c = weights.shape
    rows = np.array(sorted(draw(st.sets(st.integers(0, d - 1)))), dtype=np.int64)
    weights[sorted(draw(st.sets(st.integers(0, d - 1))))] = -0.0
    dense = np.zeros((d, c))
    dense[rows] = weights[rows]
    return RowBlock(rows, weights[rows], d), dense, pack(batch, d, c)


class TestRowBlock:
    """A matrix stored as (rows, block) scores and expands as its dense form."""

    @settings(max_examples=200, deadline=None)
    @given(row_blocks())
    def test_sums_equal_the_dense_matrix_to_the_bit(self, case):
        matrix, dense, batch = case
        assert same_bits(matrix.to_dense(), dense)
        scorer = NodeClassifier("CWE-1", tuple(f"CWE-{i + 10}" for i in range(dense.shape[1])),
                                matrix)
        expected = oracle.add_at_sums(batch.rows(), dense[batch.positions], batch.size)
        assert same_bits(scorer.logits(batch), expected)

    @settings(max_examples=200, deadline=None)
    @given(row_blocks())
    def test_row_sums_equal_add_at_to_the_bit(self, case):
        matrix, dense, batch = case
        expected = oracle.add_at_sums(batch.rows(), dense[batch.positions], batch.size)
        assert same_bits(_row_sums(matrix, batch, "CWE-1"), expected)

    @pytest.mark.parametrize("stored, columns, records", [
        ([1, 3], 2, [(), (0, 1, 2, 3), ()]),  # empty rows, first and last
        ([1, 3], 2, [(0, 2), (4,), ()]),  # rows wholly outside the stored block
        ([0, 2, 4], 1, [(0, 1, 2), (1, 3), ()]),  # one column
        ([], 3, [(0, 4), ()]),  # nothing stored
    ], ids=["empty-rows", "outside-the-block", "one-column", "no-stored-row"])
    def test_row_sums_edge_cases_equal_add_at(self, stored, columns, records):
        values = np.array([-0.0, 1e16, 1.0, -1e16, 1e-16, -0.0] * 3)
        block = values[:len(stored) * columns].reshape(len(stored), columns)
        matrix = RowBlock(np.array(stored, dtype=np.int64), block, 5)
        batch = rows(5, *records)
        expected = oracle.add_at_sums(batch.rows(), matrix.to_dense()[batch.positions], batch.size)
        assert same_bits(_row_sums(matrix, batch, "CWE-1"), expected)

    @settings(max_examples=100, deadline=None)
    @given(row_blocks(), st.data())
    def test_including_more_rows_keeps_the_matrix(self, case, data):
        matrix, dense, _ = case
        extra = data.draw(st.sets(st.integers(0, matrix.dimension - 1)))
        wider = matrix.including(np.array(sorted(extra), dtype=np.int64))
        assert set(wider.rows.tolist()) == set(matrix.rows.tolist()) | extra
        assert same_bits(wider.to_dense(), dense)
        assert (wider is matrix) == extra.issubset(matrix.rows.tolist())

    @pytest.mark.parametrize("rows, block, dimension", [
        ([1, 0], np.zeros((2, 2)), 4),  # not ascending
        ([0, 0], np.zeros((2, 2)), 4),  # repeated
        ([0, 4], np.zeros((2, 2)), 4),  # past the dimension
        ([-1, 2], np.zeros((2, 2)), 4),  # negative
        ([0, 1], np.zeros((3, 2)), 4),  # three block rows for two stored rows
        ([0.0, 1.0], np.zeros((2, 2)), 4),  # float positions
    ], ids=["descending", "repeated", "past-dimension", "negative", "block-rows-not-rows",
            "float-rows"])
    def test_malformed_block_rejected(self, rows, block, dimension):
        with pytest.raises(ConfigurationError):
            RowBlock(np.array(rows), block, dimension)


class TestAdam:
    def cfg(self, **overrides):
        return TrainConfig(**overrides)

    def test_zero_gradient_leaves_weights(self):
        w = np.array([[1.0, -2.0]])
        before = w.copy()
        w2, state = adam_step(w, np.zeros_like(w), AdamState.zeros_like(w), self.cfg())
        np.testing.assert_array_equal(w2, before)
        assert state.step_count == 1

    def test_hand_computed_first_step(self):
        w = np.array([[0.0]])
        g = np.array([[1.0]])
        w2, _ = adam_step(w, g, AdamState.zeros_like(w), self.cfg(learning_rate=0.02))
        assert w2[0, 0] == pytest.approx(-0.02 * (1.0 / (1.0 + 1e-8)), abs=1e-15)

    def test_constant_gradient_moves_monotonically(self):
        w = np.array([[0.0]])
        g = np.array([[1.0]])
        state = AdamState.zeros_like(w)
        previous = w.copy()
        for _ in range(5):
            w, state = adam_step(w, g, state, self.cfg())
            assert w[0, 0] < previous[0, 0]
            previous = w.copy()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**16),
           st.sampled_from([1e-3, 0.02, 0.5]))
    def test_updates_in_place_as_the_dense_formula(self, d, c, steps, seed, lr):
        rng = np.random.default_rng(seed)
        cfg = self.cfg(learning_rate=lr)
        w = rng.normal(size=(d, c))
        state = AdamState.zeros_like(w)
        ref_w, ref_state = w.copy(), AdamState.zeros_like(w)
        for _ in range(steps):
            g = rng.normal(size=(d, c)) * rng.integers(0, 2, size=(d, c))
            g_before = g.copy()
            m, v = state.first_moment, state.second_moment
            out_w, out_state = adam_step(w, g, state, cfg)
            ref_w, ref_state = oracle.adam_step(ref_w, g, ref_state, cfg)
            assert out_w is w and out_state is state
            assert state.first_moment is m and state.second_moment is v
            assert w.tobytes() == ref_w.tobytes()
            assert m.tobytes() == ref_state.first_moment.tobytes()
            assert v.tobytes() == ref_state.second_moment.tobytes()
            assert state.step_count == ref_state.step_count
            np.testing.assert_array_equal(g, g_before)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(adam_beta1=1.5)
        with pytest.raises(ConfigurationError):
            TrainConfig(decision_threshold=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(weight_init="magic")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [0.0, -1e-8, math.nan, math.inf])
    def test_bad_adam_epsilon_rejected(self, value):
        with pytest.raises(ConfigurationError):
            TrainConfig(adam_epsilon=value)

    def test_round_trip(self):
        cfg = TrainConfig(learning_rate=0.1, seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def separable_toy():
    """Two classes with disjoint single-feature vocabularies, TF-IDF-like init."""
    weights = np.array([[0.6, 0.0], [0.0, 0.6], [0.0, 0.0]])
    c = clf(weights)
    examples = [
        (vec(0), np.array([1.0, 0.0])),
        (vec(1), np.array([0.0, 1.0])),
        (vec(0, 2), np.array([1.0, 0.0])),
        (vec(1, 2), np.array([0.0, 1.0])),
    ]
    return c, pack(examples, 3, 2)


class TestTrainNode:
    def test_zero_epoch_budget_returns_weights_unchanged(self):
        c, examples = separable_toy()
        trained, losses = train_node(c, examples, TrainConfig(max_epochs=0))
        np.testing.assert_array_equal(trained.weights.to_dense(), c.weights.to_dense())
        assert losses == []

    def test_determinism(self):
        c, examples = separable_toy()
        cfg = TrainConfig(max_epochs=30, seed=123, batch_size=2)
        t1, l1 = train_node(c, examples, cfg)
        t2, l2 = train_node(c, examples, cfg)
        np.testing.assert_array_equal(t1.weights.to_dense(), t2.weights.to_dense())
        assert l1 == l2

    def test_separable_toy_converges_fast(self):
        c, examples = separable_toy()
        cfg = TrainConfig(max_epochs=10, batch_size=4, seed=0)
        trained, losses = train_node(c, examples, cfg)
        assert losses[0] <= math.log(2) + 1e-9
        # training accuracy: every positive class strictly clears every negative
        predicted = forward_scores(trained, examples) >= 0.5
        np.testing.assert_array_equal(predicted, examples.targets.astype(bool))

    def test_one_small_step_decreases_loss(self, rng):
        weights = rng.normal(size=(4, 2))
        c = clf(weights)
        batch = pack([
            (vec(0, 1), np.array([1.0, 0.0])),
            (vec(2), np.array([0.0, 1.0])),
        ], 4, 2)
        before = batch_loss(c, batch)
        g = gradient(c, batch)
        after = batch_loss(clf(weights - 1e-3 * g), batch)
        assert after < before

    def test_empty_examples_rejected(self):
        c, _ = separable_toy()
        with pytest.raises(ConfigurationError):
            train_node(c, pack([], 3, 2), TrainConfig())

    def test_non_finite_weights_raise_training_error(self):
        c, examples = separable_toy()
        cfg = TrainConfig(learning_rate=1e308, max_epochs=5, batch_size=1)
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            train_node(c, examples, cfg)

    def test_loss_log_written(self, tmp_path):
        c, examples = separable_toy()
        log = tmp_path / "loss.csv"
        train_node(c, examples, TrainConfig(max_epochs=3), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4


@st.composite
def fits(draw):
    """A scorer, its examples and a config for one ``train_node`` call.

    Covers both scorer kinds (hidden width 1-4), one-child nodes, random
    and sparse (TF-IDF-like) initial weights, weights stored on a subset of
    the rows (which the examples may leave), examples whose texts encode
    to nothing at all, and plateau stops.
    """
    d = draw(st.integers(1, 12))
    c = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    empty_support = draw(st.booleans())
    n = draw(st.integers(1, 8))
    examples = []
    for _ in range(n):
        on = () if empty_support else draw(st.sets(st.integers(0, d - 1), max_size=d))
        targets = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=c, max_size=c)))
        examples.append((vec(*on), targets))
    examples = pack(examples, d, c)
    children = tuple(f"CWE-{i + 10}" for i in range(c))
    hidden = draw(st.sampled_from([None, 1, 2, 3, 4]))
    if hidden is None:
        weights = rng.normal(size=(d, c))
        if draw(st.booleans()):  # zero rows, as a TF-IDF init leaves most of them
            weights *= rng.integers(0, 2, size=(d, 1))
        if draw(st.booleans()):  # only some rows stored
            rows = np.flatnonzero(rng.integers(0, 2, size=d))
            weights = RowBlock(rows, weights[rows], d)
        scorer = NodeClassifier("CWE-1", children, weights)
    else:
        scorer = TwoLayerClassifier("CWE-1", children, rng.normal(size=(d, hidden)),
                                    rng.normal(size=(hidden, c)))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([1e-9, 0.02, 0.3])),
        max_epochs=draw(st.integers(0, 6)),
        batch_size=draw(st.integers(1, 4)),
        early_stop_patience=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**16)),
    )
    return scorer, examples, cfg


class TestBlockFit:
    """``train_node`` fits the support rows only, and matches the dense fit."""

    @settings(max_examples=200, deadline=None)
    @given(fits())
    def test_block_fit_equals_dense_fit(self, case):
        scorer, examples, cfg = case
        trained, losses = train_node(scorer, examples, cfg)
        expected, expected_losses = oracle.train_node(scorer, examples, cfg)
        assert losses == expected_losses
        dense = oracle.dense_params(expected)
        assert oracle.dense_params(trained).keys() == dense.keys()
        for name, value in oracle.dense_params(trained).items():
            assert value.tobytes() == dense[name].tobytes(), name
        # The rows the scorer stored stay stored, and so do the support rows.
        matrix = getattr(trained, trained.ROW_PARAM)
        assert set(getattr(scorer, scorer.ROW_PARAM).rows.tolist()) <= set(matrix.rows.tolist())
        assert set(examples.positions.tolist()) <= set(matrix.rows.tolist())

    @settings(max_examples=60, deadline=None)
    @given(fits())
    def test_input_scorer_is_left_unchanged(self, case):
        scorer, examples, cfg = case
        before = {name: value.copy() for name, value in scorer.params().items()}
        trained, _ = train_node(scorer, examples, cfg)
        for name, value in scorer.params().items():
            assert value.tobytes() == before[name].tobytes()
            assert not np.shares_memory(trained.params()[name], value)

    def test_plateau_stop_matches_dense_fit(self):
        # A learning rate too small to move the loss stops after the patience.
        c, examples = separable_toy()
        cfg = TrainConfig(learning_rate=1e-12, max_epochs=50, early_stop_patience=3)
        trained, losses = train_node(c, examples, cfg)
        expected, expected_losses = oracle.train_node(c, examples, cfg)
        assert len(losses) == 4 and losses == expected_losses
        assert trained.weights.to_dense().tobytes() == expected.weights.to_dense().tobytes()

    def test_non_finite_weight_outside_the_support_raises(self):
        weights = np.zeros((3, 2))
        weights[2, 0] = np.inf
        examples = pack([(vec(0), np.array([1.0, 0.0])), (vec(1), np.array([0.0, 1.0]))], 3, 2)
        with pytest.raises(TrainingError):
            train_node(clf(weights), examples, TrainConfig(max_epochs=1))


def reference_two_layer(net, batch):
    """Per-example loss and backpropagated gradients of a two-layer scorer."""
    w_hidden = net.w_hidden.to_dense()
    g_hidden = np.zeros_like(w_hidden)
    g_out = np.zeros_like(net.w_out)
    scale = 1.0 / (net.w_out.shape[1] * len(batch))
    losses = []
    for feature, targets in batch:
        hidden = sigmoid(w_hidden[feature].sum(axis=0))
        logits = hidden @ net.w_out
        losses.append(bce_with_logits(logits, targets))
        residual = (sigmoid(logits) - targets) * scale
        g_out += np.outer(hidden, residual)
        d_pre = (net.w_out @ residual) * hidden * (1.0 - hidden)
        g_hidden[feature] += d_pre
    return float(np.mean(losses)), g_hidden, g_out


class TestTwoLayer:
    def make(self, rng, d=6, h=4, c_out=2):
        return TwoLayerClassifier(
            node_id="CWE-1",
            child_ids=tuple(f"CWE-{i + 10}" for i in range(c_out)),
            w_hidden=rng.normal(size=(d, h)),
            w_out=rng.normal(size=(h, c_out)),
        )

    def test_gradient_matches_finite_differences(self, rng):
        net = self.make(rng)
        batch = pack([
            (vec(0, 3), np.array([1.0, 0.0])),
            (vec(1, 2, 5), np.array([0.0, 1.0])),
        ], 6, 2)
        _, grads = net.loss_and_grads(batch)
        h = 1e-4

        def loss_of(w_hidden, w_out):
            probe = TwoLayerClassifier(
                node_id="CWE-1", child_ids=net.child_ids, w_hidden=w_hidden, w_out=w_out
            )
            return probe.loss_and_grads(batch)[0]

        for attr in ("w_hidden", "w_out"):
            base = net.params()
            numeric = np.zeros_like(base[attr])
            for k in range(numeric.shape[0]):
                for i in range(numeric.shape[1]):
                    plus, minus = dict(base), dict(base)
                    plus[attr], minus[attr] = base[attr].copy(), base[attr].copy()
                    plus[attr][k, i] += h
                    minus[attr][k, i] -= h
                    numeric[k, i] = (loss_of(**plus) - loss_of(**minus)) / (2 * h)
            denom = max(np.abs(numeric).max(), 1e-8)
            assert np.abs(grads[attr] - numeric).max() / denom <= 1e-5

    @settings(max_examples=150, deadline=None)
    @given(weights_and_batches(), st.integers(1, 6), st.integers(0, 2**16))
    def test_fused_pass_matches_per_example_reference(self, case, hidden, seed):
        # Bit for bit from two hidden units up.  With one, NumPy sums the
        # one-column slice of a record pairwise, the batch in order.
        _, batch = case
        d, c = case[0].shape
        rng = np.random.default_rng(seed)
        net = self.make(rng, d=d, h=hidden, c_out=c)
        loss, grads = net.loss_and_grads(pack(batch, d, c))
        ref_loss, ref_hidden, ref_out = reference_two_layer(net, batch)
        if hidden >= 2:
            assert loss == ref_loss
            np.testing.assert_array_equal(grads["w_hidden"], ref_hidden)
            np.testing.assert_array_equal(grads["w_out"], ref_out)
        else:
            assert abs(loss - ref_loss) <= 1e-15 * max(1.0, abs(ref_loss))
            np.testing.assert_allclose(grads["w_hidden"], ref_hidden, rtol=0, atol=1e-15)
            np.testing.assert_allclose(grads["w_out"], ref_out, rtol=0, atol=1e-15)

    def test_training_reduces_loss(self, rng):
        net = self.make(rng)
        examples = pack([
            (vec(0), np.array([1.0, 0.0])),
            (vec(5), np.array([0.0, 1.0])),
        ], 6, 2)
        trained, losses = train_node(net, examples, TrainConfig(max_epochs=50, seed=1))
        assert losses[-1] < losses[0]
        assert set(trained.params()) == {"w_hidden", "w_out"}

    def test_non_finite_weights_raise_training_error(self, rng):
        net = self.make(rng)
        examples = pack([(vec(0), np.array([1.0, 0.0])), (vec(5), np.array([0.0, 1.0]))], 6, 2)
        cfg = TrainConfig(learning_rate=1e308, max_epochs=5, batch_size=1)
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            train_node(net, examples, cfg)

    def test_batch_scores_equal_per_record_logits(self, rng):
        net = self.make(rng, d=8, h=5, c_out=3)
        features = [vec(0, 3, 7), vec(), vec(1, 2, 4, 5, 6), vec(0, 3, 7)]
        batched = forward_scores(net, CsrBatch.pack(features, 8))
        for feature, row in zip(features, batched):
            np.testing.assert_array_equal(row, sigmoid(two_layer_logits(net, feature)))

    def test_shape_validation(self, rng):
        with pytest.raises(ConfigurationError):
            TwoLayerClassifier(
                node_id="CWE-1",
                child_ids=("CWE-10",),
                w_hidden=rng.normal(size=(4, 3)),
                w_out=rng.normal(size=(2, 1)),
            )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=20))
@example([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 36.0, -745.2])
def test_sigmoid_equals_the_masked_form_to_the_bit(values):
    x = np.array(values, dtype=np.float64)
    assert same_bits(sigmoid(x), oracle.sigmoid(x))


def test_sigmoid_extremes():
    values = sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert values[0] == 0.0
    assert values[1] == 0.5
    assert values[2] == 1.0
