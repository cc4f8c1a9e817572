import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwemap.errors import ConfigurationError, TrainingError
from cwemap.features import FeatureVector
from cwemap.netcore import (
    AdamState,
    CsrBatch,
    NodeClassifier,
    TrainConfig,
    TwoLayerClassifier,
    adam_step,
    batch_loss,
    bce_with_logits,
    forward_logits,
    forward_scores,
    gradient,
    loss_and_gradient,
    sigmoid,
    train_node,
    train_two_layer,
    two_layer_gradient,
    two_layer_logits,
)


def fv(dimension, *positions):
    return FeatureVector(dimension=dimension, on_positions=tuple(sorted(positions)))


def clf(weights, node_id="CWE-1"):
    weights = np.asarray(weights, dtype=np.float64)
    children = tuple(f"CWE-{i + 10}" for i in range(weights.shape[1]))
    return NodeClassifier(node_id=node_id, child_ids=children, weights=weights)


def dense_logits_oracle(weights, feature):
    dense = np.zeros(weights.shape[0])
    dense[list(feature.on_positions)] = 1.0
    return dense @ weights


class TestForward:
    def test_zero_vector_gives_zero_logits(self):
        c = clf(np.ones((4, 3)))
        np.testing.assert_array_equal(forward_logits(c, fv(4)), np.zeros(3))

    def test_single_row_selection(self):
        c = clf([[0.2, -0.1], [9.0, 9.0]])
        np.testing.assert_allclose(forward_logits(c, fv(2, 0)), [0.2, -0.1], atol=1e-15)

    def test_matches_dense_oracle(self, rng):
        weights = rng.normal(size=(5, 3))
        c = clf(weights)
        feature = fv(5, 0, 3)
        np.testing.assert_allclose(
            forward_logits(c, feature), dense_logits_oracle(weights, feature), atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        c = clf(np.ones((4, 2)))
        with pytest.raises(ConfigurationError):
            forward_logits(c, fv(5, 1))

    def test_linearity_over_disjoint_supports(self, rng):
        weights = rng.normal(size=(8, 3))
        c = clf(weights)
        a, b = fv(8, 0, 2), fv(8, 5, 7)
        union = fv(8, 0, 2, 5, 7)
        np.testing.assert_allclose(
            forward_logits(c, union),
            forward_logits(c, a) + forward_logits(c, b),
            atol=1e-12,
        )

    def test_scores(self):
        c = clf(np.zeros((3, 2)))
        np.testing.assert_allclose(forward_scores(c, fv(3, 1)), [0.5, 0.5], atol=1e-15)
        c2 = clf([[20.0, -20.0]])
        scores = forward_scores(c2, fv(1, 0))
        assert scores[0] >= 1 - 1e-8
        assert scores[1] <= 1e-8


class TestBce:
    def test_zero_logits_cost_ln2(self):
        value = bce_with_logits(np.zeros(4), np.array([1.0, 0.0, 1.0, 0.0]))
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_near_zero(self):
        value = bce_with_logits(np.array([20.0]), np.array([1.0]))
        assert value == pytest.approx(math.log1p(math.exp(-20.0)), abs=1e-15)
        assert value < 3e-9

    def test_confident_wrong_costs_logit(self):
        value = bce_with_logits(np.array([20.0]), np.array([0.0]))
        assert value == pytest.approx(20.0 + math.log1p(math.exp(-20.0)), abs=1e-12)

    def test_stable_for_huge_logits(self):
        value = bce_with_logits(np.array([1000.0, -1000.0]), np.array([0.0, 1.0]))
        assert value == pytest.approx(1000.0, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(50):
            x = rng.normal(scale=5, size=4)
            z = rng.integers(0, 2, size=4).astype(float)
            assert bce_with_logits(x, z) >= 0.0


class TestGradient:
    def test_zero_residual_gives_zero_gradient(self):
        # zero weights -> sigma = 0.5 everywhere; targets of 0.5 cancel exactly
        c = clf(np.zeros((3, 2)))
        batch = [(fv(3, 0, 1), np.array([0.5, 0.5]))]
        np.testing.assert_array_equal(gradient(c, batch), np.zeros((3, 2)))

    def test_gradient_localized_to_on_rows(self, rng):
        c = clf(rng.normal(size=(5, 2)))
        batch = [(fv(5, 3), np.array([1.0, 0.0]))]
        g = gradient(c, batch)
        assert np.all(g[[0, 1, 2, 4]] == 0)
        assert np.any(g[3] != 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            gradient(clf(np.zeros((2, 1))), [])

    def test_matches_finite_differences(self, rng):
        d, c_out = 6, 2
        weights = rng.normal(size=(d, c_out))
        c = clf(weights)
        batch = [
            (fv(d, 0, 2), np.array([1.0, 0.0])),
            (fv(d, 1, 3, 5), np.array([0.0, 1.0])),
            (fv(d, 4), np.array([1.0, 1.0])),
        ]
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
        for position in feature.on_positions:
            logits = logits + weights[position]
        losses.append(bce_with_logits(logits, targets))
        residual = (sigmoid(logits) - targets) * scale
        if feature.on_positions:
            grad[list(feature.on_positions)] += residual
    return float(np.mean(losses)), grad


@st.composite
def weights_and_batches(draw):
    d = draw(st.integers(1, 12))
    c = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(-60.0, 60.0), min_size=d * c, max_size=d * c))
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
    batch = [(fv(d, *distinct[i][0]), np.array(distinct[i][1])) for i in picks]
    return weights, batch


class TestLossAndGradient:
    @settings(max_examples=200, deadline=None)
    @given(weights_and_batches())
    def test_matches_per_example_reference(self, case):
        weights, batch = case
        d, c = weights.shape
        loss, grad = loss_and_gradient(weights, CsrBatch.from_examples(batch, d, c))
        ref_loss, ref_grad = reference_loss_and_gradient(weights, batch)
        np.testing.assert_array_equal(grad, ref_grad)
        assert abs(loss - ref_loss) <= 1e-15 * max(1.0, abs(ref_loss))

    @settings(max_examples=100, deadline=None)
    @given(weights_and_batches())
    def test_reference_forward_is_the_row_sum(self, case):
        weights, batch = case
        if weights.shape[1] < 2:
            return  # one column: NumPy sums the rows pairwise, not in order
        for feature, _ in batch:
            logits = np.zeros(weights.shape[1])
            for position in feature.on_positions:
                logits = logits + weights[position]
            np.testing.assert_array_equal(logits, forward_logits(clf(weights), feature))

    @settings(max_examples=60, deadline=None)
    @given(weights_and_batches(), st.data())
    def test_take_gathers_the_chosen_rows(self, case, data):
        weights, batch = case
        d, c = weights.shape
        packed = CsrBatch.from_examples(batch, d, c)
        index = data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=20))
        chosen = [batch[i] for i in index]
        taken = packed.take(np.array(index))
        expected = CsrBatch.from_examples(chosen, d, c)
        np.testing.assert_array_equal(taken.positions, expected.positions)
        np.testing.assert_array_equal(taken.offsets, expected.offsets)
        np.testing.assert_array_equal(taken.targets, expected.targets)

    def test_wrappers_agree_with_fused_pass(self, rng):
        weights = rng.normal(size=(6, 3))
        batch = [(fv(6, 0, 4), np.array([1.0, 0.0, 1.0])), (fv(6), np.array([0.0, 1.0, 0.0]))]
        loss, grad = loss_and_gradient(weights, CsrBatch.from_examples(batch, 6, 3))
        assert batch_loss(clf(weights), batch) == loss
        np.testing.assert_array_equal(gradient(clf(weights), batch), grad)

    def test_target_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            gradient(clf(np.zeros((3, 2))), [(fv(3, 1), np.array([1.0, 0.0, 0.0]))])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CsrBatch.from_examples([(fv(4, 1), np.array([1.0, 0.0]))], 3, 2)


class TestAdam:
    def cfg(self, **overrides):
        return TrainConfig(**overrides)

    def test_zero_gradient_leaves_weights(self):
        w = np.array([[1.0, -2.0]])
        w2, state = adam_step(w, np.zeros_like(w), AdamState.zeros_like(w), self.cfg())
        np.testing.assert_array_equal(w2, w)
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
        previous = 0.0
        for _ in range(5):
            w, state = adam_step(w, g, state, self.cfg())
            assert w[0, 0] < previous
            previous = w[0, 0]


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
        (fv(3, 0), np.array([1.0, 0.0])),
        (fv(3, 1), np.array([0.0, 1.0])),
        (fv(3, 0, 2), np.array([1.0, 0.0])),
        (fv(3, 1, 2), np.array([0.0, 1.0])),
    ]
    return c, examples


class TestTrainNode:
    def test_zero_epoch_budget_returns_weights_unchanged(self):
        c, examples = separable_toy()
        trained, losses = train_node(c, examples, TrainConfig(max_epochs=0))
        np.testing.assert_array_equal(trained.weights, c.weights)
        assert losses == []

    def test_determinism(self):
        c, examples = separable_toy()
        cfg = TrainConfig(max_epochs=30, seed=123, batch_size=2)
        t1, l1 = train_node(c, examples, cfg)
        t2, l2 = train_node(c, examples, cfg)
        np.testing.assert_array_equal(t1.weights, t2.weights)
        assert l1 == l2

    def test_separable_toy_converges_fast(self):
        c, examples = separable_toy()
        cfg = TrainConfig(max_epochs=10, batch_size=4, seed=0)
        trained, losses = train_node(c, examples, cfg)
        assert losses[0] <= math.log(2) + 1e-9
        # training accuracy: every positive class strictly clears every negative
        for feature, target in examples:
            scores = forward_scores(trained, feature)
            predicted = scores >= 0.5
            assert (predicted == target.astype(bool)).all()

    def test_one_small_step_decreases_loss(self, rng):
        weights = rng.normal(size=(4, 2))
        c = clf(weights)
        batch = [
            (fv(4, 0, 1), np.array([1.0, 0.0])),
            (fv(4, 2), np.array([0.0, 1.0])),
        ]
        before = batch_loss(c, batch)
        g = gradient(c, batch)
        after = batch_loss(clf(weights - 1e-3 * g), batch)
        assert after < before

    def test_empty_examples_rejected(self):
        c, _ = separable_toy()
        with pytest.raises(ConfigurationError):
            train_node(c, [], TrainConfig())

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
        batch = [
            (fv(6, 0, 3), np.array([1.0, 0.0])),
            (fv(6, 1, 2, 5), np.array([0.0, 1.0])),
        ]
        g_h, g_o = two_layer_gradient(net, batch)
        h = 1e-4

        def loss_of(w_hidden, w_out):
            probe = TwoLayerClassifier(
                node_id="CWE-1", child_ids=net.child_ids, w_hidden=w_hidden, w_out=w_out
            )
            return float(
                np.mean([bce_with_logits(two_layer_logits(probe, f), z) for f, z in batch])
            )

        for grad_matrix, attr in ((g_h, "w_hidden"), (g_o, "w_out")):
            base_h, base_o = net.w_hidden.copy(), net.w_out.copy()
            numeric = np.zeros_like(grad_matrix)
            target = base_h if attr == "w_hidden" else base_o
            for k in range(target.shape[0]):
                for i in range(target.shape[1]):
                    plus, minus = target.copy(), target.copy()
                    plus[k, i] += h
                    minus[k, i] -= h
                    if attr == "w_hidden":
                        numeric[k, i] = (loss_of(plus, base_o) - loss_of(minus, base_o)) / (2 * h)
                    else:
                        numeric[k, i] = (loss_of(base_h, plus) - loss_of(base_h, minus)) / (2 * h)
            denom = max(np.abs(numeric).max(), 1e-8)
            assert np.abs(grad_matrix - numeric).max() / denom <= 1e-5

    def test_training_reduces_loss(self, rng):
        net = self.make(rng)
        examples = [
            (fv(6, 0), np.array([1.0, 0.0])),
            (fv(6, 5), np.array([0.0, 1.0])),
        ]
        trained, losses = train_two_layer(net, examples, TrainConfig(max_epochs=50, seed=1))
        assert losses[-1] < losses[0]

    def test_shape_validation(self, rng):
        with pytest.raises(ConfigurationError):
            TwoLayerClassifier(
                node_id="CWE-1",
                child_ids=("CWE-10",),
                w_hidden=rng.normal(size=(4, 3)),
                w_out=rng.normal(size=(2, 1)),
            )


def test_sigmoid_extremes():
    values = sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert values[0] == 0.0
    assert values[1] == 0.5
    assert values[2] == 1.0
