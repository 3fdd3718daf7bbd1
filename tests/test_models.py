"""Model composition tests: taps, adapters, split inference, confidence."""

import numpy as np
import pytest

from edgecloud import nncore
from edgecloud.models import (NORMAL_CLASS, AdapterSpec, ModelSpec, adapt, cloud_tail,
                              confidence, feedforward, infer, infer_with_tap,
                              make_adapter, softmax)
from edgecloud.nncore import ConfigError, UsageError, dense, flops, residual_block


def small_cloud(seed=0):
    rng = np.random.default_rng(seed)
    return feedforward("cloud", 6, [10, 10, 10], 4, rng)


class TestSoftmaxHead:
    def test_equal_logits_give_uniform(self):
        model = ModelSpec("m", [dense(3, 5, nncore.IDENTITY, weight=np.zeros((5, 3)),
                                      bias=np.full(5, 2.5))], 5)
        probs = infer(model, np.ones((1, 3)))
        assert np.allclose(probs, 0.2, atol=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        mpmath = pytest.importorskip("mpmath")
        probs = softmax(np.array([1000.0, 0.0]))
        mpmath.mp.dps = 60
        e = mpmath.exp(mpmath.mpf(1000))
        expected = [float(e / (e + 1)), float(1 / (e + 1))]
        assert np.all(np.isfinite(probs))
        assert abs(probs[0] - expected[0]) < 1e-9
        assert abs(probs[1] - expected[1]) < 1e-9
        assert abs(probs[0] - 1.0) < 1e-9 and abs(probs[1]) < 1e-9

    def test_rows_normalized_and_in_unit_interval(self):
        rng = np.random.default_rng(2)
        probs = infer(small_cloud(), rng.standard_normal((50, 6)) * 3)
        assert np.all(probs >= 0) and np.all(probs <= 1)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestTaps:
    def test_tap_zero_of_single_layer_net(self):
        rng = np.random.default_rng(1)
        layer = dense(4, 3, nncore.RELU, rng=rng)
        model = ModelSpec("m", [layer, dense(3, 2, nncore.IDENTITY, rng=rng)], 2)
        x = rng.standard_normal((1, 4))
        _, feat = infer_with_tap(model, x, 0)
        assert np.array_equal(feat, nncore.forward([layer], x))

    def test_split_cuts_after_the_tap(self):
        cloud = small_cloud()
        for tap in range(len(cloud.layers)):
            prefix, tail = cloud.split(tap)
            assert len(prefix) == tap + 1
            assert all(a is b for a, b in zip(prefix + tail, cloud.layers, strict=True))
            assert cloud.tap_dim(tap) == cloud.layers[tap].out_dim
        assert tail == []  # the head's tap leaves nothing after it

    def test_an_adapter_splits_each_net_at_its_own_end(self):
        edge = feedforward("edge", 6, [5], 4, np.random.default_rng(0))
        cloud = small_cloud()
        adapter = make_adapter("a", 0, 1, 5, 10, 1, np.random.default_rng(1))
        assert adapter.split(edge, "edge") == edge.split(0)
        assert adapter.split(cloud, "cloud") == cloud.split(1)
        # given as the cloud, the edge's tap 1 is its 4-wide head
        with pytest.raises(ConfigError, match="^adapter 'a' does not fit 'edge': tap 1 is 4 "
                                              "wide, its projection writes 10$"):
            adapter.split(edge, "cloud")

    def test_probs_match_plain_infer(self):
        cloud = small_cloud()
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 6))
        probs, _ = infer_with_tap(cloud, X, 1)
        assert np.array_equal(probs, infer(cloud, X))


class TestAdapt:
    def test_identity_projection_zero_blocks_pass_through(self):
        proj = dense(4, 4, nncore.IDENTITY, weight=np.eye(4), bias=np.zeros(4), name="p")
        block = residual_block(4, name="r")  # zero weights
        adapter = AdapterSpec("a", 0, 1, proj, [block])
        feat = np.array([[0.3, -0.7, 1.1, 0.0]])
        assert np.array_equal(adapt(adapter, feat), feat)

    def test_zero_projection_gives_zero_feature(self):
        proj = dense(3, 5, nncore.IDENTITY, name="p")  # zero-init
        adapter = AdapterSpec("a", 0, 2, proj, [residual_block(5)])
        assert np.array_equal(adapt(adapter, np.ones((1, 3))), np.zeros((1, 5)))

    def test_matches_manual_layer_composition(self):
        rng = np.random.default_rng(4)
        adapter = make_adapter("a", 0, 1, 5, 9, 2, rng)
        feat = rng.standard_normal((3, 5))
        out = adapt(adapter, feat)
        manual = feat
        for layer in adapter.layers():
            manual = nncore.apply_layer(layer, manual)
        assert np.array_equal(out, manual)

    def test_wrong_dim_rejected(self):
        adapter = make_adapter("a", 0, 2, 5, 9, 1, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="^layer 0 expects input dim 5, got 6$"):
            adapt(adapter, np.zeros((1, 6)))

    def test_plain_single_dense_adapter_allowed(self):
        adapter = make_adapter("a", 0, 1, 5, 9, 0, np.random.default_rng(0))
        assert adapter.num_blocks == 0
        assert adapt(adapter, np.ones((1, 5))).shape == (1, 9)


class TestCloudTail:
    def test_reinjection_reproduces_full_output_bit_exactly(self):
        cloud = small_cloud()
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 6))
        full = infer(cloud, X)
        for tap in range(len(cloud.layers) - 1):
            probs, feat = infer_with_tap(cloud, X, tap)
            resumed = cloud_tail(cloud, feat, tap)
            assert np.array_equal(resumed, full)
            assert np.array_equal(probs, full)

    def test_last_hidden_tap_is_classifier_head(self):
        cloud = small_cloud()
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 6))
        _, feat = infer_with_tap(cloud, x, 2)
        head_only = softmax(nncore.forward([cloud.layers[-1]], feat))
        assert np.array_equal(cloud_tail(cloud, feat, 2), head_only)

    def test_flops_split_is_additive(self):
        prefix, tail = small_cloud().split(1)
        assert flops(prefix) + flops(tail) == small_cloud().total_flops()

    def test_wrong_dim_rejected(self):
        with pytest.raises(ConfigError, match="^injected dim 7 != tap 1 dim 10$"):
            cloud_tail(small_cloud(), np.zeros((1, 7)), 1)

    def test_resuming_after_the_head_checks_the_dim(self):
        # the layer slice after the last tap is empty: the probabilities are
        # the softmax of the injected logits, and their width is still checked
        model = ModelSpec("m", [dense(3, 4, rng=np.random.default_rng(0)),
                                dense(4, 2, nncore.IDENTITY, rng=np.random.default_rng(1))],
                          2)
        logits = np.array([[0.5, -1.0], [2.0, 2.0]])
        assert np.array_equal(cloud_tail(model, logits, 1), softmax(logits))
        with pytest.raises(ConfigError, match="tap 1 dim 2"):
            cloud_tail(model, np.zeros((2, 4)), 1)


def overflowing_model():
    """Two layers whose head overflows to inf on a finite tap-0 feature."""
    hidden = dense(2, 2, nncore.IDENTITY, weight=np.eye(2), bias=np.zeros(2), name="h")
    head = dense(2, 2, nncore.IDENTITY, weight=[[1e300, 1e300], [0.0, 0.0]],
                 bias=np.zeros(2), name="head")
    return ModelSpec("m", [hidden, head], 2)


class TestNonFiniteOutputsRaise:
    """Every split path raises on non-finite activations instead of
    returning NaN probabilities."""

    def test_cloud_tail_on_an_overflowing_head(self):
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError):
            cloud_tail(overflowing_model(), np.array([[1e10, 1e10]]), 0)

    def test_infer_with_tap_on_an_overflowing_head(self):
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError):
            infer_with_tap(overflowing_model(), np.array([[1e10, 1e10]]), 0)

    def test_adapt_on_an_overflowing_projection(self):
        proj = dense(2, 2, nncore.IDENTITY, weight=[[1e300, 1e300], [0.0, 0.0]],
                     bias=np.zeros(2), name="p")
        adapter = AdapterSpec("a", 0, 0, proj, [])
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError):
            adapt(adapter, np.array([[1e10, 1e10]]))


class TestConfidence:
    def test_the_normal_class_probability_of_each_row(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]])
        out = confidence(probs)
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert np.array_equal(out, probs[:, NORMAL_CLASS])

    def test_one_row_is_a_batch_of_one(self):
        out = confidence([[0.1, 0.9]])
        assert out.shape == (1,) and out[0] == pytest.approx(0.1)

    def test_unnormalized_rejected(self):
        with pytest.raises(UsageError, match="^probabilities must sum to 1$"):
            confidence([[0.5, 0.2]])

    @pytest.mark.parametrize("probs", [[0.7, 0.3], 0.7, [[[0.7, 0.3]]]], ids=["1-D", "0-D", "3-D"])
    def test_anything_but_a_batch_is_refused(self, probs):
        with pytest.raises(UsageError, match=r"^probabilities must be an \(n, classes\) batch, "
                                             r"got shape \("):
            confidence(probs)


CLOUD, ADAPTER = small_cloud(), make_adapter("a", 0, 1, 10, 10, 1, np.random.default_rng(0))
SPLIT_PATHS = {"infer": (lambda x: infer(CLOUD, x), 6),
               "infer_with_tap": (lambda x: infer_with_tap(CLOUD, x, 0)[0], 6),
               "adapt": (lambda x: adapt(ADAPTER, x), 10),
               "cloud_tail": (lambda x: cloud_tail(CLOUD, x, 0), 10)}


@pytest.mark.parametrize("path", SPLIT_PATHS)
def test_every_split_path_refuses_a_single_vector(path):
    call, width = SPLIT_PATHS[path]
    with pytest.raises(UsageError, match=rf"^input must be an \(n, d\) batch, got shape \({width},\)$"):
        call(np.zeros(width))
    assert call(np.zeros((1, width))).shape[0] == 1


class TestSpecsAndIO:
    def test_model_invariants(self):
        with pytest.raises(ConfigError, match="^last layer out_dim 4 != num_classes 5$"):
            ModelSpec("m", [dense(3, 4)], 5)  # head width != classes

    def test_adapter_block_width_checked(self):
        proj = dense(3, 5, name="p")
        with pytest.raises(ConfigError, match="^adapter block 0 width 4 != projection out 5$"):
            AdapterSpec("a", 0, 1, proj, [residual_block(4)])
