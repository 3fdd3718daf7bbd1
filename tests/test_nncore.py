"""Substrate tests: layers, forward, taped gradients, FLOPs, checkpoints."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edgecloud import nncore
from edgecloud.nncore import (ConfigError, GradientTape, Param, UsageError,
                              adjoints, dense, flops, forward, residual_block)

from conftest import (finite_difference_grads, max_relative_error, op_mul, random_net,
                      scalar_forward_reference)


class TestForward:
    def test_identity_dense_passes_input_through(self):
        layer = dense(2, 2, nncore.IDENTITY, weight=np.eye(2), bias=np.zeros(2))
        out = forward([layer], np.array([3.0, 4.0]))
        assert np.array_equal(out, [3.0, 4.0])

    def test_zero_weight_residual_is_identity(self):
        block = residual_block(3)  # zero-init
        v = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(forward([block], v), v)

    def test_dense_relu_hand_example(self):
        layer = dense(2, 2, nncore.RELU, weight=[[1.0, 2.0], [3.0, 4.0]], bias=[1.0, 1.0])
        out = forward([layer], np.array([1.0, -1.0]))
        assert np.array_equal(out, [0.0, 0.0])

    def test_matches_scalar_reference_evaluator(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            layers, in_dim = random_net(rng)
            x = rng.standard_normal(in_dim)
            got = forward(layers, x)
            want = scalar_forward_reference(layers, x)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_names_layer(self):
        layers = [dense(3, 4), dense(5, 2)]
        with pytest.raises(ConfigError, match="layer 1"):
            forward(layers, np.zeros(3))

    def test_batched_equals_rowwise(self):
        rng = np.random.default_rng(3)
        layers, in_dim = random_net(rng)
        X = rng.standard_normal((6, in_dim))
        batched = forward(layers, X)
        assert batched.shape[0] == 6
        for i in range(6):
            assert np.allclose(batched[i], forward(layers, X[i]), rtol=1e-12, atol=1e-14)

    def test_finite_outputs_for_finite_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            layers, in_dim = random_net(rng)
            out = forward(layers, rng.standard_normal((4, in_dim)) * 100)
            assert np.all(np.isfinite(out))


class TestBackward:
    def test_linear_loss_gradient(self):
        # loss = w * x with x = 3
        w = Param("w", [[2.0]])
        b = Param("b", [0.0])
        tape = GradientTape()
        x = tape.input(np.array([[3.0]]))
        out = nncore.op_affine(tape, x, w, b)
        grads = adjoints(tape, nncore.op_mean(tape, out))
        assert grads[w].item() == pytest.approx(3.0)

    def test_quadratic_loss_gradient(self):
        # loss = (w - 2)^2 at w = 5 -> gradient 6
        w = Param("w", [[5.0]])
        b = Param("b", [-2.0])
        tape = GradientTape()
        x = tape.input(np.array([[1.0]]))
        z = nncore.op_affine(tape, x, w, b)
        grads = adjoints(tape, nncore.op_mean(tape, op_mul(tape, z, z)))
        assert grads[w].item() == pytest.approx(6.0)

    def test_non_scalar_tape_rejected(self):
        layer = dense(2, 2, rng=np.random.default_rng(0))
        tape = GradientTape()
        out = nncore.forward_on_tape(tape, [layer], tape.input(np.zeros((1, 2))))
        with pytest.raises(UsageError, match="scalar"):
            adjoints(tape, out)

    def test_finite_difference_spot_check(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            layers, in_dim = random_net(rng)
            X = rng.standard_normal((8, in_dim))
            params = [p for layer in layers for p in layer.params()]

            def loss_value():
                out = forward(layers, X)
                return float((out * out).mean())

            tape = GradientTape()
            out = nncore.forward_on_tape(tape, layers, tape.input(X))
            grads = adjoints(tape, nncore.op_mean(tape, op_mul(tape, out, out)))
            analytic = [grads[p] for p in params]
            numeric = finite_difference_grads(loss_value, params)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_input_gradient_available(self):
        # a gradient with respect to data is taken through a Param leaf
        layer = dense(2, 1, nncore.IDENTITY, weight=[[2.0, -1.0]], bias=[0.0])
        x = Param("x", [[1.0, 1.0]])
        tape = GradientTape()
        out = nncore.forward_on_tape(tape, [layer], tape.param(x))
        grads = adjoints(tape, nncore.op_mean(tape, out))
        assert np.allclose(grads[x], [[2.0, -1.0]])

    def test_untouched_param_gets_zero_gradient(self):
        # a param the loss does not reach has zero gradient: it is absent
        w = Param("w", [[1.0]])
        v = Param("v", [[3.0]])
        tape = GradientTape()
        tape.param(w)  # touched in forward, disconnected from the loss
        x = tape.input(np.array([[2.0]]))
        grads = adjoints(tape, nncore.op_mean(tape, op_mul(tape, tape.param(v), x)))
        assert w not in grads
        assert list(grads) == [v] and np.array_equal(grads[v], [[2.0]])

    def test_two_losses_one_tape_are_independent(self):
        w = Param("w", [[1.5]])
        b = Param("b", [0.0])
        tape = GradientTape()
        x = tape.input(np.array([[2.0]]))
        z = nncore.op_affine(tape, x, w, b)
        loss_a = nncore.op_mean(tape, z)
        loss_b = nncore.op_mean(tape, op_mul(tape, z, z))
        ga = adjoints(tape, loss_a)
        gb = adjoints(tape, loss_b)
        assert ga[w].item() == pytest.approx(2.0)
        assert gb[w].item() == pytest.approx(2.0 * 1.5 * 2.0 * 2.0)


class TestDeterminism:
    def test_same_seed_same_init_and_grads(self):
        def build():
            rng = np.random.default_rng(42)
            layers, in_dim = random_net(rng)
            X = np.random.default_rng(1).standard_normal((4, in_dim))
            tape = GradientTape()
            out = nncore.forward_on_tape(tape, layers, tape.input(X))
            grads = adjoints(tape, nncore.op_mean(tape, op_mul(tape, out, out)))
            return layers, out.value, grads

        layers_a, out_a, grads_a = build()
        layers_b, out_b, grads_b = build()
        assert np.array_equal(out_a, out_b)
        for pa, pb in zip((p for l in layers_a for p in l.params()),
                          (p for l in layers_b for p in l.params())):
            assert np.array_equal(pa.value, pb.value)
            assert np.array_equal(grads_a[pa], grads_b[pb])


class TestFlops:
    def test_empty_layer_list(self):
        assert flops([]) == 0

    def test_dense_4_to_3(self):
        assert flops([dense(4, 3)]) == 2 * 4 * 3 + 3

    def test_residual_dim_4(self):
        assert flops([residual_block(4)]) == 2 * (2 * 16 + 4) + 4

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layers, _ = random_net(rng)
            cut = int(rng.integers(0, len(layers) + 1))
            assert flops(layers) == flops(layers[:cut]) + flops(layers[cut:])


class TestLayerValidation:
    def test_residual_requires_square(self):
        w = [np.zeros((3, 2)), np.zeros((3, 3))]
        with pytest.raises(ConfigError):
            nncore.LayerSpec(nncore.RESIDUAL, 2, 3, nncore.IDENTITY,
                             [Param("w1", w[0]), Param("w2", w[1])],
                             [Param("b1", np.zeros(3)), Param("b2", np.zeros(3))])

    def test_param_shape_checked(self):
        with pytest.raises(ConfigError):
            dense(3, 2, weight=np.zeros((2, 4)))

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            dense(2, 2, "tanh")


class TestCheckpoints:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        layers, _ = random_net(rng)
        params = [p for layer in layers for p in layer.params()]
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, params)
        before = nncore.params_digest(params)
        # perturb, then restore
        for p in params:
            p.value = p.value + 1.0
        nncore.restore_params(params, nncore.load_params(path))
        assert nncore.params_digest(params) == before

    def test_missing_param_rejected(self, tmp_path):
        p = Param("only", np.ones(3))
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [p])
        other = Param("other", np.ones(3))
        with pytest.raises(ConfigError, match="other"):
            nncore.restore_params([other], nncore.load_params(path))

    def test_unversioned_file_rejected(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez(path, a=np.ones(2))
        with pytest.raises(ConfigError):
            nncore.load_params(path)

    def test_digest_tracks_mutation(self):
        p = Param("p", np.ones(4))
        d0 = nncore.params_digest([p])
        p.value[0] = 2.0
        assert nncore.params_digest([p]) != d0


# ---------------------------------------------------------------------------
# The in-place kernels against the expressions they replaced, bit for bit.

def reference_sigmoid(x):
    """Mask-based logistic: ``1/(1+exp(-x))`` where ``x >= 0``, else
    ``exp(x)/(1+exp(x))``, gathered and scattered by boolean masks."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_apply_layer(layer, x):
    """Out-of-place layer forward: one fresh array per operation."""
    if layer.kind == nncore.DENSE:
        y = x @ layer.weights[0].value.T + layer.biases[0].value
    else:
        h = np.maximum(x @ layer.weights[0].value.T + layer.biases[0].value, 0.0)
        y = x + (h @ layer.weights[1].value.T + layer.biases[1].value)
    if layer.activation == nncore.RELU:
        y = np.maximum(y, 0.0)
    return y


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300, 5e-324, -5e-324]
EDGE_FLOATS = st.one_of(st.sampled_from(SPECIAL),
                        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
                        st.floats(-40.0, 40.0))


@st.composite
def layer_cases(draw):
    """A dense or residual layer's kind, activation, weights and biases, and
    an input batch for it, every float drawn from ``EDGE_FLOATS``."""
    kind = draw(st.sampled_from([nncore.DENSE, nncore.RESIDUAL]))
    activation = draw(st.sampled_from([nncore.RELU, nncore.IDENTITY]))
    rows = draw(st.integers(1, 6))
    in_dim, out_dim = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if kind == nncore.RESIDUAL:
        out_dim = in_dim
    mats = [(out_dim, in_dim)] if kind == nncore.DENSE else [(in_dim, in_dim)] * 2
    weights = [draw(arrays(np.float64, shape, elements=EDGE_FLOATS)) for shape in mats]
    biases = [draw(arrays(np.float64, (out_dim,), elements=EDGE_FLOATS)) for _ in mats]
    x = draw(arrays(np.float64, (rows, in_dim), elements=EDGE_FLOATS))
    return kind, activation, weights, biases, x


class TestInPlaceKernelsAreBitExact:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 9)), elements=EDGE_FLOATS))
    def test_sigmoid_matches_mask_based_reference(self, x):
        before = x.copy()
        out = nncore.sigmoid(x)
        assert np.array_equal(bits(out), bits(reference_sigmoid(x)))
        assert np.array_equal(bits(x), bits(before))

    def test_sigmoid_special_values(self):
        x = np.array(SPECIAL)
        assert np.array_equal(bits(nncore.sigmoid(x)), bits(reference_sigmoid(x)))
        assert np.array_equal(bits(nncore.sigmoid(np.float64(-3.0))), bits(reference_sigmoid(-3.0)))

    @settings(max_examples=150, deadline=None)
    @given(layer_cases())
    # 0 * inf is -NaN; adding a NaN bias keeps that sign out of place and
    # clears it in place, so this input fails a bit-exact NaN comparison
    @example((nncore.DENSE, nncore.IDENTITY, [np.array([[np.inf]])], [np.array([np.nan])],
              np.array([[0.0]])))
    def test_apply_layer_matches_out_of_place_reference(self, case):
        kind, activation, weights, biases, x = case
        if kind == nncore.DENSE:
            layer = dense(x.shape[1], len(biases[0]), activation, weight=weights[0],
                          bias=biases[0])
        else:
            layer = residual_block(x.shape[1], activation, weights=weights, biases=biases)
        saved = [x.copy()] + [p.value.copy() for p in layer.params()]
        with np.errstate(all="ignore"):
            got = nncore.apply_layer(layer, x)
            want = reference_apply_layer(layer, x)
        # a NaN's sign is outside the byte-identity contract: forward raises
        # on any non-finite activation, so no output can carry one
        nan = np.isnan(got)
        assert np.array_equal(nan, np.isnan(want))
        assert np.array_equal(bits(got)[~nan], bits(want)[~nan])
        for arr, copy in zip([x] + [p.value for p in layer.params()], saved):
            assert np.array_equal(bits(arr), bits(copy))
