"""Substrate tests: layers, forward, training passes and their gradients,
FLOPs, checkpoints."""

import concurrent.futures
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edgecloud import nncore
from edgecloud.nncore import (ConfigError, GradientTape, Param, UsageError,
                              adjoints, dense, flops, forward, residual_block)

from conftest import (CHECKPOINT_DAMAGE, damage_checkpoint, finite_difference_grads,
                      max_relative_error, param_grads, random_net, scalar_forward_reference)
from reference_tape import Tape, op_add, reference_mean_square, reference_stack


def mean(out):
    """``mean(out)`` and its backward."""
    return np.asarray(out.mean()), lambda g: np.full(out.shape, float(g) / out.size)


def mean_square(out):
    """``mean(out * out)`` and its backward, with the reference chain's
    product and mean backwards in its order."""
    def backward(g):
        g_mean = np.full(out.shape, float(g) / out.size)
        return g_mean * out + g_mean * out

    return np.asarray((out * out).mean()), backward


class TestForward:
    def test_identity_dense_passes_input_through(self):
        layer = dense(2, 2, nncore.IDENTITY, weight=np.eye(2), bias=np.zeros(2))
        out = forward([layer], np.array([[3.0, 4.0]]))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_zero_weight_residual_is_identity(self):
        block = residual_block(3)  # zero-init
        v = np.array([[0.5, -1.5, 2.0]])
        assert np.array_equal(forward([block], v), v)

    def test_dense_relu_hand_example(self):
        layer = dense(2, 2, nncore.RELU, weight=[[1.0, 2.0], [3.0, 4.0]], bias=[1.0, 1.0])
        out = forward([layer], np.array([[1.0, -1.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_matches_scalar_reference_evaluator(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            layers, in_dim = random_net(rng)
            x = rng.standard_normal((1, in_dim))
            got = forward(layers, x)
            want = scalar_forward_reference(layers, x[0])
            assert np.allclose(got[0], want, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_names_layer(self):
        layers = [dense(3, 4), dense(5, 2)]
        with pytest.raises(ConfigError, match="layer 1"):
            forward(layers, np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)], ids=["1-D", "3-D"])
    def test_anything_but_a_batch_is_refused(self, shape):
        with pytest.raises(UsageError, match=rf"^input must be an \(n, d\) batch, "
                                             rf"got shape {re.escape(str(shape))}$"):
            forward([dense(3, 2)], np.zeros(shape))

    def test_batched_equals_rowwise(self):
        rng = np.random.default_rng(3)
        layers, in_dim = random_net(rng)
        X = rng.standard_normal((6, in_dim))
        batched = forward(layers, X)
        assert batched.shape[0] == 6
        for i in range(6):
            assert np.allclose(batched[i], forward(layers, X[i:i + 1])[0], rtol=1e-12, atol=1e-14)

    def test_finite_outputs_for_finite_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            layers, in_dim = random_net(rng)
            out = forward(layers, rng.standard_normal((4, in_dim)) * 100)
            assert np.all(np.isfinite(out))


class TestBackward:
    def test_linear_loss_gradient(self):
        # loss = w * x with x = 3
        layer = dense(1, 1, nncore.IDENTITY, weight=[[2.0]], bias=[0.0])
        tape = GradientTape(layer.params())
        out, stack = nncore.layer_on_tape(tape, layer, np.array([[3.0]]), data=True)
        grads = param_grads(tape, lambda g: stack(mean(out)[1](g)))
        assert grads[layer.weights[0]].item() == pytest.approx(3.0)

    def test_quadratic_loss_gradient(self):
        # loss = (w - 2)^2 at w = 5 -> gradient 6
        layer = dense(1, 1, nncore.IDENTITY, weight=[[5.0]], bias=[-2.0])
        tape = GradientTape(layer.params())
        z, stack = nncore.layer_on_tape(tape, layer, np.array([[1.0]]), data=True)
        grads = param_grads(tape, lambda g: stack(mean_square(z)[1](g)))
        assert grads[layer.weights[0]].item() == pytest.approx(6.0)

    def test_the_objective_runs_once_from_a_float64_one_into_a_zeroed_row(self):
        tape = GradientTape([Param("w", [[1.0, 2.0]])])
        row, seen = np.full(2, np.nan), []
        assert adjoints(tape, lambda g: seen.append((g, row.tobytes())), row) is row
        assert seen == [(1.0, np.zeros(2).tobytes())] and type(seen[0][0]) is np.float64

    def test_a_row_its_caller_drops_is_freed(self):
        # the tape keeps the views of its last rows only, so a fresh row per
        # call, as ``param_grads`` passes, is not held for the tape's life
        tape = GradientTape([Param("w", [[1.0, 2.0]])])
        first = np.empty(tape.size)
        freed = weakref.ref(first)
        adjoints(tape, lambda g: None, first)
        del first
        for _ in range(100):
            adjoints(tape, lambda g: None, np.empty(tape.size))
        gc.collect()
        assert freed() is None
        assert len(tape._rows) == GradientTape.KEPT_ROWS

    def test_finite_difference_spot_check(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            layers, in_dim = random_net(rng)
            X = rng.standard_normal((8, in_dim))
            params = [p for layer in layers for p in layer.params()]

            def loss_value():
                out = forward(layers, X)
                return float((out * out).mean())

            tape = GradientTape(params)
            out, stack = nncore.forward_on_tape(tape, layers, X, data=True)
            grads = param_grads(tape, lambda g: stack(mean_square(out)[1](g)))
            analytic = [grads[p] for p in params]
            numeric = finite_difference_grads(loss_value, params)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_input_gradient_available(self):
        # a stack that is not data-fed returns the gradient into its input
        layer = dense(2, 1, nncore.IDENTITY, weight=[[2.0, -1.0]], bias=[0.0])
        tape = GradientTape(layer.params())
        out, stack = nncore.forward_on_tape(tape, [layer], np.array([[1.0, 1.0]]))
        got = []
        adjoints(tape, lambda g: got.append(stack(mean(out)[1](g))), np.empty(tape.size))
        assert np.allclose(got, [[[2.0, -1.0]]])

    @pytest.mark.parametrize("kind", [nncore.DENSE, nncore.RESIDUAL])
    def test_no_gradient_is_computed_into_data(self, kind):
        # a data-fed stack's backward returns none, and its parameters get
        # the gradients they get when the input's gradient is taken
        rng = np.random.default_rng(5)
        first = dense(3, 3, rng=rng) if kind == nncore.DENSE else residual_block(3, rng=rng)
        second = dense(3, 2, nncore.IDENTITY, rng=rng)
        X = rng.standard_normal((5, 3))
        rows, returned = [], []
        for data in (True, False):
            tape = GradientTape(first.params() + second.params())
            out, stack = nncore.forward_on_tape(tape, [first, second], X, data=data)
            rows.append(adjoints(tape, lambda g: returned.append(stack(mean(out)[1](g))),
                                 np.empty(tape.size)))
        assert returned[0] is None and returned[1].shape == X.shape
        assert rows[0].tobytes() == rows[1].tobytes()

    def test_untouched_param_gets_zero_gradient(self):
        # a param on the tape that the objective does not reach has a zero
        # slice of the row, whatever the row held before
        w = Param("w", [[1.0]])
        layer = dense(1, 1, nncore.IDENTITY, weight=[[3.0]], bias=[0.0])
        tape = GradientTape([w] + layer.params())  # w is in the row, read by no pass
        out, stack = nncore.layer_on_tape(tape, layer, np.array([[2.0]]), data=True)
        row = np.full(tape.size, np.nan)
        assert adjoints(tape, lambda g: stack(mean(out)[1](g)), row) is row
        assert row.tobytes() == np.array([0.0, 2.0, 1.0]).tobytes()

    def test_a_row_of_another_size_is_refused(self):
        layer = dense(2, 1, nncore.IDENTITY, rng=np.random.default_rng(0))
        tape = GradientTape(layer.params())
        out, stack = nncore.layer_on_tape(tape, layer, np.ones((1, 2)), data=True)
        with pytest.raises(UsageError, match=r"^gradient row has shape \(4,\), tape needs \(3,\)$"):
            adjoints(tape, lambda g: stack(mean(out)[1](g)), np.empty(4))

    def test_a_parameter_read_twice_is_refused(self):
        # each parameter's gradient is written once per objective, never
        # summed: a layer twice in one stack, or in two stacks of one step,
        # is refused as the pass reads it; a cleared tape starts a new step
        layer = dense(1, 1, nncore.IDENTITY, weight=[[1.5]], bias=[0.0])
        message = "^a parameter is read twice on one tape$"
        tape = GradientTape(layer.params())
        x = np.array([[2.0]])
        with pytest.raises(UsageError, match=message):
            nncore.forward_on_tape(tape, [layer, layer], x, data=True)
        tape.clear()
        z, _ = nncore.layer_on_tape(tape, layer, x, data=True)
        with pytest.raises(UsageError, match=message):
            nncore.layer_on_tape(tape, layer, z)
        tape.clear()
        assert nncore.layer_on_tape(tape, layer, x, data=True)[0].tobytes() == z.tobytes()

    def test_a_parameter_off_the_tape_is_refused(self):
        layer = dense(1, 1, nncore.IDENTITY, weight=[[1.5]], bias=[0.0])
        tape = GradientTape(layer.params()[:1])
        with pytest.raises(UsageError, match=r"^parameter 'dense\.b' is not on the tape$"):
            nncore.layer_on_tape(tape, layer, np.array([[2.0]]), data=True)

    def test_two_objectives_of_one_pass_are_independent(self):
        layer = dense(1, 1, nncore.IDENTITY, weight=[[1.5]], bias=[0.0])
        w = layer.weights[0]
        tape = GradientTape(layer.params())
        z, stack = nncore.layer_on_tape(tape, layer, np.array([[2.0]]), data=True)
        ga = param_grads(tape, lambda g: stack(mean(z)[1](g)))
        gb = param_grads(tape, lambda g: stack(mean_square(z)[1](g)))
        assert ga[w].item() == pytest.approx(2.0)
        assert gb[w].item() == pytest.approx(2.0 * 1.5 * 2.0 * 2.0)


class TestDeterminism:
    def test_same_seed_same_init_and_grads(self):
        def build():
            rng = np.random.default_rng(42)
            layers, in_dim = random_net(rng)
            X = np.random.default_rng(1).standard_normal((4, in_dim))
            tape = GradientTape([p for layer in layers for p in layer.params()])
            out, stack = nncore.forward_on_tape(tape, layers, X, data=True)
            grads = param_grads(tape, lambda g: stack(mean_square(out)[1](g)))
            return layers, out, grads

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
        nncore.restore_params(params, nncore.load_params(path), path)
        assert nncore.params_digest(params) == before

    def test_missing_param_rejected(self, tmp_path):
        p = Param("only", np.ones(3))
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [p])
        other = Param("other", np.ones(3))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: .*'other'"):
            nncore.restore_params([other], nncore.load_params(path), path)

    def test_extra_param_rejected_naming_the_first(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [Param(name, np.ones(2)) for name in ("w", "z", "b")])
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: checkpoint has "
                                              "parameter 'b', which the net lacks$"):
            nncore.restore_params([Param("w", np.ones(2))], nncore.load_params(path), path)

    def test_misshapen_param_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [Param("w", np.ones((2, 3)))])
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: parameter 'w': "
                                              r"checkpoint shape \(2, 3\) != \(3, 2\)$"):
            nncore.restore_params([Param("w", np.ones((3, 2)))], nncore.load_params(path), path)

    @pytest.mark.parametrize("fault", ["extra name", "later shape"])
    def test_a_refused_restore_leaves_every_parameter_unchanged(self, tmp_path, fault):
        path = tmp_path / "ckpt.npz"
        if fault == "extra name":
            saved = [Param("w", np.ones(2)), Param("v", np.ones(3)), Param("x", np.ones(1))]
        else:
            saved = [Param("w", np.ones(2)), Param("v", np.ones(4))]
        nncore.save_params(path, saved)
        params = [Param("w", np.zeros(2)), Param("v", np.zeros(3))]
        with pytest.raises(ConfigError, match="which the net lacks|checkpoint shape"):
            nncore.restore_params(params, nncore.load_params(path), path)
        assert [p.value.tolist() for p in params] == [[0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_unversioned_file_rejected(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez(path, a=np.ones(2))
        with pytest.raises(ConfigError):
            nncore.load_params(path)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_stacks_round_trip_bit_for_bit(self, tmp_path, seed):
        # every 4th stack is rebuilt residual-first, so each kind is covered
        rng = np.random.default_rng(seed)
        layers, _ = random_net(rng, max_depth=5)
        if seed % 4 == 0:
            layers = [nncore.residual_block(layers[0].in_dim, rng=rng, name="lead"), *layers]
        params = [p for layer in layers for p in layer.params()]
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, params)
        arrays = nncore.load_params(path)
        assert list(arrays) == [p.name for p in params]
        for p in params:
            assert arrays[p.name].dtype == np.float64
            assert arrays[p.name].shape == p.value.shape
            assert np.array_equal(bits(arrays[p.name]), bits(p.value))
        with np.load(path) as z:
            assert sorted(z.files) == ["layout", "values"]
            assert z["values"].shape == (sum(p.value.size for p in params),)

    def test_a_version_1_file_is_refused_asking_for_train(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        np.savez(path, __checkpoint_version__=np.int64(1), w=np.ones((2, 3)))
        message = f"{path}: checkpoint version 1 is no longer read; re-run `train`"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            nncore.load_params(path)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_a_layout_that_does_not_cover_the_values_is_refused(self, tmp_path, extra):
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [Param("w", np.ones((2, 3))), Param("b", np.zeros(3))])
        with np.load(path) as z:
            values, layout = z["values"], z["layout"]
        values = np.concatenate([values, [0.5]]) if extra > 0 else values[:-1]
        np.savez(path, values=values, layout=layout)
        message = f"{path}: layout covers 9 values, file holds {9 + extra}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            nncore.load_params(path)

    @pytest.mark.parametrize("layout, message", [
        ('{"version": 3, "params": [["w", [3]]]}', "unsupported checkpoint version 3"),
        ('{"version": 2}', "not a readable checkpoint (malformed layout: 'params')"),
        ('{"version": 2, "params": [["w", [3]], ["w", [0]]]}',
         "not a readable checkpoint (malformed layout)"),
        ('{"version": 2, "params": [["w", [-1, -3]]]}',
         "not a readable checkpoint (malformed layout)"),
    ], ids=["version-3", "no-params", "duplicate-name", "negative-dim"])
    def test_a_bad_layout_is_refused_naming_the_file(self, tmp_path, layout, message):
        path = tmp_path / "ckpt.npz"
        np.savez(path, values=np.ones(3), layout=np.array(layout))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}"):
            nncore.load_params(path)

    def test_values_that_are_not_float64_are_refused(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [Param("w", np.ones(3))])
        with np.load(path) as z:
            layout = z["layout"]
        np.savez(path, values=np.ones(3, dtype=np.float32), layout=layout)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: values are float32"):
            nncore.load_params(path)

    @pytest.mark.parametrize("how", CHECKPOINT_DAMAGE)
    def test_a_damaged_file_is_refused_naming_it(self, tmp_path, how):
        path = tmp_path / "ckpt.npz"
        nncore.save_params(path, [Param("w", np.ones((2, 3))), Param("b", np.zeros(3))])
        damage_checkpoint(path, how, "w")
        if how in ("nan", "inf"):
            message = f"{path}: parameter 'w' is not a finite real array"
        else:
            message = f"{path}: not a readable checkpoint ("
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
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
        # into given output and work buffers whose old contents are garbage
        given_out, work = np.full_like(x, np.nan), np.full_like(x, -7.0)
        assert nncore.sigmoid(x, given_out, work) is given_out
        assert np.array_equal(bits(given_out), bits(out))
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
        shape = (x.shape[0], layer.out_dim)
        out, hidden = np.full(shape, 3.0), np.full(shape, np.nan)  # stale contents
        with np.errstate(all="ignore"):
            fresh = nncore.apply_layer(layer, x)
            into = nncore.apply_layer(layer, x, out, hidden)
            want = reference_apply_layer(layer, x)
        assert into is out
        for got in (fresh, into):
            # a NaN's sign is outside the byte-identity contract: forward
            # raises on any non-finite activation, so no output can carry one
            nan = np.isnan(got)
            assert np.array_equal(nan, np.isnan(want))
            assert np.array_equal(bits(got)[~nan], bits(want)[~nan])
        for arr, copy in zip([x] + [p.value for p in layer.params()], saved):
            assert np.array_equal(bits(arr), bits(copy))


def layerwise_stack(tape, layers, x, *, data=False):
    """``layers`` as one ``layer_on_tape`` pass each, their backwards chained."""
    if not layers:
        return nncore.forward_on_tape(tape, layers, x, data=data)
    passes = []
    for i, layer in enumerate(layers):
        x, backward = nncore.layer_on_tape(tape, layer, x, data=data and i == 0)
        passes.append(backward)

    def chained(g, dx=None):
        for backward in passes[:0:-1]:
            g = backward(g)
        return passes[0](g, dx)

    return x, chained


class TestFusedLayerEntries:
    """``forward_on_tape`` runs a layer stack, and ``layer_on_tape`` one
    layer, with the values and gradients of the reference chain of affine,
    relu and skip-add entries, bit for bit."""

    def stacks(self, rng):
        """Dense and residual stacks, each with relu and with identity
        activations, then random mixed stacks."""
        for act in (nncore.RELU, nncore.IDENTITY):
            yield [dense(5, 7, act, rng=rng, name="d0"), dense(7, 4, act, rng=rng, name="d1"),
                   dense(4, 5, act, rng=rng, name="d2")], 5
            yield [residual_block(5, act, rng=rng, name=f"r{i}") for i in range(3)], 5
        for _ in range(6):
            yield random_net(rng)

    def run(self, stack_op, x, prefix, *consumers):
        """``prefix`` on ``x`` (a data array, or a ``Param`` whose gradient is
        taken), then each consumer stack on its output, with the sum of the
        consumers' mean squares as the objective. Returns every stack's
        output, the objective and the gradient row: the stacks' parameters
        in order, then ``x``'s gradient when it is a ``Param``."""
        params = [p for layers in (prefix, *consumers) for layer in layers for p in layer.params()]
        data = isinstance(x, np.ndarray)
        tape = GradientTape(params)
        tap, prefix_back = stack_op(tape, prefix, x if data else x.value, data=data)
        passes = [stack_op(tape, layers, tap) for layers in consumers]
        heads = [mean_square(out) for out, _ in passes]
        loss = heads[0][0]
        for value, _ in heads[1:]:
            loss = loss + value
        into_x = []

        def objective(g):
            # the reference replays the last consumer first: its gradient
            # reaches the tap first, and each earlier one's is added to it
            dx = None
            for (_, backward), (_, head_back) in zip(passes[::-1], heads[::-1]):
                dx = backward(head_back(g), dx)
            into_x.append(prefix_back(dx))

        row = adjoints(tape, objective, np.empty(tape.size))
        if not data:
            row = np.concatenate([row, into_x[0].ravel()])
        return [tap] + [out for out, _ in passes], loss, row

    def reference(self, x, prefix, *consumers):
        """:meth:`run` on the reference chain."""
        params = [p for layers in (prefix, *consumers) for layer in layers for p in layer.params()]
        tape = Tape(params)
        tap = reference_stack(tape, prefix, tape.input(x) if isinstance(x, np.ndarray)
                              else tape.param(x))
        values, loss = [tap.value], None
        for layers in consumers:
            out = reference_stack(tape, layers, tap)
            values.append(out.value)
            head = reference_mean_square(tape, out)
            loss = head if loss is None else op_add(tape, loss, head)
        return values, loss.value, tape.adjoints(loss)

    def assert_same(self, got, want):
        for a, b in zip(got[0], want[0], strict=True):
            assert np.array_equal(bits(a), bits(b))
        assert np.array_equal(bits(got[1]), bits(want[1]))
        assert got[2].tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("op", ["stack", "layerwise"])
    @pytest.mark.parametrize("leaf", ["data", "param"])
    @pytest.mark.parametrize("rows", [1, 9])
    def test_stacks_match_the_reference_chain(self, op, leaf, rows):
        stack_op = nncore.forward_on_tape if op == "stack" else layerwise_stack
        rng = np.random.default_rng(40 + rows)
        for layers, in_dim in self.stacks(rng):
            X = rng.standard_normal((rows, in_dim))
            x = X if leaf == "data" else Param("x", X)
            self.assert_same(self.run(stack_op, x, [], layers), self.reference(x, [], layers))

    @pytest.mark.parametrize("op", ["stack", "layerwise"])
    @pytest.mark.parametrize("leaf", ["data", "param"])
    def test_a_pass_read_by_two_stacks(self, op, leaf):
        # a tap feeds a tail and an adapter stack, each starting with a
        # residual block, so the tap sums four gradients: their order
        # changes the rounding, and it must be the reference chain's
        stack_op = nncore.forward_on_tape if op == "stack" else layerwise_stack
        rng = np.random.default_rng(50)
        prefix = [dense(6, 5, rng=rng, name="p0"), residual_block(5, nncore.RELU, rng=rng, name="p1")]
        tail = [residual_block(5, nncore.RELU, rng=rng, name="t0"),
                dense(5, 3, nncore.IDENTITY, rng=rng, name="t1")]
        adapter = [residual_block(5, rng=rng, name="a0"), dense(5, 8, rng=rng, name="a1")]
        X = rng.standard_normal((7, 6))
        x = X if leaf == "data" else Param("x", X)
        for consumers in ([tail, adapter], [adapter, tail]):
            got = self.run(stack_op, x, prefix, *consumers)
            self.assert_same(got, self.reference(x, prefix, *consumers))

    def test_an_empty_stack_passes_its_input_and_gradient_on(self):
        tape = GradientTape([])
        x, g, dx = np.ones((2, 3)), np.full((2, 3), 0.25), np.full((2, 3), 0.5)
        out, backward = nncore.forward_on_tape(tape, [], x)
        assert out is x and backward(g) is g
        assert backward(g, dx).tobytes() == (dx + g).tobytes()
        assert nncore.forward_on_tape(tape, [], x, data=True)[1](g) is None
        assert tape.size == 0


def fresh_forward(layers, x):
    """Reference loop: ``apply_layer`` into a fresh array for every layer."""
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        h = nncore.apply_layer(layer, h)
    return h


class TestWorkspace:
    """``forward`` through the thread's :func:`nncore.workspace` gives the
    bytes of a loop into fresh arrays, and a fresh result every time."""

    def stacks(self, rng):
        """Random stacks, and one whose last layer is a residual block."""
        for _ in range(12):
            yield random_net(rng)
        head = dense(5, 4, nncore.RELU, rng=rng, name="d")
        yield [head, residual_block(4, rng=rng, name="r0"), residual_block(4, rng=rng, name="r1")], 5

    def test_matches_a_loop_into_fresh_arrays(self):
        rng = np.random.default_rng(21)
        for layers, in_dim in self.stacks(rng):
            X = rng.standard_normal((int(rng.integers(1, 40)), in_dim))
            for x in (X, X[:1], X[:0], X[1:]):  # batch, one row, empty slice, offset view
                got = forward(layers, x)
                want = fresh_forward(layers, x)
                assert got.shape == want.shape
                assert np.array_equal(bits(got), bits(want))

    def test_result_is_fresh_and_survives_the_next_pass(self):
        rng = np.random.default_rng(22)
        buffers = nncore.workspace()._buffers
        kept = []
        for layers, in_dim in self.stacks(rng):
            out = forward(layers, rng.standard_normal((9, in_dim)))
            assert not any(np.shares_memory(out, buf) for buf in buffers)
            kept.append((out, out.copy()))
        assert all(np.array_equal(bits(out), bits(copy)) for out, copy in kept)

    def test_buffers_grow_to_the_largest_request_only(self):
        # a new thread starts from an empty workspace of its own: three
        # buffers, two alternating layer slots and one for a residual
        # block's hidden activation, each replaced only by a larger request
        # and never shrunk
        layers = [dense(3, 8, rng=np.random.default_rng(0)), dense(8, 2)]

        def run():
            scratch = nncore.workspace()
            assert [buf.size for buf in scratch._buffers] == [0] * 3
            forward(layers, np.ones((10, 3)))
            first = list(scratch._buffers)
            assert [buf.size for buf in first] == [80, 0, 0]
            forward(layers, np.ones((4, 3)))
            assert all(a is b for a, b in zip(scratch._buffers, first))
            forward(layers, np.ones((11, 3)))
            assert [buf.size for buf in scratch._buffers] == [88, 0, 0]
            return scratch

        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            other = pool.submit(run).result(timeout=60)
        assert other is not nncore.workspace()


class TestAtomicOpen:
    def test_replaces_the_target_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with nncore.atomic_open(path) as fh:
            fh.write("new")
            assert path.read_text() == "old"  # not visible until the block ends
        assert path.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_a_failing_block_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with nncore.atomic_open(path) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("midway")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
