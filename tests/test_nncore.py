"""Substrate tests: layers, forward, taped gradients, FLOPs, checkpoints."""

import concurrent.futures
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edgecloud import nncore
from edgecloud.nncore import (ConfigError, GradientTape, Param, UsageError,
                              adjoints, dense, flops, forward, residual_block)

from conftest import (CHECKPOINT_DAMAGE, damage_checkpoint, finite_difference_grads,
                      max_relative_error, op_mean, op_mul, param_grads, random_net,
                      reference_layer, scalar_forward_reference)


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
        layer = dense(1, 1, nncore.IDENTITY, weight=[[2.0]], bias=[0.0])
        tape = GradientTape()
        x = tape.input(np.array([[3.0]]))
        out = nncore.layer_on_tape(tape, layer, x)
        grads = param_grads(tape, op_mean(tape, out))
        assert grads[layer.weights[0]].item() == pytest.approx(3.0)

    def test_quadratic_loss_gradient(self):
        # loss = (w - 2)^2 at w = 5 -> gradient 6
        layer = dense(1, 1, nncore.IDENTITY, weight=[[5.0]], bias=[-2.0])
        tape = GradientTape()
        x = tape.input(np.array([[1.0]]))
        z = nncore.layer_on_tape(tape, layer, x)
        grads = param_grads(tape, op_mean(tape, op_mul(tape, z, z)))
        assert grads[layer.weights[0]].item() == pytest.approx(6.0)

    def test_non_scalar_tape_rejected(self):
        layer = dense(2, 2, rng=np.random.default_rng(0))
        tape = GradientTape()
        out = nncore.forward_on_tape(tape, [layer], tape.input(np.zeros((1, 2))))
        with pytest.raises(UsageError, match="scalar"):
            adjoints(tape, out, np.empty(tape.size))

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
            grads = param_grads(tape, op_mean(tape, op_mul(tape, out, out)))
            analytic = [grads[p] for p in params]
            numeric = finite_difference_grads(loss_value, params)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_input_gradient_available(self):
        # a gradient with respect to data is taken through a Param leaf
        layer = dense(2, 1, nncore.IDENTITY, weight=[[2.0, -1.0]], bias=[0.0])
        x = Param("x", [[1.0, 1.0]])
        tape = GradientTape()
        out = nncore.forward_on_tape(tape, [layer], tape.param(x))
        grads = param_grads(tape, op_mean(tape, out))
        assert np.allclose(grads[x], [[2.0, -1.0]])

    def test_no_gradient_is_computed_into_a_data_leaf(self):
        # a stack's backward skips ``g @ W``, and a residual block's also its
        # skip-add term, for a data leaf; a recorded input still gets its
        # gradient, and the params theirs
        rng = np.random.default_rng(5)
        first = dense(3, 4, nncore.IDENTITY, rng=rng)
        second = dense(4, 2, nncore.IDENTITY, rng=rng)
        block = residual_block(3, nncore.RELU, rng=rng)
        X = rng.standard_normal((5, 3))
        tape = GradientTape()
        x = tape.input(X)
        h = nncore.layer_on_tape(tape, first, x)
        loss = op_mean(tape, nncore.layer_on_tape(tape, second, h))
        nncore.layer_on_tape(tape, block, x)

        class Reached:
            """An ``accum`` that records which nodes get a gradient."""

            def __init__(self):
                self.nodes = set()
                self.views = {id(p): np.empty(p.value.shape)
                              for layer in (first, second, block) for p in layer.params()}

            def __call__(self, node, delta):
                self.nodes.add(id(node))

            def claim(self, keys):
                return self.views

        reached = Reached()
        for out, backward_fn in tape._entries:
            backward_fn(np.ones_like(out.value), reached)
        assert id(h) in reached.nodes and id(x) not in reached.nodes
        g_h = np.full((5, 2), 1.0 / 10) @ second.weights[0].value
        assert np.array_equal(param_grads(tape, loss)[first.weights[0]], g_h.T @ X)

    def test_untouched_param_gets_zero_gradient(self):
        # a param on the tape that the loss does not reach has a zero slice
        # of the row, whatever the row held before
        w = Param("w", [[1.0]])
        v = Param("v", [[3.0]])
        tape = GradientTape([w])  # in the row, disconnected from the loss
        x = tape.input(np.array([[2.0]]))
        loss = op_mean(tape, op_mul(tape, tape.param(v), x))
        row = np.full(tape.size, np.nan)
        assert adjoints(tape, loss, row) is row
        assert row.tobytes() == np.array([0.0, 2.0]).tobytes()

    def test_a_row_of_another_size_is_refused(self):
        layer = dense(2, 1, nncore.IDENTITY, rng=np.random.default_rng(0))
        tape = GradientTape()
        loss = op_mean(tape, nncore.layer_on_tape(tape, layer, tape.input(np.ones((1, 2)))))
        with pytest.raises(UsageError, match=r"^gradient row has shape \(4,\), tape needs \(3,\)$"):
            adjoints(tape, loss, np.empty(4))

    def test_a_parameter_read_twice_is_refused(self):
        # each parameter's gradient is written once per replay, never summed:
        # a layer twice in one stack is refused as it is recorded, a layer in
        # two stacks as it is replayed
        layer = dense(1, 1, nncore.IDENTITY, weight=[[1.5]], bias=[0.0])
        message = "^a parameter is read twice on one tape$"
        tape = GradientTape()
        x = tape.input(np.array([[2.0]]))
        with pytest.raises(UsageError, match=message):
            nncore.forward_on_tape(tape, [layer, layer], x)
        z = nncore.layer_on_tape(tape, layer, nncore.layer_on_tape(tape, layer, x))
        with pytest.raises(UsageError, match=message):
            adjoints(tape, op_mean(tape, z), np.empty(tape.size))

    def test_two_losses_one_tape_are_independent(self):
        layer = dense(1, 1, nncore.IDENTITY, weight=[[1.5]], bias=[0.0])
        w = layer.weights[0]
        tape = GradientTape()
        x = tape.input(np.array([[2.0]]))
        z = nncore.layer_on_tape(tape, layer, x)
        loss_a = op_mean(tape, z)
        loss_b = op_mean(tape, op_mul(tape, z, z))
        ga = param_grads(tape, loss_a)
        gb = param_grads(tape, loss_b)
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
            grads = param_grads(tape, op_mean(tape, op_mul(tape, out, out)))
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


def reference_stack(tape, layers, x):
    """``layers`` as the reference chain's affine, relu and skip-add entries."""
    for layer in layers:
        x = reference_layer(tape, layer, x)
    return x


def layerwise_stack(tape, layers, x):
    """``layers`` as one ``layer_on_tape`` entry each."""
    for layer in layers:
        x = nncore.layer_on_tape(tape, layer, x)
    return x


class TestFusedLayerEntries:
    """``forward_on_tape`` records a layer stack as one entry, and
    ``layer_on_tape`` one layer, with the values and adjoints of the
    reference chain of affine, relu and skip-add entries, bit for bit."""

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
        """Records ``prefix`` on ``x`` (a data array or a ``Param`` leaf), then
        each consumer stack on its output, seeds the sum of the consumers'
        mean squares, and returns every stack's output, the seed, the
        parameters in row order, the gradient row and the tape's entry
        count."""
        tape = GradientTape()
        tap = tape.input(x) if isinstance(x, np.ndarray) else tape.param(x)
        tap = stack_op(tape, prefix, tap)
        values, loss = [tap.value], None
        for layers in consumers:
            out = stack_op(tape, layers, tap)
            values.append(out.value)
            head = op_mean(tape, op_mul(tape, out, out))
            loss = head if loss is None else nncore.op_add(tape, loss, head)
        row = adjoints(tape, loss, np.empty(tape.size))
        return values, loss.value, [p for p, _ in tape._slices.values()], row, len(tape._entries)

    def assert_same(self, got, want):
        for a, b in zip(got[0], want[0], strict=True):
            assert np.array_equal(bits(a), bits(b))
        assert np.array_equal(bits(got[1]), bits(want[1]))
        assert got[2] == want[2]
        assert got[3].tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("op", ["stack", "layerwise"])
    @pytest.mark.parametrize("leaf", ["data", "param"])
    @pytest.mark.parametrize("rows", [1, 9])
    def test_stacks_match_the_reference_chain(self, op, leaf, rows):
        stack_op = nncore.forward_on_tape if op == "stack" else layerwise_stack
        rng = np.random.default_rng(40 + rows)
        for layers, in_dim in self.stacks(rng):
            X = rng.standard_normal((rows, in_dim))
            x = X if leaf == "data" else Param("x", X)
            got = self.run(stack_op, x, [], layers)
            self.assert_same(got, self.run(reference_stack, x, [], layers))
            assert got[4] == (1 if op == "stack" else len(layers)) + 2
            if leaf == "param":
                assert got[2][0] is x

    @pytest.mark.parametrize("op", ["stack", "layerwise"])
    @pytest.mark.parametrize("leaf", ["data", "param"])
    def test_a_node_consumed_by_two_stacks(self, op, leaf):
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
            self.assert_same(got, self.run(reference_stack, x, prefix, *consumers))

    def test_an_empty_stack_records_nothing(self):
        tape = GradientTape()
        x = tape.input(np.ones((2, 3)))
        assert nncore.forward_on_tape(tape, [], x) is x
        assert tape._entries == [] and tape.size == 0


def fresh_forward(layers, x):
    """Reference loop: ``apply_layer`` into a fresh array for every layer."""
    h = np.asarray(x, dtype=np.float64)
    squeeze = h.ndim == 1
    h = h.reshape(1, -1) if squeeze else h
    for layer in layers:
        h = nncore.apply_layer(layer, h)
    return h[0] if squeeze else h


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
            for x in (X, X[0], X[:0], X[1:]):  # batch, 1-D sample, empty slice, offset view
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
