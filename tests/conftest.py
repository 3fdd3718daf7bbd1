"""Shared fixtures and independent oracles used across the test suite."""

import dataclasses

import numpy as np
import pytest

from edgecloud import harness, models, nncore, train
from edgecloud.harness import AdapterConfig, DataConfig, ExperimentPlan, NetConfig, PolicyConfig
from edgecloud.nncore import UsageError
from edgecloud.train import TrainConfig


def scalar_forward_reference(layers, x):
    """Pure-Python scalar-loop evaluator for a layer stack (test oracle)."""
    x = [float(v) for v in np.asarray(x).ravel()]
    for layer in layers:
        if layer.kind == nncore.DENSE:
            w, b = layer.weights[0].value, layer.biases[0].value
            y = [sum(w[o][i] * x[i] for i in range(layer.in_dim)) + b[o]
                 for o in range(layer.out_dim)]
        else:
            w1, b1 = layer.weights[0].value, layer.biases[0].value
            w2, b2 = layer.weights[1].value, layer.biases[1].value
            h = [max(sum(w1[o][i] * x[i] for i in range(layer.in_dim)) + b1[o], 0.0)
                 for o in range(layer.out_dim)]
            y = [x[o] + sum(w2[o][i] * h[i] for i in range(layer.out_dim)) + b2[o]
                 for o in range(layer.out_dim)]
        if layer.activation == nncore.RELU:
            y = [max(v, 0.0) for v in y]
        x = y
    return np.array(x)


def op_mul(tape, a, b):
    """Elementwise product of two equal-shape tape nodes (a test-only op)."""
    if a.value.shape != b.value.shape:
        raise UsageError("op_mul requires equal shapes")

    def bw(g, accum):
        accum(a, g * b.value)
        accum(b, g * a.value)

    return tape.record(a.value * b.value, bw)


def param_grads(tape, node):
    """``nncore.adjoints`` of ``node`` by parameter: each parameter on the
    tape, in row order, mapped to its slice of the gradient row."""
    row = nncore.adjoints(tape, node, np.empty(tape.size))
    return {p: row[where].reshape(p.value.shape) for p, where in tape._slices.values()}


def cloud_targets(cloud, tap, X):
    """``train.kd_targets`` of the cloud's feature after layer ``tap`` on
    ``X``: the KD targets ``train_base`` given that tap ends with."""
    return train.kd_targets(nncore.forward(cloud.split(tap)[0], X))


# ---------------------------------------------------------------------------
# The reference chain: one tape entry per primitive op. ``nncore.forward_on_tape``
# records a layer stack, and ``train.ce_on_tape`` and ``train.kd_on_tape`` a
# loss, as one entry each, with this chain's values and adjoints bit for bit.

def op_affine(tape, x, w, b):
    wn, bn = tape.param(w), tape.param(b)
    value = x.value @ wn.value.T + bn.value

    def bw(g, accum):
        if not x.is_data:
            accum(x, g @ wn.value)
        accum(wn, g.T @ x.value)
        accum(bn, g.sum(axis=0))

    return tape.record(value, bw)


def op_relu(tape, x):
    mask = x.value > 0

    def bw(g, accum):
        accum(x, g * mask)

    return tape.record(np.maximum(x.value, 0.0), bw)


def op_cmul(tape, const, x):
    """Elementwise product with a constant array (no gradient into it)."""
    carr = nncore.as_tensor(const)

    def bw(g, accum):
        accum(x, g * carr)

    return tape.record(carr * x.value, bw)


def op_rsub(tape, c, x):
    """Constant minus node, e.g. ``1 - q``."""
    c = float(c)

    def bw(g, accum):
        accum(x, -g)

    return tape.record(c - x.value, bw)


def op_sigmoid(tape, x):
    out = nncore.sigmoid(x.value)

    def bw(g, accum):
        accum(x, g * out * (1.0 - out))

    return tape.record(out, bw)


def op_softmax(tape, x):
    out = nncore.softmax(x.value)

    def bw(g, accum):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        accum(x, out * (g - dot))

    return tape.record(out, bw)


def op_log(tape, x):
    def bw(g, accum):
        accum(x, g / x.value)

    return tape.record(np.log(x.value), bw)


def op_clamp(tape, x, lo, hi):
    mask = (x.value >= lo) & (x.value <= hi)

    def bw(g, accum):
        accum(x, g * mask)

    return tape.record(np.clip(x.value, lo, hi), bw)


def op_mean(tape, x):
    size = x.value.size
    shape = x.value.shape

    def bw(g, accum):
        accum(x, np.full(shape, float(g) / size))

    return tape.record(np.asarray(x.value.mean()), bw)


def op_pick(tape, x, index):
    """Per-row gather ``x[i, index[i]]`` (labels into probabilities)."""
    index = np.asarray(index, dtype=np.intp)
    rows = np.arange(x.value.shape[0])

    def bw(g, accum):
        out = np.zeros_like(x.value)
        out[rows, index] = g
        accum(x, out)

    return tape.record(x.value[rows, index], bw)


def reference_layer(tape, layer, x):
    """``layer`` as affine, relu and skip-add entries."""
    if layer.kind == nncore.DENSE:
        y = op_affine(tape, x, layer.weights[0], layer.biases[0])
    else:
        h = op_relu(tape, op_affine(tape, x, layer.weights[0], layer.biases[0]))
        y = nncore.op_add(tape, x, op_affine(tape, h, layer.weights[1], layer.biases[1]))
    if layer.activation == nncore.RELU:
        y = op_relu(tape, y)
    return y


def reference_ce(tape, logits, labels):
    """Cross-entropy as softmax, gather, clamp, log, mean and negation entries."""
    labels = np.asarray(labels, dtype=np.intp)
    probs = op_softmax(tape, logits)
    picked = op_pick(tape, probs, labels)
    clamped = op_clamp(tape, picked, train.LOG_EPS, 1.0 - train.LOG_EPS)
    return nncore.op_scale(tape, op_mean(tape, op_log(tape, clamped)), -1.0)


def reference_kd(tape, adapted, target):
    """The KD loss as sigmoid, clamp, log, product, sum, mean and negation entries."""
    target = nncore.as_tensor(target)
    q = op_clamp(tape, op_sigmoid(tape, adapted), train.LOG_EPS, 1.0 - train.LOG_EPS)
    hit = op_cmul(tape, target, op_log(tape, q))
    miss = op_cmul(tape, 1.0 - target, op_log(tape, op_rsub(tape, 1.0, q)))
    return nncore.op_scale(tape, op_mean(tape, nncore.op_add(tape, hit, miss)), -1.0)


CHECKPOINT_DAMAGE = ("truncated", "not-a-zip", "npy", "object-array", "nan", "inf")


def damage_checkpoint(path, how, name):
    """Rewrite the checkpoint at ``path`` (a ``pathlib.Path``): cut to half
    its bytes, replaced by text or by one ``.npy`` array, with an object
    array for its ``values``, or with a NaN or an inf in parameter
    ``name``'s slice of ``values``."""
    if how == "truncated":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    elif how == "not-a-zip":
        path.write_text("not a checkpoint\n")
    elif how == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.ones(3))
    else:
        arrays = nncore.load_params(path)
        if how == "object-array":
            values = np.array([1.0, "x", None], dtype=object)
        else:
            arrays[name].flat[-1] = np.nan if how == "nan" else np.inf
            values = np.concatenate([a.ravel() for a in arrays.values()])
        with np.load(path) as z:
            layout = z["layout"]
        np.savez(path, values=values, layout=layout)


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central finite differences of a closure over every parameter element."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat, gflat = p.value.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-3):
    """Worst-case elementwise relative error with a small denominator floor."""
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def random_net(rng, num_classes=3, max_depth=4, max_width=16):
    """Random stack of dense/residual layers ending in an identity head."""
    depth = int(rng.integers(1, max_depth + 1))
    in_dim = int(rng.integers(2, max_width + 1))
    layers = []
    prev = in_dim
    for i in range(depth - 1):
        if rng.random() < 0.35:
            layers.append(nncore.residual_block(prev, rng=rng, name=f"r{i}"))
        else:
            width = int(rng.integers(2, max_width + 1))
            act = nncore.RELU if rng.random() < 0.7 else nncore.IDENTITY
            layers.append(nncore.dense(prev, width, act, rng=rng, name=f"d{i}"))
            prev = width
    layers.append(nncore.dense(prev, num_classes, nncore.IDENTITY, rng=rng, name="head"))
    return layers, in_dim


def train_recall_boost(edge, X, y, config, *, seed):
    """Two-objective SGD weighting cross-entropy and positive-only
    cross-entropy by the per-step minimum-norm solution: the training loop's
    multi-objective path on the edge alone (acceptance criterion 5d)."""
    X, y = train._coerce_data(X, y)
    pos_mask = y != models.NORMAL_CLASS
    if not pos_mask.any() or pos_mask.all():
        raise UsageError("recall boosting needs both normal and positive samples")

    def objectives(tape, idx):
        logits = nncore.forward_on_tape(tape, edge.layers, tape.input(X[idx]))
        ce = train.ce_on_tape(tape, logits, y[idx])
        return [ce, train.positive_ce_on_tape(tape, logits, y[idx])]

    return train._fit("recall-boost", len(X), config, edge.params(), objectives,
                      lambda: (train.evaluate_model(edge, X, y), None), seed=seed)[0]


# ---------------------------------------------------------------------------
# Oracles of the min-norm solver: an exhaustive simplex lattice and the
# common-descent condition (acceptance criterion 2).

DESCENT_SLACK = 1e-9


def grid_oracle(grads, step: float) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of ``||sum alpha_i g_i||^2`` over a simplex lattice.

    ``grads`` holds one gradient per row, p in {2, 3}; anything larger blows
    up combinatorially and is rejected. The lattice spacing must be at most
    1e-2. Returns the best lattice weights and their squared norm.
    """
    grads = np.asarray(grads, dtype=np.float64)
    p, _ = grads.shape
    if p not in (2, 3):
        raise UsageError(f"grid oracle supports p in {{2, 3}}, got p={p}")
    if not 0.0 < step <= 1e-2 + 1e-15:
        raise UsageError("step must be in (0, 1e-2]")
    m = round(1.0 / step)
    ticks = np.linspace(0.0, 1.0, m + 1)
    if p == 2:
        weights = np.stack([ticks, 1.0 - ticks], axis=1)
    else:
        rows = []
        for a in ticks:
            for b in ticks:
                c = 1.0 - a - b
                if c >= -1e-12:
                    rows.append((a, b, max(c, 0.0)))
        weights = np.array(rows)
    combos = weights @ grads
    norms2 = np.einsum("ij,ij->i", combos, combos)
    best = int(np.argmin(norms2))
    return weights[best], float(norms2[best])


def check_descent(grads, combined, slack: float = DESCENT_SLACK) -> tuple[bool, np.ndarray]:
    """True iff ``<combined, g_j> >= -slack`` for every gradient row j.

    A combination passing this check is zero or a common descent direction
    (stepping along ``-combined`` does not increase any objective to first
    order); the slack absorbs floating-point noise.
    """
    grads = np.asarray(grads, dtype=np.float64)
    combined = np.asarray(combined, dtype=np.float64)
    if combined.shape != (grads.shape[1],):
        raise UsageError(f"combined has shape {combined.shape}, expected ({grads.shape[1]},)")
    inner = grads @ combined
    return bool(np.all(inner >= -slack)), inner


def on_simplex(alpha, p: int) -> bool:
    """True iff ``alpha`` is p nonnegative weights summing to one (within rounding)."""
    alpha = np.asarray(alpha)
    return alpha.shape == (p,) and bool(np.all(alpha >= -1e-12)) \
        and abs(float(alpha.sum()) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Pareto references.

def dominates(a, b) -> bool:
    """True iff cost vector ``a`` is no higher everywhere and lower somewhere."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise UsageError("cost vectors must share their arity")
    return bool(np.all(a <= b) and np.any(a < b))


def brute_force_frontier(values, senses, labels) -> np.ndarray:
    """All-pairs frontier mask over rows of ``values``, each column a "max" or
    "min" objective per ``senses``. Of rows with equal vectors it keeps the
    greatest label, and of those the first row."""
    norm = np.array(values, dtype=np.float64) * [1.0 if s == "max" else -1.0 for s in senses]
    keep = np.zeros(len(norm), dtype=bool)
    for i in range(len(norm)):
        ge = np.all(norm >= norm[i], axis=1)
        gt = np.any(norm > norm[i], axis=1)
        ties = [j for j in np.flatnonzero(ge & ~gt)
                if (labels[j], -j) > (labels[i], -i)]
        keep[i] = not np.any(ge & gt) and not ties
    return keep


def tiny_plan(master_seed=0, **overrides):
    """Small fast plan for unit and CLI tests (seconds, not minutes)."""
    kwargs = dict(
        master_seed=master_seed,
        data=DataConfig(num_classes=4, dim=8, n=600, normal_fraction=0.4, difficulty=0.4),
        edge=NetConfig(hidden=[6]),
        cloud=NetConfig(hidden=[16, 16, 16]),
        adapter=AdapterConfig(edge_tap=0, cloud_tap=1, blocks=1),
        stages={
            "cloud": TrainConfig(epochs=8, batch_size=32, learning_rate=0.1),
            "edge_kd": TrainConfig(epochs=8, batch_size=32, learning_rate=0.1),
            "finetune": TrainConfig(epochs=4, batch_size=32, learning_rate=0.05),
        },
        policies=[
            PolicyConfig("independent", c1=0.8),
            PolicyConfig("adaptive", c1=0.8),
            PolicyConfig("dynamic", c1=0.8, c2=0.3),
        ],
        c2_grid=[0.2, 0.3, 0.4],
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def with_cloud_epochs(plan, epochs):
    """``plan`` with its cloud stage trained for ``epochs``. The tiny plan's
    8 cloud epochs leave the cloud less accurate than the edge on most
    seeds, which ``evaluate`` refuses."""
    cloud = dataclasses.replace(plan.stages["cloud"], epochs=epochs)
    return dataclasses.replace(plan, stages={**plan.stages, "cloud": cloud})


# A plan field set to a value of the wrong type, and the error that names it:
# (keys down to the field, value, message).
MISTYPED_FIELDS = [
    (("recall_boost",), "false", "plan.recall_boost: expected bool, got str"),
    (("kd_weight",), "0.5", "plan.kd_weight: expected float, got str"),
    (("edge", "hidden"), ["6"], r"plan.edge.hidden\[0\]: expected int, got str"),
    (("adapter", "edge_tap"), 0.0, "plan.adapter.edge_tap: expected int, got float"),
    (("cloud", "hidden"), "012", "plan.cloud.hidden: expected list, got str"),
    (("c2_grid",), [0.2, "0.3"], r"plan.c2_grid\[1\]: expected float, got str"),
    (("stages", "cloud", "learning_rate"), "1",
     "plan.stages.cloud.learning_rate: expected float, got str"),
    (("policies", 2, "c2"), None, r"plan.policies\[2\].c2: expected float, got NoneType"),
    (("policies", 0, "confidence_mode"), 1, r"plan.policies\[0\].confidence_mode: expected str"),
]


def field_id(keys):
    """Test id of a ``MISTYPED_FIELDS`` entry: its keys, dotted."""
    return ".".join(map(str, keys))


def set_field(cfg, keys, value):
    """``cfg`` with the field at ``keys`` set to ``value``."""
    for key in keys[:-1]:
        cfg = cfg[key]
    cfg[keys[-1]] = value


def resweep(system, c2_grid, c1=0.8, mode="normal-class"):
    """``system`` with its plan's c2 sweep re-planned: ``c2_grid``, and ``c1``
    and ``mode`` on the first policy, whose values the sweep takes."""
    plan = system.plan
    first = dataclasses.replace(plan.policies[0], c1=c1, confidence_mode=mode)
    plan = dataclasses.replace(plan, c2_grid=list(c2_grid), policies=[first, *plan.policies[1:]])
    return dataclasses.replace(system, plan=plan)


@pytest.fixture(scope="session")
def tiny_system():
    """One trained tiny system shared by routing/harness tests."""
    plan = tiny_plan()
    result = harness.run_experiment(plan)
    return result
