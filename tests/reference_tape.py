"""A general reverse-mode gradient tape and the op-by-op reference chain
recorded on it: the oracle that the training passes (``nncore.forward_on_tape``
and ``train.ce_on_tape``, ``positive_ce_on_tape`` and ``kd_on_tape``) are
compared against, bit for bit, signed zeros included.

Each op records one entry ``(node, backward_fn)``. :meth:`Tape.adjoints`
replays the entries in reverse from a scalar node, from the seed
``np.float64(1.0)``, calling each backward as ``backward_fn(g, accum)``,
where ``accum(node, delta)`` adds ``delta`` to the node's gradient. A
parameter leaf's gradient lands in its slice of a flat row laid out as
``nncore.GradientTape(params)`` lays out its own: the given params first,
in order, then the others in the order the ops first read them.
"""

import numpy as np

from edgecloud import nncore, train
from edgecloud.models import NORMAL_CLASS


class Node:
    """A value on the tape; ``is_data`` marks a data leaf, whose gradient
    nothing reads."""

    __slots__ = ("value", "is_data")

    def __init__(self, value, is_data=False):
        self.value = value
        self.is_data = is_data


class Tape:
    def __init__(self, params=()):
        self.entries = []
        self.slices = {}
        self.leaves = {}
        self.size = 0
        for p in params:
            self._place(p)

    def _place(self, p):
        if id(p) not in self.slices:
            self.slices[id(p)] = (p, slice(self.size, self.size + p.value.size))
            self.size += p.value.size

    def input(self, value):
        return Node(nncore.as_tensor(value), is_data=True)

    def param(self, p):
        """The leaf of parameter ``p``, one per tape."""
        node = self.leaves.get(id(p))
        if node is None:
            self._place(p)
            node = self.leaves[id(p)] = Node(p.value)
        return node

    def record(self, value, backward_fn):
        node = Node(value)
        self.entries.append((node, backward_fn))
        return node

    def adjoints(self, node):
        """The gradient row of scalar ``node``: each leaf's gradient in its
        parameter's slice, zero where ``node`` does not reach."""
        grads = {id(node): np.float64(1.0)}

        def accum(n, delta):
            prev = grads.get(id(n))
            grads[id(n)] = delta if prev is None else prev + delta

        for value, backward_fn in reversed(self.entries):
            g = grads.pop(id(value), None)
            if g is not None:
                backward_fn(g, accum)
        row = np.zeros(self.size)
        for key, leaf in self.leaves.items():
            if id(leaf) in grads:
                row[self.slices[key][1]] = np.ravel(grads[id(leaf)])
        return row


# ---------------------------------------------------------------------------
# Primitive ops: 2-D (batch, features) nodes; node gradients are fresh arrays.

def op_add(tape, a, b):
    def bw(g, accum):
        accum(a, g)
        accum(b, g)

    return tape.record(a.value + b.value, bw)


def op_scale(tape, x, c):
    c = float(c)

    def bw(g, accum):
        accum(x, g * c)

    return tape.record(x.value * c, bw)


def op_rows(tape, x, idx):
    """Row subset ``x[idx]`` (restriction to a sample subset)."""
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.value.shape

    def bw(g, accum):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        accum(x, out)

    return tape.record(x.value[idx], bw)


def op_mul(tape, a, b):
    """Elementwise product of two equal-shape nodes."""
    def bw(g, accum):
        accum(a, g * b.value)
        accum(b, g * a.value)

    return tape.record(a.value * b.value, bw)


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


# ---------------------------------------------------------------------------
# The reference chain: layers, stacks and losses as primitive ops.

def reference_layer(tape, layer, x):
    """``layer`` as affine, relu and skip-add entries."""
    if layer.kind == nncore.DENSE:
        y = op_affine(tape, x, layer.weights[0], layer.biases[0])
    else:
        h = op_relu(tape, op_affine(tape, x, layer.weights[0], layer.biases[0]))
        y = op_add(tape, x, op_affine(tape, h, layer.weights[1], layer.biases[1]))
    if layer.activation == nncore.RELU:
        y = op_relu(tape, y)
    return y


def reference_stack(tape, layers, x):
    for layer in layers:
        x = reference_layer(tape, layer, x)
    return x


def reference_ce(tape, logits, labels):
    """Cross-entropy as softmax, gather, clamp, log, mean and negation entries."""
    labels = np.asarray(labels, dtype=np.intp)
    probs = op_softmax(tape, logits)
    picked = op_pick(tape, probs, labels)
    clamped = op_clamp(tape, picked, train.LOG_EPS, 1.0 - train.LOG_EPS)
    return op_scale(tape, op_mean(tape, op_log(tape, clamped)), -1.0)


def reference_positive_ce(tape, logits, labels):
    """Cross-entropy of the positive rows, ``None`` when there are none."""
    labels = np.asarray(labels, dtype=np.intp)
    idx = np.flatnonzero(labels != NORMAL_CLASS)
    return reference_ce(tape, op_rows(tape, logits, idx), labels[idx]) if idx.size else None


def reference_kd(tape, adapted, target):
    """The KD loss as sigmoid, clamp, log, product, sum, mean and negation entries."""
    target = nncore.as_tensor(target)
    q = op_clamp(tape, op_sigmoid(tape, adapted), train.LOG_EPS, 1.0 - train.LOG_EPS)
    hit = op_cmul(tape, target, op_log(tape, q))
    miss = op_cmul(tape, 1.0 - target, op_log(tape, op_rsub(tape, 1.0, q)))
    return op_scale(tape, op_mean(tape, op_add(tape, hit, miss)), -1.0)


def reference_mean_square(tape, x):
    """``mean(x * x)`` as product and mean entries."""
    return op_mean(tape, op_mul(tape, x, x))
