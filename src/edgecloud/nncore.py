"""Dense-network substrate: parameters, layers, taped reverse-mode gradients,
FLOP accounting, and bit-exact parameter checkpoints.

Conventions shared by every module in this package:

* Numeric data is float64. Batched activations are ``(batch, features)``
  arrays; single samples may be passed as 1-D vectors.
* A dense layer computes ``act(x @ W.T + b)`` with ``W`` shaped
  ``(out_dim, in_dim)``.
* A residual block computes ``x + (relu(x @ W1.T + b1) @ W2.T + b2)`` with
  both matrices square, then applies its declared activation (identity by
  default, so an all-zero block is a passthrough).
* FLOP convention: multiply-accumulate = 2, bias add = 1 per output
  element, activations are free, the residual skip-add is 1 per element.
  Dense layer: ``2*in*out + out``. Residual block: ``2*(2*d*d + d) + d``.
* ``forward`` is the only untaped loop over a layer stack and
  ``forward_on_tape`` the only taped one; split inference and training run
  them on slices of a stack (up to a tap, after a tap).
* Weight init draws uniform from ``[-1/sqrt(in_dim), +1/sqrt(in_dim)]``
  using a caller-supplied generator, so everything downstream is
  deterministic given the seeds.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

DENSE = "dense"
RESIDUAL = "residual-block"
RELU = "relu"
IDENTITY = "identity"

CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Model or layer wiring is inconsistent (dims, shapes, references)."""


class UsageError(ValueError):
    """An operation was called outside its contract."""


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (the package's tensor type)."""
    return np.ascontiguousarray(x, dtype=np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With ``e = exp(-|x|)`` it is ``1/(1+e)`` where ``x >= 0`` and ``e/(1+e)``
    elsewhere, computed branch-free in two buffers. ``-|x|`` is taken as
    ``min(x, -x)`` so a NaN keeps its sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=e, where=x >= 0)
    return e


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Param:
    """Named trainable array.

    Equality and hashing are by identity, so gradient maps and frozen sets
    can key on the object itself.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = as_tensor(value)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


def _init_array(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    if rng is None:
        return np.zeros(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LayerSpec:
    """One dense layer or residual block, holding its own parameters.

    ``weights``/``biases`` carry one (W, b) pair for a dense layer and two
    pairs for a residual block.
    """

    __slots__ = ("kind", "in_dim", "out_dim", "activation", "weights", "biases")

    def __init__(self, kind: str, in_dim: int, out_dim: int, activation: str,
                 weights: Sequence[Param], biases: Sequence[Param]) -> None:
        if kind not in (DENSE, RESIDUAL):
            raise ConfigError(f"unknown layer kind {kind!r}")
        if activation not in (RELU, IDENTITY):
            raise ConfigError(f"unknown activation {activation!r}")
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigError("layer dims must be positive")
        if kind == RESIDUAL and in_dim != out_dim:
            raise ConfigError("residual-block requires in_dim == out_dim")
        expected = 1 if kind == DENSE else 2
        if len(weights) != expected or len(biases) != expected:
            raise ConfigError(f"{kind} expects {expected} weight/bias pair(s)")
        mat_shapes = [(out_dim, in_dim)] if kind == DENSE else [(out_dim, out_dim), (out_dim, out_dim)]
        for i, (w, shape) in enumerate(zip(weights, mat_shapes)):
            if w.value.shape != shape:
                raise ConfigError(f"weight {i} has shape {w.value.shape}, expected {shape}")
        for i, b in enumerate(biases):
            if b.value.shape != (out_dim,):
                raise ConfigError(f"bias {i} has shape {b.value.shape}, expected {(out_dim,)}")
        self.kind = kind
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weights = list(weights)
        self.biases = list(biases)

    def params(self) -> list[Param]:
        out: list[Param] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def __repr__(self) -> str:
        return f"LayerSpec({self.kind}, {self.in_dim}->{self.out_dim}, {self.activation})"


def dense(in_dim: int, out_dim: int, activation: str = RELU, *,
          rng: np.random.Generator | None = None,
          weight=None, bias=None, name: str = "dense") -> LayerSpec:
    """Dense layer; explicit arrays win over seeded init, zeros otherwise."""
    w = as_tensor(weight) if weight is not None else _init_array(rng, (out_dim, in_dim), in_dim)
    b = as_tensor(bias) if bias is not None else _init_array(rng, (out_dim,), in_dim)
    return LayerSpec(DENSE, in_dim, out_dim, activation,
                     [Param(f"{name}.W", w)], [Param(f"{name}.b", b)])


def residual_block(dim: int, activation: str = IDENTITY, *,
                   rng: np.random.Generator | None = None,
                   weights=None, biases=None, name: str = "res") -> LayerSpec:
    """Residual block ``x + W2 relu(W1 x + b1) + b2`` of square width ``dim``."""
    if weights is not None:
        ws = [as_tensor(w) for w in weights]
    else:
        ws = [_init_array(rng, (dim, dim), dim) for _ in range(2)]
    if biases is not None:
        bs = [as_tensor(b) for b in biases]
    else:
        bs = [_init_array(rng, (dim,), dim) for _ in range(2)]
    return LayerSpec(RESIDUAL, dim, dim, activation,
                     [Param(f"{name}.W1", ws[0]), Param(f"{name}.W2", ws[1])],
                     [Param(f"{name}.b1", bs[0]), Param(f"{name}.b2", bs[1])])


def apply_layer(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Plain numpy forward through one layer (same op order as the taped path).

    Bias adds, relus and the skip-add run in place on the fresh matmul
    outputs; ``x`` and the parameter arrays are never written.
    """
    y = x @ layer.weights[0].value.T
    y += layer.biases[0].value
    if layer.kind == RESIDUAL:
        np.maximum(y, 0.0, out=y)
        t = y @ layer.weights[1].value.T
        t += layer.biases[1].value
        y = np.add(x, t, out=t)
    if layer.activation == RELU:
        np.maximum(y, 0.0, out=y)
    return y


def _check_chain(layers: Sequence[LayerSpec], in_dim: int) -> None:
    cur = in_dim
    for i, layer in enumerate(layers):
        if layer.in_dim != cur:
            raise ConfigError(f"layer {i} expects input dim {layer.in_dim}, got {cur}")
        cur = layer.out_dim


def flops(layers: Sequence[LayerSpec]) -> int:
    """Forward-pass FLOPs for one sample under the package convention."""
    total = 0
    for layer in layers:
        if layer.kind == DENSE:
            total += 2 * layer.in_dim * layer.out_dim + layer.out_dim
        else:
            d = layer.out_dim
            total += 2 * (2 * d * d + d) + d
    return total


# ---------------------------------------------------------------------------
# Gradient tape: an ordered record of primitive ops, replayed in reverse.

class Node:
    """Value produced during a taped forward pass."""

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray) -> None:
        self.value = value


AccumFn = Callable[["Node", np.ndarray], None]
BackwardFn = Callable[[np.ndarray, AccumFn], None]


class GradientTape:
    """Ordered record of the primitive operations of one forward pass.

    Ops append ``(node, backward_fn)`` entries; ``adjoints`` replays the
    record in reverse from any recorded scalar and accumulates one gradient
    per parameter the scalar reaches. A tape is a single-owner,
    single-threaded object.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Node, BackwardFn]] = []
        self._params: dict[int, tuple[Param, Node]] = {}

    def input(self, value) -> Node:
        """Data leaf; it gets no gradient map entry (take a gradient with
        respect to data through a ``Param`` leaf)."""
        return Node(as_tensor(value))

    def param(self, p: Param) -> Node:
        """Leaf for a trainable parameter (one node per param per tape)."""
        entry = self._params.get(id(p))
        if entry is None:
            entry = (p, Node(p.value))
            self._params[id(p)] = entry
        return entry[1]

    def record(self, value: np.ndarray, backward_fn: BackwardFn) -> Node:
        node = Node(value)
        self._entries.append((node, backward_fn))
        return node


def adjoints(tape: GradientTape, node: Node) -> dict[Param, np.ndarray]:
    """Gradients of a recorded scalar node w.r.t. the parameters it reaches.

    A parameter on the tape that ``node`` does not depend on is absent from
    the map; its gradient is zero.
    """
    if node.value.shape != ():
        raise UsageError("adjoint seed must be a scalar node")
    grads: dict[int, np.ndarray] = {id(node): np.float64(1.0)}

    def accum(n: Node, delta: np.ndarray) -> None:
        key = id(n)
        prev = grads.get(key)
        grads[key] = delta if prev is None else prev + delta

    for out, backward_fn in reversed(tape._entries):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        backward_fn(g, accum)

    result: dict[Param, np.ndarray] = {}
    for p, pnode in tape._params.values():
        g = grads.get(id(pnode))
        if g is not None:
            result[p] = np.asarray(g, dtype=np.float64)
    return result


# --- primitive taped ops ----------------------------------------------------
# All array ops below require 2-D (batch, features) inputs except the scalar
# reductions; backward closures always produce fresh arrays.

def op_affine(tape: GradientTape, x: Node, w: Param, b: Param) -> Node:
    wn, bn = tape.param(w), tape.param(b)
    value = x.value @ wn.value.T + bn.value

    def bw(g: np.ndarray, accum: AccumFn) -> None:
        accum(x, g @ wn.value)
        accum(wn, g.T @ x.value)
        accum(bn, g.sum(axis=0))

    return tape.record(value, bw)


def op_relu(tape: GradientTape, x: Node) -> Node:
    mask = x.value > 0

    def bw(g, accum):
        accum(x, g * mask)

    return tape.record(np.maximum(x.value, 0.0), bw)


def op_add(tape: GradientTape, a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise UsageError("op_add requires equal shapes")

    def bw(g, accum):
        accum(a, g)
        accum(b, g)

    return tape.record(a.value + b.value, bw)


def op_scale(tape: GradientTape, x: Node, c: float) -> Node:
    c = float(c)

    def bw(g, accum):
        accum(x, g * c)

    return tape.record(x.value * c, bw)


def op_cmul(tape: GradientTape, const, x: Node) -> Node:
    """Elementwise product with a constant array (no gradient into it)."""
    carr = as_tensor(const)

    def bw(g, accum):
        accum(x, g * carr)

    return tape.record(carr * x.value, bw)


def op_rsub(tape: GradientTape, c: float, x: Node) -> Node:
    """Constant minus node, e.g. ``1 - q``."""
    c = float(c)

    def bw(g, accum):
        accum(x, -g)

    return tape.record(c - x.value, bw)


def op_sigmoid(tape: GradientTape, x: Node) -> Node:
    out = sigmoid(x.value)

    def bw(g, accum):
        accum(x, g * out * (1.0 - out))

    return tape.record(out, bw)


def op_softmax(tape: GradientTape, x: Node) -> Node:
    out = softmax(x.value)

    def bw(g, accum):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        accum(x, out * (g - dot))

    return tape.record(out, bw)


def op_log(tape: GradientTape, x: Node) -> Node:
    def bw(g, accum):
        accum(x, g / x.value)

    return tape.record(np.log(x.value), bw)


def op_clamp(tape: GradientTape, x: Node, lo: float, hi: float) -> Node:
    mask = (x.value >= lo) & (x.value <= hi)

    def bw(g, accum):
        accum(x, g * mask)

    return tape.record(np.clip(x.value, lo, hi), bw)


def op_mean(tape: GradientTape, x: Node) -> Node:
    size = x.value.size
    shape = x.value.shape

    def bw(g, accum):
        accum(x, np.full(shape, float(g) / size))

    return tape.record(np.asarray(x.value.mean()), bw)


def op_pick(tape: GradientTape, x: Node, index: np.ndarray) -> Node:
    """Per-row gather ``x[i, index[i]]`` (labels into probabilities)."""
    index = np.asarray(index, dtype=np.intp)
    rows = np.arange(x.value.shape[0])

    def bw(g, accum):
        out = np.zeros_like(x.value)
        out[rows, index] = g
        accum(x, out)

    return tape.record(x.value[rows, index], bw)


def op_rows(tape: GradientTape, x: Node, idx: np.ndarray) -> Node:
    """Row subset ``x[idx]`` (restriction to a sample subset)."""
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.value.shape

    def bw(g, accum):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        accum(x, out)

    return tape.record(x.value[idx], bw)


def layer_on_tape(tape: GradientTape, layer: LayerSpec, x: Node) -> Node:
    if layer.kind == DENSE:
        y = op_affine(tape, x, layer.weights[0], layer.biases[0])
    else:
        h = op_relu(tape, op_affine(tape, x, layer.weights[0], layer.biases[0]))
        y = op_add(tape, x, op_affine(tape, h, layer.weights[1], layer.biases[1]))
    if layer.activation == RELU:
        y = op_relu(tape, y)
    return y


def forward_on_tape(tape: GradientTape, layers: Sequence[LayerSpec], x: Node) -> Node:
    """The one taped layer loop: records ``layers`` applied to ``x`` on ``tape``."""
    for layer in layers:
        x = layer_on_tape(tape, layer, x)
    return x


def forward(layers: Sequence[LayerSpec], x) -> np.ndarray:
    """The one untaped layer loop: ``layers`` applied to a sample or batch.

    Split inference runs it on slices of one stack (up to a tap, after a
    tap), so every path shares its input, dimension and finite checks.
    """
    arr = as_tensor(x)
    if arr.ndim not in (1, 2):
        raise UsageError(f"input must be 1-D or 2-D, got shape {arr.shape}")
    squeeze = arr.ndim == 1
    h = arr.reshape(1, -1) if squeeze else arr
    _check_chain(layers, h.shape[1])
    for layer in layers:
        h = apply_layer(layer, h)
    if not np.all(np.isfinite(h)):
        raise ArithmeticError("forward produced non-finite values")
    return h[0] if squeeze else h


# ---------------------------------------------------------------------------
# Parameter digests and checkpoints.

def params_digest(params: Iterable[Param]) -> str:
    """SHA-256 over names, shapes and raw bytes; used for freeze contracts."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(str(p.value.shape).encode())
        h.update(p.value.tobytes())
    return h.hexdigest()


def save_params(path, params: Iterable[Param]) -> None:
    """Write a versioned checkpoint; round-trips bit-exactly via ``.npz``."""
    named: dict[str, np.ndarray] = {}
    for p in params:
        if p.name in named:
            raise UsageError(f"duplicate parameter name {p.name!r}")
        named[p.name] = p.value
    np.savez(path, __checkpoint_version__=np.int64(CHECKPOINT_VERSION), **named)


def load_params(path) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        if "__checkpoint_version__" not in z.files:
            raise ConfigError(f"{path}: not an edgecloud checkpoint (missing version)")
        version = int(z["__checkpoint_version__"])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        return {k: z[k] for k in z.files if k != "__checkpoint_version__"}


def restore_params(params: Iterable[Param], arrays: dict[str, np.ndarray]) -> None:
    for p in params:
        if p.name not in arrays:
            raise ConfigError(f"checkpoint is missing parameter {p.name!r}")
        a = arrays[p.name]
        if a.shape != p.value.shape:
            raise ConfigError(f"parameter {p.name!r}: checkpoint shape {a.shape} != {p.value.shape}")
        p.value = as_tensor(a)
