"""Dense-network substrate: parameters, layers, training passes whose
backwards write flat gradient rows, FLOP accounting, and bit-exact parameter
checkpoints.

Conventions shared by every module in this package:

* Numeric data is float64. Activations are ``(batch, features)`` arrays;
  every pass takes a batch, a single sample being a batch of one row.
* A dense layer computes ``act(x @ W.T + b)`` with ``W`` shaped
  ``(out_dim, in_dim)``.
* A residual block computes ``x + (relu(x @ W1.T + b1) @ W2.T + b2)`` with
  both matrices square, then applies its declared activation (identity by
  default, so an all-zero block is a passthrough).
* FLOP convention: multiply-accumulate = 2, bias add = 1 per output
  element, activations are free, the residual skip-add is 1 per element.
  Dense layer: ``2*in*out + out``. Residual block: ``2*(2*d*d + d) + d``.
* ``forward`` is the only inference loop over a layer stack and
  ``forward_on_tape`` the only training one, and both compute each layer
  with ``apply_layer``; split inference and training run them on slices of
  a stack (up to a tap, after a tap). ``forward_on_tape`` returns a
  stack's output with its backward, one loop over its layers in reverse:
  their relu, skip-add and affine backwards, with each parameter's
  gradient written in place into its slice of one flat gradient row. A
  training step composes these backwards with its losses' into one
  backward per objective, which ``adjoints`` runs into a row.
* Every pass keeps its intermediates in the calling thread's workspace,
  one :class:`Scratch` made on the thread's first pass and kept for its
  life (:func:`workspace`), so its buffers are allocated once per thread.
  ``forward`` writes every layer output but the last into it. No function
  returns a view of it: every result is a fresh array.
* A checkpoint (version 2) is an ``.npz`` of two members: ``values``, every
  parameter raveled into one float64 array in ``params()`` order, and
  ``layout``, a JSON string ``{"version": 2, "params": [[name, shape], ...]}``.
* Files are written through :func:`atomic_open`: a writer that fails
  midway leaves the previous file in place.
* Weight init draws uniform from ``[-1/sqrt(in_dim), +1/sqrt(in_dim)]``
  using a caller-supplied generator, so everything downstream is
  deterministic given the seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
import zipfile
from typing import Callable, Iterable, Sequence

import numpy as np

DENSE = "dense"
RESIDUAL = "residual-block"
RELU = "relu"
IDENTITY = "identity"

CHECKPOINT_VERSION = 2


class ConfigError(ValueError):
    """Model or layer wiring is inconsistent (dims, shapes, references)."""


class UsageError(ValueError):
    """An operation was called outside its contract."""


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (the package's tensor type)."""
    return np.ascontiguousarray(x, dtype=np.float64)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, into ``out`` or a fresh array.

    With ``e = exp(-|x|)`` it is ``max(e, x >= 0) / (1 + e)``: ``1/(1+e)``
    where ``x >= 0`` and ``e/(1+e)`` elsewhere, one unmasked divide in two
    buffers, ``out`` and ``work`` (for ``1 + e``; fresh when not given),
    neither of which may overlap ``x`` or the other. ``-|x|`` is taken as
    ``min(x, -x)`` so a NaN keeps its sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.negative(x, out=np.empty_like(x) if out is None else out)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=work)
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, d, out=e)


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


def apply_layer(layer: LayerSpec, x: np.ndarray, out: np.ndarray | None = None,
                hidden: np.ndarray | None = None) -> np.ndarray:
    """Plain numpy forward through one layer, for both layer loops.

    The layer's output goes into ``out`` and a residual block's hidden
    activation into ``hidden``, each ``(rows, out_dim)`` and overlapping
    neither ``x`` nor the other, or into fresh arrays when not given. Bias
    adds, relus and the skip-add run in place on the matmul outputs; ``x``
    and the parameter arrays are never written.
    """
    if layer.kind == RESIDUAL:
        h = np.matmul(x, layer.weights[0].value.T, out=hidden)
        h += layer.biases[0].value
        np.maximum(h, 0.0, out=h)
        y = np.matmul(h, layer.weights[1].value.T, out=out)
        y += layer.biases[1].value
        np.add(x, y, out=y)
    else:
        y = np.matmul(x, layer.weights[0].value.T, out=out)
        y += layer.biases[0].value
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
# Training passes: a stack's forward with its backward, which writes each
# parameter's gradient into its slice of one flat gradient row.

class GradientTape:
    """The gradient-row layout of a training stage, and the parameters its
    current step's passes have read.

    Each of ``params`` owns a slice of one flat row of :attr:`size`
    elements, in their order. :func:`forward_on_tape` marks each parameter
    it reads, and refuses one that is not in the layout or that a pass has
    read since the last :meth:`clear`; its backward writes their gradients
    into the row that :func:`adjoints` is filling. A tape is a
    single-owner, single-threaded object.
    """

    KEPT_ROWS = 3  # a step of ``train._fit`` fills one row per objective, at most 3

    def __init__(self, params: Iterable[Param]) -> None:
        self._slices: dict[int, tuple[Param, slice]] = {}
        self.size = 0
        for p in params:
            if id(p) not in self._slices:
                self._slices[id(p)] = (p, slice(self.size, self.size + p.value.size))
                self.size += p.value.size
        self._read: set[int] = set()
        self._rows: dict[int, tuple[np.ndarray, dict[int, np.ndarray]]] = {}
        self._grad: dict[int, np.ndarray] = {}

    def clear(self) -> None:
        """Forget the parameters read, so one tape serves step after step."""
        self._read.clear()

    def _mark(self, params: Iterable[Param]) -> None:
        for p in params:
            if id(p) not in self._slices:
                raise UsageError(f"parameter {p.name!r} is not on the tape")
            if id(p) in self._read:
                raise UsageError("a parameter is read twice on one tape")
            self._read.add(id(p))

    def _views(self, row: np.ndarray) -> dict[int, np.ndarray]:
        """Each parameter's slice of ``row``, shaped as the parameter, by
        the parameter's id. The views of the :attr:`KEPT_ROWS` rows used
        last are kept for their next call, so a training step's rows are
        sliced once per stage, and a row that its caller drops is freed."""
        kept = self._rows.pop(id(row), None)  # a kept row is alive, so its id is its own
        if kept is None:
            if len(self._rows) == self.KEPT_ROWS:
                del self._rows[next(iter(self._rows))]  # the least recently used
            kept = (row, {key: row[where].reshape(p.value.shape)
                          for key, (p, where) in self._slices.items()})
        self._rows[id(row)] = kept
        return kept[1]


def adjoints(tape: GradientTape, objective: Callable[[np.float64], object],
             out: np.ndarray) -> np.ndarray:
    """Gradient of one scalar objective w.r.t. every parameter on the tape,
    written into ``out``, one flat row of ``tape.size`` elements, and
    returned: ``out`` is zeroed, then ``objective``, the objective's
    backward, runs from the seed ``np.float64(1.0)`` and its stacks write
    each gradient into its parameter's slice (see :class:`GradientTape`).
    """
    if out.shape != (tape.size,):
        raise UsageError(f"gradient row has shape {out.shape}, tape needs ({tape.size},)")
    tape._grad = tape._views(out)
    out.fill(0.0)
    objective(np.float64(1.0))
    return out


def forward_on_tape(tape: GradientTape, layers: Sequence[LayerSpec], x: np.ndarray, *,
                    data: bool = False) -> tuple[np.ndarray, Callable]:
    """The one training loop over a layer stack: ``layers`` applied to ``x``,
    each layer by :func:`apply_layer` into fresh arrays that the backward
    keeps, and that backward, ``backward(g, dx=None)``.

    The stack's parameters are marked read on ``tape``. The backward is one
    loop over the layers in reverse. Per layer it runs the activation,
    skip-add and affine backwards, and writes each parameter's gradient
    with ``out=`` into the parameter's slice of the row :func:`adjoints` is
    filling. A relu's backward keeps the entries where its output is
    positive, which are those where its input was. It returns the gradient
    into ``x``: ``dx``, a gradient ``x`` already has from another pass that
    read it, then a residual block's skip term, then its affine term, added
    in that order; ``None`` for ``data``. No layers give ``x`` itself, and
    a backward that passes ``g`` on.
    """
    if not layers:
        return x, lambda g, dx=None: None if data else g if dx is None else dx + g
    saved = []
    h = x
    for layer in layers:
        params = layer.params()  # W1, b1 and a residual block's W2, b2
        tape._mark(params)
        hidden = np.empty((h.shape[0], layer.out_dim)) if layer.kind == RESIDUAL else None
        y = apply_layer(layer, h, hidden=hidden)
        saved.append((params, h, hidden, y if layer.activation == RELU else None))
        h = y

    def backward(g, dx=None):
        grad = tape._grad
        for i in range(len(saved) - 1, -1, -1):
            params, x_in, hidden, relu_out = saved[i]
            if relu_out is not None:
                g = g * (relu_out > 0)
            skip = None
            if hidden is not None:
                w2, b2 = params[2:]
                skip = g
                g = g @ w2.value
                np.matmul(skip.T, hidden, out=grad[id(w2)])
                np.add.reduce(skip, axis=0, out=grad[id(b2)])
                g *= hidden > 0
            w1, b1 = params[:2]
            np.matmul(g.T, x_in, out=grad[id(w1)])
            np.add.reduce(g, axis=0, out=grad[id(b1)])
            if i == 0:
                if data:
                    return None
                if dx is not None:
                    skip = dx if skip is None else dx + skip
            g = g @ w1.value
            if skip is not None:
                g += skip
        return g

    return h, backward


def layer_on_tape(tape: GradientTape, layer: LayerSpec, x: np.ndarray, *,
                  data: bool = False) -> tuple[np.ndarray, Callable]:
    """``layer`` applied to ``x``: :func:`forward_on_tape` of the one layer."""
    return forward_on_tape(tape, (layer,), x, data=data)


class Scratch:
    """Three flat float64 buffers for a thread's passes; each grows to the
    largest ``rows * width`` asked of it.

    ``forward`` writes intermediate layer outputs into slots 0 and 1, which
    alternate, and a residual block's hidden activation into slot 2; the KD
    loss's temporaries (``train._kd_against``) take the same three slots.
    Passes that share one scratch reuse its pages instead of allocating
    (and page-faulting) fresh arrays per layer. It is a single-owner,
    single-threaded object, and a view it returns is valid only until the
    next request for the same slot, so no function returns one.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers = [np.empty(0)] * 3

    def array(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous view of ``shape`` at the start of buffer ``slot``."""
        size = math.prod(shape)
        if self._buffers[slot].size < size:
            self._buffers[slot] = np.empty(size)
        return self._buffers[slot][:size].reshape(shape)


class _Workspace(threading.local):
    def __init__(self) -> None:
        self.scratch = Scratch()


_WORKSPACE = _Workspace()


def workspace() -> Scratch:
    """The calling thread's :class:`Scratch`, made on its first use and kept
    for its life, so every pass in a thread reuses the pages of the passes
    before. It holds memory, never data: each buffer is written before it
    is read."""
    return _WORKSPACE.scratch


def forward(layers: Sequence[LayerSpec], x) -> np.ndarray:
    """The one inference layer loop: ``layers`` applied to an ``(n, d)`` batch.

    Split inference runs it on slices of one stack (up to a tap, after a
    tap), so every path shares its input, dimension and finite checks.
    Every layer but the last writes into the calling thread's
    :func:`workspace`; the result is never a view of it, so later passes
    do not touch it. A non-finite result raises ``ArithmeticError`` naming
    the stack's first layer: its first weight's name less the last dotted
    part (``edge.h0.W`` -> ``edge.h0``).
    """
    h = as_tensor(x)
    if h.ndim != 2:
        raise UsageError(f"input must be an (n, d) batch, got shape {h.shape}")
    _check_chain(layers, h.shape[1])
    scratch, last = workspace(), len(layers) - 1
    for i, layer in enumerate(layers):
        shape = (h.shape[0], layer.out_dim)
        out = scratch.array(i % 2, shape) if i < last else None
        hidden = scratch.array(2, shape) if layer.kind == RESIDUAL else None
        h = apply_layer(layer, h, out, hidden)
    if not np.all(np.isfinite(h)):
        first = layers[0].weights[0].name.rsplit(".", 1)[0] if layers else "no layer"
        raise ArithmeticError(f"forward pass from {first} produced non-finite values")
    return h


# ---------------------------------------------------------------------------
# Parameter digests, checkpoints and atomic file writes.

@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; when the block
    exits normally it replaces ``path`` in one ``os.replace``. If the block
    or the replace raises, the temporary file is removed and ``path`` is
    left as it was. An error opening the temporary file or replacing
    ``path`` names ``path``, not the temporary file. Text is written as
    UTF-8 unless ``encoding`` says otherwise, whatever the locale."""
    if "b" not in mode:
        kwargs.setdefault("encoding", "utf-8")
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def params_digest(params: Iterable[Param]) -> str:
    """SHA-256 over names, shapes and raw bytes; used for freeze contracts."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(str(p.value.shape).encode())
        h.update(p.value.tobytes())
    return h.hexdigest()


def save_params(path, params: Iterable[Param]) -> None:
    """Write a versioned checkpoint: every parameter raveled into one float64
    ``values`` array, in ``params`` order, and a JSON ``layout`` naming each
    parameter's shape. It round-trips bit-exactly through :func:`load_params`."""
    params = list(params)
    shapes: dict[str, list[int]] = {}
    for p in params:
        if p.name in shapes:
            raise UsageError(f"duplicate parameter name {p.name!r}")
        shapes[p.name] = list(p.value.shape)
    values = np.concatenate([np.empty(0)] + [p.value.ravel() for p in params])
    layout = {"version": CHECKPOINT_VERSION, "params": [list(item) for item in shapes.items()]}
    with atomic_open(path, "wb") as fh:
        np.savez(fh, values=values, layout=np.array(json.dumps(layout)))


def _layout(path, text: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """The ``(name, shape)`` pairs of a checkpoint's JSON ``layout`` member."""
    try:
        layout = json.loads(str(text[()]))
        version = layout["version"]
        pairs = [(name, tuple(shape)) for name, shape in layout["params"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable checkpoint (malformed layout: {exc})") from exc
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    names = {name for name, _ in pairs}
    if len(names) != len(pairs) or not all(isinstance(d, int) and d >= 0
                                           for _, shape in pairs for d in shape):
        raise ConfigError(f"{path}: not a readable checkpoint (malformed layout)")
    return pairs


def load_params(path) -> dict[str, np.ndarray]:
    """The named arrays of a :func:`save_params` checkpoint, as reshaped
    slices of its ``values``. ``ConfigError`` names a file that is not one,
    was written before checkpoint version 2, has a layout that does not
    cover its values exactly, or holds non-float64 or non-finite values."""
    try:
        with np.load(path) as z:
            files = z.files
            text, values = (z["layout"], z["values"]) if "layout" in files else (None, None)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable checkpoint ({exc})") from exc
    if text is None:
        raise ConfigError(f"{path}: checkpoint version 1 is no longer read; re-run `train`"
                          if "__checkpoint_version__" in files
                          else f"{path}: not an edgecloud checkpoint (no layout)")
    pairs = _layout(path, text)
    if values.dtype != np.float64 or values.ndim != 1:
        raise ConfigError(f"{path}: values are {values.dtype} of shape {values.shape}, "
                          "not a 1-D float64 array")
    sizes = [math.prod(shape) for _, shape in pairs]
    if sum(sizes) != values.size:
        raise ConfigError(f"{path}: layout covers {sum(sizes)} values, file holds {values.size}")
    arrays, start = {}, 0
    for (name, shape), size in zip(pairs, sizes):
        arrays[name] = values[start:start + size].reshape(shape)
        start += size
    if not np.all(np.isfinite(values)):
        bad = next(name for name, a in arrays.items() if not np.all(np.isfinite(a)))
        raise ConfigError(f"{path}: parameter {bad!r} is not a finite real array")
    return arrays


def restore_params(params: Iterable[Param], arrays: dict[str, np.ndarray], path) -> None:
    """Set each parameter to its array from ``load_params(path)``; a missing,
    misshapen or extra name is a ``ConfigError`` naming ``path``, before any is set."""
    params = list(params)
    for p in params:
        if p.name not in arrays:
            raise ConfigError(f"{path}: checkpoint is missing parameter {p.name!r}")
    for p in params:
        a = arrays[p.name]
        if a.shape != p.value.shape:
            raise ConfigError(f"{path}: parameter {p.name!r}: checkpoint shape {a.shape} "
                              f"!= {p.value.shape}")
    extra = sorted(set(arrays).difference(p.name for p in params))
    if extra:
        raise ConfigError(f"{path}: checkpoint has parameter {extra[0]!r}, which the net lacks")
    for p in params:
        p.value = as_tensor(arrays[p.name])
