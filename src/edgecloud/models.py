"""Edge, cloud and adapter networks: split inference and confidence scores.

A model is a stack of layers ending in a ``num_classes``-wide head; class
probabilities are always a max-subtracted softmax over the final logits. A
*tap* is a 0-based layer index, and the adapter's ``(edge_tap, cloud_tap)``
is the only place a split is defined: ``infer_with_tap`` returns the edge's
activation after its tap, ``adapt`` maps it into the cloud tap's space, and
``cloud_tail`` resumes the cloud from such an activation by running only the
layers after the tap. Every path is ``nncore.forward`` on a slice of one
layer stack, and takes an optional keyword ``scratch`` that it passes on to
it; what a path returns is always a fresh array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import nncore
from .nncore import (ConfigError, IDENTITY, LayerSpec, Param, RELU, Scratch, UsageError,
                     as_tensor, dense, residual_block, softmax)

NORMAL_CLASS = 0  # the "nothing of interest" class of every dataset and model
NORMAL_CLASS_MODE = "normal-class"
MAX_CLASS_MODE = "max-class"
CONFIDENCE_MODES = (NORMAL_CLASS_MODE, MAX_CLASS_MODE)


class ModelSpec:
    """Named layer stack with a softmax head."""

    __slots__ = ("name", "layers", "num_classes")

    def __init__(self, name: str, layers: Sequence[LayerSpec], num_classes: int) -> None:
        layers = list(layers)
        if not layers:
            raise ConfigError("model needs at least one layer")
        nncore._check_chain(layers, layers[0].in_dim)
        if layers[-1].out_dim != num_classes:
            raise ConfigError(f"last layer out_dim {layers[-1].out_dim} != num_classes {num_classes}")
        self.name = name
        self.layers = layers
        self.num_classes = num_classes

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    def tap_dim(self, tap: int) -> int:
        return self.layers[tap].out_dim

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def total_flops(self) -> int:
        return nncore.flops(self.layers)

    def __repr__(self) -> str:
        dims = "->".join(str(d) for d in [self.in_dim] + [l.out_dim for l in self.layers])
        return f"ModelSpec({self.name!r}, {dims})"


class AdapterSpec:
    """Projection plus residual-block stack mapping an edge feature tap into
    a cloud feature tap.

    ``blocks`` may be empty, which gives the plain single-dense adapter used
    as the shallow baseline in depth comparisons.
    """

    __slots__ = ("name", "edge_tap", "cloud_tap", "projection", "blocks")

    def __init__(self, name: str, edge_tap: int, cloud_tap: int,
                 projection: LayerSpec, blocks: Sequence[LayerSpec]) -> None:
        if edge_tap < 0 or cloud_tap < 0:
            raise ConfigError("tap indices must be nonnegative")
        if projection.kind != nncore.DENSE:
            raise ConfigError("adapter projection must be a dense layer")
        blocks = list(blocks)
        for i, blk in enumerate(blocks):
            if blk.kind != nncore.RESIDUAL:
                raise ConfigError(f"adapter block {i} must be a residual-block")
            if blk.out_dim != projection.out_dim:
                raise ConfigError(f"adapter block {i} width {blk.out_dim} != projection out {projection.out_dim}")
        self.name = name
        self.edge_tap = edge_tap
        self.cloud_tap = cloud_tap
        self.projection = projection
        self.blocks = blocks

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def layers(self) -> list[LayerSpec]:
        return [self.projection, *self.blocks]

    def params(self) -> list[Param]:
        return [p for layer in self.layers() for p in layer.params()]

    def total_flops(self) -> int:
        return nncore.flops(self.layers())

    def __repr__(self) -> str:
        return (f"AdapterSpec({self.name!r}, edge_tap={self.edge_tap}, "
                f"cloud_tap={self.cloud_tap}, blocks={self.num_blocks})")


def feedforward(name: str, in_dim: int, hidden: Sequence[int], num_classes: int,
                rng: np.random.Generator | None = None) -> ModelSpec:
    """Relu MLP with an identity head; hidden layer i is named ``{name}.h{i}``."""
    layers = []
    prev = in_dim
    for i, width in enumerate(hidden):
        layers.append(dense(prev, width, RELU, rng=rng, name=f"{name}.h{i}"))
        prev = width
    layers.append(dense(prev, num_classes, IDENTITY, rng=rng, name=f"{name}.head"))
    return ModelSpec(name, layers, num_classes)


def make_adapter(name: str, edge_tap: int, cloud_tap: int, edge_dim: int,
                 cloud_dim: int, num_blocks: int,
                 rng: np.random.Generator | None = None) -> AdapterSpec:
    projection = dense(edge_dim, cloud_dim, RELU, rng=rng, name=f"{name}.proj")
    blocks = [residual_block(cloud_dim, rng=rng, name=f"{name}.res{i}") for i in range(num_blocks)]
    return AdapterSpec(name, edge_tap, cloud_tap, projection, blocks)


def check_adapter_tap(side: str, net: ModelSpec, tap: int) -> None:
    """Reject an adapter's ``side`` tap that is not a layer index of ``net``."""
    if not 0 <= tap < len(net.layers):
        raise ConfigError(f"adapter {side} tap {tap} out of range for {net.name!r}")


def check_adapter_binding(edge: ModelSpec, cloud: ModelSpec, adapter: AdapterSpec) -> None:
    """Reject an adapter whose edge or cloud tap is not a layer index of its net."""
    check_adapter_tap("edge", edge, adapter.edge_tap)
    check_adapter_tap("cloud", cloud, adapter.cloud_tap)


def infer(model: ModelSpec, x, *, scratch: Scratch | None = None) -> np.ndarray:
    """Class probabilities for a sample or batch."""
    return softmax(nncore.forward(model.layers, x, scratch=scratch))


def infer_with_tap(model: ModelSpec, x, tap: int, *,
                   scratch: Scratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities plus the activation after layer ``tap``."""
    if not 0 <= tap < len(model.layers):
        raise UsageError(f"tap {tap} out of range for {model.name!r}")
    captured = nncore.forward(model.layers[:tap + 1], x, scratch=scratch)
    probs = softmax(nncore.forward(model.layers[tap + 1:], captured, scratch=scratch))
    return probs, captured


def adapt(adapter: AdapterSpec, edge_feature, *, scratch: Scratch | None = None) -> np.ndarray:
    """Map an edge tap feature into the cloud's tap-``cloud_tap`` feature space."""
    return nncore.forward(adapter.layers(), edge_feature, scratch=scratch)


def cloud_tail(model: ModelSpec, injected, from_tap: int, *,
               scratch: Scratch | None = None) -> np.ndarray:
    """Resume the model from an injected tap-``from_tap`` activation.

    Runs only the layers with index > ``from_tap``; injecting the model's
    own tap activation reproduces the full forward pass bit-exactly.
    """
    if not 0 <= from_tap < len(model.layers):
        raise UsageError(f"from_tap {from_tap} out of range for {model.name!r}")
    values = as_tensor(injected)
    expected = model.layers[from_tap].out_dim
    # checked here: the slice after the last layer is empty and checks no dim
    if values.ndim in (1, 2) and values.shape[-1] != expected:
        raise ConfigError(f"injected dim {values.shape[-1]} != tap {from_tap} dim {expected}")
    return softmax(nncore.forward(model.layers[from_tap + 1:], values, scratch=scratch))


def confidence(probs, mode: str = NORMAL_CLASS_MODE):
    """Confidence score used by the routing rules.

    ``normal-class`` returns the probability of :data:`NORMAL_CLASS`; ``max-class``
    returns the top probability. Accepts a single vector or a batch.
    """
    if mode not in CONFIDENCE_MODES:
        raise UsageError(f"unknown confidence mode {mode!r}")
    arr = np.asarray(probs, dtype=np.float64)
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise UsageError("probabilities must sum to 1")
    out = arr[..., NORMAL_CLASS] if mode == NORMAL_CLASS_MODE else arr.max(axis=-1)
    return float(out) if out.ndim == 0 else out
