"""Edge, cloud and adapter networks: split inference and the routing confidence.

A model is a stack of layers ending in a ``num_classes``-wide head; class
probabilities are always a max-subtracted softmax over the final logits. A
*tap* is a 0-based layer index, and :meth:`ModelSpec.split` is the one rule
that cuts a net at a tap and refuses a tap that is not a layer index. The
adapter's ``(edge_tap, cloud_tap)`` is the split point, and
:meth:`AdapterSpec.split` cuts one net there, refusing a net whose tap is
not as wide as the projection reads (edge) or writes (cloud).
``infer_with_tap`` returns the edge's activation after its tap, ``adapt``
maps it into the cloud tap's space, and ``cloud_tail`` resumes the cloud
from such an activation with the layers after the tap. Every path is
``nncore.forward`` on a side of a split, so its intermediates live in the
calling thread's workspace; what a path returns is always a fresh array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import nncore
from .nncore import (ConfigError, IDENTITY, LayerSpec, Param, RELU, UsageError,
                     as_tensor, dense, residual_block, softmax)

NORMAL_CLASS = 0  # the "nothing of interest" class of every dataset and model


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

    def split(self, tap: int) -> tuple[list[LayerSpec], list[LayerSpec]]:
        """The layers up to and including ``tap``, and the layers after it;
        a ``tap`` outside ``[0, len(layers))`` is refused."""
        if not 0 <= tap < len(self.layers):
            raise ConfigError(f"tap {tap} out of range for {self.name!r}")
        return self.layers[:tap + 1], self.layers[tap + 1:]

    def tap_dim(self, tap: int) -> int:
        return self.split(tap)[0][-1].out_dim

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

    def split(self, net: ModelSpec, end: str) -> tuple[list[LayerSpec], list[LayerSpec]]:
        """``net.split`` at this adapter's tap on ``end`` ("edge" or "cloud"); a
        net whose tap is not as wide as the projection's input (edge end) or
        output (cloud end) is refused."""
        tap, width, verb = {"edge": (self.edge_tap, self.projection.in_dim, "reads"),
                            "cloud": (self.cloud_tap, self.projection.out_dim, "writes")}[end]
        prefix, tail = net.split(tap)
        if prefix[-1].out_dim != width:
            raise ConfigError(f"adapter {self.name!r} does not fit {net.name!r}: tap {tap} is "
                              f"{prefix[-1].out_dim} wide, its projection {verb} {width}")
        return prefix, tail

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


def infer(model: ModelSpec, x) -> np.ndarray:
    """Class probabilities for a batch."""
    return softmax(nncore.forward(model.layers, x))


def infer_with_tap(model: ModelSpec, x, tap: int) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities plus the activation after layer ``tap``."""
    prefix, tail = model.split(tap)
    captured = nncore.forward(prefix, x)
    probs = softmax(nncore.forward(tail, captured))
    return probs, captured


def adapt(adapter: AdapterSpec, edge_feature) -> np.ndarray:
    """Map an edge tap feature into the cloud's tap-``cloud_tap`` feature space."""
    return nncore.forward(adapter.layers(), edge_feature)


def cloud_tail(model: ModelSpec, injected, from_tap: int) -> np.ndarray:
    """Resume the model from an injected tap-``from_tap`` activation.

    Runs only the layers with index > ``from_tap``; injecting the model's
    own tap activation reproduces the full forward pass bit-exactly.
    """
    prefix, tail = model.split(from_tap)
    values = as_tensor(injected)
    expected = prefix[-1].out_dim
    # checked here: the tail after the last layer is empty and checks no dim
    if values.ndim == 2 and values.shape[1] != expected:
        raise ConfigError(f"injected dim {values.shape[1]} != tap {from_tap} dim {expected}")
    return softmax(nncore.forward(tail, values))


def confidence(probs) -> np.ndarray:
    """The confidence that drives routing, one per row of an ``(n, classes)``
    batch of class probabilities: the row's probability of
    :data:`NORMAL_CLASS`, "nothing of interest here"."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"probabilities must be an (n, classes) batch, got shape {arr.shape}")
    if not np.allclose(arr.sum(axis=1), 1.0, atol=1e-6):
        raise UsageError("probabilities must sum to 1")
    return arr[:, NORMAL_CLASS]
