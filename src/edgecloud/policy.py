"""Confidence-threshold routing rules.

Every sample first runs through the edge model; its confidence, the
normal-class probability (``models.confidence``), against the thresholds
decides the route:

* independent: keep on edge when ``conf >= c1``, otherwise send the raw
  input through the full cloud model.
* adaptive: keep on edge when ``conf >= c1``, otherwise transmit the edge
  tap feature, adapt it, and finish with the cloud layers after the
  injection tap.
* dynamic: three-way rule -- edge when ``conf >= c1``, adapted offload when
  ``c2 <= conf < c1``, full cloud on the raw input when ``conf < c2``.

Boundary semantics follow the inequalities as written: ties at ``c1`` stay
on edge, ties at ``c2`` go adaptive.

The route depends on the input only through the confidence, so routing is
split in two. :func:`route_dataset` runs every branch once over a whole
split and returns the edge's class probabilities and each route's
prediction per row; each branch is ``nncore.forward``, the one layer loop,
on the adapter, the cloud or a side of a net's ``AdapterSpec.split``
(which refuses a misfit adapter). ``models.confidence`` of those
probabilities is one array per split; :func:`route_codes` maps it, for any
(variant, c1, c2), to route codes, indices into :data:`ROUTES`, one
:func:`route_sample` call per row. :func:`route_costs` gives the elements
sent and cloud-side FLOPs one row pays on each route, from the same splits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import nncore
from .models import AdapterSpec, ModelSpec, adapt, cloud_tail, infer, infer_with_tap
from .nncore import ConfigError, UsageError

INDEPENDENT = "independent"
ADAPTIVE = "adaptive"
DYNAMIC = "dynamic"
VARIANTS = (INDEPENDENT, ADAPTIVE, DYNAMIC)

# A route code is an index into ROUTES.
ROUTES = ("edge-only", "adaptive", "full-cloud")
EDGE_CODE, ADAPTIVE_CODE, CLOUD_CODE = range(len(ROUTES))


def route_sample(variant: str, conf: float, c1: float, c2: float = 0.0) -> int:
    """Pure threshold rule: the route code of one row, which depends on the
    input only through ``conf``."""
    if conf >= c1:
        return EDGE_CODE
    if variant == INDEPENDENT:
        return CLOUD_CODE
    if variant == ADAPTIVE:
        return ADAPTIVE_CODE
    return ADAPTIVE_CODE if conf >= c2 else CLOUD_CODE


def check_thresholds(variant: str, c1: float, c2: float = 0.0) -> None:
    """Reject an unknown variant, ``c1`` outside [0, 1] and, for the dynamic
    rule, ``c2`` outside [0, c1]."""
    if variant not in VARIANTS:
        raise ConfigError(f"variant: unknown variant {variant!r}, expected one of "
                          f"{', '.join(VARIANTS)}")
    if not 0.0 <= c1 <= 1.0:
        raise ConfigError("c1: must lie in [0, 1]")
    if variant == DYNAMIC and not 0.0 <= c2 <= c1:
        raise ConfigError("c2: must lie in [0, c1]")


def route_codes(variant: str, conf, c1: float, c2: float = 0.0) -> np.ndarray:
    """:func:`route_sample` over an array of confidences, one call per row,
    after :func:`check_thresholds`."""
    check_thresholds(variant, c1, c2)
    conf = np.asarray(conf, dtype=np.float64)
    codes = [route_sample(variant, c, c1, c2) for c in conf.ravel().tolist()]
    return np.array(codes, dtype=np.intp).reshape(conf.shape)


class RoutedDataset(NamedTuple):
    """Per-row outcome of every branch over one split; no thresholds involved.

    ``edge_probs`` holds the edge's class probabilities, which the
    confidence reads, and ``preds[code]`` the predictions of route
    ``code``, shape ``(len(ROUTES), n)``.
    """

    edge_probs: np.ndarray
    preds: np.ndarray


def route_dataset(edge: ModelSpec, cloud: ModelSpec, adapter: AdapterSpec, X) -> RoutedDataset:
    """One pass of each branch over ``X``: the edge network with its tap, the
    adapted path (adapter + cloud tail) and the full cloud; ``adapter.split`` fits both first."""
    X = nncore.as_tensor(X)
    if X.ndim != 2:
        raise UsageError("route_dataset expects an (n, d) array")
    adapter.split(edge, "edge"), adapter.split(cloud, "cloud")
    probs, feature = infer_with_tap(edge, X, adapter.edge_tap)
    adapted = cloud_tail(cloud, adapt(adapter, feature), adapter.cloud_tap)
    # Stacked in route-code order: edge, adaptive, cloud.
    return RoutedDataset(probs, np.argmax(np.stack([probs, adapted, infer(cloud, X)]), axis=2))


def route_costs(edge: ModelSpec, cloud: ModelSpec,
                adapter: AdapterSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Elements transmitted and cloud-side FLOPs of one row, indexed by route code.

    The adapted offload sends the edge tap feature and runs the adapter plus
    the cloud layers after its tap; the full-cloud offload sends the raw
    input and runs the whole cloud model.
    """
    sent = (0, adapter.split(edge, "edge")[0][-1].out_dim, cloud.in_dim)
    tail = adapter.split(cloud, "cloud")[1]
    cloud_side = (0, adapter.total_flops() + nncore.flops(tail), cloud.total_flops())
    return sent, cloud_side
