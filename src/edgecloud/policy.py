"""Confidence-threshold routing rules.

Every sample first runs through the edge model; its confidence (normal-class
probability by default) against the thresholds decides the route:

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
split and returns the confidence and each branch's prediction per row; each
branch is ``nncore.forward``, the one layer loop, on a slice of the edge,
adapter or cloud stack. :func:`route_codes` then maps any (variant, c1, c2)
to an array of route codes, indices into :data:`ROUTES`, with one
:func:`route_sample` call per row. :func:`route_costs` gives the elements
sent and cloud-side FLOPs one row pays on each route.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import nncore
from .models import (AdapterSpec, ModelSpec, NORMAL_CLASS_MODE, adapt,
                     check_adapter_binding, cloud_tail, confidence, infer,
                     infer_with_tap)
from .nncore import ConfigError, UsageError

INDEPENDENT = "independent"
ADAPTIVE = "adaptive"
DYNAMIC = "dynamic"
VARIANTS = (INDEPENDENT, ADAPTIVE, DYNAMIC)

ROUTE_EDGE = "edge-only"
ROUTE_ADAPTIVE = "adaptive"
ROUTE_CLOUD = "full-cloud"
# A route code is an index into ROUTES.
ROUTES = (ROUTE_EDGE, ROUTE_ADAPTIVE, ROUTE_CLOUD)
EDGE_CODE, ADAPTIVE_CODE, CLOUD_CODE = range(len(ROUTES))
_ROUTE_CODES = {route: code for code, route in enumerate(ROUTES)}


def decide(variant: str, conf: float, c1: float, c2: float = 0.0) -> str:
    """Pure threshold rule; the route depends on the input only through ``conf``."""
    if conf >= c1:
        return ROUTE_EDGE
    if variant == INDEPENDENT:
        return ROUTE_CLOUD
    if variant == ADAPTIVE:
        return ROUTE_ADAPTIVE
    return ROUTE_ADAPTIVE if conf >= c2 else ROUTE_CLOUD


def route_sample(variant: str, conf: float, c1: float, c2: float = 0.0) -> int:
    """Route code of one row: :func:`decide` as an index into :data:`ROUTES`."""
    return _ROUTE_CODES[decide(variant, conf, c1, c2)]


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
    """Per-row outcome of every branch over one split; no thresholds involved."""

    confidence: np.ndarray
    edge_pred: np.ndarray
    adaptive_pred: np.ndarray
    cloud_pred: np.ndarray


def route_dataset(edge: ModelSpec, cloud: ModelSpec, adapter: AdapterSpec, X,
                  confidence_mode: str = NORMAL_CLASS_MODE) -> RoutedDataset:
    """One pass of each branch over ``X``: the edge network with its tap, the
    adapted path (adapter + cloud tail) and the full cloud."""
    check_adapter_binding(edge, cloud, adapter)
    X = nncore.as_tensor(X)
    if X.ndim != 2:
        raise UsageError("route_dataset expects an (n, d) array")
    probs, feature = infer_with_tap(edge, X, adapter.edge_tap)
    adapted = cloud_tail(cloud, adapt(adapter, feature), adapter.cloud_tap)
    return RoutedDataset(confidence(probs, confidence_mode),
                         np.argmax(probs, axis=1), np.argmax(adapted, axis=1),
                         np.argmax(infer(cloud, X), axis=1))


def route_costs(edge: ModelSpec, cloud: ModelSpec,
                adapter: AdapterSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Elements transmitted and cloud-side FLOPs of one row, indexed by route code.

    The adapted offload sends the edge tap feature and runs the adapter plus
    the cloud layers after its tap; the full-cloud offload sends the raw
    input and runs the whole cloud model.
    """
    sent = (0, edge.tap_dim(adapter.edge_tap), cloud.in_dim)
    cloud_side = (0, adapter.total_flops() + nncore.flops(cloud.layers[adapter.cloud_tap + 1:]),
                  cloud.total_flops())
    return sent, cloud_side
