"""Loss functions and training procedures.

Every procedure runs the same minibatch SGD loop, ``_fit``, and differs only
in its trainable and frozen parameters and in the objectives each step
records on the tape:

* ``train_base`` -- classifier cross-entropy.
* ``train_edge_kd`` -- edge training with a feature-imitation term: the
  adapter maps the edge tap into the cloud tap's space and a sigmoid BCE
  pulls the adapted map toward the KD targets, the sigmoid of the frozen
  cloud's feature map from :func:`kd_targets`. Edge layers
  up to the tap receive both gradients, later layers only the classifier
  gradient, and the adapter only the imitation gradient. With
  ``recall_boost`` the step weights three objectives: cross-entropy,
  positive-samples-only cross-entropy and the imitation loss.
* ``finetune_adapter`` -- tunes the adapter plus the cloud layers after the
  injection tap on the end-to-end adapted path, everything else frozen. It
  starts from ``train_edge_kd``'s result, never from the edge itself.

A step with one objective follows its gradient. A step with several follows
their minimum-norm simplex combination, so no step increases any of them to
first order; an objective absent from the batch (positive cross-entropy on
a batch without positive rows) is left out of that step.

Losses clamp probabilities to ``[1e-12, 1 - 1e-12]`` before taking logs.
All procedures are deterministic given their ``seed`` argument (the only
randomness is minibatch shuffling). ``finetune_adapter`` verifies its freeze
contract by hashing its frozen parameters before and after; ``train_edge_kd``
sees the cloud only as a read-only target array.

Each procedure reports once before training and once per epoch over the
whole training split. Reports reuse frozen-side features: the KD target
probabilities come from the cloud layers up to the tap, once per ``train``
(``harness.train_stages`` calls :func:`kd_targets` after the cloud stage
and passes the read-only result to both KD stages); ``train_edge_kd`` runs
the edge once per report and hands its last report's edge tap, adapted
feature and KD loss to ``finetune_adapter`` (a :class:`Handoff`): its row 0
runs only the cloud tail, its later reports the adapter and the cloud
tail. Every pass keeps its intermediates in the calling thread's workspace
(``nncore.workspace``): the intermediate layer outputs of every report and
the KD loss's temporaries land in the same buffers, ``train`` after
``train``, instead of fresh arrays, and so do the KD targets, the one
result that is a view of the workspace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nncore
from .models import (AdapterSpec, ModelSpec, NORMAL_CLASS, adapt, check_adapter_tap,
                     cloud_tail, infer, infer_with_tap)
from .moo import solve_min_norm
from .nncore import (ConfigError, GradientTape, Node, Param, Scratch, UsageError,
                     as_tensor, sigmoid, softmax)

LOG_EPS = 1e-12

TRAINING_LOG_COLUMNS = ["epoch", "ce", "kd", "positive_ce", "acc", "recall"]


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the stage name and epoch."""

    def __init__(self, stage: str, epoch: int) -> None:
        super().__init__(f"training stage {stage!r} diverged at epoch {epoch}: loss is not finite")
        self.stage = stage
        self.epoch = epoch


class FrozenParamsError(RuntimeError):
    """A parameter set declared frozen was mutated (internal invariant)."""


@dataclass
class TrainConfig:
    """One training stage: ``epochs`` of SGD on ``batch_size``-row batches at ``learning_rate``."""

    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self) -> None:
        for name, low in (("epochs", 0), ("batch_size", 1), ("learning_rate", 0)):
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name}: must be >= {low}")
        if self.learning_rate == math.inf:
            raise ConfigError("learning_rate: must be finite")


@dataclass
class LossReport:
    ce_loss: float
    kd_loss: float
    positive_ce_loss: float
    accuracy: float
    recall: float
    alpha: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("ce_loss", "kd_loss", "positive_ce_loss", "accuracy", "recall"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"LossReport.{name} is not finite")
        if not 0.0 <= self.accuracy <= 1.0 or not 0.0 <= self.recall <= 1.0:
            raise UsageError("accuracy and recall must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Handoff:
    """The edge-KD stage's last report over the training split: the edge tap
    feature, the adapter's output on it (None without the imitation term,
    when that report runs no adapter) and its KD loss. Arrays are read-only."""

    adapter: AdapterSpec
    target: np.ndarray
    edge_feature: np.ndarray
    adapted: np.ndarray | None
    kd: float

    def __post_init__(self) -> None:
        for arr in (self.edge_feature, self.adapted):
            if arr is not None:
                arr.flags.writeable = False


@dataclass
class TrainResult:
    """Per-epoch reports (row 0 is the pre-training state), the per-step
    simplex weights of multi-objective runs, and ``train_edge_kd``'s hand-off."""

    history: list[LossReport]
    alpha_steps: list[tuple[float, ...]] = field(default_factory=list)
    skipped_steps: int = 0
    min_descent_inner: float = math.inf
    handoff: Handoff | None = field(default=None, repr=False, compare=False)

    @property
    def final(self) -> LossReport:
        return self.history[-1]


# ---------------------------------------------------------------------------
# Losses (plain-array versions; used for reporting and as test oracles).

def cross_entropy(probs, labels) -> float:
    """Mean negative log-probability of the true class over a batch."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise UsageError("cross_entropy needs a nonempty batch of probability rows")
    if labels.shape != (probs.shape[0],):
        raise UsageError("labels must align with probability rows")
    picked = np.clip(probs[np.arange(len(labels)), labels], LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.log(picked).mean())


def kd_loss(cloud_feature, adapted_feature) -> float:
    """Elementwise BCE between sigmoid-squashed cloud and adapted features.

    Target ``p = sigmoid(cloud)``, prediction ``q = sigmoid(adapted)``
    clamped away from {0, 1}; mean over elements.
    """
    return _kd_against(sigmoid(np.asarray(cloud_feature)), np.asarray(adapted_feature))


def _kd_against(target: np.ndarray, adapted: np.ndarray) -> float:
    """:func:`kd_loss` against given target probabilities ``p``; same
    operations in the same order. ``q``, its miss term and ``1 - p`` are
    temporaries in the workspace's layer slots, which must not hold
    ``target`` or ``adapted``."""
    if target.shape != adapted.shape:
        raise UsageError(f"feature shapes differ: {target.shape} vs {adapted.shape}")
    scratch = nncore.workspace()
    q = sigmoid(adapted, scratch.array(0, adapted.shape), scratch.array(1, adapted.shape))
    np.clip(q, LOG_EPS, 1.0 - LOG_EPS, out=q)
    miss = np.subtract(1.0, q, out=scratch.array(1, q.shape))
    np.log(miss, out=miss)
    miss *= np.subtract(1.0, target, out=scratch.array(2, q.shape))
    np.log(q, out=q)
    q *= target
    q += miss
    return float(-q.mean())


def positive_cross_entropy(probs, labels) -> float:
    """Cross-entropy restricted to rows whose label is not the normal class.

    Returns 0 when the batch has no positive rows (a defined result, not an
    error).
    """
    labels = np.asarray(labels, dtype=np.intp)
    mask = labels != NORMAL_CLASS
    if not mask.any():
        return 0.0
    probs = np.asarray(probs, dtype=np.float64)
    return cross_entropy(probs[mask], labels[mask])


def accuracy_rate(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    return float((preds == labels).mean())


def recall_rate(preds, labels) -> float:
    """Fraction of positive-labelled samples predicted as any positive class.

    Vacuously 1 when the batch has no positive samples.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    mask = labels != NORMAL_CLASS
    if not mask.any():
        return 1.0
    return float((preds[mask] != NORMAL_CLASS).mean())


# ---------------------------------------------------------------------------
# Taped loss builders (the differentiable route).

def ce_on_tape(tape: GradientTape, logits: Node, labels) -> Node:
    """Taped :func:`cross_entropy` of ``softmax(logits)``, one entry whose backward
    runs those of the negated mean, log, clamp, label gather and softmax."""
    labels = np.asarray(labels, dtype=np.intp)
    rows = np.arange(logits.value.shape[0])
    probs = softmax(logits.value)
    picked = probs[rows, labels]
    inside = (picked >= LOG_EPS) & (picked <= 1.0 - LOG_EPS)
    clamped = np.clip(picked, LOG_EPS, 1.0 - LOG_EPS)

    def bw(g, accum):
        g_picked = np.full(clamped.shape, float(g * -1.0) / clamped.size) / clamped * inside
        g_probs = np.zeros_like(probs)
        g_probs[rows, labels] = g_picked
        dot = np.sum(g_probs * probs, axis=-1, keepdims=True)
        accum(logits, probs * (g_probs - dot))

    return tape.record(np.asarray(np.log(clamped).mean()) * -1.0, bw)


def kd_on_tape(tape: GradientTape, adapted: Node, target) -> Node:
    """Taped :func:`kd_loss` against the cloud tap's sigmoid ``target``, one entry
    whose backward sums the miss, then the hit term's gradient into ``q``."""
    target = as_tensor(target)
    if target.shape != adapted.value.shape:
        raise UsageError(f"feature shapes differ: {target.shape} vs {adapted.value.shape}")
    miss_weight = 1.0 - target
    s = sigmoid(adapted.value)
    inside = (s >= LOG_EPS) & (s <= 1.0 - LOG_EPS)
    q = np.clip(s, LOG_EPS, 1.0 - LOG_EPS)
    r = 1.0 - q

    def bw(g, accum):
        g_terms = np.full(q.shape, float(g * -1.0) / q.size)
        g_q = -(g_terms * miss_weight / r) + g_terms * target / q
        accum(adapted, g_q * inside * s * (1.0 - s))

    terms = target * np.log(q) + miss_weight * np.log(r)
    return tape.record(np.asarray(terms.mean()) * -1.0, bw)


def positive_ce_on_tape(tape: GradientTape, logits: Node, labels) -> Node | None:
    """Taped cross-entropy over the positive rows; ``None`` when there are none."""
    labels = np.asarray(labels, dtype=np.intp)
    idx = np.flatnonzero(labels != NORMAL_CLASS)
    if idx.size == 0:
        return None
    subset = nncore.op_rows(tape, logits, idx)
    return ce_on_tape(tape, subset, labels[idx])


def adapter_on_tape(tape: GradientTape, adapter: AdapterSpec, feature: Node) -> Node:
    return nncore.forward_on_tape(tape, adapter.layers(), feature)


# ---------------------------------------------------------------------------
# Evaluation helpers.

def _loss_report(probs: np.ndarray, y: np.ndarray, kd: float = 0.0) -> LossReport:
    """Classifier metrics of class probabilities against ``y``."""
    preds = np.argmax(probs, axis=1)
    return LossReport(
        ce_loss=cross_entropy(probs, y),
        kd_loss=kd,
        positive_ce_loss=positive_cross_entropy(probs, y),
        accuracy=accuracy_rate(preds, y),
        recall=recall_rate(preds, y),
    )


def evaluate_model(model: ModelSpec, X, y) -> LossReport:
    """Classifier metrics of a model on a labelled set (kd reported as 0)."""
    return _loss_report(infer(model, X), np.asarray(y, dtype=np.intp))


def _adaptive_report(cloud: ModelSpec, adapter: AdapterSpec, edge_feat: np.ndarray,
                     target: np.ndarray, y: np.ndarray) -> LossReport:
    """Adapted-path metrics from a given edge tap feature and KD targets."""
    adapted = adapt(adapter, edge_feat)
    probs = cloud_tail(cloud, adapted, adapter.cloud_tap)
    return _loss_report(probs, y, _kd_against(target, adapted))


def evaluate_adaptive_path(edge: ModelSpec, cloud: ModelSpec, adapter: AdapterSpec,
                           X, y) -> LossReport:
    """Metrics of the edge-tap -> adapter -> cloud-tail path."""
    _, edge_feat = infer_with_tap(edge, X, adapter.edge_tap)
    _, cloud_feat = infer_with_tap(cloud, X, adapter.cloud_tap)
    return _adaptive_report(cloud, adapter, edge_feat, sigmoid(cloud_feat),
                            np.asarray(y, dtype=np.intp))


# ---------------------------------------------------------------------------
# Training internals.

def _coerce_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = as_tensor(X)
    y = np.asarray(y, dtype=np.intp)
    if X.ndim != 2 or X.shape[0] == 0:
        raise UsageError("training data must be a nonempty (n, d) array")
    if not np.all(np.isfinite(X)):
        raise UsageError("training data must be finite")
    if y.shape != (X.shape[0],):
        raise UsageError("labels must align with training rows")
    return X, y


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _sgd(params: list[Param], grads: dict[Param, np.ndarray], lr: float) -> None:
    if lr == 0.0:
        return
    for p in params:
        g = grads.get(p)
        if g is not None:
            p.value -= lr * g


def _epoch_alpha(steps: list[tuple[float, ...]]) -> tuple[float, ...] | None:
    if not steps:
        return None
    arr = np.asarray(steps, dtype=np.float64)
    return tuple(float(v) for v in arr.mean(axis=0))


def _fit(stage: str, n: int, config: TrainConfig, trainable: list[Param],
         objectives: Callable[[GradientTape, np.ndarray], list[Node | None]],
         report: Callable[[], LossReport], frozen: Sequence[Param] = (), *,
         seed: int) -> TrainResult:
    """The training loop of every procedure, over ``n`` rows shuffled by ``seed``.

    ``objectives(tape, idx)`` records one step's objectives for the rows
    ``idx`` on ``tape`` and returns them by slot, ``None`` for an objective
    absent from the batch. One present objective: SGD on its gradient. More
    than one: SGD on the minimum-norm combination of their gradients, whose
    weights are logged by slot in ``alpha_steps`` (0 for an absent slot).
    Those gradients go row by row into one flat buffer, a fixed slice per
    trainable param, allocated once per call. ``report()`` gives history
    row 0 and, after each epoch, a row carrying the epoch's mean weights.
    ``frozen`` must come out unchanged.
    """
    frozen_digest = nncore.params_digest(frozen) if frozen else None
    ends = np.cumsum([p.value.size for p in trainable])
    slices = [slice(end - p.value.size, end) for p, end in zip(trainable, ends)]
    flat: np.ndarray | None = None
    rng = np.random.default_rng(seed)
    result = TrainResult([report()])
    for epoch in range(1, config.epochs + 1):
        epoch_alphas: list[tuple[float, ...]] = []
        for idx in _batches(n, config.batch_size, rng):
            tape = GradientTape()
            slots = objectives(tape, idx)
            present = [i for i, node in enumerate(slots) if node is not None]
            if not all(np.isfinite(slots[i].value) for i in present):
                raise DivergenceError(stage, epoch)
            if len(present) == 1:
                grads = nncore.adjoints(tape, slots[present[0]])
            else:
                if flat is None:
                    flat = np.empty((len(slots), int(ends[-1])))
                bundle = flat[:len(present)]
                for dest, slot in zip(bundle, present):
                    obj_grads = nncore.adjoints(tape, slots[slot])
                    for p, sl in zip(trainable, slices):
                        g = obj_grads.get(p)
                        dest[sl] = 0.0 if g is None else g.ravel()
                if not bundle.any():
                    result.skipped_steps += 1
                    continue
                alpha, combined = solve_min_norm(bundle)
                result.min_descent_inner = min(result.min_descent_inner,
                                               float((bundle @ combined).min()))
                alpha_by_slot = [0.0] * len(slots)
                for slot, a in zip(present, alpha):
                    alpha_by_slot[slot] = float(a)
                epoch_alphas.append(tuple(alpha_by_slot))
                grads = {p: combined[sl].reshape(p.value.shape)
                         for p, sl in zip(trainable, slices)}
            _sgd(trainable, grads, config.learning_rate)
        result.alpha_steps.extend(epoch_alphas)
        row = report()
        row.alpha = _epoch_alpha(epoch_alphas)
        result.history.append(row)
    if frozen and nncore.params_digest(frozen) != frozen_digest:
        raise FrozenParamsError(f"frozen parameters mutated in stage {stage!r}")
    return result


def kd_targets(cloud: ModelSpec, tap: int, X) -> np.ndarray:
    """KD target probabilities of both KD stages: the sigmoid of the cloud's
    feature after layer ``tap`` (an adapter's cloud tap), from the cloud
    layers up to the tap only.

    The sigmoid goes into the workspace's :attr:`~nncore.Scratch.TARGET`
    buffer, with its ``1 + e`` temporary in layer slot 0; the result is a
    read-only view of that buffer, valid until the thread's next
    ``kd_targets``."""
    check_adapter_tap("cloud", cloud, tap)
    feature = nncore.forward(cloud.layers[:tap + 1], X)
    scratch = nncore.workspace()
    target = sigmoid(feature, scratch.array(Scratch.TARGET, feature.shape),
                     scratch.array(0, feature.shape))
    target.flags.writeable = False
    return target


def _check_target(target: np.ndarray, n: int, adapter: AdapterSpec) -> None:
    want = (n, adapter.projection.out_dim)
    if np.shape(target) != want:
        raise UsageError(f"target: shape {np.shape(target)} != (rows, adapter width) {want}")


# ---------------------------------------------------------------------------
# Training procedures.

def train_base(model: ModelSpec, X, y, config: TrainConfig, *, seed: int) -> TrainResult:
    """Minibatch SGD on cross-entropy; history row 0 is the initial state."""
    X, y = _coerce_data(X, y)

    def objectives(tape, idx):
        logits = nncore.forward_on_tape(tape, model.layers, tape.input(X[idx]))
        return [ce_on_tape(tape, logits, y[idx])]

    return _fit("base", len(X), config, model.params(), objectives,
                lambda: evaluate_model(model, X, y), seed=seed)


def check_edge_objectives(kd_weight: float, recall_boost: bool) -> None:
    """Reject a negative or infinite imitation weight, or a zero one with recall_boost."""
    if not kd_weight >= 0:
        raise ConfigError("kd_weight: must be >= 0")
    if kd_weight == math.inf:
        raise ConfigError("kd_weight: must be finite")
    if recall_boost and kd_weight == 0:
        raise ConfigError("kd_weight: must be > 0 when recall_boost is on")


def train_edge_kd(edge: ModelSpec, adapter: AdapterSpec, X, y, target: np.ndarray,
                  config: TrainConfig, *, seed: int, kd_weight: float = 1.0,
                  recall_boost: bool = False) -> TrainResult:
    """Edge training with the feature-imitation term.

    The cloud enters only through ``target``, its :func:`kd_targets` on
    ``X``. Each step follows ``ce + kd_weight * kd``; with
    ``kd_weight == 0`` the imitation branch is skipped entirely, so the edge
    update sequence matches ``train_base`` bit for bit. With
    ``recall_boost`` each step instead weights cross-entropy,
    positive-sample cross-entropy and the imitation loss by their
    minimum-norm point.
    """
    check_edge_objectives(kd_weight, recall_boost)
    check_adapter_tap("edge", edge, adapter.edge_tap)
    X, y = _coerce_data(X, y)
    _check_target(target, len(X), adapter)
    use_kd = kd_weight != 0.0
    prefix, tail = edge.layers[:adapter.edge_tap + 1], edge.layers[adapter.edge_tap + 1:]

    handoff = None

    def objectives(tape, idx):
        # this step makes the last report's hand-off stale; holding it
        # through training would raise the peak resident memory
        nonlocal handoff
        handoff = None
        tap_node = nncore.forward_on_tape(tape, prefix, tape.input(X[idx]))
        h = nncore.forward_on_tape(tape, tail, tap_node)
        ce = ce_on_tape(tape, h, y[idx])
        if not use_kd:
            return [ce]
        kd = kd_on_tape(tape, adapter_on_tape(tape, adapter, tap_node), target[idx])
        if not recall_boost:
            return [nncore.op_add(tape, ce, nncore.op_scale(tape, kd, kd_weight))]
        return [ce, positive_ce_on_tape(tape, h, y[idx]), kd]

    def report():
        # one edge pass gives both the probabilities and the tap
        nonlocal handoff
        probs, edge_feat = infer_with_tap(edge, X, adapter.edge_tap)
        adapted = adapt(adapter, edge_feat) if use_kd else None
        kd = _kd_against(target, adapted) if use_kd else 0.0
        handoff = Handoff(adapter, target, edge_feat, adapted, kd)
        return _loss_report(probs, y, kd)

    result = _fit("kd-edge", len(X), config, edge.params() + adapter.params(),
                  objectives, report, seed=seed)
    result.handoff = handoff
    return result


def finetune_adapter(edge_kd: TrainResult, cloud: ModelSpec, adapter: AdapterSpec,
                     y, target: np.ndarray, config: TrainConfig, *,
                     seed: int) -> TrainResult:
    """Tune the adapter and the cloud tail on the end-to-end adapted path.

    ``edge_kd`` is what :func:`train_edge_kd` returned for ``adapter`` and
    ``target`` on the rows ``y`` labels. Its hand-off, taken off it and
    dropped after history row 0, gives the edge tap feature and row 0's
    adapted feature and KD term (computed here after ``kd_weight`` 0). The
    cloud layers up to the tap are frozen; rows report adapted-path metrics.
    """
    check_adapter_tap("cloud", cloud, adapter.cloud_tap)
    handoff = edge_kd.handoff
    if handoff is None:
        raise UsageError("edge_kd: no hand-off; pass what train_edge_kd returned, once")
    feats, y = _coerce_data(handoff.edge_feature, y)
    _check_target(target, len(feats), adapter)
    if handoff.adapter is not adapter or handoff.target is not target:
        raise UsageError("edge_kd: its hand-off was computed for another adapter or target")
    pending = handoff if handoff.adapted is not None else None
    handoff = edge_kd.handoff = None
    n = adapter.cloud_tap
    prefix, tail = cloud.layers[:n + 1], cloud.layers[n + 1:]

    def objectives(tape, idx):
        adapted = adapter_on_tape(tape, adapter, tape.input(feats[idx]))
        logits = nncore.forward_on_tape(tape, tail, adapted)
        return [ce_on_tape(tape, logits, y[idx])]

    def report():
        nonlocal pending
        if pending is None:
            return _adaptive_report(cloud, adapter, feats, target, y)
        adapted, kd, pending = pending.adapted, pending.kd, None
        return _loss_report(cloud_tail(cloud, adapted, n), y, kd)

    return _fit("adapter-finetune", len(feats), config,
                adapter.params() + [p for layer in tail for p in layer.params()], objectives,
                report, frozen=[p for layer in prefix for p in layer.params()], seed=seed)


# ---------------------------------------------------------------------------
# Training-log export: one CSV row per epoch.

def write_training_log(path, result: TrainResult) -> None:
    has_alpha = any(rep.alpha is not None for rep in result.history)
    arity = max((len(rep.alpha) for rep in result.history if rep.alpha), default=0)
    columns = TRAINING_LOG_COLUMNS + [f"alpha_{i + 1}" for i in range(arity)] if has_alpha \
        else TRAINING_LOG_COLUMNS
    with nncore.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for epoch, rep in enumerate(result.history):
            row = [str(epoch), repr(rep.ce_loss), repr(rep.kd_loss),
                   repr(rep.positive_ce_loss), repr(rep.accuracy), repr(rep.recall)]
            if has_alpha:
                alpha = rep.alpha or ()
                row += [repr(float(a)) for a in alpha] + [""] * (arity - len(alpha))
            writer.writerow(row)
