"""Loss functions and training procedures.

Every procedure runs the same minibatch SGD loop, ``_fit``, and differs only
in its trainable and frozen parameters and in the objectives each step
records on the tape:

* ``train_base`` -- classifier cross-entropy.
* ``train_edge_kd`` -- edge training with a feature-imitation term: the
  adapter maps the edge tap into the cloud tap's space and a sigmoid BCE
  pulls the adapted map toward the KD targets, the sigmoid of the frozen
  cloud's feature map from :func:`kd_targets`. Edge layers up to the tap
  receive both gradients, later layers only the classifier gradient, and
  the adapter only the imitation gradient. With ``recall_boost`` the step
  weights three objectives: cross-entropy, positive-samples-only
  cross-entropy and the imitation loss.
* ``finetune_adapter`` -- tunes the adapter plus the cloud layers after the
  injection tap on the end-to-end adapted path, everything else frozen. It
  takes the adapter, KD targets, labels and edge tap feature from
  ``train_edge_kd``'s hand-off, never from the edge itself.

A step with one objective follows its gradient. A step with several follows
their minimum-norm simplex combination, so no step increases any of them to
first order; an objective absent from the batch (positive cross-entropy on
a batch without positive rows) is left out of that step. The trainable
parameters of a procedure live in one flat buffer, each ``Param.value`` a
reshaped slice of it from then on; every objective's backward writes its
gradient into one flat row of the same layout, so an update is one
in-place subtraction from that buffer.

Nets are cut at a tap only by ``ModelSpec.split`` and at an adapter's tap
only by ``AdapterSpec.split``, which refuses an adapter that does not fit
the net, and a gather by label refuses a label outside ``[0, num_classes)``,
all before any step.
Losses clamp probabilities to ``[1e-12, 1 - 1e-12]`` before taking logs.
A step whose loss is not finite, or a report whose pass is not, ends the
procedure with :class:`DivergenceError`. All procedures are deterministic
given their ``seed`` argument (the only randomness is minibatch shuffling).
``finetune_adapter`` verifies its freeze contract by hashing its frozen
parameters before and after; ``train_edge_kd`` sees the cloud only as a
read-only target array.

Each procedure reports once before training and once per epoch over the
whole training split. Reports reuse frozen-side features. Each returns its
row and its carry, which ``_fit`` drops before an epoch's first step and
returns at the end, so a stage hands the next an ordinary result built
from its last report's carry: the cloud's tap feature, whose
:func:`kd_targets` ``train_base`` given the adapter's cloud tap returns
(``harness.train_stages`` passes them to ``train_edge_kd``), and the edge
tap, adapted feature and KD loss that ``train_edge_kd``'s :class:`Handoff`
gives ``finetune_adapter``: its row 0 runs only the cloud tail, its later
reports the adapter and the cloud tail.
Every pass keeps its intermediates in the calling thread's workspace
(``nncore.workspace``): the intermediate layer outputs of every report and
the KD loss's temporaries land in the same buffers, ``train`` after
``train``, instead of fresh arrays. No result is a view of it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import nncore
from .models import (AdapterSpec, ModelSpec, NORMAL_CLASS, adapt, cloud_tail, infer,
                     infer_with_tap)
from .moo import solve_min_norm
from .nncore import (ConfigError, GradientTape, Node, Param, UsageError, as_tensor,
                     sigmoid, softmax)

LOG_EPS = 1e-12

TRAINING_LOG_COLUMNS = ["epoch", "ce", "kd", "positive_ce", "acc", "recall"]


class DivergenceError(RuntimeError):
    """A step's loss or a report's pass became non-finite; carries the stage
    name and epoch."""

    def __init__(self, stage: str, epoch: int) -> None:
        super().__init__(f"training stage {stage!r} diverged at epoch {epoch}: "
                         "a loss or a pass is not finite")
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
    """What fine-tuning takes from the edge-KD stage: the adapter, KD targets
    and labels that stage trained on, and its last report over the training
    split: the edge tap feature, the adapter's output on it (None without
    the imitation term, when that report runs no adapter) and its KD loss.
    The report's arrays are read-only."""

    adapter: AdapterSpec
    target: np.ndarray
    y: np.ndarray
    edge_feature: np.ndarray
    adapted: np.ndarray | None
    kd: float

    def __post_init__(self) -> None:
        for arr in (self.edge_feature, self.adapted):
            if arr is not None:
                arr.flags.writeable = False


@dataclass
class TrainResult:
    """Per-epoch reports (row 0 is the pre-training state; a multi-objective
    run's rows carry the epoch's mean simplex weights), ``train_edge_kd``'s
    hand-off and the KD targets of ``train_base`` given a tap."""

    history: list[LossReport]
    handoff: Handoff | None = field(default=None, repr=False, compare=False)
    target: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def final(self) -> LossReport:
        return self.history[-1]


# ---------------------------------------------------------------------------
# Losses (plain-array versions; used for reporting and as test oracles).

def _class_labels(labels, num_classes: int) -> np.ndarray:
    """``labels`` as class indices, refusing one outside ``[0, num_classes)``."""
    labels = np.asarray(labels, dtype=np.intp)
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        raise UsageError(f"label {labels[outside][0]} out of range for {num_classes} classes")
    return labels


def cross_entropy(probs, labels) -> float:
    """Mean negative log-probability of the true class over a batch."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise UsageError("cross_entropy needs a nonempty batch of probability rows")
    labels = _class_labels(labels, probs.shape[1])
    if labels.shape != (probs.shape[0],):
        raise UsageError("labels must align with probability rows")
    picked = np.clip(probs[np.arange(len(labels)), labels], LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.log(picked).mean())


def kd_loss(cloud_feature, adapted_feature) -> float:
    """Elementwise BCE between sigmoid-squashed cloud and adapted features.

    Target ``p = sigmoid(cloud)``, prediction ``q = sigmoid(adapted)``
    clamped away from {0, 1}; mean over elements.
    """
    return _kd_against(kd_targets(np.asarray(cloud_feature)), np.asarray(adapted_feature))


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
    labels = _class_labels(labels, logits.value.shape[1])
    rows = np.arange(logits.value.shape[0])
    probs = softmax(logits.value)
    picked = probs[rows, labels]
    inside = (picked >= LOG_EPS) & (picked <= 1.0 - LOG_EPS)
    clamped = np.clip(picked, LOG_EPS, 1.0 - LOG_EPS)

    def bw(g, accum):
        g_picked = float(g * -1.0) / clamped.size / clamped * inside
        # the softmax backward of a one-hot g: its row dot is the picked
        # term plus zeros, and a zero term is subtracted from 0.0, so a
        # saturated row's signed zeros come out as the dense form's
        dot = g_picked * picked + 0.0
        delta = probs * (0.0 - dot)[:, None]
        delta[rows, labels] = picked * (g_picked - dot)
        accum(logits, delta)

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
        g_term = float(g * -1.0) / q.size
        g_q = np.divide(miss_weight * g_term, r)
        np.negative(g_q, out=g_q)
        hit = np.divide(target * g_term, q)
        g_q += hit
        g_q = g_q * inside
        g_q *= s
        g_q *= np.subtract(1.0, s, out=hit)
        accum(adapted, g_q)

    terms = np.log(q)
    terms *= target
    terms += np.log(r) * miss_weight
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
    """Metrics of the edge-tap -> adapter -> cloud-tail path, from nets cut by
    ``adapter.split`` and run only up to their taps for the edge feature and
    the :func:`kd_targets`; a misfit adapter is refused before any pass."""
    edge_prefix, cloud_prefix = adapter.split(edge, "edge")[0], adapter.split(cloud, "cloud")[0]
    return _adaptive_report(cloud, adapter, nncore.forward(edge_prefix, X),
                            kd_targets(nncore.forward(cloud_prefix, X)),
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


def _flatten(params: list[Param]) -> np.ndarray:
    """One flat buffer of ``params``' values, in order; each ``Param.value``
    becomes a reshaped slice of it."""
    flat = np.concatenate([np.empty(0)] + [p.value.ravel() for p in params])
    start = 0
    for p in params:
        p.value = flat[start:start + p.value.size].reshape(p.value.shape)
        start += p.value.size
    return flat


def _fit(stage: str, n: int, config: TrainConfig, trainable: list[Param],
         objectives: Callable[[GradientTape, np.ndarray], list[Node | None]],
         report: Callable[[], tuple[LossReport, Any]], frozen: Sequence[Param] = (), *,
         seed: int) -> tuple[TrainResult, Any]:
    """The training loop of every procedure, over ``n`` rows shuffled by ``seed``.

    ``objectives(tape, idx)`` records one step's objectives for the rows
    ``idx`` on ``tape`` and returns them by slot, ``None`` for an objective
    absent from the batch. The trainable params' values become slices of
    one flat buffer, which is also the layout of each step's tape, and each
    objective's gradient is one row of a ``(slots, size)`` buffer,
    allocated once per call. One present objective: SGD on its gradient,
    scaled in place. More than one: SGD on the minimum-norm combination of
    their gradients, or no step when all of them are zero. ``report()``
    gives history row 0 and, after each epoch, a row carrying the mean by
    slot (0 for an absent one) of the epoch's minimum-norm weights, each
    next to its carry, what it hands on; ``_fit`` returns the result and the
    last carry. A non-finite loss, or a report whose pass is not finite,
    raises :class:`DivergenceError`. ``frozen`` must come out unchanged.
    """
    frozen_digest = nncore.params_digest(frozen) if frozen else None
    flat = _flatten(trainable)
    lr = config.learning_rate
    grads: np.ndarray | None = None
    tape = GradientTape(trainable)
    rng = np.random.default_rng(seed)

    def checked_report(epoch: int) -> tuple[LossReport, Any]:
        try:
            return report()
        except ArithmeticError:
            raise DivergenceError(stage, epoch) from None

    row, carry = checked_report(0)
    result = TrainResult([row])
    for epoch in range(1, config.epochs + 1):
        epoch_alphas: list[np.ndarray] = []
        carry = None  # stale after a step; held through the epoch, it would raise peak memory
        for idx in _batches(n, config.batch_size, rng):
            tape.clear()
            slots = objectives(tape, idx)
            present = [i for i, node in enumerate(slots) if node is not None]
            if not all(np.isfinite(slots[i].value) for i in present):
                raise DivergenceError(stage, epoch)
            if grads is None:
                grads = np.empty((len(slots), flat.size))
                rows = list(grads)
            if len(present) == 1:
                step = nncore.adjoints(tape, slots[present[0]], rows[0])
                step *= lr
            else:
                bundle = grads[:len(present)]
                for dest, slot in zip(rows, present):
                    nncore.adjoints(tape, slots[slot], dest)
                if not bundle.any():
                    continue
                alpha, combined = solve_min_norm(bundle)
                epoch_alphas.append(np.zeros(len(slots)))
                epoch_alphas[-1][present] = alpha
                step = lr * combined
            if lr:
                flat -= step
        row, carry = checked_report(epoch)
        row.alpha = tuple(np.mean(epoch_alphas, axis=0).tolist()) if epoch_alphas else None
        result.history.append(row)
    if frozen and nncore.params_digest(frozen) != frozen_digest:
        raise FrozenParamsError(f"frozen parameters mutated in stage {stage!r}")
    return result, carry


def kd_targets(feature: np.ndarray) -> np.ndarray:
    """KD target probabilities of the KD stages: the sigmoid of the cloud's
    feature after an adapter's cloud tap, which :func:`train_base` given
    that tap takes from its last report. The result is a fresh read-only
    array; the sigmoid's ``1 + e`` temporary goes into the workspace's
    layer slot 0, which ``feature`` must not share."""
    target = sigmoid(feature, work=nncore.workspace().array(0, feature.shape))
    target.flags.writeable = False
    return target


# ---------------------------------------------------------------------------
# Training procedures.

def train_base(model: ModelSpec, X, y, config: TrainConfig, *, seed: int,
               tap: int | None = None) -> TrainResult:
    """Minibatch SGD on cross-entropy; history row 0 is the initial state.

    With a ``tap`` (an adapter's cloud tap), each report runs the model as
    :func:`infer_with_tap`, whose split refuses a bad tap before any step,
    and carries the feature after layer ``tap``; the result's ``target`` is
    the :func:`kd_targets` of the last one's, from no extra pass.
    """
    X, y = _coerce_data(X, y)

    def objectives(tape, idx):
        logits = nncore.forward_on_tape(tape, model.layers, tape.input(X[idx]))
        return [ce_on_tape(tape, logits, y[idx])]

    def report():
        if tap is None:
            return evaluate_model(model, X, y), None
        probs, feature = infer_with_tap(model, X, tap)
        return _loss_report(probs, y), feature

    result, feature = _fit("base", len(X), config, model.params(), objectives, report, seed=seed)
    if tap is not None:
        result.target = kd_targets(feature)
    return result


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
    ``X``. The result's hand-off carries ``adapter``, ``target``, the labels
    and the last report's carry to :func:`finetune_adapter`. Each step
    follows ``ce + kd_weight * kd``; with ``kd_weight == 0`` the imitation
    branch is skipped entirely, so the edge update sequence matches
    ``train_base`` bit for bit. With ``recall_boost`` each step instead
    weights cross-entropy, positive-sample cross-entropy and the imitation
    loss by their minimum-norm point.
    """
    check_edge_objectives(kd_weight, recall_boost)
    prefix, tail = adapter.split(edge, "edge")
    X, y = _coerce_data(X, y)
    want = (len(X), adapter.projection.out_dim)
    if np.shape(target) != want:
        raise UsageError(f"target: shape {np.shape(target)} != (rows, adapter width) {want}")
    use_kd = kd_weight != 0.0

    def objectives(tape, idx):
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
        probs, edge_feat = infer_with_tap(edge, X, adapter.edge_tap)
        adapted = adapt(adapter, edge_feat) if use_kd else None
        kd = _kd_against(target, adapted) if use_kd else 0.0
        return _loss_report(probs, y, kd), (edge_feat, adapted, kd)

    result, last = _fit("kd-edge", len(X), config, edge.params() + adapter.params(),
                        objectives, report, seed=seed)
    result.handoff = Handoff(adapter, target, y, *last)
    return result


def finetune_adapter(edge_kd: TrainResult, cloud: ModelSpec, config: TrainConfig, *,
                     seed: int) -> TrainResult:
    """Tune the adapter and the cloud tail on the end-to-end adapted path.

    ``edge_kd`` is what :func:`train_edge_kd` returned. Its hand-off, taken
    off it, gives the adapter, KD targets, labels and edge tap feature that
    stage trained on, and row 0's adapted feature and KD term (computed
    here after ``kd_weight`` 0), dropped after that row. The cloud layers up
    to the tap are frozen; rows report adapted-path metrics.
    """
    handoff = edge_kd.handoff
    if handoff is None:
        raise UsageError("edge_kd: no hand-off; pass what train_edge_kd returned, once")
    adapter, target, y, feats = handoff.adapter, handoff.target, handoff.y, handoff.edge_feature
    prefix, tail = adapter.split(cloud, "cloud")
    pending = handoff if handoff.adapted is not None else None
    handoff = edge_kd.handoff = None

    def objectives(tape, idx):
        adapted = adapter_on_tape(tape, adapter, tape.input(feats[idx]))
        logits = nncore.forward_on_tape(tape, tail, adapted)
        return [ce_on_tape(tape, logits, y[idx])]

    def report():
        nonlocal pending
        if pending is None:
            return _adaptive_report(cloud, adapter, feats, target, y), None
        adapted, kd, pending = pending.adapted, pending.kd, None
        return _loss_report(cloud_tail(cloud, adapted, adapter.cloud_tap), y, kd), None

    return _fit("adapter-finetune", len(feats), config,
                adapter.params() + [p for layer in tail for p in layer.params()], objectives,
                report, frozen=[p for layer in prefix for p in layer.params()], seed=seed)[0]


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
