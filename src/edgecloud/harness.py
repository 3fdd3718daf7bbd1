"""Synthetic data generation and end-to-end experiment execution.

The synthetic task mirrors the intended deployment: the normal class
``models.NORMAL_CLASS`` (nothing of interest) drawn from a wide
multi-cluster blob around the origin, plus well-separated positive classes
on orthogonal directions; ``difficulty`` widens every cluster and so
controls their overlap. A plan bundles dataset, net, adapter,
training-stage and policy configs under a single master seed, from which
every stage seed is derived, so a whole experiment is reproducible byte for
byte; its dataclasses are the plan file's schema.

Pipeline order: train the cloud model, train the edge with the plan's
``kd_weight`` on the feature-imitation term (with ``recall_boost``, the
three-objective recall bundle instead), then fine-tune the adapter plus the
cloud tail. A list of policies is scored on the held-out split as one
report per system after the edge and cloud anchors: the plan's policies for
``evaluate_policies``, and for ``sweep_dynamic`` the dynamic policies its
``c2`` sweep spans. Each command routes the split once, and every policy
thresholds its own confidence mode's confidence from that pass. Writing
the reports is left to the caller.
"""

import dataclasses
import functools
import json
import typing
from dataclasses import MISSING, dataclass, field

import numpy as np

from . import metrics, models, nncore, policy as policy_mod, train as train_mod
from .metrics import CostReport
from .models import AdapterSpec, ModelSpec
from .nncore import ConfigError
from .policy import CLOUD_CODE, DYNAMIC, EDGE_CODE, ROUTES, route_codes, route_dataset
from .train import TrainConfig, TrainResult

NORMAL_SUBCLUSTERS = 3
POSITIVE_RADIUS = 2.0
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class Dataset:
    """Labelled synthetic samples with a fixed stratified train/val split,
    built in process from a plan by :func:`build_dataset` and never written
    to a file.

    A dataset is read-only: its fields cannot be reassigned, and
    :func:`gen_dataset` marks every array it holds read-only, so the one
    that :func:`build_dataset` shares between commands cannot be changed
    by any of them. The split properties return fresh, writable gathers.

    ``centers`` holds the generating mixture components per class (the
    normal class has several), and ``sigma_normal``/``sigma_positive`` their
    isotropic scales; together they define the closed-form per-component
    maximum-likelihood classifier used as a separability oracle in tests.
    """

    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    centers: tuple[np.ndarray, ...]
    sigma_normal: float = 1.0
    sigma_positive: float = 1.0

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def train_X(self) -> np.ndarray:
        return self.X[self.train_idx]

    @property
    def train_y(self) -> np.ndarray:
        return self.y[self.train_idx]

    @property
    def val_X(self) -> np.ndarray:
        return self.X[self.val_idx]

    @property
    def val_y(self) -> np.ndarray:
        return self.y[self.val_idx]


@dataclass
class DataConfig:
    """``n`` samples of ``num_classes`` classes in ``dim`` dimensions, a
    ``normal_fraction`` of them normal; ``difficulty`` sets the overlap."""

    num_classes: int
    dim: int
    n: int
    normal_fraction: float
    difficulty: float

    def __post_init__(self) -> None:
        rules = (("num_classes", self.num_classes >= 2, "must be >= 2"),
                 ("dim", self.dim >= 1, "must be >= 1"),
                 ("n", self.n >= self.num_classes, "must be >= num_classes"),
                 ("normal_fraction", 0.0 <= self.normal_fraction <= 1.0, "must lie in [0, 1]"),
                 ("difficulty", 0.0 <= self.difficulty <= 1.0, "must lie in [0, 1]"))
        for key, holds, rule in rules:
            if not holds:
                raise ConfigError(f"{key}: {rule}")
        train_counts = self.class_sizes()[1]
        if not any(train_counts):
            raise ConfigError("n: must leave a training sample after the 80/20 split")
        if not any(train_counts[1:]):
            raise ConfigError("normal_fraction: must leave a positive training sample")

    def class_sizes(self) -> tuple[list[int], list[int]]:
        """Samples per class, normal class first, and how many of each the
        stratified 80/20 cut puts in the training split."""
        n_normal = int(round(self.n * self.normal_fraction))
        base, extra = divmod(self.n - n_normal, self.num_classes - 1)
        counts = [n_normal] + [base + (c < extra) for c in range(self.num_classes - 1)]
        return counts, [int(k * TRAIN_FRACTION) for k in counts]


def gen_dataset(data: DataConfig, seed: int) -> Dataset:
    """Gaussian-mixture classification set with a designated normal class.

    Class 0 is the normal class: a wide set of ``NORMAL_SUBCLUSTERS``
    sub-clusters near the origin holding ``round(n * normal_fraction)``
    samples. The remaining classes sit on orthogonalized directions at
    radius ``POSITIVE_RADIUS``. ``difficulty`` in [0, 1] scales every
    cluster's spread; at 0 the classes are essentially separable. Every
    call draws anew, and every array of the result is read-only.
    """
    num_classes, dim, n = data.num_classes, data.dim, data.n
    rng = np.random.default_rng(seed)
    n_positive_classes = num_classes - 1

    raw = rng.standard_normal((dim, n_positive_classes))
    if dim >= n_positive_classes:
        q, _ = np.linalg.qr(raw)
        directions = q.T
    else:
        directions = (raw / np.linalg.norm(raw, axis=0, keepdims=True)).T
    positive_centers = POSITIVE_RADIUS * directions

    sub_dirs = rng.standard_normal((NORMAL_SUBCLUSTERS, dim))
    sub_dirs /= np.linalg.norm(sub_dirs, axis=1, keepdims=True)
    sub_radii = rng.uniform(0.3, 1.0, NORMAL_SUBCLUSTERS)
    normal_centers = sub_dirs * sub_radii[:, None]

    sigma_pos = 0.25 + 1.1 * data.difficulty
    sigma_norm = 2.0 * sigma_pos

    counts, train_counts = data.class_sizes()
    n_normal = counts[0]

    blocks, labels = [], []
    assign = rng.integers(0, NORMAL_SUBCLUSTERS, n_normal)
    blocks.append(normal_centers[assign] + sigma_norm * rng.standard_normal((n_normal, dim)))
    labels.append(np.full(n_normal, models.NORMAL_CLASS, dtype=np.intp))
    for c in range(n_positive_classes):
        k = counts[c + 1]
        blocks.append(positive_centers[c] + sigma_pos * rng.standard_normal((k, dim)))
        labels.append(np.full(k, c + 1, dtype=np.intp))

    X = np.concatenate(blocks)
    y = np.concatenate(labels)
    perm = rng.permutation(n)
    X, y = nncore.as_tensor(X[perm]), y[perm]

    train_parts, val_parts = [], []
    for c in range(num_classes):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        train_parts.append(idx[:train_counts[c]])
        val_parts.append(idx[train_counts[c]:])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))

    centers = (normal_centers, *(positive_centers[c:c + 1] for c in range(n_positive_classes)))
    for arr in (X, y, train_idx, val_idx, *centers):
        arr.flags.writeable = False
    return Dataset(X, y, train_idx, val_idx, centers, sigma_norm, sigma_pos)


# ---------------------------------------------------------------------------
# Experiment plan. A dataclass field is a plan-file key (``metadata["key"]``
# renames it), required exactly when the field has no default.

# The training stages, in pipeline order.
_STAGES = ("cloud", "edge_kd", "finetune")


@dataclass
class NetConfig:
    """Widths of a net's relu hidden layers; a linear head follows them."""

    hidden: list[int]

    def __post_init__(self) -> None:
        for i, width in enumerate(self.hidden):
            if width < 1:
                raise ConfigError(f"hidden[{i}]: must be >= 1")


@dataclass
class AdapterConfig:
    """Projection plus ``blocks`` residual blocks from edge layer ``edge_tap``
    into cloud layer ``cloud_tap``: the plan's only split point."""

    edge_tap: int
    cloud_tap: int
    blocks: int

    def __post_init__(self) -> None:
        if self.blocks < 0:
            raise ConfigError("blocks: must be >= 0")


@dataclass
class PolicyConfig:
    variant: str
    c1: float
    c2: float = 0.0
    confidence_mode: str = models.NORMAL_CLASS_MODE

    def __post_init__(self) -> None:
        policy_mod.check_thresholds(self.variant, self.c1, self.c2)
        if self.variant != DYNAMIC and self.c2 != 0.0:
            raise ConfigError("c2: only a dynamic policy reads c2")
        if self.confidence_mode not in models.CONFIDENCE_MODES:
            raise ConfigError(f"confidence_mode: unknown mode {self.confidence_mode!r}, "
                              f"expected one of {models.CONFIDENCE_MODES}")

    @property
    def label(self) -> str:
        """The policy's report label, unique within a plan."""
        return f"dynamic(c2={self.c2:g})" if self.variant == DYNAMIC else self.variant


@functools.lru_cache(maxsize=128)
def _net_flops(dim: int, hidden: tuple[int, ...], num_classes: int) -> int:
    """Forward FLOPs per sample of the plan net of these widths, counted on
    a zero-weight model; cached, as every plan load asks again."""
    return models.feedforward("net", dim, hidden, num_classes).total_flops()


@dataclass
class ExperimentPlan:
    master_seed: int
    data: DataConfig = field(metadata={"key": "dataset"})
    edge: NetConfig
    cloud: NetConfig
    adapter: AdapterConfig
    stages: dict[str, TrainConfig]
    recall_boost: bool = False
    kd_weight: float = 1.0
    policies: list[PolicyConfig] = field(default_factory=list)
    c2_grid: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        """The rules across sections; each section checks its own fields."""
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be >= 0")
        for name, net, tap in (("edge", self.edge, self.adapter.edge_tap),
                               ("cloud", self.cloud, self.adapter.cloud_tap)):
            if not 0 <= tap <= len(net.hidden):  # a hidden layer or the head
                raise ConfigError(f"adapter.{name}_tap: must lie in [0, {len(net.hidden)}]")
        d = self.data
        flops_edge, flops_cloud = (_net_flops(d.dim, tuple(net.hidden), d.num_classes)
                                   for net in (self.edge, self.cloud))
        try:
            metrics.check_flops(flops_edge, flops_cloud)
        except ConfigError as exc:
            raise ConfigError(f"edge: {exc}, got {flops_edge} >= {flops_cloud} "
                              "per sample") from None
        for name in dict.fromkeys([*self.stages, *_STAGES]):
            if name not in _STAGES:
                raise ConfigError(f"stages.{name}: unknown stage, expected one of "
                                  f"{', '.join(_STAGES)}")
            if name not in self.stages:
                raise ConfigError(f"stages.{name}: missing stage config")
        train_mod.check_edge_objectives(self.kd_weight, self.recall_boost)
        if self.recall_boost and not self.data.class_sizes()[1][models.NORMAL_CLASS]:
            raise ConfigError("recall_boost: needs a normal row in the training split")
        labels = [p.label for p in self.policies]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigError(f"policies[{i}]: duplicate label {label!r}")
        swept: dict[str, float] = {}  # c2 values that ``:g`` prints alike
        for pc in self.sweep_policies():
            if pc.label in swept:
                c2 = pc.c2 if pc.c2 in self.c2_grid else swept[pc.label]
                raise ConfigError(f"c2_grid[{self.c2_grid.index(c2)}]: "
                                  f"duplicate label {pc.label!r}")
            swept[pc.label] = pc.c2

    def sweep_policies(self) -> list[PolicyConfig]:
        """The c2 sweep: dynamic policies over ``{0, *c2_grid, c1}`` ascending,
        with the first policy's ``c1`` and mode, or 0.8 and normal-class. A
        ``c2_grid`` entry outside [0, c1] is refused."""
        first = self.policies[0] if self.policies else PolicyConfig(DYNAMIC, c1=0.8)
        if any(not 0.0 <= c2 <= first.c1 for c2 in self.c2_grid):
            raise ConfigError(f"c2_grid: entries must lie in [0, c1] = [0, {first.c1:g}]")
        return [PolicyConfig(DYNAMIC, first.c1, c2, first.confidence_mode)
                for c2 in sorted({0.0, *self.c2_grid, first.c1})]


def default_plan(master_seed: int = 0) -> ExperimentPlan:
    """The standard desk-scale plan used by the acceptance suite."""
    return ExperimentPlan(
        master_seed=master_seed,
        data=DataConfig(num_classes=7, dim=16, n=10_000, normal_fraction=0.4, difficulty=0.6),
        edge=NetConfig(hidden=[8]),
        cloud=NetConfig(hidden=[64, 64, 64, 64]),
        adapter=AdapterConfig(edge_tap=0, cloud_tap=2, blocks=2),
        stages={
            "cloud": TrainConfig(epochs=30, batch_size=64, learning_rate=0.08),
            "edge_kd": TrainConfig(epochs=30, batch_size=64, learning_rate=0.08),
            "finetune": TrainConfig(epochs=12, batch_size=64, learning_rate=0.04),
        },
        kd_weight=0.5,
        policies=[
            PolicyConfig("independent", c1=0.8),
            PolicyConfig("adaptive", c1=0.8),
            PolicyConfig("dynamic", c1=0.8, c2=0.3),
        ],
        c2_grid=[0.2, 0.25, 0.3, 0.35, 0.4, 0.45],
    )


def _key(f: dataclasses.Field) -> str:
    """The plan file's key for a field."""
    return f.metadata.get("key", f.name)


@functools.cache
def _schema(kind) -> tuple[dict[str, dataclasses.Field], dict[str, typing.Any]]:
    """A plan dataclass's fields by plan-file key and its resolved field types,
    worked out once per class; ``train.py`` defers its annotations."""
    return {_key(f): f for f in dataclasses.fields(kind)}, typing.get_type_hints(kind)


# The types a JSON value is read as directly.
_JSON_TYPES = (bool, int, float, str, list, dict)


def _from_json(kind, value, where: str):
    """``value`` read as ``kind``: a plan dataclass, ``list[T]``, ``dict[str, T]``
    or a scalar type. An int is accepted as a float, a bool only as a bool;
    ``where`` is the value's path in the file, which every error names: a
    dataclass's own refusal of its fields is prefixed with its path."""
    if kind in _JSON_TYPES:
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise ConfigError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
        return value
    if dataclasses.is_dataclass(kind):
        value = _from_json(dict, value, where)
        fields, types = _schema(kind)
        for key in value:
            if key not in fields:
                raise ConfigError(f"{where}.{key}: unknown field")
        for key, f in fields.items():
            if key not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}.{key}: missing")
        kwargs = {f.name: _from_json(types[f.name], value[key], f"{where}.{key}")
                  for key, f in fields.items() if key in value}
        try:
            return kind(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{where}.{exc}") from None
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        return [_from_json(args[0], v, f"{where}[{i}]")
                for i, v in enumerate(_from_json(list, value, where))]
    if origin is dict:
        return {k: _from_json(args[1], v, f"{where}.{k}")
                for k, v in _from_json(dict, value, where).items()}
    raise TypeError(f"{where}: no plan file reader for {kind!r}")


def plan_from_dict(cfg: dict) -> ExperimentPlan:
    return _from_json(ExperimentPlan, cfg, "plan")


def plan_to_dict(plan: ExperimentPlan) -> dict:
    cfg = dataclasses.asdict(plan)
    return {_key(f): cfg[f.name] for f in dataclasses.fields(plan)}


def load_plan(path, seed_override: int | None = None) -> ExperimentPlan:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    plan = plan_from_dict(cfg)
    if seed_override is not None:
        plan = dataclasses.replace(plan, master_seed=seed_override)
    return plan


def save_plan(path, plan: ExperimentPlan) -> None:
    with nncore.atomic_open(path) as fh:
        json.dump(plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Seeded construction and the training pipeline.

_SEED_NAMES = ("dataset", "edge_init", "cloud_init", "adapter_init",
               "cloud_train", "edge_train", "finetune")


@functools.lru_cache(maxsize=128, typed=True)
def _spawned_seeds(master_seed: int) -> tuple[int, ...]:
    children = np.random.SeedSequence(master_seed).spawn(len(_SEED_NAMES))
    return tuple(int(c.generate_state(1, dtype=np.uint64)[0]) for c in children)


def derive_seeds(master_seed: int) -> dict[str, int]:
    """Stable per-component seeds spawned from the master seed. The spawn is
    cached for the last 128 master seeds; every call returns a fresh dict."""
    return dict(zip(_SEED_NAMES, _spawned_seeds(master_seed)))


@functools.lru_cache(maxsize=4, typed=True)
def _cached_dataset(seed: int, *data_values) -> Dataset:
    return gen_dataset(DataConfig(*data_values), seed)


def build_dataset(plan: ExperimentPlan) -> Dataset:
    """The plan's dataset: :func:`gen_dataset` on the plan's ``data`` and its
    derived dataset seed. The last 4 datasets are cached by the values of
    ``data``'s fields and the seed, never by the plan object, whose ``data``
    may be changed in place; every caller that gives the same values shares
    one read-only :class:`Dataset`, so copy an array before writing to it."""
    d = plan.data
    return _cached_dataset(derive_seeds(plan.master_seed)["dataset"],
                           *(getattr(d, f.name) for f in dataclasses.fields(d)))


def _models(plan: ExperimentPlan, rngs) -> tuple[ModelSpec, ModelSpec, AdapterSpec]:
    """The plan's edge, cloud and adapter, each drawn from its generator in
    ``rngs`` (edge, cloud, adapter), or all zeros where it is ``None``."""
    d, a = plan.data, plan.adapter
    edge_rng, cloud_rng, adapter_rng = rngs
    edge = models.feedforward("edge", d.dim, plan.edge.hidden, d.num_classes, edge_rng)
    cloud = models.feedforward("cloud", d.dim, plan.cloud.hidden, d.num_classes, cloud_rng)
    adapter = models.make_adapter("adapter", a.edge_tap, a.cloud_tap, edge.tap_dim(a.edge_tap),
                                  cloud.tap_dim(a.cloud_tap), a.blocks, adapter_rng)
    return edge, cloud, adapter


def build_models(plan: ExperimentPlan) -> tuple[ModelSpec, ModelSpec, AdapterSpec]:
    """Edge, cloud and the adapter that splits them, from the plan's seeds."""
    seeds = derive_seeds(plan.master_seed)
    return _models(plan, [np.random.default_rng(seeds[f"{name}_init"])
                          for name in ("edge", "cloud", "adapter")])


def blank_models(plan: ExperimentPlan) -> tuple[ModelSpec, ModelSpec, AdapterSpec]:
    """The models of :func:`build_models` with zero parameters and no seeded
    draw: the shapes a checkpoint is restored into."""
    return _models(plan, (None, None, None))


def train_stages(plan: ExperimentPlan, ds: Dataset, edge: ModelSpec,
                 cloud: ModelSpec, adapter: AdapterSpec) -> dict[str, TrainResult]:
    """Cloud base training, edge training with feature imitation, adapter
    plus cloud-tail fine-tuning; all seeds derived from the master seed.
    The trained cloud's KD targets are computed once, for both KD stages;
    fine-tuning starts from the edge-KD stage's hand-off, its last report's
    edge tap, adapted feature and KD term. Every pass keeps its
    intermediates in the calling thread's workspace (``nncore.workspace``),
    and the KD targets are a read-only view of it, dropped before this
    returns."""
    seeds = derive_seeds(plan.master_seed)
    stages, X, y = plan.stages, ds.train_X, ds.train_y
    results = {"cloud": train_mod.train_base(cloud, X, y, stages["cloud"],
                                             seed=seeds["cloud_train"])}
    target = train_mod.kd_targets(cloud, adapter.cloud_tap, X)
    results["edge_kd"] = train_mod.train_edge_kd(edge, adapter, X, y, target, stages["edge_kd"],
                                                 seed=seeds["edge_train"], kd_weight=plan.kd_weight,
                                                 recall_boost=plan.recall_boost)
    results["finetune"] = train_mod.finetune_adapter(results["edge_kd"], cloud, adapter, y, target,
                                                     stages["finetune"], seed=seeds["finetune"])
    return results


@dataclass
class TrainedSystem:
    """A trained edge/cloud/adapter triple bound to its dataset and plan."""

    plan: ExperimentPlan
    dataset: Dataset
    edge: ModelSpec
    cloud: ModelSpec
    adapter: AdapterSpec


def _score_policies(system: TrainedSystem, policies: list[PolicyConfig]) -> list[CostReport]:
    """Edge and cloud anchor rows, scoring (0,0,0) and (1,1,1) by construction,
    plus one report per policy.

    The validation split is routed once; each policy thresholds its own
    mode's confidence of that pass's edge probabilities, computed once per
    mode in use. Every column comes from per-route tallies of rows, correct
    rows and recalled positives, counted on (route, row) masks. A system
    whose edge costs as many FLOPs as its cloud, or is at least as
    accurate, has no score.
    """
    ds, edge, cloud = system.dataset, system.edge, system.cloud
    flops_edge, flops_cloud = edge.total_flops(), cloud.total_flops()
    metrics.check_flops(flops_edge, flops_cloud)
    route_sent, route_flops = policy_mod.route_costs(edge, cloud, system.adapter)
    routed = route_dataset(edge, cloud, system.adapter, ds.val_X)
    conf = {mode: models.confidence(routed.edge_probs, mode)
            for mode in dict.fromkeys(pc.confidence_mode for pc in policies)}
    n, positive = len(ds.val_y), ds.val_y != models.NORMAL_CLASS
    # One row of route codes per report: the two anchors, then the policies.
    codes = np.stack([np.full(n, EDGE_CODE), np.full(n, CLOUD_CODE),
                      *(route_codes(pc.variant, conf[pc.confidence_mode], pc.c1, pc.c2)
                        for pc in policies)])
    taken = codes[:, None, :] == np.arange(len(ROUTES))[:, None]  # (report, route, row)
    counts = taken.sum(axis=2)
    hits = (taken & (routed.preds == ds.val_y)).sum(axis=(1, 2)).tolist()
    found = (taken & (routed.preds != models.NORMAL_CLASS) & positive).sum(axis=(1, 2)).tolist()
    positives = int(positive.sum())
    accuracy = [h / n for h in hits]
    recall = [f / positives if positives else 1.0 for f in found]
    if accuracy[0] >= accuracy[1]:
        raise ConfigError(f"perf score needs a cloud more accurate than the edge: edge accuracy "
                          f"{accuracy[0]:g} >= cloud accuracy {accuracy[1]:g}")
    reports = [
        CostReport("edge", 0.0, 0.0, 0.0, 0.0, 0.0, float(flops_edge), accuracy[0], recall[0]),
        CostReport("cloud", 1.0, 1.0, 1.0, 1.0, 1.0, float(flops_cloud), accuracy[1], recall[1])]
    for i, pc in enumerate(policies, start=2):
        tau, psi, s_comm = metrics.comm_score(counts[i], route_sent, route_sent[CLOUD_CODE])
        flops_sys, s_comp = metrics.comp_score(flops_edge, flops_cloud, counts[i], route_flops)
        s_p = metrics.perf_score(accuracy[i], accuracy[0], accuracy[1])
        reports.append(CostReport(pc.label, s_p, s_comp, s_comm, tau, psi, flops_sys,
                                  accuracy[i], recall[i]))
    return reports


def evaluate_policies(system: TrainedSystem) -> list[CostReport]:
    """Edge/cloud anchors plus one report per policy in the plan."""
    return _score_policies(system, system.plan.policies)


def sweep_dynamic(system: TrainedSystem) -> list[CostReport]:
    """One report per policy of the plan's c2 sweep, ``plan.sweep_policies()``.

    Endpoints collapse to the other rules: c2 = 0 reproduces the adaptive
    policy and c2 = c1 the independent one, sample for sample.
    """
    return _score_policies(system, system.plan.sweep_policies())[2:]


@dataclass
class ExperimentResult:
    system: TrainedSystem
    stage_logs: dict[str, TrainResult]
    reports: list[CostReport]

    def report(self, label: str) -> CostReport:
        for r in self.reports:
            if r.label == label:
                return r
        raise KeyError(label)


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Full pipeline: generate data, run all training stages and evaluate
    every policy. Deterministic from the plan's master seed."""
    ds = build_dataset(plan)
    edge, cloud, adapter = build_models(plan)
    stage_logs = train_stages(plan, ds, edge, cloud, adapter)
    system = TrainedSystem(plan, ds, edge, cloud, adapter)
    return ExperimentResult(system, stage_logs, evaluate_policies(system))
