"""Span tracing of edgecloud's public functions, installed from outside the program.

Each listed function is replaced by a wrapper that records one span per call:
its duration, and its self time, which is the duration minus the time covered
by wrapped calls made inside it. Spans are aggregated per function as they
close (calls, self seconds, inclusive seconds), so a traced run holds no
per-call list in memory. The wrapper is installed under every name that a
module of the package binds to the function (``policy.infer_with_tap``,
``train.solve_min_norm``, ``harness.route_dataset``, ...), so calls made
through ``from .x import f`` are traced as well as ``x.f`` calls.

Probes add per-call attributes at the same boundaries: rows, layer shapes,
the routing branch a call served, and route counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# Public functions traced per module; a function missing from its module is
# reported as absent (calls 0), not as a failure.
FUNCTIONS = {
    "nncore": ("adjoints", "layer_on_tape", "forward_on_tape", "forward", "apply_layer",
               "params_digest", "save_params", "load_params", "restore_params"),
    "train": ("train_base", "train_edge_kd", "finetune_adapter", "evaluate_model",
              "evaluate_adaptive_path", "kd_loss", "ce_on_tape", "kd_on_tape",
              "positive_ce_on_tape", "adapter_on_tape", "write_training_log"),
    "moo": ("solve_min_norm",),
    "models": ("infer", "infer_with_tap", "adapt", "cloud_tail", "confidence"),
    "policy": ("route_dataset", "route_sample"),
    "metrics": ("comm_score", "comp_score", "pareto_frontier", "frontier_reports",
                "write_reports_csv"),
    "harness": ("build_dataset", "build_models", "train_stages", "evaluate_policies",
                "sweep_dynamic"),
}

# Functions whose inclusive time is reported as well (stage totals).
TOTALS = ("train.train_base", "train.train_edge_kd", "train.finetune_adapter",
          "harness.build_dataset", "harness.build_models", "harness.train_stages",
          "harness.evaluate_policies", "harness.sweep_dynamic")

# Calls under these spans are the serving path whose rows are counted
# against the validation set.
ROUTING_STAGES = ("harness.evaluate_policies", "harness.sweep_dynamic")

ROUTE_NAMES = {"edge-only": "edge", "adaptive": "adaptive", "full-cloud": "cloud"}


class Tracer:
    """Aggregates spans of wrapped functions by name.

    ``stats[name]`` is ``[calls, self_s, total_s]``. ``depth[key]`` counts the
    open spans of a function name or of a module, so a probe can ask whether
    a call runs inside another layer.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.depth: defaultdict[str, int] = defaultdict(int)
        self._child_time: list[list[float]] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name`` (``module.function``).

        ``after(args, kwargs, result, seconds)`` runs once the span has
        closed, while the spans of its callers are still open.
        """
        module = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth, clock = self._child_time, self.depth, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth[module] += 1
            depth[name] += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[module] -= 1
                depth[name] -= 1
                stat[0] += 1
                stat[1] += elapsed - children[0]
                stat[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    """Leading dimension of a batch; 1 for a single sample."""
    shape = getattr(x, "shape", None)
    if shape is None:  # FeatureMap or tape Node
        inner = getattr(x, "values", None)
        shape = getattr(inner if inner is not None else getattr(x, "value", None), "shape", ())
    return shape[0] if len(shape) >= 2 else 1


def layer_label(layer) -> str:
    kind = "residual" if layer.kind == "residual-block" else layer.kind
    return f"{kind}-{layer.in_dim}x{layer.out_dim}"


class Probes:
    """Per-call attributes recorded at the traced boundaries.

    ``counts`` holds row and time sums; ``layers[label]`` holds
    ``[seconds, rows, flops]`` of the ``apply_layer`` calls on that shape.
    """

    def __init__(self, tracer: Tracer, edge_name: str = "edge", cloud_name: str = "cloud") -> None:
        self.tracer = tracer
        self.edge_name = edge_name
        self.cloud_name = cloud_name
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.layers: dict[str, list] = {}
        self._by_layer: dict[int, tuple] = {}

    def _in_routing(self) -> bool:
        depth = self.tracer.depth
        return any(depth[stage] for stage in ROUTING_STAGES)

    def _model_call(self, fn: str):
        def after(args, kwargs, result, seconds):
            model, rows = _arg(args, kwargs, 0, "model"), _rows(_arg(args, kwargs, 1, "x"))
            self.counts[f"models.{fn}.rows"] += rows
            name = getattr(model, "name", None)
            if name == self.edge_name and self._in_routing():
                self.counts["edge_rows_routing"] += rows
            if self.tracer.depth["policy"]:
                branch = {self.edge_name: "edge", self.cloud_name: "cloud"}.get(name)
                if branch:
                    self.counts[f"branch.{branch}.s"] += seconds
                    self.counts[f"branch.{branch}.rows"] += rows
        return after

    def _adapt(self, args, kwargs, result, seconds):
        rows = _rows(_arg(args, kwargs, 1, "edge_feature"))
        self.counts["models.adapt.rows"] += rows
        if self.tracer.depth["policy"]:
            self.counts["branch.adapted.s"] += seconds
            self.counts["branch.adapted.rows"] += rows

    def _cloud_tail(self, args, kwargs, result, seconds):
        self.counts["models.cloud_tail.rows"] += _rows(_arg(args, kwargs, 1, "injected"))
        if self.tracer.depth["policy"]:
            self.counts["branch.adapted.s"] += seconds

    def _confidence(self, args, kwargs, result, seconds):
        self.counts["models.confidence.rows"] += _rows(_arg(args, kwargs, 0, "probs"))

    def _apply_layer(self, args, kwargs, result, seconds):
        layer, rows = _arg(args, kwargs, 0, "layer"), _rows(_arg(args, kwargs, 1, "x"))
        entry = self._by_layer.get(id(layer))
        if entry is None:
            from edgecloud import nncore
            label = layer_label(layer)
            # Holding the layer keeps its id from being reused by another layer.
            entry = self._by_layer[id(layer)] = (
                layer, self.layers.setdefault(label, [0.0, 0, nncore.flops([layer])]))
        acc = entry[1]
        acc[0] += seconds
        acc[1] += rows
        if self.tracer.depth["train"]:
            self.counts["train_rows_untaped"] += rows

    def _layer_on_tape(self, args, kwargs, result, seconds):
        if self.tracer.depth["train"]:
            self.counts["train_rows_taped"] += _rows(_arg(args, kwargs, 2, "x"))

    def _route_dataset(self, args, kwargs, result, seconds):
        for record in result:
            route = ROUTE_NAMES.get(getattr(record, "route", None))
            if route:
                self.counts[f"routes.{route}"] += 1

    def hooks(self) -> dict:
        return {
            "models.infer": self._model_call("infer"),
            "models.infer_with_tap": self._model_call("infer_with_tap"),
            "models.adapt": self._adapt,
            "models.cloud_tail": self._cloud_tail,
            "models.confidence": self._confidence,
            "nncore.apply_layer": self._apply_layer,
            "nncore.layer_on_tape": self._layer_on_tape,
            "policy.route_dataset": self._route_dataset,
        }


@contextlib.contextmanager
def installed(tracer: Tracer, hooks: dict | None = None):
    """Wrap every function in ``FUNCTIONS`` under each name the package binds
    it to; yields the names found absent and restores the originals on exit."""
    homes = {mod: importlib.import_module(f"edgecloud.{mod}") for mod in FUNCTIONS}
    importlib.import_module("edgecloud.cli")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "edgecloud" or n.startswith("edgecloud."))]
    hooks = hooks or {}
    patched, absent = [], []
    try:
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(homes[mod], fn, None)
                if not callable(original):
                    absent.append(name)
                    continue
                wrapper = tracer.wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def branch_flop_ratio(cloud, adapter) -> float:
    """Analytic FLOPs of adapter + cloud tail over a full cloud pass."""
    from edgecloud import nncore
    tail = nncore.flops(cloud.layers[adapter.cloud_tap + 1:])
    return (adapter.total_flops() + tail) / cloud.total_flops()


def shape_labels(models) -> list[str]:
    """Distinct layer shapes of the given edge, cloud and adapter, in order."""
    labels: list[str] = []
    for model in models:
        layers = model.layers() if callable(model.layers) else model.layers
        for layer in layers:
            if layer_label(layer) not in labels:
                labels.append(layer_label(layer))
    return labels


def metric_specs(labels) -> list[tuple[str, str]]:
    """Names and units of every per-layer metric, in report order."""
    specs = []
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            if name in TOTALS:
                specs.append((f"{name}.total_s", "s"))
            if mod == "models":
                specs.append((f"{name}.rows", "rows"))
    for label in labels:
        specs += [(f"nncore.layer.{label}.us_per_row", "us"),
                  (f"nncore.layer.{label}.mflops", "MFLOP/s")]
    specs += [
        ("train.report_rows_per_step_row", "ratio"),
        ("models.edge_rows_per_val_row", "ratio"),
        ("branch.edge_us_per_row", "us"),
        ("branch.adapted_us_per_row", "us"),
        ("branch.cloud_us_per_row", "us"),
        ("branch.adapted_over_cloud.time_ratio", "ratio"),
        ("branch.adapted_over_cloud.flop_ratio", "ratio"),
        ("policy.routes.edge", "count"),
        ("policy.routes.adaptive", "count"),
        ("policy.routes.cloud", "count"),
        ("trace.overhead_share", "ratio"),
        ("trace.absent_functions", "count"),
        ("code.src_lines", "lines"),
    ]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, probes: Probes, labels, *, absent, val_rows_routed: int,
                 flop_ratio: float, overhead_share: float, src_lines: int) -> dict[str, float]:
    """Value of every metric in ``metric_specs(labels)``.

    ``val_rows_routed`` is the validation rows times the evaluate/sweep
    commands traced, the base of ``models.edge_rows_per_val_row``.
    """
    values: dict[str, float] = {}
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            calls, self_s, total_s = tracer.stats.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
            if name in TOTALS:
                values[f"{name}.total_s"] = total_s
            if mod == "models":
                values[f"{name}.rows"] = probes.counts[f"{name}.rows"]
    for label in labels:
        seconds, rows, flops = probes.layers.get(label, (0.0, 0, 0))
        values[f"nncore.layer.{label}.us_per_row"] = _ratio(1e6 * seconds, rows)
        values[f"nncore.layer.{label}.mflops"] = _ratio(flops * rows / 1e6, seconds)
    c = probes.counts
    edge_us = _ratio(1e6 * c["branch.edge.s"], c["branch.edge.rows"])
    adapted_us = _ratio(1e6 * c["branch.adapted.s"], c["branch.adapted.rows"])
    cloud_us = _ratio(1e6 * c["branch.cloud.s"], c["branch.cloud.rows"])
    values.update({
        "train.report_rows_per_step_row": _ratio(c["train_rows_untaped"], c["train_rows_taped"]),
        "models.edge_rows_per_val_row": _ratio(c["edge_rows_routing"], val_rows_routed),
        "branch.edge_us_per_row": edge_us,
        "branch.adapted_us_per_row": adapted_us,
        "branch.cloud_us_per_row": cloud_us,
        "branch.adapted_over_cloud.time_ratio": _ratio(adapted_us, cloud_us),
        "branch.adapted_over_cloud.flop_ratio": flop_ratio,
        "policy.routes.edge": c["routes.edge"],
        "policy.routes.adaptive": c["routes.adaptive"],
        "policy.routes.cloud": c["routes.cloud"],
        "trace.overhead_share": overhead_share,
        "trace.absent_functions": len(absent),
        "code.src_lines": src_lines,
    })
    return values
