"""Dataset generation, plan parsing, and end-to-end pipeline tests."""

import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

from edgecloud import harness, metrics, models, nncore
from edgecloud.cli import CHECKPOINT_FILES, dispatch
from edgecloud.harness import (AdapterConfig, DataConfig, ExperimentPlan, NetConfig,
                               PolicyConfig, TrainedSystem, build_dataset,
                               build_models, default_plan, evaluate_policies, gen_dataset,
                               load_plan, plan_from_dict, plan_to_dict, run_experiment,
                               save_plan, sweep_dynamic)
from edgecloud.metrics import pareto_frontier
from edgecloud.nncore import ConfigError

from conftest import (MISTYPED_FIELDS, field_id, resweep, set_field, tiny_plan,
                      with_cloud_epochs)

REQUIRED = "missing"


def zero_weight_system(plan, edge_hidden=None):
    """The plan's system with every weight zero, its edge's hidden widths
    ``edge_hidden`` if given, and the adapter that fits that edge."""
    d, a = plan.data, plan.adapter
    edge = models.feedforward("edge", d.dim, edge_hidden or plan.edge.hidden, d.num_classes)
    cloud = models.feedforward("cloud", d.dim, plan.cloud.hidden, d.num_classes)
    adapter = models.make_adapter("adapter", a.edge_tap, a.cloud_tap, edge.tap_dim(a.edge_tap),
                                  cloud.tap_dim(a.cloud_tap), a.blocks)
    return TrainedSystem(plan, build_dataset(plan), edge, cloud, adapter)

# What a plan file that omits a key reads as: REQUIRED, or the dataclass
# that owns the field and the default the field takes. "*" stands for any
# stage name or policy index.
OMITTED = {
    **{keys: REQUIRED for keys in [
        ("master_seed",), ("dataset",), ("dataset", "num_classes"), ("dataset", "dim"),
        ("dataset", "n"), ("dataset", "normal_fraction"), ("dataset", "difficulty"),
        ("edge",), ("edge", "hidden"), ("cloud",), ("cloud", "hidden"),
        ("adapter",), ("adapter", "edge_tap"), ("adapter", "cloud_tap"), ("adapter", "blocks"),
        ("stages",), ("stages", "*", "epochs"), ("stages", "*", "batch_size"),
        ("stages", "*", "learning_rate"), ("policies", "*", "variant"), ("policies", "*", "c1"),
    ]},
    ("recall_boost",): (ExperimentPlan, False),
    ("kd_weight",): (ExperimentPlan, 1.0),
    ("policies",): (ExperimentPlan, []),
    ("c2_grid",): (ExperimentPlan, []),
    ("policies", "*", "c2"): (PolicyConfig, 0.0),
    ("policies", "*", "confidence_mode"): (PolicyConfig, "normal-class"),
}


def key_paths(cfg, keys=()):
    """The keys of every field in a plan dict, through stage names and policy
    indices; a stage name on its own is a dict entry, not a field."""
    items = (cfg.items() if isinstance(cfg, dict)
             else enumerate(cfg) if isinstance(cfg, list) else ())
    for key, value in items:
        path = keys + (key,)
        if not isinstance(key, int) and keys != ("stages",):
            yield path
        yield from key_paths(value, path)


def key_path(keys) -> str:
    """The path a plan error names for ``keys``: ``plan.policies[0].c1``."""
    return "plan" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def del_field(cfg, keys):
    for key in keys[:-1]:
        cfg = cfg[key]
    del cfg[keys[-1]]


class TestGenDataset:
    def test_deterministic_given_seed(self):
        a = gen_dataset(DataConfig(5, 8, 1000, 0.4, 0.5), seed=7)
        b = gen_dataset(DataConfig(5, 8, 1000, 0.4, 0.5), seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.val_idx, b.val_idx)

    def test_normal_fraction_matches_declared(self):
        ds = gen_dataset(DataConfig(7, 16, 10_000, 0.4, 0.5), seed=1)
        frac = float((ds.y == models.NORMAL_CLASS).mean())
        assert 0.38 <= frac <= 0.42

    def test_split_is_stratified_80_20(self):
        data = DataConfig(5, 8, 2000, 0.4, 0.5)
        ds = gen_dataset(data, seed=2)
        assert len(ds.train_idx) + len(ds.val_idx) == 2000
        assert abs(len(ds.train_idx) - 1600) <= 5
        for c in range(data.num_classes):
            total = int((ds.y == c).sum())
            in_train = int((ds.train_y == c).sum())
            assert abs(in_train - 0.8 * total) <= 1

    def test_easy_setting_solved_by_component_center_oracle(self):
        # Gaussian max-likelihood nearest-center rule over the generating
        # mixture components: scaled squared distance plus the log-volume
        # term the unequal class widths require.
        ds = gen_dataset(DataConfig(7, 16, 4000, 0.4, 0.0), seed=3)
        centers = np.concatenate(ds.centers)
        owner = np.concatenate([np.full(len(c), i) for i, c in enumerate(ds.centers)])
        sigma = np.where(owner == models.NORMAL_CLASS, ds.sigma_normal, ds.sigma_positive)
        scores = ((ds.X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) / sigma ** 2 \
            + 2 * ds.dim * np.log(sigma)
        preds = owner[np.argmin(scores, axis=1)]
        assert (preds == ds.y).mean() >= 0.99

    @pytest.mark.parametrize("args, message", [
        ((1, 8, 100, 0.4, 0.5), "num_classes: must be >= 2"),
        ((5, 0, 100, 0.4, 0.5), "dim: must be >= 1"),
        ((5, 8, 3, 0.4, 0.5), "n: must be >= num_classes"),
        ((5, 8, 100, 1.4, 0.5), r"normal_fraction: must lie in \[0, 1\]"),
        ((4, 8, 4, 0.25, 0.4), "n: must leave a training sample after the 80/20 split"),
        ((4, 8, 600, 1.0, 0.4), "normal_fraction: must leave a positive training sample"),
        # one sample in each positive class: the 80/20 cut trains on none
        ((4, 8, 600, 0.995, 0.4), "normal_fraction: must leave a positive training sample"),
    ])
    def test_degenerate_configs_rejected(self, args, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DataConfig(*args)

    def test_class_and_split_sizes_are_the_configs(self):
        data = DataConfig(5, 8, 1003, 0.37, 0.5)
        ds = gen_dataset(data, seed=5)
        counts, train_counts = data.class_sizes()
        assert [int((ds.y == c).sum()) for c in range(5)] == counts
        assert [int((ds.train_y == c).sum()) for c in range(5)] == train_counts

    def test_all_positive_dataset_accepted(self):
        data = DataConfig(4, 8, 100, 0.0, 0.4)
        assert data.class_sizes() == ([0, 34, 33, 33], [0, 27, 26, 26])
        assert not (gen_dataset(data, seed=6).train_y == models.NORMAL_CLASS).any()


class TestPlans:
    def test_round_trip(self):
        for plan in (default_plan(3), tiny_plan()):
            cfg = plan_to_dict(plan)
            rebuilt = plan_from_dict(cfg)
            assert rebuilt == plan
            assert plan_to_dict(rebuilt) == cfg

    def test_file_round_trip(self, tmp_path):
        plan = default_plan(5)
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        loaded = load_plan(path)
        assert plan_to_dict(loaded) == plan_to_dict(plan)

    def test_two_loads_resolve_each_class_once(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        save_plan(path, default_plan(5))
        resolved = []
        get_type_hints = harness.typing.get_type_hints

        def recording(kind):
            resolved.append(kind)
            return get_type_hints(kind)

        monkeypatch.setattr(harness.typing, "get_type_hints", recording)
        harness._schema.cache_clear()
        first, second = load_plan(path), load_plan(path)
        assert plan_to_dict(first) == plan_to_dict(second)
        assert sorted(k.__name__ for k in resolved) == [
            "AdapterConfig", "DataConfig", "ExperimentPlan", "NetConfig", "PolicyConfig",
            "TrainConfig"]

    def test_seed_override(self, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(path, default_plan(5))
        assert load_plan(path, seed_override=11).master_seed == 11
        with pytest.raises(ConfigError, match=r"^master_seed: must be >= 0$"):
            load_plan(path, seed_override=-1)

    def test_negative_master_seed_refused(self):
        cfg = plan_to_dict(tiny_plan())
        cfg["master_seed"] = -3
        with pytest.raises(ConfigError, match=r"^plan\.master_seed: must be >= 0$"):
            plan_from_dict(cfg)

    @pytest.mark.parametrize("edge", [[16, 16, 16], [64, 64]], ids=["as-costly", "costlier"])
    def test_edge_as_costly_as_the_cloud_refused_at_load(self, edge):
        cfg = plan_to_dict(tiny_plan())
        cfg["edge"]["hidden"] = edge
        with pytest.raises(ConfigError, match=r"^plan\.edge: comp score needs "
                                              r"flops_cloud > flops_edge, got \d+ >= 1460 "):
            plan_from_dict(cfg)

    def test_missing_field_reports_path(self):
        cfg = plan_to_dict(default_plan(0))
        del cfg["dataset"]["n"]
        with pytest.raises(ConfigError, match="plan.dataset.n"):
            plan_from_dict(cfg)

    def test_wrong_type_reports_path(self):
        cfg = plan_to_dict(default_plan(0))
        cfg["stages"]["cloud"]["epochs"] = "thirty"
        with pytest.raises(ConfigError, match="plan.stages.cloud.epochs"):
            plan_from_dict(cfg)

    def test_tap_consistency_enforced(self):
        with pytest.raises(ConfigError, match="cloud_tap"):
            tiny_plan(adapter=AdapterConfig(edge_tap=0, cloud_tap=9, blocks=1))

    @pytest.mark.parametrize("keys, value, message", [
        (("adapter", "edge_tap"), 2, r"plan.adapter.edge_tap: must lie in \[0, 1\]"),
        (("adapter", "cloud_tap"), -1, r"plan.adapter.cloud_tap: must lie in \[0, 3\]"),
        (("edge", "hidden"), [-3], r"plan.edge.hidden\[0\]: must be >= 1"),
        (("edge", "hidden"), [0], r"plan.edge.hidden\[0\]: must be >= 1"),
        (("cloud", "hidden"), [16, 0, 16], r"plan.cloud.hidden\[1\]: must be >= 1"),
        (("stages", "edge"), {"epochs": 1, "batch_size": 8, "learning_rate": 0.1},
         "plan.stages.edge: unknown stage, expected one of cloud, edge_kd, finetune"),
    ], ids=["edge-tap-2", "cloud-tap--1", "edge-width--3", "edge-width-0", "cloud-width-0",
            "extra-stage"])
    def test_unbuildable_plan_refused_at_load(self, keys, value, message):
        cfg = plan_to_dict(tiny_plan())
        set_field(cfg, keys, value)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            plan_from_dict(cfg)

    @pytest.mark.parametrize("keys", [
        ("recall_bost",), ("dataset", "noise"), ("edge", "taps"), ("cloud", "taps"),
        ("stages", "cloud", "epoch"), ("stages", "cloud", "seed"), ("policies", 1, "c_1"),
        ("bytes_per_element",), ("stages", "edge_kd", "kd_weight"),
    ], ids=field_id)
    def test_unknown_key_refused(self, keys):
        cfg = plan_to_dict(tiny_plan())
        set_field(cfg, keys, 1)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key_path(keys))}: unknown field$"):
            plan_from_dict(cfg)

    def test_misspelled_key_named_before_the_key_it_replaces(self):
        cfg = plan_to_dict(tiny_plan())
        cfg["stages"]["cloud"]["epoch"] = cfg["stages"]["cloud"].pop("epochs")
        with pytest.raises(ConfigError, match=r"^plan.stages.cloud.epoch: unknown field$"):
            plan_from_dict(cfg)

    @pytest.mark.parametrize("keys", list(key_paths(plan_to_dict(tiny_plan()))), ids=field_id)
    def test_omitted_key_is_missing_or_reads_as_its_field_default(self, keys):
        rule = OMITTED[tuple("*" if i and keys[i - 1] in ("stages", "policies") else k
                             for i, k in enumerate(keys))]
        cfg = plan_to_dict(tiny_plan())
        del_field(cfg, keys)
        if rule is REQUIRED:
            with pytest.raises(ConfigError, match=rf"^{re.escape(key_path(keys))}: missing$"):
                plan_from_dict(cfg)
            return
        owner, default = rule
        spec = {f.name: f for f in dataclasses.fields(owner)}[keys[-1]]
        field_default = (spec.default if spec.default is not dataclasses.MISSING
                         else spec.default_factory())
        read_back = plan_to_dict(plan_from_dict(cfg))
        for key in keys[:-1]:
            read_back = read_back[key]
        assert read_back[keys[-1]] == default == field_default

    @pytest.mark.parametrize("policy, key, value, field", [
        (0, "c1", 1.5, "c1"),
        (2, "c2", -0.2, "c2"),
        (0, "c2", 0.3, "c2: only a dynamic policy reads c2"),
        (1, "c2", 0.3, "c2: only a dynamic policy reads c2"),
        (None, "kd_weight", -1.0, "kd_weight: must be >= 0"),
        (None, "kd_weight", math.nan, "kd_weight: must be >= 0"),
        (None, "kd_weight", math.inf, "kd_weight: must be finite"),
        (1, "confidence_mode", "softmax-max", "confidence_mode"),
    ])
    def test_thresholds_and_costs_checked_at_construction(self, policy, key, value, field):
        cfg = plan_to_dict(tiny_plan())
        (cfg if policy is None else cfg["policies"][policy])[key] = value
        with pytest.raises(ConfigError, match=field):
            plan_from_dict(cfg)

    @pytest.mark.parametrize("stage", ["cloud", "edge_kd", "finetune"])
    @pytest.mark.parametrize("field, value, rule", [
        ("epochs", -1, "must be >= 0"), ("batch_size", 0, "must be >= 1"),
        ("learning_rate", -0.1, "must be >= 0"), ("learning_rate", math.nan, "must be >= 0"),
        ("learning_rate", math.inf, "must be finite"),
    ])
    def test_stage_bounds_checked_at_construction(self, stage, field, value, rule):
        cfg = plan_to_dict(tiny_plan())
        cfg["stages"][stage][field] = value
        with pytest.raises(ConfigError, match=rf"^plan\.stages\.{stage}\.{field}: {rule}$"):
            plan_from_dict(cfg)

    def test_recall_boost_without_imitation_refused_at_construction(self):
        cfg = plan_to_dict(tiny_plan(recall_boost=True))
        cfg["kd_weight"] = 0.0
        with pytest.raises(ConfigError,
                           match=r"^plan.kd_weight: must be > 0 when recall_boost is on$"):
            plan_from_dict(cfg)
        cfg["recall_boost"] = False
        assert plan_from_dict(cfg).kd_weight == 0.0

    # 0.001 of 600 is one normal sample, which the 80/20 cut keeps out of training.
    @pytest.mark.parametrize("normal_fraction", [0.0, 0.001])
    def test_recall_boost_without_a_normal_training_row_refused_at_construction(
            self, normal_fraction):
        cfg = plan_to_dict(tiny_plan(recall_boost=True))
        cfg["dataset"]["normal_fraction"] = normal_fraction
        with pytest.raises(ConfigError, match=r"^plan\.recall_boost: needs a normal row "
                                              r"in the training split$"):
            plan_from_dict(cfg)
        cfg["recall_boost"] = False
        assert plan_from_dict(cfg).data.normal_fraction == normal_fraction

    def test_readme_plan_table_names_every_top_level_key(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### The plan file", 1)[1].split("\n#", 1)[0]
        first_cells = [line.split("|")[1] for line in section.splitlines()
                       if line.startswith("| `")]
        keys = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
        assert keys == list(plan_to_dict(default_plan(0)))

    @pytest.mark.parametrize("keys, value, message", MISTYPED_FIELDS,
                             ids=[field_id(keys) for keys, _, _ in MISTYPED_FIELDS])
    def test_mistyped_field_refused_at_load(self, tmp_path, keys, value, message):
        cfg = plan_to_dict(tiny_plan())
        set_field(cfg, keys, value)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=f"^{message}"):
            load_plan(path)

    @pytest.mark.parametrize("policies, c2_grid", [
        ([PolicyConfig("independent", c1=0.5)], [0.2, 0.6]),
        ([], [0.2, 0.9]),  # no policies: the sweep runs at c1 = 0.8
    ])
    def test_c2_grid_above_the_sweep_c1_refused(self, policies, c2_grid):
        cfg = plan_to_dict(tiny_plan(policies=policies))
        cfg["c2_grid"] = c2_grid
        with pytest.raises(ConfigError, match=r"^plan.c2_grid: entries must lie in \[0, c1\]"):
            plan_from_dict(cfg)
        cfg["c2_grid"] = c2_grid[:1]
        assert plan_from_dict(cfg).c2_grid == c2_grid[:1]

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_plan(path)


@pytest.fixture()
def evaluated(tmp_path, tiny_system):
    """A directory after CLI ``evaluate`` on the tiny system's checkpoints."""
    system = tiny_system.system
    save_plan(tmp_path / "plan.json", system.plan)
    for name, component in (("edge", system.edge), ("cloud", system.cloud),
                            ("adapter", system.adapter)):
        nncore.save_params(tmp_path / CHECKPOINT_FILES[name], component.params())
    assert dispatch(["evaluate", "--config", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path)]) == 0
    return tmp_path


class TestPipeline:
    def test_models_match_plan_shapes(self):
        plan = tiny_plan()
        edge, cloud, adapter = build_models(plan)
        assert edge.in_dim == plan.data.dim
        assert cloud.total_flops() > edge.total_flops()
        assert adapter.num_blocks == plan.adapter.blocks
        assert adapter.projection.in_dim == edge.tap_dim(plan.adapter.edge_tap)
        assert adapter.projection.out_dim == cloud.tap_dim(plan.adapter.cloud_tap)

    def test_reports_and_anchors(self, tiny_system):
        reports = {r.label: r for r in tiny_system.reports}
        assert set(reports) == {"edge", "cloud", "independent", "adaptive", "dynamic(c2=0.3)"}
        edge, cloud = reports["edge"], reports["cloud"]
        assert (edge.s_p, edge.s_comp, edge.s_comm) == (0.0, 0.0, 0.0)
        assert (cloud.s_p, cloud.s_comp, cloud.s_comm) == (1.0, 1.0, 1.0)
        flops_gap = cloud.flops_ecc - edge.flops_ecc
        for r in reports.values():
            assert 0.0 <= r.s_comm <= max(1.0, r.psi)
            assert 0.0 <= r.s_comp <= 1.0 + cloud.flops_ecc / flops_gap
            assert math.isfinite(r.s_p)

    def test_empty_policy_grid_gives_baselines_only(self):
        plan = tiny_plan(policies=[])
        result = run_experiment(plan)
        assert [r.label for r in result.reports] == ["edge", "cloud"]

    @pytest.mark.parametrize("policies", [[], tiny_plan().policies], ids=["none", "tiny-plan"])
    def test_edge_as_costly_as_the_cloud_refused(self, policies):
        # the plan refuses such an edge, so it is built beside the plan
        system = zero_weight_system(tiny_plan(policies=policies), edge_hidden=[64, 64])
        with pytest.raises(ConfigError, match="flops_cloud > flops_edge"):
            evaluate_policies(system)
        with pytest.raises(ConfigError, match="flops_cloud > flops_edge"):
            sweep_dynamic(system)

    @pytest.mark.parametrize("score", [evaluate_policies, sweep_dynamic])
    @pytest.mark.parametrize("policies", [[], tiny_plan().policies], ids=["none", "tiny-plan"])
    def test_tied_anchors_refused(self, policies, score):
        # zero weights: edge and cloud both predict class 0 on every row
        system = zero_weight_system(tiny_plan(policies=policies))
        accuracy = float(np.mean(system.dataset.val_y == 0))
        with pytest.raises(ConfigError, match=re.escape(
                f"more accurate than the edge: edge accuracy {accuracy:g} >= "
                f"cloud accuracy {accuracy:g}")):
            score(system)

    # Trained systems whose edge beats the cloud: tiny seed 2 (edge 0.775,
    # cloud 0.508333), tiny dim 10 (edge 0.65, cloud 0.583333), and an
    # all-positive dataset (edge 0.983333, cloud 0.966667).
    INVERTED = {"seed-2": tiny_plan(master_seed=2),
                "dim-10": tiny_plan(data=dataclasses.replace(tiny_plan().data, dim=10)),
                "all-positive": tiny_plan(data=dataclasses.replace(tiny_plan().data,
                                                                   normal_fraction=0.0))}

    @pytest.mark.parametrize("name", list(INVERTED))
    def test_inverted_anchors_refused(self, name):
        plan = self.INVERTED[name]
        ds = build_dataset(plan)
        edge, cloud, adapter = build_models(plan)
        harness.train_stages(plan, ds, edge, cloud, adapter)
        system = TrainedSystem(plan, ds, edge, cloud, adapter)
        edge_acc, cloud_acc = (float(np.mean(np.argmax(models.infer(net, ds.val_X), axis=1)
                                             == ds.val_y)) for net in (edge, cloud))
        assert edge_acc > cloud_acc
        for score in (evaluate_policies, sweep_dynamic):
            with pytest.raises(ConfigError, match=re.escape(
                    f"edge accuracy {edge_acc:g} >= cloud accuracy {cloud_acc:g}")):
                score(system)

    def test_deterministic_reports(self):
        # tiny seed 3 with 24 cloud epochs: edge 0.666667, cloud 0.866667
        plan = with_cloud_epochs(tiny_plan(master_seed=3), 24)
        a = run_experiment(plan)
        b = run_experiment(with_cloud_epochs(tiny_plan(master_seed=3), 24))
        for ra, rb in zip(a.reports, b.reports):
            assert ra == rb

    def test_output_files_written(self, evaluated, tiny_system):
        for name in ("reports.csv", "frontier_comp.csv", "frontier_comm.csv"):
            assert (evaluated / name).exists(), name
        assert not list(evaluated.glob("train_*.csv"))  # only `train` writes training logs
        rows = metrics.read_report_rows(evaluated / "reports.csv")
        assert [{k: float(v) if k != "label" else v for k, v in row.items()} for row in rows] \
            == [dataclasses.asdict(r) for r in tiny_system.reports]

    def test_frontier_csvs_are_mutually_nondominated(self, evaluated):
        for name, cost in (("frontier_comp.csv", "s_comp"), ("frontier_comm.csv", "s_comm")):
            rows = metrics.read_report_rows(evaluated / name)
            costs = [(-float(r["s_p"]), float(r[cost])) for r in rows]
            assert pareto_frontier(costs, [r["label"] for r in rows]).all()


class TestSweep:
    def test_endpoints_match_other_variants(self, tiny_system):
        sweep = sweep_dynamic(resweep(tiny_system.system, []))
        by_label = {r.label: r for r in tiny_system.reports}
        adaptive, independent = sweep
        for field in ("tau", "psi", "s_comm", "flops_ecc", "s_comp", "accuracy", "recall"):
            assert getattr(adaptive, field) == getattr(by_label["adaptive"], field)
            assert getattr(independent, field) == getattr(by_label["independent"], field)

    def test_grid_validation(self, tiny_system):
        sweep = sweep_dynamic(resweep(tiny_system.system, [0.4, 0.2, 0.4], c1=0.7))
        assert [r.label for r in sweep] == [f"dynamic(c2={c2:g})" for c2 in (0, 0.2, 0.4, 0.7)]
        with pytest.raises(ConfigError, match=r"c2_grid: entries must lie in \[0, c1\] = \[0, 0.8\]"):
            resweep(tiny_system.system, [0.2, 0.9])


class TestSeeds:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = harness.derive_seeds(0)
        b = harness.derive_seeds(0)
        c = harness.derive_seeds(1)
        assert a == b
        assert a != c
        assert len(set(a.values())) == len(a)

    def test_each_call_gets_its_own_dict(self):
        a = harness.derive_seeds(7)
        expected = dict(a)
        a["dataset"] = -1
        del a["finetune"]
        b = harness.derive_seeds(7)
        assert b == expected and b is not a


def test_blank_models_are_build_models_with_zero_parameters():
    plan = tiny_plan()
    for built, blank in zip(build_models(plan), harness.blank_models(plan)):
        assert type(blank) is type(built) and repr(blank) == repr(built)
        assert [(p.name, p.value.shape) for p in blank.params()] == \
            [(p.name, p.value.shape) for p in built.params()]
        assert not any(p.value.any() for p in blank.params())
