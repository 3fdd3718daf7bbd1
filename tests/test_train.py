"""Loss and training-procedure tests, including the small-scale trend
experiments (median over seeds 0..4)."""

import concurrent.futures
import copy
import dataclasses
import math
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from edgecloud import harness, models, nncore, train
from edgecloud.harness import DataConfig, gen_dataset
from edgecloud.models import feedforward, make_adapter
from edgecloud.nncore import ConfigError, GradientTape, UsageError
from edgecloud.policy import route_costs, route_dataset
from edgecloud.train import (DivergenceError, TrainConfig, cross_entropy,
                             evaluate_adaptive_path, evaluate_model, kd_loss,
                             kd_targets, positive_cross_entropy, train_base,
                             train_edge_kd, finetune_adapter)

from conftest import (check_descent, cloud_targets, on_simplex, param_grads, reference_ce,
                      reference_kd, reference_layer, tiny_plan, train_recall_boost,
                      with_cloud_epochs)


def params_equal(a, b):
    return all(np.array_equal(pa.value, pb.value) for pa, pb in zip(a.params(), b.params()))


def recorded_solves(monkeypatch):
    """Each ``train.solve_min_norm`` call from here on, as copies of its
    gradient bundle, simplex weights and combination."""
    calls, solve = [], train.solve_min_norm

    def recorded(bundle):
        alpha, combined = solve(bundle)
        calls.append((bundle.copy(), alpha.copy(), combined.copy()))
        return alpha, combined

    monkeypatch.setattr(train, "solve_min_norm", recorded)
    return calls


class TestCrossEntropy:
    def test_perfect_prediction_is_near_zero(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        loss = cross_entropy(probs, [0, 1])
        assert 0.0 <= loss <= 1e-11

    def test_uniform_over_seven_classes(self):
        probs = np.full((4, 7), 1.0 / 7.0)
        assert cross_entropy(probs, [0, 3, 5, 6]) == pytest.approx(math.log(7), abs=1e-12)

    def test_hand_batch_matches_scalar_oracle(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = [0, 1]
        want = (math.log(2) + math.log(4.0 / 3.0)) / 2.0
        assert cross_entropy(probs, labels) == pytest.approx(want, abs=1e-12)
        # scalar-loop oracle
        total = 0.0
        for row, lab in zip(probs, labels):
            total += -math.log(min(max(row[lab], 1e-12), 1 - 1e-12))
        assert cross_entropy(probs, labels) == pytest.approx(total / 2, abs=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            cross_entropy(np.zeros((0, 3)), [])

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.random((8, 5)) + 1e-3
            probs = raw / raw.sum(axis=1, keepdims=True)
            assert cross_entropy(probs, rng.integers(0, 5, 8)) >= 0.0

    @pytest.mark.parametrize("label", [-1, 3])
    def test_a_label_outside_the_classes_is_refused(self, label):
        # -1 would gather the last class and 3 would raise an IndexError
        message = f"^label {label} out of range for 3 classes$"
        with pytest.raises(UsageError, match=message):
            cross_entropy(np.full((2, 3), 1.0 / 3.0), [0, label])
        tape = GradientTape()
        with pytest.raises(UsageError, match=message):
            train.ce_on_tape(tape, tape.input(np.zeros((2, 3))), [0, label])


class TestKdLoss:
    def test_all_zero_features_give_log_two(self):
        z = np.zeros((3, 4))
        assert kd_loss(z, z) == pytest.approx(math.log(2), abs=1e-12)

    def test_matching_large_constant_approaches_zero(self):
        losses = [kd_loss(np.full((2, 2), c), np.full((2, 2), c)) for c in (2.0, 10.0, 30.0)]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-10

    def test_random_pair_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        total = 0.0
        for i in range(2):
            for j in range(3):
                p = 1.0 / (1.0 + math.exp(-a[i, j]))
                q = min(max(1.0 / (1.0 + math.exp(-b[i, j])), 1e-12), 1 - 1e-12)
                total += -(p * math.log(q) + (1 - p) * math.log(1 - q))
        assert kd_loss(a, b) == pytest.approx(total / 6, rel=1e-12)

    def test_self_loss_is_bernoulli_entropy(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 5)) * 2
        p = 1.0 / (1.0 + np.exp(-a))
        entropy = float(-(p * np.log(p) + (1 - p) * np.log(1 - p)).mean())
        assert kd_loss(a, a) == pytest.approx(entropy, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert kd_loss(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            kd_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestPositiveCrossEntropy:
    def test_all_normal_returns_zero(self):
        probs = np.full((3, 4), 0.25)
        assert positive_cross_entropy(probs, [0, 0, 0]) == 0.0

    def test_all_positive_equals_cross_entropy(self):
        rng = np.random.default_rng(4)
        raw = rng.random((6, 4)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(1, 4, 6)
        assert positive_cross_entropy(probs, labels) == cross_entropy(probs, labels)

    def test_mixed_batch_equals_subset(self):
        rng = np.random.default_rng(5)
        raw = rng.random((8, 3)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = np.array([0, 1, 0, 2, 2, 0, 1, 0])
        mask = labels != 0
        assert positive_cross_entropy(probs, labels) == \
            cross_entropy(probs[mask], labels[mask])


def blob_edge(seed=0):
    rng = np.random.default_rng(seed)
    return feedforward("edge", 4, [8], 2, rng)


class TestTrainBase:
    def test_separable_blobs_reach_high_accuracy(self):
        ds = gen_dataset(DataConfig(2, 4, 400, 0.5, 0.0), seed=10)
        edge = blob_edge()
        result = train_base(edge, ds.train_X, ds.train_y, TrainConfig(50, 32, 0.1), seed=1)
        assert result.final.accuracy >= 0.99
        assert result.final.ce_loss <= result.history[0].ce_loss

    def test_zero_learning_rate_is_a_no_op(self):
        ds = gen_dataset(DataConfig(2, 4, 100, 0.5, 0.5), seed=11)
        edge = blob_edge()
        twin = copy.deepcopy(edge)
        train_base(edge, ds.train_X, ds.train_y, TrainConfig(3, 16, 0.0), seed=2)
        assert params_equal(edge, twin)

    def test_same_seed_same_checkpoint(self):
        ds = gen_dataset(DataConfig(2, 4, 200, 0.5, 0.5), seed=12)
        a, b = blob_edge(3), blob_edge(3)
        cfg = TrainConfig(5, 16, 0.1)
        train_base(a, ds.train_X, ds.train_y, cfg, seed=4)
        train_base(b, ds.train_X, ds.train_y, cfg, seed=4)
        assert params_equal(a, b)

    def test_divergence_aborts_with_stage_and_epoch(self):
        # the clamped losses are saturation-proof, so divergence needs a step
        # large enough to overflow the next forward pass outright
        ds = gen_dataset(DataConfig(2, 4, 200, 0.5, 0.5), seed=13)
        edge = blob_edge(5)
        with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
            train_base(edge, ds.train_X, ds.train_y,
                       TrainConfig(10, 16, 1e300), seed=5)
        assert err.value.stage == "base"
        assert err.value.epoch == 1
        assert "base" in str(err.value) and "epoch" in str(err.value)

    def test_non_finite_training_data_rejected(self):
        ds = gen_dataset(DataConfig(2, 4, 100, 0.5, 0.5), seed=13)
        X = ds.train_X.copy()
        X[7, 0] = np.inf
        with pytest.raises(UsageError, match="finite"):
            train_base(blob_edge(5), X, ds.train_y, TrainConfig(1, 16, 0.1), seed=5)

    def test_zero_epochs_changes_nothing(self):
        ds = gen_dataset(DataConfig(2, 4, 100, 0.5, 0.5), seed=14)
        edge = blob_edge(6)
        twin = copy.deepcopy(edge)
        result = train_base(edge, ds.train_X, ds.train_y, TrainConfig(0, 16, 0.1), seed=6)
        assert params_equal(edge, twin)
        assert len(result.history) == 1


def kd_setup(seed=0, n=600):
    seeds = harness.derive_seeds(seed)
    ds = gen_dataset(DataConfig(4, 8, n, 0.4, 0.4), seeds["dataset"])
    edge = feedforward("edge", 8, [5], 4, np.random.default_rng(seeds["edge_init"]))
    cloud = feedforward("cloud", 8, [12, 12], 4, np.random.default_rng(seeds["cloud_init"]))
    adapter = make_adapter("a", 0, 1, 5, 12, 1, np.random.default_rng(seeds["adapter_init"]))
    train_base(cloud, ds.train_X, ds.train_y, TrainConfig(5, 32, 0.1), seed=seeds["cloud_train"])
    return ds, edge, cloud, adapter, seeds


class TestTrainEdgeKd:
    def test_zero_kd_weight_equals_train_base(self):
        ds, edge, cloud, adapter, seeds = kd_setup()
        cfg, seed = TrainConfig(5, 32, 0.1), seeds["edge_train"]
        twin = copy.deepcopy(edge)
        adapter_before = nncore.params_digest(adapter.params())
        target = cloud_targets(cloud, adapter.cloud_tap, ds.train_X)
        train_edge_kd(edge, adapter, ds.train_X, ds.train_y, target, cfg, seed=seed, kd_weight=0.0)
        train_base(twin, ds.train_X, ds.train_y, cfg, seed=seed)
        assert params_equal(edge, twin)
        assert nncore.params_digest(adapter.params()) == adapter_before

    def test_cloud_frozen_throughout(self):
        # the stage sees the cloud only as its KD targets, which it cannot
        # write: cloud and targets come out as they went in
        ds, edge, cloud, adapter, seeds = kd_setup(1)
        digest = nncore.params_digest(cloud.params())
        target = cloud_targets(cloud, adapter.cloud_tap, ds.train_X)
        before = target.copy()
        train_edge_kd(edge, adapter, ds.train_X, ds.train_y, target,
                      TrainConfig(4, 32, 0.1), seed=seeds["edge_train"])
        assert nncore.params_digest(cloud.params()) == digest
        assert np.array_equal(target, before)
        assert np.array_equal(before, cloud_targets(cloud, adapter.cloud_tap, ds.train_X))

    def test_gradient_regions(self):
        # layers after the tap: classifier gradient only; layers at or before
        # the tap: both; adapter: imitation gradient only.
        ds, edge, cloud, adapter, _ = kd_setup(3)
        X, y = ds.train_X[:32], ds.train_y[:32]
        _, cloud_feat = models.infer_with_tap(cloud, X, adapter.cloud_tap)
        tape = GradientTape()
        h = tape.input(X)
        tap_node = None
        for i, layer in enumerate(edge.layers):
            h = nncore.layer_on_tape(tape, layer, h)
            if i == adapter.edge_tap:
                tap_node = h
        ce = train.ce_on_tape(tape, h, y)
        adapted = train.adapter_on_tape(tape, adapter, tap_node)
        kd = train.kd_on_tape(tape, adapted, nncore.sigmoid(cloud_feat))
        g_ce = param_grads(tape, ce)
        g_kd = param_grads(tape, kd)
        head = edge.layers[-1]
        hidden = edge.layers[0]
        for p in head.params():
            assert not g_kd[p].any()
            assert np.abs(g_ce[p]).max() > 0
        assert any(np.abs(g_kd[p]).max() > 0 for p in hidden.params())
        for p in adapter.params():
            assert not g_ce[p].any()
        assert any(np.abs(g_kd[p]).max() > 0 for p in adapter.params())

    @pytest.mark.parametrize("kd_weight, recall_boost, message", [
        (0.0, True, "kd_weight: must be > 0 when recall_boost is on"),
        (-0.5, False, "kd_weight: must be >= 0"),
    ])
    def test_edge_objectives_checked(self, kd_weight, recall_boost, message):
        ds, edge, cloud, adapter, seeds = kd_setup(4)
        target = cloud_targets(cloud, adapter.cloud_tap, ds.train_X)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            train_edge_kd(edge, adapter, ds.train_X, ds.train_y, target,
                          TrainConfig(2, 32, 0.1), seed=1, kd_weight=kd_weight,
                          recall_boost=recall_boost)

    def test_recall_boost_bundle_runs_and_logs_alphas(self):
        ds, edge, cloud, adapter, seeds = kd_setup(5)
        result = train_edge_kd(edge, adapter, ds.train_X, ds.train_y,
                               cloud_targets(cloud, adapter.cloud_tap, ds.train_X),
                               TrainConfig(2, 32, 0.1), seed=seeds["edge_train"],
                               kd_weight=0.5, recall_boost=True)
        assert len(result.history) == 3 and result.history[0].alpha is None
        assert all(on_simplex(row.alpha, 3) for row in result.history[1:])


def zero_epoch_finetune(edge, cloud, adapter, X, y):
    """Stage 3 after a zero-epoch stage 2 on well-shaped targets, so that only
    its own checks can refuse."""
    target = np.full((len(X), adapter.projection.out_dim), 0.5)
    kd_result = train_edge_kd(edge, adapter, X, y, target, TrainConfig(0, 32, 0.1), seed=0)
    return finetune_adapter(kd_result, cloud, TrainConfig(1, 32, 0.1), seed=0)


def edge_kd(**kwargs):
    return lambda edge, cloud, adapter, X, y: train_edge_kd(
        edge, adapter, X, y, np.full((len(X), 12), 0.5), TrainConfig(1, 32, 0.1), seed=0,
        **kwargs)


# Every entry that cuts a net at an adapter's tap, and the net whose tap it
# cuts. kd_setup's edge has 2 layers and its cloud 3. Sliced unchecked, edge
# tap 2 would make the whole edge the "prefix" and the KD term would train
# on its logits, and tap -1 would cut before the head.
TAP_ENTRIES = {
    "tap_dim": ("edge", lambda edge, cloud, adapter, X, y: edge.tap_dim(adapter.edge_tap)),
    "infer_with_tap": ("edge", lambda edge, cloud, adapter, X, y:
                       models.infer_with_tap(edge, X, adapter.edge_tap)),
    "cloud_tail": ("cloud", lambda edge, cloud, adapter, X, y:
                   models.cloud_tail(cloud, np.zeros((len(X), 12)), adapter.cloud_tap)),
    "route_costs-edge": ("edge", lambda edge, cloud, adapter, X, y:
                         route_costs(edge, cloud, adapter)),
    "route_costs-cloud": ("cloud", lambda edge, cloud, adapter, X, y:
                          route_costs(edge, cloud, adapter)),
    "route_dataset-edge": ("edge", lambda edge, cloud, adapter, X, y:
                           route_dataset(edge, cloud, adapter, X)),
    "route_dataset-cloud": ("cloud", lambda edge, cloud, adapter, X, y:
                            route_dataset(edge, cloud, adapter, X)),
    "train_base": ("cloud", lambda edge, cloud, adapter, X, y:
                   train_base(cloud, X, y, TrainConfig(1, 32, 0.1), seed=0,
                              tap=adapter.cloud_tap)),
    "train_edge_kd": ("edge", edge_kd()),
    # skips the imitation branch, so only the fit rule sees the projection
    "train_edge_kd-kd0": ("edge", edge_kd(kd_weight=0.0)),
    "finetune_adapter": ("cloud", zero_epoch_finetune),
    "evaluate_adaptive_path-edge": ("edge", evaluate_adaptive_path),
    "evaluate_adaptive_path-cloud": ("cloud", evaluate_adaptive_path),
}
# The entries that pair an adapter with a net, and so check that it fits.
FIT_ENTRIES = ["route_costs-edge", "route_costs-cloud", "route_dataset-edge",
               "route_dataset-cloud", "train_edge_kd", "train_edge_kd-kd0", "finetune_adapter",
               "evaluate_adaptive_path-edge", "evaluate_adaptive_path-cloud"]


@pytest.mark.parametrize("bad", [-1, "past the head", 2_000])
@pytest.mark.parametrize("entry", list(TAP_ENTRIES))
def test_a_bad_tap_is_refused_with_one_error_at_every_entry(entry, bad):
    side, call = TAP_ENTRIES[entry]
    ds, edge, cloud, _, _ = kd_setup(8, n=100)
    tap = len((edge if side == "edge" else cloud).layers) if bad == "past the head" else bad
    taps = {"edge": 0, "cloud": 1, side: tap}
    adapter = make_adapter("a", taps["edge"], taps["cloud"], 5, 12, 1, np.random.default_rng(0))
    nets = edge.params() + cloud.params() + adapter.params()
    before = nncore.params_digest(nets)
    with pytest.raises(ConfigError, match=f"^tap {tap} out of range for '{side}'$"):
        call(edge, cloud, adapter, ds.train_X, ds.train_y)
    assert nncore.params_digest(nets) == before


@pytest.mark.parametrize("off", [1, -1], ids=["wider", "narrower"])
@pytest.mark.parametrize("entry", FIT_ENTRIES)
def test_a_misfit_adapter_is_refused_with_one_error_at_every_entry(entry, off):
    # kd_setup's edge tap 0 is 5 wide and its cloud tap 1 is 12 wide
    side, call = TAP_ENTRIES[entry]
    ds, edge, cloud, _, _ = kd_setup(8, n=100)
    tap, width, verb = (0, 5, "reads") if side == "edge" else (1, 12, "writes")
    dims = {"edge": 5, "cloud": 12, side: width + off}
    adapter = make_adapter("a", 0, 1, dims["edge"], dims["cloud"], 1, np.random.default_rng(0))
    nets = edge.params() + cloud.params() + adapter.params()
    before = nncore.params_digest(nets)
    with pytest.raises(ConfigError, match=f"^adapter 'a' does not fit '{side}': tap {tap} is "
                                          f"{width} wide, its projection {verb} {width + off}$"):
        call(edge, cloud, adapter, ds.train_X, ds.train_y)
    assert nncore.params_digest(nets) == before


@pytest.mark.parametrize("label", [-1, 4])
def test_stages_refuse_a_label_outside_the_classes_before_any_step(label):
    ds, edge, cloud, adapter, _ = kd_setup(8, n=100)
    X, y = ds.train_X, ds.train_y
    y[3] = label  # kd_setup's nets have 4 classes
    target = cloud_targets(cloud, adapter.cloud_tap, X)
    cfg = TrainConfig(1, 32, 0.1)
    nets = edge.params() + cloud.params() + adapter.params()
    before = nncore.params_digest(nets)
    for call in (lambda: train_base(cloud, X, y, cfg, seed=0),
                 lambda: train_base(cloud, X, y, cfg, seed=0, tap=adapter.cloud_tap),
                 lambda: train_edge_kd(edge, adapter, X, y, target, cfg, seed=0),
                 lambda: train_edge_kd(edge, adapter, X, y, target, cfg, seed=0,
                                       kd_weight=0.5, recall_boost=True),
                 lambda: evaluate_model(edge, X, y)):
        with pytest.raises(UsageError, match=f"^label {label} out of range for 4 classes$"):
            call()
    assert nncore.params_digest(nets) == before


@pytest.mark.parametrize("epochs", [0, 2])
@pytest.mark.parametrize("stage", ["train_base", "train_edge_kd"])
def test_a_stage_hands_on_its_last_reports_carry_and_no_step_sees_one(monkeypatch, stage,
                                                                       epochs):
    ds, edge, cloud, adapter, _ = kd_setup(8, n=100)
    X, y, cfg = ds.train_X, ds.train_y, TrainConfig(epochs, 32, 0.1)
    target = cloud_targets(cloud, adapter.cloud_tap, X)
    carried, steps, handed = [], [], []  # per report, weakrefs to the arrays it carries
    infer_with_tap, adapt, ce_on_tape = train.infer_with_tap, train.adapt, train.ce_on_tape

    def report_pass(model, X, tap):
        probs, feature = infer_with_tap(model, X, tap)
        carried.append([weakref.ref(feature)])
        return probs, feature

    def adapter_pass(adapter, feature):
        adapted = adapt(adapter, feature)
        carried[-1].append(weakref.ref(adapted))
        return adapted

    def step(*args):
        # every report so far ran before this epoch's steps; its carry is gone
        steps.append([ref() is None for refs in carried for ref in refs])
        return ce_on_tape(*args)

    def targets(feature):
        handed.append(feature is carried[-1][0]())
        return kd_targets(feature)

    monkeypatch.setattr(train, "infer_with_tap", report_pass)
    monkeypatch.setattr(train, "adapt", adapter_pass)
    monkeypatch.setattr(train, "ce_on_tape", step)
    monkeypatch.setattr(train, "kd_targets", targets)
    if stage == "train_base":
        result = train_base(cloud, X, y, cfg, seed=0, tap=adapter.cloud_tap)
        assert handed == [True] and result.target is not None
        assert [len(refs) for refs in carried] == [1] * (epochs + 1)
    else:
        result = train_edge_kd(edge, adapter, X, y, target, cfg, seed=0)
        last = [ref() for ref in carried[-1]]
        assert result.handoff.edge_feature is last[0] and result.handoff.adapted is last[1]
        assert result.handoff.kd == result.final.kd_loss
        assert [len(refs) for refs in carried] == [2] * (epochs + 1)
    assert len(steps) == epochs * math.ceil(len(X) / 32)
    assert all(all(dead) for dead in steps)
    assert all(ref() is None for refs in carried[:-1] for ref in refs)


def untrained_stage_2(ds, edge, cloud, adapter, *, kd_weight=1.0):
    """A zero-epoch stage 2's result carrying its hand-off."""
    target = cloud_targets(cloud, adapter.cloud_tap, ds.train_X)
    return train_edge_kd(edge, adapter, ds.train_X, ds.train_y, target,
                         TrainConfig(0, 32, 0.1), seed=0, kd_weight=kd_weight)


class TestFinetuneAdapter:
    def test_zero_epochs_is_a_no_op(self):
        ds, edge, cloud, adapter, seeds = kd_setup(6)
        e0 = nncore.params_digest(edge.params())
        c0 = nncore.params_digest(cloud.params())
        a0 = nncore.params_digest(adapter.params())
        kd_result = untrained_stage_2(ds, edge, cloud, adapter)
        finetune_adapter(kd_result, cloud, TrainConfig(0, 32, 0.05), seed=1)
        assert nncore.params_digest(edge.params()) == e0
        assert nncore.params_digest(cloud.params()) == c0
        assert nncore.params_digest(adapter.params()) == a0

    def test_frozen_region_hash_unchanged_after_training(self):
        ds, edge, cloud, adapter, seeds = kd_setup(7)
        n = adapter.cloud_tap
        edge_digest = nncore.params_digest(edge.params())
        prefix = [p for layer in cloud.layers[:n + 1] for p in layer.params()]
        prefix_digest = nncore.params_digest(prefix)
        tail = [p for layer in cloud.layers[n + 1:] for p in layer.params()]
        tail_digest = nncore.params_digest(tail)
        kd_result = untrained_stage_2(ds, edge, cloud, adapter)
        finetune_adapter(kd_result, cloud, TrainConfig(10, 32, 0.05), seed=seeds["finetune"])
        assert nncore.params_digest(edge.params()) == edge_digest
        assert nncore.params_digest(prefix) == prefix_digest
        assert nncore.params_digest(tail) != tail_digest

    def test_the_hand_off_is_read_only_and_serves_one_call(self):
        ds, edge, cloud, adapter, _ = kd_setup(9, n=100)
        kd_result = untrained_stage_2(ds, edge, cloud, adapter)
        handoff = kd_result.handoff
        # it carries what stage 2 trained on, and its report's arrays read-only
        assert handoff.adapter is adapter
        assert handoff.target.tobytes() == \
            cloud_targets(cloud, adapter.cloud_tap, ds.train_X).tobytes()
        assert np.array_equal(handoff.y, ds.train_y)
        for arr in (handoff.edge_feature, handoff.adapted):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.5
        cfg = TrainConfig(1, 32, 0.05)
        finetune_adapter(kd_result, cloud, cfg, seed=0)
        assert kd_result.handoff is None
        with pytest.raises(UsageError, match="no hand-off"):
            finetune_adapter(kd_result, cloud, cfg, seed=0)
        base = train_base(edge, ds.train_X, ds.train_y, TrainConfig(0, 32, 0.1), seed=0)
        with pytest.raises(UsageError, match="no hand-off"):
            finetune_adapter(base, cloud, cfg, seed=0)


class TestRecallBoost:
    def test_requires_both_sample_kinds(self):
        edge = feedforward("edge", 4, [5], 3, np.random.default_rng(0))
        X = np.random.default_rng(1).standard_normal((10, 4))
        with pytest.raises(UsageError):
            train_recall_boost(edge, X, np.zeros(10, dtype=int), TrainConfig(1, 4, 0.1), seed=0)
        with pytest.raises(UsageError):
            train_recall_boost(edge, X, np.ones(10, dtype=int), TrainConfig(1, 4, 0.1), seed=0)

    def test_identical_objectives_combine_to_the_shared_gradient(self):
        # all-positive batch: the restricted loss is the full loss, so the
        # weighted combination equals the common gradient bit for bit.
        edge = feedforward("edge", 4, [5], 3, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        X = rng.standard_normal((16, 4))
        y = rng.integers(1, 3, 16)
        tape = GradientTape()
        logits = nncore.forward_on_tape(tape, edge.layers, tape.input(X))
        ce = train.ce_on_tape(tape, logits, y)
        pos = train.positive_ce_on_tape(tape, logits, y)
        flat1 = nncore.adjoints(tape, ce, np.empty(tape.size))
        flat2 = nncore.adjoints(tape, pos, np.empty(tape.size))
        assert np.array_equal(flat1, flat2)
        from edgecloud.moo import solve_min_norm
        _, combined = solve_min_norm(np.stack([flat1, flat2]))
        assert np.array_equal(combined, flat1)

    def test_single_row_batches_step_like_train_base(self, monkeypatch):
        # a normal row has no positive-CE objective, so the step follows CE
        # alone; a positive row's positive CE equals its CE, so the min-norm
        # step is that same gradient. Either way: train_base, bit for bit.
        ds = gen_dataset(DataConfig(3, 6, 60, 0.5, 0.4), seed=21)
        boosted = feedforward("edge", 6, [5], 3, np.random.default_rng(6))
        plain = copy.deepcopy(boosted)
        cfg = TrainConfig(2, 1, 0.1)
        solves = recorded_solves(monkeypatch)
        train_recall_boost(boosted, ds.train_X, ds.train_y, cfg, seed=7)
        train_base(plain, ds.train_X, ds.train_y, cfg, seed=7)
        assert params_equal(boosted, plain)
        positives = int((ds.train_y != 0).sum())
        assert 0 < positives < len(ds.train_y)
        # one solve per positive row, none of them on an all-zero bundle
        assert len(solves) == cfg.epochs * positives
        assert all(bundle.any() for bundle, _, _ in solves)

    def test_descent_condition_holds_and_alphas_are_logged(self, monkeypatch):
        ds = gen_dataset(DataConfig(3, 6, 400, 0.4, 0.4), seed=20)
        edge = feedforward("edge", 6, [5], 3, np.random.default_rng(4))
        solves = recorded_solves(monkeypatch)
        result = train_recall_boost(edge, ds.train_X, ds.train_y,
                                    TrainConfig(3, 32, 0.1), seed=5)
        assert solves
        for bundle, alpha, combined in solves:
            assert check_descent(bundle, combined)[0]
            assert on_simplex(alpha, 2)
        assert all(on_simplex(row.alpha, 2) for row in result.history[1:])


@pytest.fixture(scope="module")
def trend_runs():
    """Five-seed trend experiment shared by the trend assertions below."""
    out = {"r2": [], "r0": [], "ft": [], "plain_recall": [], "rb_recall": []}
    for seed in range(5):
        seeds = harness.derive_seeds(seed)
        ds = gen_dataset(DataConfig(5, 12, 4000, 0.4, 0.55), seeds["dataset"])
        edge = feedforward("edge", 12, [6], 5, np.random.default_rng(seeds["edge_init"]))
        cloud = feedforward("cloud", 12, [32] * 3, 5,
                            np.random.default_rng(seeds["cloud_init"]))
        ad2 = make_adapter("a2", 0, 1, 6, 32, 2, np.random.default_rng(seeds["adapter_init"]))
        ad0 = make_adapter("a0", 0, 1, 6, 32, 0, np.random.default_rng(seeds["adapter_init"]))
        train_base(cloud, ds.train_X, ds.train_y,
                   TrainConfig(20, 64, 0.1), seed=seeds["cloud_train"])
        cfg, seed = TrainConfig(20, 64, 0.1), seeds["edge_train"]
        e2, e0 = copy.deepcopy(edge), copy.deepcopy(edge)
        erb, epl = copy.deepcopy(edge), copy.deepcopy(edge)
        target = cloud_targets(cloud, ad2.cloud_tap, ds.train_X)
        kd2 = train_edge_kd(e2, ad2, ds.train_X, ds.train_y, target, cfg, seed=seed, kd_weight=0.5)
        train_edge_kd(e0, ad0, ds.train_X, ds.train_y, target, cfg, seed=seed, kd_weight=0.5)
        train_base(epl, ds.train_X, ds.train_y, cfg, seed=seed)
        train_recall_boost(erb, ds.train_X, ds.train_y, cfg, seed=seed)
        out["r2"].append(evaluate_model(e2, ds.val_X, ds.val_y).ce_loss)
        out["r0"].append(evaluate_model(e0, ds.val_X, ds.val_y).ce_loss)
        plain_rep = evaluate_model(epl, ds.val_X, ds.val_y)
        out["plain_recall"].append(plain_rep.recall)
        out["rb_recall"].append(evaluate_model(erb, ds.val_X, ds.val_y).recall)
        before = evaluate_adaptive_path(e2, cloud, ad2, ds.val_X, ds.val_y)
        finetune_adapter(kd2, cloud, TrainConfig(8, 64, 0.05), seed=seeds["finetune"])
        after = evaluate_adaptive_path(e2, cloud, ad2, ds.val_X, ds.val_y)
        out["ft"].append((before.accuracy, after.accuracy))
    return out


class TestTrends:
    def test_deep_adapter_beats_plain_adapter_on_median_val_loss(self, trend_runs):
        assert np.median(trend_runs["r2"]) <= np.median(trend_runs["r0"])

    def test_finetune_improves_adaptive_path_accuracy(self, trend_runs):
        deltas = [after - before for before, after in trend_runs["ft"]]
        assert np.median(deltas) >= 0.0

    def test_recall_boost_raises_median_recall(self, trend_runs):
        assert np.median(trend_runs["rb_recall"]) >= np.median(trend_runs["plain_recall"])


class TestTrainingLog:
    def test_csv_has_one_row_per_epoch(self, tmp_path):
        ds = gen_dataset(DataConfig(2, 4, 200, 0.5, 0.5), seed=30)
        edge = blob_edge(7)
        result = train_base(edge, ds.train_X, ds.train_y, TrainConfig(3, 32, 0.1), seed=8)
        path = tmp_path / "log.csv"
        train.write_training_log(path, result)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,ce,kd,positive_ce,acc,recall"
        assert len(lines) == 1 + 4  # header + epochs 0..3

    def test_csv_includes_alpha_columns_for_moo(self, tmp_path):
        ds = gen_dataset(DataConfig(3, 6, 300, 0.4, 0.4), seed=31)
        edge = feedforward("edge", 6, [5], 3, np.random.default_rng(9))
        result = train_recall_boost(edge, ds.train_X, ds.train_y,
                                    TrainConfig(2, 32, 0.1), seed=10)
        path = tmp_path / "log.csv"
        train.write_training_log(path, result)
        header = path.read_text().splitlines()[0]
        assert header.endswith("alpha_1,alpha_2")


# ---------------------------------------------------------------------------
# The fused loss entries against the reference chain.

def reference_positive_ce(tape, logits, labels):
    idx = np.flatnonzero(labels != models.NORMAL_CLASS)
    return reference_ce(tape, nncore.op_rows(tape, logits, idx), labels[idx]) if idx.size else None


def reference_stack(tape, layers, x):
    for layer in layers:
        x = reference_layer(tape, layer, x)
    return x


FUSED = (nncore.forward_on_tape, train.ce_on_tape, train.positive_ce_on_tape, train.kd_on_tape)
REFERENCE = (reference_stack, reference_ce, reference_positive_ce, reference_kd)


class TestFusedLossEntries:
    """``ce_on_tape`` and ``kd_on_tape`` record one entry each. The edge-KD
    objectives built from them and from ``forward_on_tape`` stacks, on an
    edge tap that feeds both the edge tail and the adapter, give the
    reference chain's values and adjoints bit for bit."""

    def objectives(self, ops, edge, adapter, X, y, target):
        """The weighted edge-KD objective, then cross-entropy, the imitation
        loss and positive cross-entropy (when the batch has a positive row)
        on one tape: their values, gradient rows and the tape's entry count."""
        stack_op, ce_op, positive_ce_op, kd_op = ops
        tape = GradientTape(edge.params() + adapter.params())
        tap = stack_op(tape, edge.layers[:adapter.edge_tap + 1], tape.input(X))
        logits = stack_op(tape, edge.layers[adapter.edge_tap + 1:], tap)
        adapted = stack_op(tape, adapter.layers(), tap)
        ce, kd = ce_op(tape, logits, y), kd_op(tape, adapted, target)
        seeds = [nncore.op_add(tape, ce, nncore.op_scale(tape, kd, 0.5)), ce, kd]
        positive = positive_ce_op(tape, logits, y)
        seeds += [positive] if positive is not None else []
        rows = [nncore.adjoints(tape, node, np.empty(tape.size)) for node in seeds]
        return [node.value for node in seeds], rows, len(tape._entries)

    @pytest.mark.parametrize("rows, scale", [(1, 1.0), (12, 1.0), (12, 60.0)],
                             ids=["one-row", "batch", "saturated"])
    def test_heads_match_the_reference_chain(self, rows, scale):
        # at scale 60 some picked probabilities fall below LOG_EPS and some
        # adapted sigmoids round to 1, so both clamps cut
        rng = np.random.default_rng(60)
        edge = feedforward("edge", 6, [5], 3, rng)
        adapter = make_adapter("a", 0, 1, 5, 8, 1, rng)
        X = rng.standard_normal((rows, 6)) * scale
        y = rng.integers(0, 3, rows) if rows > 1 else np.array([1])
        target = nncore.sigmoid(rng.standard_normal((rows, 8)) * 3.0)
        got = self.objectives(FUSED, edge, adapter, X, y, target)
        want = self.objectives(REFERENCE, edge, adapter, X, y, target)
        assert len(got[0]) == len(want[0]) == 4
        for a, b in zip(got[0], want[0]):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got[1], want[1]):
            assert a.tobytes() == b.tobytes()
        assert got[2] == 3 + 6  # three stacks; ce, kd, scale, add, rows, positive ce
        if scale > 1.0:
            probs, feat = models.infer_with_tap(edge, X, 0)
            assert (probs[np.arange(rows), y] < train.LOG_EPS).any()
            assert (nncore.sigmoid(models.adapt(adapter, feat)) > 1.0 - train.LOG_EPS).any()


class TestSignExactLossGradients:
    """The gradient a step takes into its logits from ``ce_on_tape``, alone
    and on an ``op_rows`` subset of positive rows, is the reference chain's
    bit for bit, signed zeros included, on rows whose picked probability
    lies inside the clamp and on rows where it falls below ``LOG_EPS`` or
    above ``1 - LOG_EPS``."""

    def logits_grad(self, loss_op, logits, y):
        tape = GradientTape()
        leaf = nncore.Param("logits", logits)
        node = loss_op(tape, tape.param(leaf), y)
        return nncore.adjoints(tape, node, np.empty(tape.size))

    @pytest.mark.parametrize("seed", range(6))
    def test_ce_and_positive_ce_match_the_reference_chain(self, seed):
        rng = np.random.default_rng(70 + seed)
        rows, classes = 40, 4
        logits = rng.standard_normal((rows, classes)) * rng.choice([0.5, 5.0, 40.0, 80.0], (rows, 1))
        y = rng.integers(0, classes, rows)
        y[:2] = models.NORMAL_CLASS
        probs = nncore.softmax(logits)
        picked = probs[np.arange(rows), y]
        assert (picked < train.LOG_EPS).any() and (picked > 1.0 - train.LOG_EPS).any()
        assert ((picked >= train.LOG_EPS) & (picked <= 1.0 - train.LOG_EPS)).any()
        got = self.logits_grad(train.ce_on_tape, logits, y)
        assert got.tobytes() == self.logits_grad(reference_ce, logits, y).tobytes()
        assert (np.signbit(got) & (got == 0.0)).any()  # saturated rows' negative zeros
        got = self.logits_grad(train.positive_ce_on_tape, logits, y)
        assert got.tobytes() == self.logits_grad(reference_positive_ce, logits, y).tobytes()


# ---------------------------------------------------------------------------
# Training reports against the public evaluators, and the passes they cost.

def tiny_stage_inputs():
    plan = tiny_plan()
    ds = harness.build_dataset(plan)
    edge, cloud, adapter = harness.build_models(plan)
    return plan, ds.train_X, ds.train_y, edge, cloud, adapter


def edge_kd_oracle(edge, cloud, adapter, X, y, alpha):
    _, edge_feat = models.infer_with_tap(edge, X, adapter.edge_tap)
    _, cloud_feat = models.infer_with_tap(cloud, X, adapter.cloud_tap)
    kd = kd_loss(cloud_feat, models.adapt(adapter, edge_feat))
    return dataclasses.replace(evaluate_model(edge, X, y), kd_loss=kd, alpha=alpha)


class TestReportsMatchEvaluators:
    """History rows equal what ``evaluate_model``, ``evaluate_adaptive_path``
    and ``kd_loss`` compute on the model state at that point, exactly."""

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("recall_boost", [False, True])
    def test_every_stage_on_the_tiny_plan(self, epochs, recall_boost):
        plan, X, y, edge, cloud, adapter = tiny_stage_inputs()
        sc = plan.stages

        first = evaluate_model(cloud, X, y)
        result = train_base(cloud, X, y, dataclasses.replace(sc["cloud"], epochs=epochs), seed=1)
        assert result.history[0] == first
        assert result.history[-1] == evaluate_model(cloud, X, y)

        first = edge_kd_oracle(edge, cloud, adapter, X, y, None)
        cfg = dataclasses.replace(sc["edge_kd"], epochs=epochs)
        target = cloud_targets(cloud, adapter.cloud_tap, X)
        edge_kd_result = result = train_edge_kd(edge, adapter, X, y, target, cfg, seed=2,
                                                kd_weight=plan.kd_weight,
                                                recall_boost=recall_boost)
        # the weights are checked against the steps in TestMultiObjectiveSteps
        alpha = result.history[-1].alpha
        assert (alpha is not None) == bool(recall_boost and epochs)
        assert result.history[0] == first
        assert result.history[-1] == edge_kd_oracle(edge, cloud, adapter, X, y, alpha)

        first = evaluate_adaptive_path(edge, cloud, adapter, X, y)
        result = finetune_adapter(edge_kd_result, cloud,
                                  dataclasses.replace(sc["finetune"], epochs=epochs), seed=3)
        assert result.history[0] == first
        assert result.history[-1] == evaluate_adaptive_path(edge, cloud, adapter, X, y)
        assert len(result.history) == epochs + 1

    def test_finetune_row_0_after_edge_kd_without_imitation(self):
        # with kd_weight 0 stage 2 reports kd 0.0 and runs no adapter, so
        # fine-tuning computes row 0's adapted feature and KD term itself
        plan, X, y, edge, cloud, adapter = tiny_stage_inputs()
        target = cloud_targets(cloud, adapter.cloud_tap, X)
        result = train_edge_kd(edge, adapter, X, y, target, plan.stages["edge_kd"], seed=2,
                               kd_weight=0.0)
        assert result.final.kd_loss == 0.0
        first = evaluate_adaptive_path(edge, cloud, adapter, X, y)
        result = finetune_adapter(result, cloud,
                                  dataclasses.replace(plan.stages["finetune"], epochs=1), seed=3)
        assert first.kd_loss > 0.0
        assert result.history[0] == first


def layers_of(net):
    """A model's layer list, or an adapter's."""
    return net.layers() if callable(net.layers) else net.layers


class PassCounter:
    """Counts the layers of untaped ``forward`` passes per (model or adapter,
    layer index): the forward passes training makes outside its tapes."""

    def __init__(self, monkeypatch, *nets):
        self.calls = {}
        index = {id(layer): (net.name, i) for net in nets for i, layer in enumerate(layers_of(net))}
        original = nncore.forward

        def counted(layers, x):
            for layer in layers:
                key = index.get(id(layer))
                if key is not None:
                    self.calls[key] = self.calls.get(key, 0) + 1
            return original(layers, x)

        monkeypatch.setattr(nncore, "forward", counted)

    def runs(self, net, layers):
        """Calls of each of ``net``'s layers with an index in ``layers``."""
        return [self.calls.get((net.name, i), 0) for i in layers]


class TestReportPasses:
    EPOCHS = 3

    def small_setup(self):
        ds = gen_dataset(DataConfig(3, 6, 120, 0.5, 0.4), seed=40)
        edge = feedforward("edge", 6, [5], 3, np.random.default_rng(41))
        cloud = feedforward("cloud", 6, [8, 8], 3, np.random.default_rng(42))
        adapter = make_adapter("a", 0, 1, 5, 8, 1, np.random.default_rng(43))
        return ds.train_X, ds.train_y, edge, cloud, adapter

    def test_train_stages_runs_the_cloud_prefix_in_stage_1_reports_only(self, monkeypatch):
        # stage 1 reports run the whole cloud once per history row, and the
        # last one's tap feature gives both KD stages their targets; only
        # fine-tune reports run the tail after that
        plan = tiny_plan()
        ds = harness.build_dataset(plan)
        edge, cloud, adapter = harness.build_models(plan)
        counter = PassCounter(monkeypatch, cloud)
        results = harness.train_stages(plan, ds, edge, cloud, adapter)
        stage_1 = len(results["cloud"].history)
        n = adapter.cloud_tap
        assert counter.runs(cloud, range(n + 1)) == [stage_1] * (n + 1)
        tail = range(n + 1, len(cloud.layers))
        assert counter.runs(cloud, tail) == [stage_1 + len(results["finetune"].history)] * len(tail)

    @pytest.mark.parametrize("change", ["none", "cloud-epochs-0", "kd-weight-0"])
    def test_train_stages_hand_both_kd_stages_the_trained_clouds_targets(self, monkeypatch,
                                                                          change):
        # the targets come from the cloud stage's last report (row 0 when it
        # trains no epoch) and equal a fresh prefix pass of the trained
        # cloud bit for bit; fine-tuning leaves that prefix as it was
        plan = tiny_plan()
        if change == "cloud-epochs-0":
            plan = with_cloud_epochs(plan, 0)
        elif change == "kd-weight-0":
            plan = dataclasses.replace(plan, kd_weight=0.0)
        handed = []
        edge_kd, finetune = train.train_edge_kd, train.finetune_adapter

        def recording_edge_kd(*args, **kwargs):
            handed.append((args[4], args[4].copy()))  # the targets come fifth
            return edge_kd(*args, **kwargs)

        def recording_finetune(edge_kd_result, *args, **kwargs):
            target = edge_kd_result.handoff.target
            handed.append((target, target.copy()))
            return finetune(edge_kd_result, *args, **kwargs)

        monkeypatch.setattr(train, "train_edge_kd", recording_edge_kd)
        monkeypatch.setattr(train, "finetune_adapter", recording_finetune)
        ds = harness.build_dataset(plan)
        edge, cloud, adapter = harness.build_models(plan)
        results = harness.train_stages(plan, ds, edge, cloud, adapter)
        assert len(results["cloud"].history) == plan.stages["cloud"].epochs + 1
        (kd_target, kd_copy), (ft_target, ft_copy) = handed
        assert results["cloud"].target is kd_target
        assert ft_target is kd_target
        want = nncore.sigmoid(nncore.forward(cloud.layers[:adapter.cloud_tap + 1], ds.train_X))
        assert kd_copy.tobytes() == ft_copy.tobytes() == want.tobytes()

    def test_train_stages_reuse_the_thread_workspace(self, monkeypatch):
        # every full-split pass of a train takes its buffers from the
        # thread's one workspace, which an earlier train in this thread may
        # have made; a second train of the same plan allocates no buffer
        taken = []
        array = nncore.Scratch.array

        def recording_array(self, slot, shape):
            view = array(self, slot, shape)
            taken.append((self, slot, self._buffers[slot]))
            return view

        monkeypatch.setattr(nncore.Scratch, "array", recording_array)
        plan = tiny_plan()
        plan.stages = {name: dataclasses.replace(cfg, epochs=self.EPOCHS)
                       for name, cfg in plan.stages.items()}
        ds = harness.build_dataset(plan)

        def run():
            taken.clear()
            results = harness.train_stages(plan, ds, *harness.build_models(plan))
            assert [len(r.history) for r in results.values()] == [self.EPOCHS + 1] * 3
            assert len({id(scratch) for scratch, _, _ in taken}) == 1
            # each report of the three stages asks for at least one slot
            assert len(taken) > 3 * (self.EPOCHS + 1)
            return taken[0][0], [r.history for r in results.values()]

        scratch, first = run()
        buffers = list(scratch._buffers)
        assert run() == (scratch, first)
        assert all(now is then for now, then in zip(scratch._buffers, buffers))
        assert all(buf is buffers[slot] for _, slot, buf in taken)
        assert {slot for _, slot, _ in taken} == {0, 1, 2}

    def test_the_cloud_stages_targets_share_no_memory_with_the_workspace(self):
        # train_stages returns the KD targets on the cloud stage's result as
        # an ordinary read-only array, which no later pass can rewrite
        plan = tiny_plan()
        results = harness.train_stages(plan, harness.build_dataset(plan),
                                       *harness.build_models(plan))
        target = results["cloud"].target
        assert target is not None and not target.flags.writeable
        assert not any(np.shares_memory(target, buf) for buf in nncore.workspace()._buffers)

    def test_threads_train_as_they_would_one_after_the_other(self):
        # each thread trains in its own workspace, so three trains at once,
        # switching threads often, give what they give one after the other
        seeds = (0, 1, 2)

        def trained(seed, start):
            plan = tiny_plan(seed)
            edge, cloud, adapter = harness.build_models(plan)
            start.wait(timeout=60)
            results = harness.train_stages(plan, harness.build_dataset(plan), edge, cloud, adapter)
            return ([r.history for r in results.values()],
                    [nncore.params_digest(m.params()) for m in (edge, cloud, adapter)])

        alone = [trained(seed, threading.Barrier(1)) for seed in seeds]
        start, interval = threading.Barrier(len(seeds)), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
                futures = [pool.submit(trained, seed, start) for seed in seeds]
                together = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == alone

    @pytest.mark.parametrize("kd_weight", [1.0, 0.0])
    def test_train_stages_runs_the_edge_in_edge_kd_reports_only(self, monkeypatch, kd_weight):
        # the edge runs once per edge-KD history row and never in
        # fine-tuning; with imitation, fine-tuning's row 0 reuses the last
        # edge-KD report's adapted feature, so the adapter runs one pass
        # less than the two stages' rows; without, edge KD never runs it
        plan = dataclasses.replace(tiny_plan(), kd_weight=kd_weight)
        plan.stages = {name: dataclasses.replace(cfg, epochs=self.EPOCHS)
                       for name, cfg in plan.stages.items()}
        ds = harness.build_dataset(plan)
        edge, cloud, adapter = harness.build_models(plan)
        counter = PassCounter(monkeypatch, edge, adapter)
        results = harness.train_stages(plan, ds, edge, cloud, adapter)
        kd_rows, ft_rows = len(results["edge_kd"].history), len(results["finetune"].history)
        assert kd_rows == ft_rows == self.EPOCHS + 1
        assert counter.runs(edge, range(len(edge.layers))) == [kd_rows] * len(edge.layers)
        passes = kd_rows + ft_rows - 1 if kd_weight else ft_rows
        width = len(adapter.layers())
        assert counter.runs(adapter, range(width)) == [passes] * width
        assert results["edge_kd"].handoff is None

    @pytest.mark.parametrize("kd_weight", [1.0, 0.0])
    def test_finetune_runs_no_edge_or_cloud_prefix_layer(self, monkeypatch, kd_weight):
        X, y, edge, cloud, adapter = self.small_setup()
        target = cloud_targets(cloud, adapter.cloud_tap, X)
        kd_result = train_edge_kd(edge, adapter, X, y, target, TrainConfig(0, 32, 0.1), seed=0,
                                kd_weight=kd_weight)
        counter = PassCounter(monkeypatch, edge, cloud, adapter)
        result = finetune_adapter(kd_result, cloud, TrainConfig(self.EPOCHS, 32, 0.05), seed=0)
        rows = len(result.history)
        assert rows == self.EPOCHS + 1
        n = adapter.cloud_tap
        assert counter.runs(edge, range(len(edge.layers))) == [0] * len(edge.layers)
        assert counter.runs(cloud, range(n + 1)) == [0] * (n + 1)
        tail = range(n + 1, len(cloud.layers))
        assert counter.runs(cloud, tail) == [rows] * len(tail)
        width = len(adapter.layers())
        assert counter.runs(adapter, range(width)) == [rows - 1 if kd_weight else rows] * width

    @pytest.mark.parametrize("recall_boost", [False, True])
    def test_edge_kd_runs_the_edge_once_per_history_row(self, monkeypatch, recall_boost):
        X, y, edge, cloud, adapter = self.small_setup()
        target = cloud_targets(cloud, adapter.cloud_tap, X)
        counter = PassCounter(monkeypatch, edge, cloud)
        result = train_edge_kd(edge, adapter, X, y, target, TrainConfig(self.EPOCHS, 32, 0.1),
                               seed=0, recall_boost=recall_boost)
        rows = len(result.history)
        assert rows == self.EPOCHS + 1
        assert counter.runs(edge, range(len(edge.layers))) == [rows] * len(edge.layers)
        assert counter.runs(cloud, range(len(cloud.layers))) == [0] * len(cloud.layers)

    def test_kd_targets_are_read_only(self):
        X, _, _, cloud, adapter = self.small_setup()
        target = cloud_targets(cloud, adapter.cloud_tap, X)
        with pytest.raises(ValueError, match="read-only"):
            target[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            target *= 2.0

    def test_kd_targets_held_at_once_keep_their_values(self):
        # each result is a fresh sigmoid: a second one, or a pass through a
        # larger, dirty workspace, leaves the first as it was
        X, _, _, cloud, adapter = self.small_setup()
        feature = nncore.forward(cloud.layers[:adapter.cloud_tap + 1], X)
        scratch = nncore.workspace()
        scratch.array(0, (4 * len(X), 8)).fill(np.nan)  # a larger, dirty layer slot
        first, second = kd_targets(feature), kd_targets(-feature)
        assert first.tobytes() == nncore.sigmoid(feature).tobytes()
        assert second.tobytes() == nncore.sigmoid(-feature).tobytes()
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(target, buf)
                       for target in (first, second) for buf in scratch._buffers)

    @pytest.mark.parametrize("cut", ["rows", "width"])
    def test_a_misshapen_target_is_refused(self, cut):
        X, y, edge, cloud, adapter = self.small_setup()
        target = cloud_targets(cloud, adapter.cloud_tap, X)
        bad = target[:-1] if cut == "rows" else target[:, :-1]
        message = f"target: shape {bad.shape} != (rows, adapter width) {target.shape}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            train_edge_kd(edge, adapter, X, y, bad, TrainConfig(1, 32, 0.1), seed=0)


# ---------------------------------------------------------------------------
# The multi-objective step: gradient replays, solver calls and the update.

class StepRecorder:
    """Per SGD step of a recall-boost stage: the objectives present, whether
    positive cross-entropy is one of them, the gradient rows of its
    ``adjoints`` replays, the solver's bundles, weights and combinations,
    and the trainable params, raveled in order, as the step opens. A step
    opens at its ``positive_ce_on_tape`` call, which every recall-boost
    step makes once, before any replay or update."""

    def __init__(self, monkeypatch, cross_entropies, trainable):
        self.steps = []
        pos_ce, adjoints, solve = train.positive_ce_on_tape, nncore.adjoints, train.solve_min_norm

        def recorded_pos_ce(tape, logits, labels):
            node = pos_ce(tape, logits, labels)
            self.steps.append({"present": cross_entropies + (node is not None),
                               "positive": node is not None, "adjoints": [], "solves": [],
                               "before": flat(trainable)})
            return node

        def recorded_adjoints(tape, node, out):
            row = adjoints(tape, node, out)
            self.steps[-1]["adjoints"].append(row.copy())
            return row

        def recorded_solve(bundle):
            weights, combined = solve(bundle)
            self.steps[-1]["solves"].append((bundle.copy(), weights.copy(), combined.copy()))
            return weights, combined

        monkeypatch.setattr(train, "positive_ce_on_tape", recorded_pos_ce)
        monkeypatch.setattr(nncore, "adjoints", recorded_adjoints)
        monkeypatch.setattr(train, "solve_min_norm", recorded_solve)


def flat(params):
    return np.concatenate([p.value.ravel() for p in params])


class TestMultiObjectiveSteps:
    """On the tiny plan: one ``adjoints`` replay per present objective, one
    solver call per multi-objective step, whose combination is a common
    descent direction of its bundle and whose weights lie on the simplex,
    an update of exactly ``-lr * combined``, sliced per trainable param in
    order, and per epoch a history row carrying the mean of its steps'
    weights by objective slot."""

    def run(self, monkeypatch, stage):
        plan, X, y, edge, cloud, adapter = tiny_stage_inputs()
        sc = plan.stages
        train_base(cloud, X, y, dataclasses.replace(sc["cloud"], epochs=2), seed=1)
        if stage == "kd-edge":
            cfg = dataclasses.replace(sc["edge_kd"], epochs=2)
            trainable = edge.params() + adapter.params()
            recorder = StepRecorder(monkeypatch, 2, trainable)
            result = train_edge_kd(edge, adapter, X, y, cloud_targets(cloud, adapter.cloud_tap, X),
                                   cfg, seed=2, kd_weight=plan.kd_weight, recall_boost=True)
        else:
            # two-row batches: some hold no positive row and step on CE alone
            cfg = TrainConfig(1, 2, 0.1)
            trainable = edge.params()
            recorder = StepRecorder(monkeypatch, 1, trainable)
            result = train_recall_boost(edge, X, y, cfg, seed=2)
        return len(X), cfg, recorder.steps, result, trainable

    @pytest.mark.parametrize("stage", ["kd-edge", "recall-boost"])
    def test_replays_solves_and_update(self, monkeypatch, stage):
        n, cfg, steps, result, trainable = self.run(monkeypatch, stage)
        assert len(steps) == cfg.epochs * math.ceil(n / cfg.batch_size)
        assert any(s["present"] > 1 for s in steps)
        lr = cfg.learning_rate
        afters = [s["before"] for s in steps[1:]] + [flat(trainable)]
        for step, after in zip(steps, afters):
            assert len(step["adjoints"]) == step["present"]
            if step["present"] == 1:
                assert step["solves"] == []
                (row,) = step["adjoints"]
                want = step["before"] - row * lr
            else:
                ((bundle, alpha, combined),) = step["solves"]
                assert np.array_equal(bundle, np.stack(step["adjoints"]))
                assert check_descent(bundle, combined)[0]
                assert on_simplex(alpha, step["present"])
                assert combined.shape == (sum(p.value.size for p in trainable),)
                want = step["before"] - lr * combined
            assert after.tobytes() == want.tobytes()
        if stage == "recall-boost":
            assert any(s["present"] == 1 for s in steps)
        # slot 1 is positive cross-entropy in both stages: 0 where it is absent
        per_epoch = len(steps) // cfg.epochs
        for epoch, row in enumerate(result.history[1:]):
            by_slot = []
            for step in steps[epoch * per_epoch:(epoch + 1) * per_epoch]:
                for _, alpha, _ in step["solves"]:
                    weights = [float(a) for a in alpha]
                    by_slot.append(weights if step["positive"] else [weights[0], 0.0, *weights[1:]])
            assert by_slot
            assert row.alpha == tuple(float(a) for a in np.mean(by_slot, axis=0))

    def test_trainable_values_are_slices_of_one_buffer(self):
        # a stage leaves each trainable Param.value a reshaped slice of one
        # flat buffer, in the order of its trainable set
        plan, X, y, edge, cloud, adapter = tiny_stage_inputs()
        train_base(cloud, X, y, TrainConfig(1, 64, 0.1), seed=1)
        params = cloud.params()
        base = params[0].value.base
        assert base is not None and base.ndim == 1 and base.size == flat(params).size
        start = 0
        for p in params:
            assert p.value.base is base and p.value.flags.c_contiguous
            assert np.shares_memory(p.value, base[start:start + p.value.size])
            start += p.value.size
