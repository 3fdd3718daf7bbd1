"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end trend
criteria execute the standard plan over master seeds 0..4 and take medians;
everything is deterministic given those seeds.
"""

import filecmp
import os

import numpy as np
import pytest

from edgecloud import harness, models, nncore, train
from edgecloud.cli import dispatch
from edgecloud.harness import default_plan, run_experiment, sweep_dynamic
from edgecloud.metrics import comp_score_value, frontier_reports, pareto_frontier, perf_score
from edgecloud.models import infer, infer_with_tap, cloud_tail, softmax
from edgecloud.moo import solve_min_norm
from edgecloud.nncore import GradientTape, forward
from edgecloud.policy import (ADAPTIVE_CODE, CLOUD_CODE, EDGE_CODE, route_codes,
                             route_dataset)
from edgecloud.train import TrainConfig, cross_entropy, evaluate_model

from conftest import (brute_force_frontier, check_descent, finite_difference_grads,
                      grid_oracle, max_relative_error, on_simplex, param_grads,
                      random_net, train_recall_boost)

TREND_SEEDS = (0, 1, 2, 3, 4)


def report_line(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def test_criterion_1_score_reproduction():
    """Reference raw values reproduce their printed score bars within 5e-4."""
    s_p = perf_score(91.01, 77.32, 91.83)
    s_comp = comp_score_value(3.47, 38.50, 26.88)
    ok = abs(s_p - 0.9435) <= 5e-4 and abs(s_comp - 0.6682) <= 5e-4
    report_line(1, ok, f"perf_score={s_p:.6f} (want 0.9435), comp_score={s_comp:.6f} (want 0.6682)")


def test_criterion_2_moo_solver():
    """Solver vs lattice oracle plus the common-descent condition; every
    solve returns nonnegative weights summing to one."""
    rng = np.random.default_rng(20260809)
    worst2 = worst3 = 0.0
    descent_failures = off_simplex = 0
    for _ in range(1000):
        d = int(rng.integers(2, 33))
        scale = 10.0 ** rng.uniform(-2, 2)
        grads = scale * rng.standard_normal((2, d))
        alpha, combined = solve_min_norm(grads)
        off_simplex += not on_simplex(alpha, 2)
        _, oracle_min = grid_oracle(grads, 1e-3)
        max_norm2 = float(np.max(np.einsum("ij,ij->i", grads, grads)))
        if abs(float(combined @ combined) - oracle_min) > 3e-3 * max_norm2:
            worst2 = max(worst2, abs(float(combined @ combined) - oracle_min) / max_norm2)
        ok, _ = check_descent(grads, combined)
        descent_failures += not ok
    for _ in range(100):
        d = int(rng.integers(2, 33))
        scale = 10.0 ** rng.uniform(-2, 2)
        grads = scale * rng.standard_normal((3, d))
        alpha, combined = solve_min_norm(grads)
        off_simplex += not on_simplex(alpha, 3)
        _, oracle_min = grid_oracle(grads, 1e-2)
        max_norm2 = float(np.max(np.einsum("ij,ij->i", grads, grads)))
        if abs(float(combined @ combined) - oracle_min) > 3e-2 * max_norm2:
            worst3 = max(worst3, abs(float(combined @ combined) - oracle_min) / max_norm2)
        ok, _ = check_descent(grads, combined)
        descent_failures += not ok
    ok = worst2 == 0.0 and worst3 == 0.0 and descent_failures == 0 and off_simplex == 0
    report_line(2, ok, f"1000 p=2 + 100 p=3 bundles within oracle tolerance, "
                       f"descent failures={descent_failures}/1100, "
                       f"weights off the simplex={off_simplex}/1100")


def test_criterion_3_gradient_correctness():
    """100 random nets pass the central-finite-difference check at 1e-4."""
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(100):
        layers, in_dim = random_net(rng)
        X = rng.standard_normal((8, in_dim))
        y = rng.integers(0, 3, 8)
        params = [p for layer in layers for p in layer.params()]

        def loss_value():
            return cross_entropy(softmax(forward(layers, X)), y)

        tape = GradientTape(params)
        logits, stack = nncore.forward_on_tape(tape, layers, X, data=True)
        ce_back = train.ce_on_tape(logits, y)[1]
        grads = param_grads(tape, lambda g: stack(ce_back(g)))
        worst = max(worst, max_relative_error(
            [grads[p] for p in params], finite_difference_grads(loss_value, params)))
    report_line(3, worst < 1e-4, f"max relative error {worst:.2e} over 100 nets (< 1e-4)")


def test_criterion_4_routing_identities():
    """Branch-collapse equalities and the bit-exact path-splitting identity."""
    plan = default_plan(0)
    ds = harness.build_dataset(plan)
    edge, cloud, adapter = harness.build_models(plan)
    # a few epochs to spread edge confidences across all three branches
    train.train_base(edge, ds.train_X, ds.train_y, TrainConfig(3, 64, 0.08), seed=1)
    X = ds.val_X
    assert len(X) == 2000

    routed = route_dataset(edge, cloud, adapter, X)

    def outcome(variant, c2=0.0):
        """Route code and prediction of every validation row."""
        codes = route_codes(variant, models.confidence(routed.edge_probs), 0.8, c2)
        preds = np.choose(codes, routed.preds)
        return np.stack([codes, preds])

    collapse_a = np.array_equal(outcome("dynamic", 0.0), outcome("adaptive"))
    collapse_i = np.array_equal(outcome("dynamic", 0.8), outcome("independent"))
    all_branches = set(outcome("dynamic", 0.3)[0]) == {EDGE_CODE, ADAPTIVE_CODE, CLOUD_CODE}

    full = infer(cloud, X)
    splits_exact = True
    hidden_taps = range(len(cloud.layers) - 1)  # split after every hidden layer
    for tap in hidden_taps:
        _, feat = infer_with_tap(cloud, X, tap)
        splits_exact &= np.array_equal(cloud_tail(cloud, feat, tap), full)

    ok = collapse_a and collapse_i and splits_exact and all_branches
    report_line(4, ok, f"dynamic(c2=0)==adaptive: {collapse_a}, "
                       f"dynamic(c2=c1)==independent: {collapse_i}, "
                       f"path splitting bit-exact on 2000x{len(hidden_taps)} taps: {splits_exact}")


@pytest.fixture(scope="module")
def trend_results():
    """Standard plan over five master seeds plus the per-seed edge variants."""
    build_models = harness.build_models
    started_from = []

    def recording_build_models(plan):
        built = build_models(plan)
        started_from.append(nncore.params_digest(built[0].params()))
        return built

    rows = []
    for seed in TREND_SEEDS:
        plan = default_plan(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "build_models", recording_build_models)
            result = run_experiment(plan)
        # the untrained edge, rebuilt: the models are deterministic from the seed
        initial_edge = build_models(plan)[0]
        assert nncore.params_digest(initial_edge.params()) == started_from[-1]
        system, swept = result.system, plan.sweep_policies()
        routed = route_dataset(system.edge, system.cloud, system.adapter, system.dataset.val_X)
        conf = models.confidence(routed.edge_probs)
        full_cloud_counts = [int(np.sum(route_codes(pc.variant, conf, pc.c1, pc.c2) == CLOUD_CODE))
                             for pc in swept]

        stage, stage_seed = plan.stages["edge_kd"], harness.derive_seeds(seed)["edge_train"]
        plain = build_models(plan)[0]
        train.train_base(plain, system.dataset.train_X, system.dataset.train_y, stage,
                         seed=stage_seed)
        boosted = initial_edge
        train_recall_boost(boosted, system.dataset.train_X, system.dataset.train_y, stage,
                           seed=stage_seed)

        val = (system.dataset.val_X, system.dataset.val_y)
        rows.append({
            "independent": result.report("independent"),
            "sweep": sweep_dynamic(system),
            "full_cloud_counts": full_cloud_counts,
            "kd_val": evaluate_model(system.edge, *val),
            "plain_val": evaluate_model(plain, *val),
            "boost_val": evaluate_model(boosted, *val),
        })
    return rows


def test_criterion_5a_independent_tradeoff(trend_results):
    s_p = float(np.median([r["independent"].s_p for r in trend_results]))
    s_comp = float(np.median([r["independent"].s_comp for r in trend_results]))
    s_comm = float(np.median([r["independent"].s_comm for r in trend_results]))
    ok = 0.5 <= s_p <= 1.1 and s_comp < 1.0 and s_comm < 1.0
    report_line("5a", ok, f"independent medians: s_p={s_p:.4f} (in [0.5, 1.1]), "
                          f"s_comp={s_comp:.4f} (<1), s_comm={s_comm:.4f} (<1)")


def test_criterion_5b_sweep_frontier(trend_results):
    sizes = [len(frontier_reports(r["sweep"], "s_comp", "s_comm")) for r in trend_results]
    monotone = all(r["full_cloud_counts"] == sorted(r["full_cloud_counts"])
                   for r in trend_results)
    ok = float(np.median(sizes)) >= 3 and monotone
    report_line("5b", ok, f"frontier sizes per seed {sizes} (median >= 3), "
                          f"full-cloud counts monotone: {monotone}")


def test_criterion_5c_kd_beats_plain_on_val_loss(trend_results):
    kd = float(np.median([r["kd_val"].ce_loss for r in trend_results]))
    plain = float(np.median([r["plain_val"].ce_loss for r in trend_results]))
    report_line("5c", kd <= plain,
                f"median val CE: distilled edge {kd:.4f} <= plain edge {plain:.4f}")


def test_criterion_5d_recall_boost(trend_results):
    boosted = float(np.median([r["boost_val"].recall for r in trend_results]))
    plain = float(np.median([r["plain_val"].recall for r in trend_results]))
    report_line("5d", boosted >= plain,
                f"median recall: boosted edge {boosted:.4f} >= plain edge {plain:.4f}")


def test_criterion_6_pareto_oracle():
    """Frontier extraction equals the all-pairs brute-force filter: the same
    rows, ties included. Max columns are negated into costs."""
    rng = np.random.default_rng(271828)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        arity = int(rng.integers(2, 4))
        senses = tuple(rng.choice(["max", "min"], size=arity))
        values = np.round(rng.uniform(0, 1, (n, arity)), 2)
        labels = [f"p{i}" for i in range(n)]
        costs = values * np.where(np.array(senses) == "max", -1.0, 1.0)
        got = pareto_frontier(costs, labels)
        mismatches += not np.array_equal(got, brute_force_frontier(values, senses, labels))
    report_line(6, mismatches == 0,
                f"{1000 - mismatches}/1000 random point sets match the brute-force filter")


def test_criterion_7_determinism(tmp_path):
    """Two full train+evaluate+sweep runs produce byte-identical CSVs."""
    plan_path = tmp_path / "plan.json"
    harness.save_plan(plan_path, default_plan(0))
    outs = [str(tmp_path / "run_a"), str(tmp_path / "run_b")]
    for out in outs:
        for command in ("train", "evaluate", "sweep"):
            code = dispatch([command, "--config", str(plan_path), "--out", out])
            assert code == 0, command
    csvs = sorted(name for name in os.listdir(outs[0]) if name.endswith(".csv"))
    assert csvs, "no CSV outputs found"
    assert csvs == sorted(name for name in os.listdir(outs[1]) if name.endswith(".csv"))
    diffs = [name for name in csvs
             if not filecmp.cmp(os.path.join(outs[0], name), os.path.join(outs[1], name),
                                shallow=False)]
    report_line(7, not diffs, f"{len(csvs)} CSVs byte-identical across reruns "
                              f"(mismatched: {diffs or 'none'})")
