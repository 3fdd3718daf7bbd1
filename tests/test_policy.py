"""Routing rule tests: threshold semantics, costs, the collapse identities
between the three policy variants, and the batched pass against a
per-sample reference."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgecloud import harness, models, nncore
from edgecloud.harness import PolicyConfig, evaluate_policies, run_experiment, sweep_dynamic
from edgecloud.metrics import CostReport, comm_score, comp_score, comp_score_value, perf_score
from edgecloud.models import (ModelSpec, adapt, cloud_tail, feedforward,
                              make_adapter)
from edgecloud.nncore import ConfigError, dense
from edgecloud.policy import (ADAPTIVE_CODE, CLOUD_CODE, EDGE_CODE, ROUTES, route_codes,
                              route_costs, route_dataset, route_sample)
from edgecloud.train import accuracy_rate, recall_rate

from conftest import resweep, tiny_plan, with_cloud_epochs


def const_prob_edge(probs, in_dim=4):
    """Edge whose softmax output is fixed regardless of the input."""
    probs = np.asarray(probs, dtype=float)
    logits = np.log(probs)
    hidden = dense(in_dim, in_dim, nncore.IDENTITY, weight=np.eye(in_dim),
                   bias=np.zeros(in_dim), name="pass")
    head = dense(in_dim, len(probs), nncore.IDENTITY,
                 weight=np.zeros((len(probs), in_dim)), bias=logits, name="head")
    return ModelSpec("edge", [hidden, head], len(probs))


def toy_system(seed=0):
    rng = np.random.default_rng(seed)
    edge = feedforward("edge", 4, [5], 3, rng)
    cloud = feedforward("cloud", 4, [8, 8], 3, rng)
    adapter = make_adapter("a", 0, 1, 5, 8, 1, rng)
    return edge, cloud, adapter


def const_system(probs, seed=3):
    """Constant-probability edge with a cloud and an adapter bound to its tap."""
    cloud = feedforward("cloud", 4, [8], 3, np.random.default_rng(seed))
    adapter = make_adapter("a", 0, 0, 4, 8, 1, np.random.default_rng(seed + 1))
    return const_prob_edge(probs), cloud, adapter


def predictions(routed, codes):
    """Prediction of the branch each row's route code selects."""
    return np.choose(codes, routed.preds)


def val_split(tiny_system, rows):
    """``route_dataset`` arguments for the first ``rows`` validation rows."""
    system = tiny_system.system
    return system.edge, system.cloud, system.adapter, system.dataset.val_X[:rows]


class TestRouteSample:
    def test_depends_only_on_confidence(self):
        for conf in (0.0, 0.2, 0.5, 0.79, 0.8, 0.9, 1.0):
            assert route_sample("independent", conf, 0.8) == \
                (EDGE_CODE if conf >= 0.8 else CLOUD_CODE)
            assert route_sample("adaptive", conf, 0.8) == \
                (EDGE_CODE if conf >= 0.8 else ADAPTIVE_CODE)

    def test_boundary_ties(self):
        assert route_sample("independent", 0.8, 0.8) == EDGE_CODE  # tie at c1 stays on edge
        assert route_sample("dynamic", 0.4, 0.8, 0.4) == ADAPTIVE_CODE  # tie at c2 goes adaptive
        assert route_sample("independent", 1.0, 1.0) == EDGE_CODE
        assert route_sample("independent", 0.999999, 1.0) == CLOUD_CODE

    def test_dynamic_three_branches(self):
        assert route_sample("dynamic", 0.85, 0.8, 0.4) == EDGE_CODE
        assert route_sample("dynamic", 0.5, 0.8, 0.4) == ADAPTIVE_CODE
        assert route_sample("dynamic", 0.3, 0.8, 0.4) == CLOUD_CODE


unit = st.floats(0.0, 1.0)


@st.composite
def thresholds_and_confidences(draw):
    c1 = draw(st.one_of(st.just(0.0), st.just(1.0), unit))
    c2 = draw(st.one_of(st.just(0.0), st.just(c1), st.floats(0.0, c1)))
    conf = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, c1, c2]), unit), max_size=40))
    return c1, c2, conf


class TestRouteCodes:
    @given(st.sampled_from(["independent", "adaptive", "dynamic"]), thresholds_and_confidences())
    def test_matches_route_sample_elementwise(self, variant, case):
        c1, c2, conf = case
        codes = route_codes(variant, conf, c1, c2)
        assert codes.tolist() == [route_sample(variant, c, c1, c2) for c in conf]

    @given(thresholds_and_confidences(), unit)
    def test_offload_count_nondecreasing_in_c1(self, case, other):
        c1, _, conf = case
        low, high = sorted((c1, other))
        offloaded = [int((route_codes("independent", conf, c) != EDGE_CODE).sum())
                     for c in (low, high)]
        assert offloaded[0] <= offloaded[1]


class TestRouteIndependent:
    def test_zero_threshold_keeps_everything_on_edge(self):
        edge, cloud, adapter = toy_system()
        X = np.random.default_rng(1).standard_normal((20, 4))
        conf = models.confidence(route_dataset(edge, cloud, adapter, X).edge_probs)
        codes = route_codes("independent", conf, 0.0)
        assert (codes == EDGE_CODE).all()
        sent, cloud_side = route_costs(edge, cloud, adapter)
        counts = np.bincount(codes, minlength=len(ROUTES))
        assert comm_score(counts, sent, 4) == (0.0, 0.0, 0.0)
        assert comp_score(edge.total_flops(), cloud.total_flops(), counts, cloud_side)[1] == 0.0

    def test_confident_sample_stays_on_edge(self):
        edge, cloud, adapter = const_system([0.9, 0.05, 0.05])
        routed = route_dataset(edge, cloud, adapter, np.ones((1, 4)))
        assert models.confidence(routed.edge_probs)[0] == pytest.approx(0.9)
        codes = route_codes("independent", models.confidence(routed.edge_probs), 0.8)
        assert codes.tolist() == [EDGE_CODE]
        assert predictions(routed, codes).tolist() == [0]

    def test_offloaded_sample_pays_raw_input_elements_and_cloud_flops(self):
        edge, cloud, adapter = const_system([0.2, 0.4, 0.4])
        x = np.random.default_rng(4).standard_normal((1, 4))
        routed = route_dataset(edge, cloud, adapter, x)
        codes = route_codes("independent", models.confidence(routed.edge_probs), 0.8)
        assert codes.tolist() == [CLOUD_CODE]
        sent, cloud_side = route_costs(edge, cloud, adapter)
        assert sent[CLOUD_CODE] == 4  # input width
        assert cloud_side[CLOUD_CODE] == cloud.total_flops()
        assert predictions(routed, codes)[0] == int(np.argmax(models.infer(cloud, x)))


class TestRouteAdaptive:
    def test_zero_threshold_never_exercises_the_adapter(self):
        edge, cloud, adapter = toy_system(1)
        X = np.random.default_rng(5).standard_normal((15, 4))
        routed = route_dataset(edge, cloud, adapter, X)
        codes = route_codes("adaptive", models.confidence(routed.edge_probs), 0.0)
        assert (codes == EDGE_CODE).all()
        assert np.array_equal(predictions(routed, codes), routed.preds[EDGE_CODE])

    def test_offload_sends_tap_feature_elements(self):
        edge, cloud, adapter = toy_system(2)
        X = np.random.default_rng(6).standard_normal((10, 4))
        conf = models.confidence(route_dataset(edge, cloud, adapter, X).edge_probs)
        codes = route_codes("adaptive", conf, 1.0)
        assert (codes == ADAPTIVE_CODE).all()
        assert route_costs(edge, cloud, adapter)[0][ADAPTIVE_CODE] == 5  # tap width

    def test_offloaded_prediction_matches_manual_composition(self):
        edge, cloud, adapter = toy_system(3)
        X = np.random.default_rng(7).standard_normal((10, 4))
        routed = route_dataset(edge, cloud, adapter, X)
        for x, pred in zip(X, routed.preds[ADAPTIVE_CODE]):
            _, feat = models.infer_with_tap(edge, x.reshape(1, -1), adapter.edge_tap)
            assert pred == int(np.argmax(cloud_tail(cloud, adapt(adapter, feat), adapter.cloud_tap)))
        assert route_costs(edge, cloud, adapter)[1][ADAPTIVE_CODE] == adapter.total_flops() + \
            nncore.flops(cloud.layers[adapter.cloud_tap + 1:])


class TestRouteDynamic:
    def test_three_branch_examples(self):
        cases = [(0.85, EDGE_CODE), (0.5, ADAPTIVE_CODE), (0.3, CLOUD_CODE)]
        for conf, want in cases:
            edge, cloud, adapter = const_system([conf, 1 - conf, 0.0 + 1e-12], seed=8)
            routed = route_dataset(edge, cloud, adapter, np.ones((1, 4)))
            codes = route_codes("dynamic", models.confidence(routed.edge_probs), 0.8, 0.4)
            assert codes.tolist() == [want], conf

    def test_c2_zero_collapses_to_adaptive(self, tiny_system):
        conf = models.confidence(route_dataset(*val_split(tiny_system, 300)).edge_probs)
        assert np.array_equal(route_codes("dynamic", conf, 0.8, 0.0),
                              route_codes("adaptive", conf, 0.8))

    def test_c2_equals_c1_collapses_to_independent(self, tiny_system):
        conf = models.confidence(route_dataset(*val_split(tiny_system, 300)).edge_probs)
        assert np.array_equal(route_codes("dynamic", conf, 0.8, 0.8),
                              route_codes("independent", conf, 0.8))


class TestMonotonicity:
    def test_offload_count_nondecreasing_in_c1(self, tiny_system):
        conf = models.confidence(route_dataset(*val_split(tiny_system, 400)).edge_probs)
        counts = [int((route_codes("independent", conf, c1) != EDGE_CODE).sum())
                  for c1 in (0.0, 0.3, 0.6, 0.9, 1.0)]
        assert counts == sorted(counts)

    def test_dynamic_branch_counts_monotone_in_c2(self, tiny_system):
        conf = models.confidence(route_dataset(*val_split(tiny_system, 400)).edge_probs)
        cloud_counts, adaptive_counts = [], []
        for c2 in (0.0, 0.2, 0.4, 0.6, 0.8):
            codes = route_codes("dynamic", conf, 0.8, c2)
            cloud_counts.append(int((codes == CLOUD_CODE).sum()))
            adaptive_counts.append(int((codes == ADAPTIVE_CODE).sum()))
        assert cloud_counts == sorted(cloud_counts)
        assert adaptive_counts == sorted(adaptive_counts, reverse=True)


class TestValidation:
    def test_policy_invariants(self):
        with pytest.raises(ConfigError):
            route_codes("independent", [0.5], c1=1.5)
        with pytest.raises(ConfigError):
            route_codes("dynamic", [0.5], c1=0.5, c2=0.6)
        with pytest.raises(ConfigError):
            route_codes("teleport", [0.5], c1=0.5)

    def test_route_sample_dispatches_by_variant(self):
        # Codes for (independent, adaptive, dynamic) at c1 = 0.5, c2 = 0.2.
        want = {0.1: (CLOUD_CODE, ADAPTIVE_CODE, CLOUD_CODE),
                0.2: (CLOUD_CODE, ADAPTIVE_CODE, ADAPTIVE_CODE),
                0.3: (CLOUD_CODE, ADAPTIVE_CODE, ADAPTIVE_CODE),
                0.5: (EDGE_CODE,) * 3, 0.9: (EDGE_CODE,) * 3}
        for conf, codes in want.items():
            assert tuple(route_sample(v, conf, c1=0.5, c2=0.2)
                         for v in ("independent", "adaptive", "dynamic")) == codes, conf

    def test_edge_only_record_must_have_zero_costs(self):
        sent, cloud_side = route_costs(*toy_system())
        assert (sent[EDGE_CODE], cloud_side[EDGE_CODE]) == (0, 0)

    def test_adapter_tap_binding_checked(self):
        edge, cloud, _ = toy_system(5)
        bad = make_adapter("a", 7, 1, 5, 8, 1, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            route_dataset(edge, cloud, bad, np.ones((1, 4)))


# ---------------------------------------------------------------------------
# Per-sample reference: each row runs the edge alone, takes the scalar
# ``route_sample``, and then runs only the branch it chose. It counts bytes
# sent at float32 width; psi is a ratio of sizes, so the unit cancels.

BYTES_PER_ELEMENT = 4


def oracle_rows(system, variant, c1, c2, mode):
    edge, cloud, adapter = system.edge, system.cloud, system.adapter
    bpe = BYTES_PER_ELEMENT
    rows = []
    for x in system.dataset.val_X:
        x = x.reshape(1, -1)
        probs, feat = models.infer_with_tap(edge, x, adapter.edge_tap)
        route = route_sample(variant, models.confidence(probs[0], mode), c1, c2)
        if route == EDGE_CODE:
            rows.append((route, int(np.argmax(probs)), 0, 0))
        elif route == ADAPTIVE_CODE:
            out = cloud_tail(cloud, adapt(adapter, feat), adapter.cloud_tap)
            rows.append((route, int(np.argmax(out)), feat.size * bpe,
                         adapter.total_flops() + nncore.flops(cloud.layers[adapter.cloud_tap + 1:])))
        else:
            rows.append((route, int(np.argmax(models.infer(cloud, x))), x.size * bpe,
                         cloud.total_flops()))
    return rows


def anchor_preds(system):
    """Edge and cloud predictions from a whole-model pass over the split."""
    return [np.argmax(models.infer(m, system.dataset.val_X), axis=1)
            for m in (system.edge, system.cloud)]


def oracle_report(system, label, rows):
    ds, n = system.dataset, len(rows)
    fe, fc = system.edge.total_flops(), system.cloud.total_flops()
    pi_edge, pi_cloud = (accuracy_rate(p, ds.val_y) for p in anchor_preds(system))
    input_bytes = ds.dim * BYTES_PER_ELEMENT
    offloaded = [r for r in rows if r[0] != EDGE_CODE]
    tau = len(offloaded) / n
    psi = (float(Fraction(sum(r[2] for r in offloaded), input_bytes * len(offloaded)))
           if offloaded else 0.0)
    flops_sys = fe + sum(r[3] for r in rows) / n
    preds = np.array([r[1] for r in rows])
    acc = accuracy_rate(preds, ds.val_y)
    return CostReport(label, perf_score(acc, pi_edge, pi_cloud),
                      comp_score_value(fe, fc, flops_sys), tau * psi, tau, psi, flops_sys,
                      acc, recall_rate(preds, ds.val_y))


MIXED_MODES = [("independent", 0.8, 0.0, "normal-class"), ("adaptive", 0.7, 0.0, "max-class"),
               ("dynamic", 0.8, 0.3, "max-class")]
SWEEP_C2 = [0.0, 0.2, 0.4, 0.6, 0.8]


@pytest.mark.parametrize("command", [evaluate_policies, sweep_dynamic], ids=["evaluate", "sweep"])
def test_one_routing_pass_per_command(tiny_system, monkeypatch, command):
    """Policies of two confidence modes still route the split once."""
    system = dataclasses.replace(tiny_system.system, plan=dataclasses.replace(
        tiny_system.system.plan, policies=[PolicyConfig(*p) for p in MIXED_MODES]))
    calls = []

    def counted(*args):
        calls.append(args)
        return route_dataset(*args)

    monkeypatch.setattr(harness, "route_dataset", counted)
    command(system)
    assert len(calls) == 1


class TestPerSampleOracle:
    @pytest.mark.parametrize("policies", [
        [(pc.variant, pc.c1, pc.c2, pc.confidence_mode) for pc in tiny_plan().policies],
        MIXED_MODES], ids=["tiny-plan", "mixed-modes"])
    def test_plan_policies_match_oracle(self, tiny_system, policies):
        system = dataclasses.replace(tiny_system.system, plan=dataclasses.replace(
            tiny_system.system.plan, policies=[PolicyConfig(*p) for p in policies]))
        reports = evaluate_policies(system)
        assert len(reports) == 2 + len(policies)
        for (variant, c1, c2, mode), report in zip(policies, reports[2:]):
            routed = route_dataset(system.edge, system.cloud, system.adapter, system.dataset.val_X)
            codes = route_codes(variant, models.confidence(routed.edge_probs, mode), c1, c2)
            rows = oracle_rows(system, variant, c1, c2, mode)
            assert codes.tolist() == [r[0] for r in rows]
            assert predictions(routed, codes).tolist() == [r[1] for r in rows]
            assert report == oracle_report(system, report.label, rows)

    def test_non_dyadic_byte_ratio_is_rounded_once(self):
        # dim 10 against the 6-wide edge tap: an adapted row sends 24 of the
        # 40 input bytes, a ratio that a per-row float sum does not keep exact.
        # 24 cloud epochs put the cloud (0.775) above the edge (0.65).
        plan = with_cloud_epochs(tiny_plan(data=dataclasses.replace(tiny_plan().data, dim=10)), 24)
        result = run_experiment(plan)
        for pc, report in zip(plan.policies, result.reports[2:]):
            rows = oracle_rows(result.system, pc.variant, pc.c1, pc.c2, pc.confidence_mode)
            assert report == oracle_report(result.system, report.label, rows)
        assert result.report("adaptive").psi == 0.6

    @pytest.mark.parametrize("mode", ["normal-class", "max-class"])
    def test_sweep_matches_oracle(self, tiny_system, mode):
        system = resweep(tiny_system.system, SWEEP_C2, mode=mode)
        sweep = sweep_dynamic(system)
        assert len(sweep) == len(SWEEP_C2)
        for c2, report in zip(SWEEP_C2, sweep):
            assert report == oracle_report(system, report.label,
                                           oracle_rows(system, "dynamic", 0.8, c2, mode))

    def test_anchor_rows_match_whole_model_inference(self, tiny_system):
        ds = tiny_system.system.dataset
        reports = evaluate_policies(tiny_system.system)[:2]
        for report, preds in zip(reports, anchor_preds(tiny_system.system)):
            assert report.accuracy == accuracy_rate(preds, ds.val_y)
            assert report.recall == recall_rate(preds, ds.val_y)

    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permuting_validation_rows_leaves_reports_unchanged(self, tiny_system, rnd):
        system = tiny_system.system
        order = list(system.dataset.val_idx)
        rnd.shuffle(order)
        shuffled = dataclasses.replace(system, dataset=dataclasses.replace(
            system.dataset, val_idx=np.array(order)))
        assert evaluate_policies(shuffled) == evaluate_policies(system)
        assert sweep_dynamic(resweep(shuffled, SWEEP_C2)) == \
            sweep_dynamic(resweep(system, SWEEP_C2))
