"""Score and frontier tests, including reproduction of reference
trade-off bars from their raw values."""

import csv
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from edgecloud.metrics import (CostReport, comm_score,
                               comp_score, comp_score_value,
                               frontier_reports, pareto_frontier, perf_score,
                               read_report_rows, write_reports_csv,
                               REPORT_COLUMNS)
from edgecloud.nncore import ConfigError, UsageError
from edgecloud.policy import ADAPTIVE_CODE, CLOUD_CODE, EDGE_CODE

from conftest import brute_force_frontier, dominates


# Route codes: 0 edge-only, 1 adaptive, 2 full-cloud. Scores take per-route
# row counts indexed by route code.
EDGE, ADAPTIVE, CLOUD = EDGE_CODE, ADAPTIVE_CODE, CLOUD_CODE


class TestCommScore:
    def test_all_edge_only_scores_zero(self):
        tau, psi, s = comm_score((10, 0, 0), (0, 32, 64), input_elements=64)
        assert (tau, psi, s) == (0.0, 0.0, 0.0)

    def test_all_full_cloud_scores_one(self):
        tau, psi, s = comm_score((0, 0, 10), (0, 32, 64), input_elements=64)
        assert (tau, psi, s) == (1.0, 1.0, 1.0)

    def test_feature_bigger_than_input(self):
        # 32x32x3 input (3072 elements) vs 16x16x16 feature (4096 elements),
        # 60% offloaded: psi = 4/3, s_comm = 0.8
        tau, psi, s = comm_score((400, 600, 0), (0, 4096, 3072), input_elements=3072)
        assert tau == pytest.approx(0.6)
        assert psi == pytest.approx(4096 / 3072)
        assert s == pytest.approx(0.8)

    def test_s_comm_equals_tau_times_psi(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            route_codes = rng.integers(0, 3, 50)
            route_elements = (0, int(rng.integers(1, 100)), int(rng.integers(1, 100)))
            counts = np.bincount(route_codes, minlength=3)
            tau, psi, s = comm_score(counts, route_elements, input_elements=64)
            assert s == pytest.approx(tau * psi, abs=1e-15)
            total = sum(route_elements[c] for c in route_codes)
            assert s == pytest.approx(total / (50 * 64), abs=1e-12)

    def test_psi_is_the_exact_element_ratio_rounded_once(self):
        # Ratios 0.1 and 0.3 are not dyadic: a per-row sum of them rounds at
        # every step (0.17999999999999988 here), while psi is the exact
        # integer element total over input_elements x offloaded, rounded once.
        route_codes = np.array([CLOUD, ADAPTIVE, EDGE, ADAPTIVE, CLOUD, ADAPTIVE] * 7)
        counts = np.bincount(route_codes, minlength=3)
        route_elements = (0, 1, 3)
        _, psi, _ = comm_score(counts, route_elements, input_elements=10)
        total = sum(route_elements[c] for c in route_codes)
        offloaded = int((route_codes != EDGE).sum())
        assert psi == float(Fraction(total, 10 * offloaded)) == 0.18

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            comm_score((0, 0, 0), (0, 32, 64), 64)


class TestCompScore:
    def test_reference_flops_row(self):
        # edge 3.47, cloud 38.50, system 26.88 MFLOPS -> 0.6682
        assert comp_score_value(3.47, 38.50, 26.88) == pytest.approx(0.6682, abs=5e-4)

    def test_all_edge_only(self):
        flops_sys, s = comp_score(100, 1000, (5, 0, 0), (0, 400, 1000))
        assert flops_sys == 100
        assert s == 0.0

    def test_all_full_cloud_exceeds_one(self):
        flops_sys, s = comp_score(100, 1000, (0, 0, 5), (0, 400, 1000))
        assert flops_sys == 1100
        assert s > 1.0

    def test_branch_weighted_mean(self):
        flops_sys, s = comp_score(100, 1000, (1, 1, 1), (0, 400, 1000))
        assert flops_sys == pytest.approx(100 + (0 + 1000 + 400) / 3)
        assert s == pytest.approx((flops_sys - 100) / 900)

    def test_requires_cloud_heavier_than_edge(self):
        with pytest.raises(ConfigError):
            comp_score_value(1000, 100, 500)


class TestPerfScore:
    def test_reference_accuracy_row(self):
        # edge 77.32, cloud 91.83, system 91.01 -> 0.9435
        assert perf_score(91.01, 77.32, 91.83) == pytest.approx(0.9435, abs=5e-4)

    def test_anchors(self):
        assert perf_score(77.32, 77.32, 91.83) == 0.0
        assert perf_score(91.83, 77.32, 91.83) == 1.0

    def test_can_exceed_one(self):
        assert perf_score(0.554, 0.224, 0.552) > 1.0

    def test_zero_gap_flagged_as_nan(self):
        assert math.isnan(perf_score(0.5, 0.7, 0.7))

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sys_, edge, cloud = rng.uniform(0, 1, 3)
            if cloud == edge:
                continue
            a, b = float(10 ** rng.uniform(-3, 3)), float(rng.uniform(-5, 5))
            base = perf_score(sys_, edge, cloud)
            scaled = perf_score(a * sys_ + b, a * edge + b, a * cloud + b)
            assert scaled == pytest.approx(base, abs=1e-9)


# Reference rows whose printed bars are consistent with the score formulas
# applied to the printed (rounded) raw values. Rows whose printed bars
# disagree with the formula by more than 5e-4 (an artifact of rounding in
# the source tables) are excluded.
PERF_ROWS = [
    (91.01, 77.32, 91.83, 0.9435),   # classification, independent cascade
    (90.92, 77.32, 91.83, 0.9373),   # classification, adaptive (best accuracy)
    (84.80, 77.32, 91.83, 0.5155),   # classification, adaptive (best compute)
    (91.33, 77.32, 91.83, 0.9655),   # classification, dynamic (best accuracy)
    (85.41, 77.32, 91.83, 0.5575),   # classification, dynamic (best compute)
    (0.776, 0.454, 0.777, 0.997),    # detection mAP@0.5, independent
    (0.554, 0.224, 0.552, 1.006),    # detection mAP@0.5:0.95, independent
    (0.433, 0.224, 0.552, 0.637),    # detection mAP@0.5:0.95, adaptive
    (0.661, 0.454, 0.777, 0.640, 1e-3),  # detection mAP@0.5, adaptive
    (0.443, 0.313, 0.541, 0.57, 1e-3),   # detection F1, adaptive
    (0.553, 0.313, 0.541, 1.053),    # detection F1, dynamic (best mAP)
    (0.572, 0.454, 0.777, 0.3655),   # detection mAP@0.5, dynamic (best compute)
    (0.396, 0.313, 0.541, 0.3636),   # detection F1, dynamic (best compute)
]

COMP_ROWS = [
    (3.47, 38.50, 26.88, 0.6682),    # classification, independent
    (3.47, 38.50, 6.57, 0.0886),     # classification, dynamic (best compute)
    (3.47, 38.50, 26.81, 0.6665),    # classification, dynamic (best accuracy)
    (3.47, 38.50, 38.50, 1.0),       # classification cloud anchor
    (3.47, 38.50, 3.47, 0.0),        # classification edge anchor
    (0.35, 37.12, 23.99, 0.643),     # detection, independent
    (0.35, 37.12, 21.31, 0.5702),    # detection, dynamic (best mAP)
    (0.35, 37.12, 7.65, 0.1987),     # detection, dynamic (best compute)
]


class TestReferenceBars:
    @pytest.mark.parametrize("row", PERF_ROWS)
    def test_performance_bars(self, row):
        sys_, edge, cloud, bar = row[:4]
        tol = row[4] if len(row) > 4 else 5e-4
        assert perf_score(sys_, edge, cloud) == pytest.approx(bar, abs=tol)

    @pytest.mark.parametrize("edge,cloud,sys_,bar", COMP_ROWS)
    def test_computation_bars(self, edge, cloud, sys_, bar):
        assert comp_score_value(edge, cloud, sys_) == pytest.approx(bar, abs=5e-4)


def pt(perf, cost):
    """The cost vector of a (perf max, cost min) pair: perf negated."""
    return np.array([-perf, cost])


class TestDominance:
    def test_better_both_dominates(self):
        assert dominates(pt(0.9, 0.7), pt(0.8, 0.8))

    def test_no_self_domination(self):
        a = pt(0.9, 0.7)
        assert not dominates(a, a)

    def test_incomparable_pair(self):
        a, c = pt(0.9, 0.7), pt(0.95, 0.9)
        assert not dominates(a, c) and not dominates(c, a)

    def test_sense_awareness(self):
        values, labels = [[0.1], [0.9]], ["lo", "hi"]
        assert brute_force_frontier(values, ("min",), labels).tolist() == [True, False]
        assert brute_force_frontier(values, ("max",), labels).tolist() == [False, True]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(UsageError):
            dominates(pt(1, 2), [1.0])


class TestParetoFrontier:
    def test_three_point_example(self):
        costs = [pt(0.9, 0.7), pt(0.8, 0.8), pt(0.95, 0.9)]
        assert pareto_frontier(costs, ["A", "B", "C"]).tolist() == [True, False, True]

    def test_single_point(self):
        assert pareto_frontier([pt(0.5, 0.5)], ["only"]).tolist() == [True]

    def test_equal_costs_keep_the_greatest_label_then_the_first_row(self):
        costs = [pt(0.9, 0.7)] * 4 + [pt(0.1, 0.9)]
        labels = ["a", "c", "b", "c", "z"]
        assert pareto_frontier(costs, labels).tolist() == [False, True, False, False, False]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            arity = int(rng.integers(2, 4))
            senses = tuple(rng.choice(["max", "min"], size=arity))
            values = np.round(rng.uniform(0, 1, (n, arity)), 2)  # ties likely
            labels = [f"p{i % 7}" for i in range(n)]  # repeated labels too
            costs = values * np.where(np.array(senses) == "max", -1.0, 1.0)
            assert np.array_equal(pareto_frontier(costs, labels),
                                  brute_force_frontier(values, senses, labels))

    def test_kept_rows_are_mutually_nondominated_and_cover_the_rest(self):
        rng = np.random.default_rng(3)
        costs = np.round(rng.uniform(0, 1, (100, 2)), 1)
        keep = pareto_frontier(costs, [f"p{i}" for i in range(100)])
        front = costs[keep]
        for p in front:
            assert not any(dominates(q, p) for q in costs)
        for p in costs[~keep]:
            assert any(dominates(q, p) or np.array_equal(q, p) for q in front)
        assert len({tuple(p) for p in front}) == len(front)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_costs_refused(self, bad):
        with pytest.raises(UsageError, match="finite"):
            pareto_frontier([pt(0.9, 0.7), pt(0.8, bad)], ["a", "b"])

    @pytest.mark.parametrize("costs, labels", [
        (np.empty((0, 2)), []), ([0.1, 0.2], ["a", "b"]), ([pt(0.9, 0.7)], ["a", "b"]),
    ], ids=["empty", "1-D", "label-count"])
    def test_malformed_input_refused(self, costs, labels):
        with pytest.raises(UsageError, match=r"\(n, k\)"):
            pareto_frontier(costs, labels)


def report(label, s_p, s_comp, s_comm=0.5):
    return CostReport(label=label, s_p=s_p, s_comp=s_comp, s_comm=s_comm, tau=0.5,
                      psi=s_comm / 0.5, flops_ecc=500.0, accuracy=s_p, recall=0.9)


class TestReportsAndCsv:
    def test_cost_report_invariant(self):
        with pytest.raises(UsageError):
            CostReport(label="x", s_p=0.0, s_comp=0.0, s_comm=0.7, tau=0.5, psi=0.5,
                       flops_ecc=1.0, accuracy=0.0, recall=0.0)

    def test_report_fields_are_the_csv_columns(self):
        assert [f.name for f in dataclasses.fields(CostReport)] == REPORT_COLUMNS == [
            "label", "s_p", "s_comp", "s_comm", "tau", "psi", "flops_ecc", "accuracy", "recall"]

    def test_frontier_reports_filters_dominated(self):
        reports = [report("A", 0.9, 0.7), report("B", 0.8, 0.8), report("C", 0.95, 0.9)]
        keep = frontier_reports(reports, "s_comp")
        assert [r.label for r in keep] == ["A", "C"]

    def test_frontier_reports_keeps_the_greatest_label_of_a_tie(self):
        reports = [report("dynamic(c2=0.3)", 0.9, 0.7), report("dynamic(c2=0.35)", 0.9, 0.7),
                   report("edge", 0.0, 0.0)]
        keep = frontier_reports(reports, "s_comp")
        assert [r.label for r in keep] == ["dynamic(c2=0.35)", "edge"]

    def test_csv_round_trip(self, tmp_path):
        reports = [report("A", 0.9, 0.7), report("B", 0.8, 0.8)]
        path = tmp_path / "reports.csv"
        write_reports_csv(path, reports)
        rows = read_report_rows(path)
        assert [r["label"] for r in rows] == ["A", "B"]
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == REPORT_COLUMNS
        for row, rep in zip(rows, reports):
            for col in REPORT_COLUMNS[1:]:
                assert float(row[col]) == getattr(rep, col)
