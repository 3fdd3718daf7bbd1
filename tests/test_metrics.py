"""Score and frontier tests, including reproduction of reference
trade-off bars from their raw values."""

import csv
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from edgecloud.metrics import (CostReport, ParetoPoint, comm_score,
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
        tau, psi, s = comm_score((10, 0, 0), (0, 32, 64), input_bytes=64)
        assert (tau, psi, s) == (0.0, 0.0, 0.0)

    def test_all_full_cloud_scores_one(self):
        tau, psi, s = comm_score((0, 0, 10), (0, 32, 64), input_bytes=64)
        assert (tau, psi, s) == (1.0, 1.0, 1.0)

    def test_feature_bigger_than_input(self):
        # 32x32x3 input (3072 elements) vs 16x16x16 feature (4096 elements),
        # 60% offloaded: psi = 4/3, s_comm = 0.8
        tau, psi, s = comm_score((400, 600, 0), (0, 4096 * 4, 3072 * 4),
                                 input_bytes=3072 * 4)
        assert tau == pytest.approx(0.6)
        assert psi == pytest.approx(4096 / 3072)
        assert s == pytest.approx(0.8)

    def test_s_comm_equals_tau_times_psi(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            route_codes = rng.integers(0, 3, 50)
            route_bytes = (0, int(rng.integers(1, 100)), int(rng.integers(1, 100)))
            counts = np.bincount(route_codes, minlength=3)
            tau, psi, s = comm_score(counts, route_bytes, input_bytes=64)
            assert s == pytest.approx(tau * psi, abs=1e-15)
            total = sum(route_bytes[c] for c in route_codes)
            assert s == pytest.approx(total / (50 * 64), abs=1e-12)

    def test_psi_is_the_exact_byte_ratio_rounded_once(self):
        # Ratios 0.1 and 0.3 are not dyadic: a per-row sum of them rounds at
        # every step (0.17999999999999988 here), while psi is the exact
        # integer byte total over input_bytes x offloaded, rounded once.
        route_codes = np.array([CLOUD, ADAPTIVE, EDGE, ADAPTIVE, CLOUD, ADAPTIVE] * 7)
        counts = np.bincount(route_codes, minlength=3)
        route_bytes = (0, 1, 3)
        _, psi, _ = comm_score(counts, route_bytes, input_bytes=10)
        total_bytes = sum(route_bytes[c] for c in route_codes)
        offloaded = int((route_codes != EDGE).sum())
        assert psi == float(Fraction(total_bytes, 10 * offloaded)) == 0.18

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


def pt(perf, cost, label=""):
    return ParetoPoint((perf, cost), ("max", "min"), label)


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
        lo = ParetoPoint((0.1,), ("min",), "lo")
        hi = ParetoPoint((0.9,), ("min",), "hi")
        assert dominates(lo, hi) and not dominates(hi, lo)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(UsageError):
            dominates(pt(1, 2), ParetoPoint((1.0,), ("max",)))

    def test_non_finite_rejected(self):
        with pytest.raises(UsageError):
            ParetoPoint((math.nan, 1.0), ("max", "min"))


class TestParetoFrontier:
    def test_three_point_example(self):
        a, b, c = pt(0.9, 0.7, "A"), pt(0.8, 0.8, "B"), pt(0.95, 0.9, "C")
        front = pareto_frontier([a, b, c])
        assert front == [a, c]

    def test_single_point(self):
        p = pt(0.5, 0.5, "only")
        assert pareto_frontier([p]) == [p]

    def test_duplicates_deduplicated(self):
        a = pt(0.9, 0.7, "a")
        b = pt(0.9, 0.7, "b")
        front = pareto_frontier([a, b, pt(0.1, 0.9, "dominated")])
        assert len(front) == 1

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            arity = int(rng.integers(2, 4))
            senses = tuple(rng.choice(["max", "min"], size=arity))
            values = np.round(rng.uniform(0, 1, (n, arity)), 2)  # ties likely
            points = [ParetoPoint(tuple(v), senses, f"p{i}") for i, v in enumerate(values)]
            got = pareto_frontier(points)
            want = brute_force_frontier(points)
            assert [p.objectives for p in got] == [p.objectives for p in want]

    def test_output_sorted_and_mutually_nondominated(self):
        rng = np.random.default_rng(3)
        points = [pt(float(a), float(b), f"p{i}")
                  for i, (a, b) in enumerate(rng.uniform(0, 1, (100, 2)))]
        front = pareto_frontier(points)
        firsts = [p.objectives[0] for p in front]
        assert firsts == sorted(firsts)
        for p in front:
            for q in front:
                if p is not q:
                    assert not dominates(p, q)


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
