"""Fast tests of the benchmark's own logic: output checks, span self time,
tracer installation and the metric names BENCHMARK.json declares."""

import json
import os

import pytest

from perfbench import checks, run, tracing

COLUMNS = ["label", "s_p", "s_comp", "s_comm", "tau", "psi", "flops_ecc", "accuracy", "recall"]


def _write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return checks.read_rows(path)


REPORTS = [
    ("edge", 0.0, 0.0, 0.0, 0.0, 0.0, 295.0, 0.8, 0.7),
    ("cloud", 1.0, 1.0, 1.0, 1.0, 1.0, 14023.0, 0.9, 0.9),
    ("independent", 0.9, 0.7, 0.7, 0.7, 1.0, 9900.0, 0.89, 0.88),
    ("adaptive", 0.5, 1.1, 0.35, 0.7, 0.5, 15000.0, 0.85, 0.8),
]
SWEEP = [
    ("dynamic(c2=0)", 0.5, 1.1, 0.35, 0.7, 0.5, 15000.0, 0.85, 0.8),
    ("dynamic(c2=0.4)", 0.7, 0.9, 0.5, 0.7, 0.7, 12000.0, 0.87, 0.85),
    ("dynamic(c2=0.8)", 0.9, 0.7, 0.7, 0.7, 1.0, 9900.0, 0.89, 0.88),
]


def test_consistent_outputs_pass(tmp_path):
    reports = _write_csv(tmp_path / "reports.csv", REPORTS)
    sweep = _write_csv(tmp_path / "sweep.csv", SWEEP)
    assert checks.check_reports(reports) == []
    assert checks.check_sweep(sweep, reports) == []


@pytest.mark.parametrize("row, column, value, expected", [
    (0, 8, 0.81, "dynamic(c2=0) differs from adaptive in recall"),
    (2, 2, 0.71, "dynamic(c2=0.8) differs from independent in s_comp"),
    (1, 4, 0.6, "tau is not constant"),
    (2, 5, 0.6, "psi decreases"),
])
def test_checker_flags_broken_sweep(tmp_path, row, column, value, expected):
    reports = _write_csv(tmp_path / "reports.csv", REPORTS)
    broken = [list(r) for r in SWEEP]
    broken[row][column] = value
    problems = checks.check_sweep(_write_csv(tmp_path / "sweep.csv", broken), reports)
    assert any(expected in p for p in problems), problems


def test_checker_flags_moved_anchor(tmp_path):
    moved = [list(r) for r in REPORTS]
    moved[1][2] = 0.99
    problems = checks.check_reports(_write_csv(tmp_path / "reports.csv", moved))
    assert problems == ["reports: cloud anchor scores (1.0, 0.99, 1.0), expected 1.0"]


def test_npz_digest_ignores_archive_timestamps(tmp_path):
    np = pytest.importorskip("numpy")
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, w=np.arange(3.0))
    os.utime(a, (0, 0))
    np.savez(b, w=np.arange(3.0))
    assert checks.file_digest(str(a)) == checks.file_digest(str(b))
    np.savez(b, w=np.arange(4.0))
    assert checks.file_digest(str(a)) != checks.file_digest(str(b))


def test_self_time_excludes_nested_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = tracer.wrap("m.leaf", lambda: tick(2.0))

    def middle_body():
        tick(1.0)
        leaf()
        leaf()
        tick(0.5)
    middle = tracer.wrap("m.middle", middle_body)

    def outer_body():
        tick(3.0)
        middle()
        tick(0.25)
        raise KeyError("spans close on errors too")
    outer = tracer.wrap("n.outer", outer_body)

    with pytest.raises(KeyError):
        outer()
    assert tracer.stats["m.leaf"] == [2, 4.0, 4.0]
    assert tracer.stats["m.middle"] == [1, 1.5, 5.5]
    assert tracer.stats["n.outer"] == [1, 3.25, 8.75]
    assert not any(tracer.depth.values())


def test_installed_wraps_every_binding_and_restores():
    from edgecloud import models, policy, train
    original = models.infer_with_tap
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        assert absent == []
        assert policy.infer_with_tap is train.infer_with_tap is models.infer_with_tap
        assert policy.infer_with_tap is not original
    assert policy.infer_with_tap is original and train.infer_with_tap is original


def test_benchmark_json_declares_the_emitted_metrics():
    from edgecloud import harness
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.metric_specs(run.SHAPE_LABELS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    plan_models = harness.build_models(harness.default_plan(0))
    assert tracing.shape_labels(plan_models) == list(run.SHAPE_LABELS)


def test_one_epoch_plan_leaves_the_workload_plan_alone():
    from edgecloud import harness
    plan = run.make_plan(harness, True, 3)
    cut = run.one_epoch(plan)
    assert (plan.data.n, plan.recall_boost, plan.master_seed) == (run.DATA_N, True, 3)
    assert run.sweep_grid_size(plan) == 3
    assert [s.epochs for s in plan.stages.values()] == [30, 30, 12]
    assert [s.epochs for s in cut.stages.values()] == [1, 1, 1]
    assert cut.data == plan.data and cut.policies == plan.policies
