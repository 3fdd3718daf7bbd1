"""``tools/bench_pairs.py``'s statistics on fixed inputs, without running the pipeline."""

import importlib.util
import math
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def pairs():
    sys.path.insert(0, str(TOOLS))  # the tool imports output_digest beside it
    try:
        spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]


def test_quartiles_are_inclusive(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert pairs.quartiles([1.0, 2.0]) == [1.25, 1.5, 1.75]
    assert pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_a_lower_is_better_gain_in_every_pair(pairs):
    change = [v - 1.5 for v in PARENT]
    s = pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["parent_median"] == 12.25 and s["change_median"] == 10.75
    assert s["parent_quartiles"] == [11.125, 12.25, 13.375]
    assert s["parent_iqr"] == 2.25
    assert s["parent_iqr_share"] == 2.25 / 12.25
    assert s["median_gap"] == -1.5
    assert s["relative_change"] == -1.5 / 12.25
    assert s["pairs"] == 10 and s["pairs_won_by_change"] == 10
    assert not s["worse_beyond_bound"]
    assert s["resolved"]
    assert not s["claim_holds"]  # a gap of 1.5 is inside the parent's IQR of 2.25


def test_a_claim_holds_on_nine_pairs_and_a_gap_beyond_the_iqr(pairs):
    parent = [1.0, 1.01, 1.02, 0.99, 1.0, 1.01, 0.98, 1.0, 1.02, 1.0]
    change = [v * 0.9 for v in parent]
    change[3] = parent[3]  # a tie is not a pair won
    s = pairs.summarize(parent, change, "lower", 0.25)
    assert s["pairs_won_by_change"] == 9
    assert s["claim_holds"]
    change[4] = parent[4] + 0.01
    assert not pairs.summarize(parent, change, "lower", 0.25)["claim_holds"]


def test_higher_is_better_turns_every_sign(pairs):
    change = [v * 0.7 for v in PARENT]
    s = pairs.summarize(PARENT, change, "higher", 0.25)
    assert s["pairs_won_by_change"] == 0
    assert s["median_gap"] < 0
    assert s["worse_beyond_bound"]  # 30% lower on a metric that should rise
    assert not pairs.summarize(PARENT, change, "lower", 0.25)["worse_beyond_bound"]
    assert pairs.summarize(PARENT, change, "lower", 0.25)["pairs_won_by_change"] == 10


def test_worse_beyond_bound_is_measured_on_the_parent_median(pairs):
    parent = [4.0, 4.0, 4.0]
    assert not pairs.summarize(parent, [5.0] * 3, "lower", 0.25)["worse_beyond_bound"]
    assert pairs.summarize(parent, [5.01] * 3, "lower", 0.25)["worse_beyond_bound"]


def test_a_spread_parent_is_unresolved(pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    s = pairs.summarize(parent, parent, "lower", 0.25)
    assert s["parent_iqr_share"] == 1.5 / 2.5 and not s["resolved"]
    assert s["pairs_won_by_change"] == 0 and s["median_gap"] == 0.0


def test_a_zero_parent_median(pairs):
    s = pairs.summarize([0.0, 0.0], [0.0, 0.0], "lower", 0.25)
    assert s["relative_change"] == math.inf and s["parent_iqr_share"] == math.inf


@pytest.mark.parametrize("parent, change, better, message", [
    ([1.0], [1.0, 2.0], "lower", "need equal, nonempty pairs"),
    ([], [], "lower", "need equal, nonempty pairs"),
    ([1.0], [1.0], "faster", "better must be"),
])
def test_bad_inputs_are_refused(pairs, parent, change, better, message):
    with pytest.raises(ValueError, match=message):
        pairs.summarize(parent, change, better, 0.25)


def fake_tree(root, name, echo):
    """A tree whose ``tools/output_digest.py`` prints ``echo`` and its arguments."""
    tools = root / name / "tools"
    tools.mkdir(parents=True)
    (tools / "output_digest.py").write_text(
        f"import sys\nprint({echo!r}, *sys.argv[1:])\n", encoding="utf-8")
    return str(root / name)


def test_digest_seeds_record_the_recall_boost_lines_too(pairs, tmp_path):
    trees = {"parent": fake_tree(tmp_path, "parent", "digest"),
             "change": fake_tree(tmp_path, "change", "digest")}
    record = pairs.digest_report(trees, "0-4")
    want = ["digest --seeds 0-4", "digest --seeds 0-4 --recall-boost"]
    assert record == {"output_digest": {"parent": want, "change": want},
                      "output_digest_equal": True}
    trees["change"] = fake_tree(tmp_path, "other", "changed")
    assert not pairs.digest_report(trees, "0-4")["output_digest_equal"]
    trees["parent"] = str(tmp_path / "no-tools")
    record = pairs.digest_report(trees, "0-4")
    assert record["output_digest"]["parent"] is None and not record["output_digest_equal"]


def test_a_traced_run_records_its_checks_and_call_counts(pairs, tmp_path):
    # a fake perfbench/run.py echoing its arguments into the information line
    bench = tmp_path / "tree" / "perfbench"
    bench.mkdir(parents=True)
    # a benchmark without the route_sample counter reports the others
    metrics = {name: {"value": i, "unit": "count"} for i, name in enumerate(
        ["nncore.adjoints.calls", "moo.solve_min_norm.calls", "code.src_lines"])}
    (bench / "run.py").write_text(
        "import json, sys\n"
        "print(json.dumps({'argv': sys.argv[1:], 'absent': ['x.y'], 'problems': ['p']}))\n"
        f"print(json.dumps({{'correct': False, 'failed': 2, 'metrics': {metrics!r}}}))\n",
        encoding="utf-8")
    record = pairs.traced_run(str(tmp_path / "tree"), "cli-default")
    assert record == {"correct": False, "failed": 2, "absent": ["x.y"], "problems": ["p"],
                      "nncore.adjoints.calls": 0, "policy.route_sample.calls": None,
                      "moo.solve_min_norm.calls": 1}
    info, _ = pairs.perfbench(str(tmp_path / "tree"), "cli-default", 0, 5, 1)
    assert info["argv"] == ["--workload", "cli-default", "--seed", "0", "--seconds", "5",
                            "--trace", "1"]
    assert pairs.TRACED_COMMAND.split()[2:] == ["--workload", "W"] + info["argv"][2:]


def test_an_unknown_workload_exits_2_before_any_tree_is_written(pairs, tmp_path, capsys):
    scratch = tmp_path / "trees"
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", "HEAD", "--workloads", "no-such-workload,cli-default",
                    "--scratch", str(scratch), "--out", str(tmp_path / "pairs.json")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--workloads: unknown workload 'no-such-workload'; BENCHMARK.json has cli-" in err
    assert not scratch.exists()
