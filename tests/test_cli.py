"""CLI tests: the full command pipeline on a tiny plan, exit codes, and the
frontier/report commands."""

import concurrent.futures
import csv
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from edgecloud import cli, harness, metrics, nncore, train
from edgecloud.cli import dispatch

from conftest import (CHECKPOINT_DAMAGE, MISTYPED_FIELDS, brute_force_frontier,
                      damage_checkpoint, field_id, set_field, tiny_plan)


@pytest.fixture()
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    harness.save_plan(path, tiny_plan())
    return str(path)


# `gen-data` is a removed command: the parser refuses it like any unknown name.
@pytest.mark.parametrize("command", ["does-not-exist", "gen-data"])
def test_unknown_subcommand_exits_2(plan_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert dispatch([command, "--config", plan_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower() and f"invalid choice: '{command}'" in err
    assert not out.exists()


def test_readme_cli_block_names_every_command():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("edgecloud ")]
    commands = re.search(r"\{(.*?)\}", cli._build_parser().format_usage()).group(1).split(",")
    assert sorted(named) == sorted(commands)


def test_missing_config_exits_2(tmp_path, capsys):
    code = dispatch(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_exits_2_with_field_path(tmp_path, capsys):
    cfg = harness.plan_to_dict(tiny_plan())
    del cfg["dataset"]["dim"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(cfg))
    code = dispatch(["train", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "plan.dataset.dim" in capsys.readouterr().err


def test_evaluate_before_train_exits_2(plan_file, tmp_path, capsys):
    """Without checkpoints `evaluate` and `sweep` exit 2 naming the first one
    missing, and leave no output directory behind: only train makes it."""
    out = tmp_path / "out"
    for command in ("evaluate", "sweep"):
        assert dispatch([command, "--config", plan_file, "--out", str(out)]) == 2
        assert f"error: missing checkpoint {out / 'edge.npz'}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_an_out_that_is_a_file_exits_2_naming_it(plan_file, capsys, command):
    assert dispatch([command, "--config", plan_file, "--out", plan_file]) == 2
    assert capsys.readouterr().err == f"error: --out {plan_file}: not a directory\n"


def test_an_out_under_a_file_exits_2_naming_it(plan_file, capsys):
    out = os.path.join(plan_file, "out")
    assert dispatch(["train", "--config", plan_file, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {out}: cannot create it")


def test_dispatch_shares_one_parser_but_no_state(plan_file, tmp_path, monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()
    overrides = []
    load_plan = harness.load_plan

    def recording(path, seed_override=None):
        overrides.append(seed_override)
        return load_plan(path, seed_override)

    monkeypatch.setattr(harness, "load_plan", recording)
    assert dispatch(["train", "--config", plan_file, "--seed"]) == 2  # refused by the parser
    assert "--seed: expected one argument" in capsys.readouterr().err
    assert dispatch(["train", "--config", plan_file, "--out", str(tmp_path / "a"),
                     "--seed", "99"]) == 0
    assert dispatch(["train", "--config", plan_file, "--out", str(tmp_path / "b")]) == 0
    assert overrides == [99, None]


def test_evaluate_and_sweep_draw_only_the_dataset(plan_file, tmp_path, monkeypatch):
    """`evaluate` and `sweep` restore every parameter from the checkpoints,
    so the only generator they seed is the dataset's, and only when no
    earlier command in the process drew that dataset."""
    out = str(tmp_path / "out")
    assert dispatch(["train", "--config", plan_file, "--out", out]) == 0
    seeded = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    for command in ("evaluate", "sweep"):
        harness._cached_dataset.cache_clear()
        for draws in ([harness.derive_seeds(tiny_plan().master_seed)["dataset"]], []):
            seeded.clear()
            assert dispatch([command, "--config", plan_file, "--out", out]) == 0, command
            assert seeded == draws, command


def test_evaluate_and_sweep_route_in_the_workspace_of_an_earlier_train(plan_file, tmp_path,
                                                                        monkeypatch):
    """After a `train` in a thread, that thread's `evaluate` and `sweep`
    write every layer output but each pass's result, and every residual
    hidden activation, into the thread's workspace, and allocate no buffer
    there."""
    out = str(tmp_path / "out")
    passes, calls = [], []
    forward, apply_layer = nncore.forward, nncore.apply_layer

    def recording_forward(layers, x):
        passes.append(len(layers))
        return forward(layers, x)

    def recording_apply_layer(layer, x, out=None, hidden=None):
        calls.append((layer, out, hidden))
        return apply_layer(layer, x, out, hidden)

    def run():
        assert dispatch(["train", "--config", plan_file, "--out", out]) == 0
        buffers = list(nncore.workspace()._buffers)
        monkeypatch.setattr(nncore, "forward", recording_forward)
        monkeypatch.setattr(nncore, "apply_layer", recording_apply_layer)
        for command in ("evaluate", "sweep"):
            assert dispatch([command, "--config", plan_file, "--out", out]) == 0, command
        monkeypatch.undo()
        return buffers, list(nncore.workspace()._buffers)

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        before, after = pool.submit(run).result(timeout=120)
    assert all(now is then for now, then in zip(after, before))

    def in_workspace(array):
        return any(np.shares_memory(array, buf) for buf in before)

    assert calls and sum(1 for n in passes if n) == sum(1 for _, o, _ in calls if o is None)
    assert all(in_workspace(o) for _, o, _ in calls if o is not None)
    residual = [h for layer, _, h in calls if layer.kind == nncore.RESIDUAL]
    assert residual and all(h is not None and in_workspace(h) for h in residual)


def _written(out):
    """Each file in ``out`` by name: its bytes, or a checkpoint's members'
    bytes, since a zip also records when it was written."""
    files = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".npz"):
            with np.load(path) as z:
                files[name] = {member: z[member].tobytes() for member in z.files}
        else:
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def test_a_train_after_a_larger_one_writes_what_it_wrote_before(tmp_path):
    # the thread's workspace keeps the larger plan's buffers; the tiny
    # plan's train after it writes what it wrote before it
    larger = tiny_plan(data=harness.DataConfig(4, 8, 900, 0.4, 0.4),
                       cloud=harness.NetConfig(hidden=[24, 24, 24]))
    outs = []
    for i, plan in enumerate((tiny_plan(), larger, tiny_plan())):
        path, out = str(tmp_path / f"plan{i}.json"), str(tmp_path / f"out{i}")
        harness.save_plan(path, plan)
        assert dispatch(["train", "--config", path, "--out", out]) == 0
        outs.append(_written(out))
    assert len(outs[0]) == 6
    assert outs[2] == outs[0]
    assert outs[1]["cloud.npz"] != outs[0]["cloud.npz"]


def test_an_evaluate_after_a_larger_one_writes_what_it_wrote_before(tmp_path):
    # the tiny plan's two evaluates share its dataset; the larger plan's,
    # drawn between them, must not leak into the second
    larger = tiny_plan(data=harness.DataConfig(4, 8, 900, 0.4, 0.4),
                       cloud=harness.NetConfig(hidden=[24, 24, 24]))
    outs = []
    for i, plan in enumerate((tiny_plan(), larger, tiny_plan())):
        path, out = str(tmp_path / f"plan{i}.json"), str(tmp_path / f"out{i % 2}")
        harness.save_plan(path, plan)
        if i < 2:
            assert dispatch(["train", "--config", path, "--out", out]) == 0
        assert dispatch(["evaluate", "--config", path, "--out", out]) == 0
        outs.append({name: (pathlib.Path(out) / name).read_bytes()
                     for name in ("reports.csv", "frontier_comp.csv", "frontier_comm.csv")})
    assert outs[2] == outs[0]
    assert outs[1]["reports.csv"] != outs[0]["reports.csv"]


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """Output directory of train, evaluate and sweep on the tiny plan."""
    root = tmp_path_factory.mktemp("pipeline")
    plan_path, out = str(root / "plan.json"), str(root / "out")
    harness.save_plan(plan_path, tiny_plan())
    for command in ("train", "evaluate", "sweep"):
        assert dispatch([command, "--config", plan_path, "--out", out]) == 0, command
    return out


def test_no_command_writes_the_dataset(pipeline_out):
    """The pipeline writes checkpoints, logs and reports; the dataset is
    rebuilt from the plan by each command and never written."""
    assert sorted(os.listdir(pipeline_out)) == sorted([
        "edge.npz", "cloud.npz", "adapter.npz",
        "train_cloud.csv", "train_edge_kd.csv", "train_finetune.csv",
        "reports.csv", "frontier_comp.csv", "frontier_comm.csv",
        "sweep.csv", "sweep_frontier.csv", "sweep_frontier_comp.csv", "sweep_frontier_comm.csv"])


def test_full_pipeline(pipeline_out, capsys):
    out = pipeline_out
    rows = metrics.read_report_rows(os.path.join(out, "reports.csv"))
    labels = [r["label"] for r in rows]
    assert labels[:2] == ["edge", "cloud"]
    assert "independent" in labels

    # evaluated scores match an in-process run of the same plan
    result = harness.run_experiment(tiny_plan())
    by_label = {r.label: r for r in result.reports}
    for row in rows:
        rep = by_label[row["label"]]
        assert float(row["s_p"]) == rep.s_p
        assert float(row["accuracy"]) == rep.accuracy

    assert dispatch(["report", "--input", os.path.join(out, "reports.csv")]) == 0
    table = capsys.readouterr().out
    assert "label" in table and "independent" in table


@pytest.mark.parametrize("how", CHECKPOINT_DAMAGE)
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_damaged_checkpoint_exits_2_naming_it(pipeline_out, tmp_path, capsys, command, how):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    path = out / "cloud.npz"
    damage_checkpoint(path, how, "cloud.head.W")
    plan_path = os.path.join(os.path.dirname(pipeline_out), "plan.json")
    assert dispatch([command, "--config", plan_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    if how in ("nan", "inf"):
        assert "parameter 'cloud.head.W' is not a finite real array" in err


def test_evaluate_and_sweep_restore_the_parameters_train_wrote(plan_file, tmp_path, monkeypatch):
    """``params_digest`` of each component after `train` equals its digest
    as `evaluate` and `sweep` restore it from the checkpoints."""
    digests = {}

    def recording(stage, fn, components):
        def run(*args):
            result = fn(*args)
            digests[stage] = [nncore.params_digest(c.params()) for c in components(*args)]
            return result
        return run

    def trained(plan, ds, *components):
        return components

    def restored(system):
        return system.edge, system.cloud, system.adapter

    for stage, name, components in (("train", "train_stages", trained),
                                    ("evaluate", "evaluate_policies", restored),
                                    ("sweep", "sweep_dynamic", restored)):
        monkeypatch.setattr(harness, name, recording(stage, getattr(harness, name), components))
    out = str(tmp_path / "out")
    for command in ("train", "evaluate", "sweep"):
        assert dispatch([command, "--config", plan_file, "--out", out]) == 0, command
    assert digests["evaluate"] == digests["train"] == digests["sweep"]
    assert len(set(digests["train"])) == 3


@pytest.mark.parametrize("how", ["missing", "misshapen"])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_checkpoint_that_does_not_fit_the_plan_exits_2_naming_it(pipeline_out, tmp_path, capsys,
                                                                    command, how):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    path = out / "edge.npz"
    arrays = nncore.load_params(path)
    bias = arrays.pop("edge.head.b")
    if how == "misshapen":
        arrays["edge.head.b"] = np.append(bias, 0.0)
    nncore.save_params(path, [nncore.Param(name, a) for name, a in arrays.items()])
    plan_path = os.path.join(os.path.dirname(pipeline_out), "plan.json")
    assert dispatch([command, "--config", plan_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "'edge.head.b'" in err


@pytest.mark.parametrize("component, smaller, first_extra", [
    ("adapter", {"adapter": harness.AdapterConfig(edge_tap=0, cloud_tap=1, blocks=0)},
     "adapter.res0."),
    ("cloud", {"cloud": harness.NetConfig(hidden=[16, 16])}, "cloud.h2."),
], ids=["adapter-without-its-block", "cloud-without-h2"])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_checkpoint_of_a_larger_plan_exits_2_naming_its_first_extra_parameter(
        pipeline_out, tmp_path, capsys, command, component, smaller, first_extra):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    plan_path = str(tmp_path / "plan.json")
    harness.save_plan(plan_path, tiny_plan(**smaller))
    assert dispatch([command, "--config", plan_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(f"^error: {re.escape(str(out / (component + '.npz')))}: checkpoint has "
                     f"parameter '{re.escape(first_extra)}[^']*', which the net lacks$", err,
                     re.MULTILINE)


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_version_1_checkpoint_exits_2_asking_for_train(pipeline_out, tmp_path, capsys, command):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    path = out / "adapter.npz"
    np.savez(path, __checkpoint_version__=np.int64(1), **nncore.load_params(path))
    plan_path = os.path.join(os.path.dirname(pipeline_out), "plan.json")
    assert dispatch([command, "--config", plan_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: checkpoint version 1 is no longer read; re-run `train`" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_checkpoints_that_overflow_exit_2_naming_the_pass(pipeline_out, tmp_path, capsys, command):
    # finite values that overflow on the validation split: routing runs the
    # edge first, and its pass from the head, after the tap, overflows
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    path = out / "edge.npz"
    nncore.save_params(path, [nncore.Param(name, a * 1e300)
                              for name, a in nncore.load_params(path).items()])
    plan_path = os.path.join(os.path.dirname(pipeline_out), "plan.json")
    assert dispatch([command, "--config", plan_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {out}: the checkpoints do not score: forward pass from edge.head "
                   "produced non-finite values\n")


@pytest.mark.parametrize("name, costs", [("sweep_frontier.csv", ("s_comp", "s_comm")),
                                         ("sweep_frontier_comp.csv", ("s_comp",)),
                                         ("sweep_frontier_comm.csv", ("s_comm",))],
                         ids=["s_comp-s_comm", "s_comp", "s_comm"])
def test_sweep_frontier_files_hold_the_brute_force_frontier(pipeline_out, name, costs):
    sweep = metrics.read_report_rows(os.path.join(pipeline_out, "sweep.csv"))
    kept = metrics.read_report_rows(os.path.join(pipeline_out, name))
    assert len(sweep) == len(tiny_plan().sweep_policies())

    values = [[float(r[c]) for c in ("s_p", *costs)] for r in sweep]
    keep = brute_force_frontier(values, ("max",) + ("min",) * len(costs),
                                [r["label"] for r in sweep])
    # rows of sweep.csv in its order, one per non-dominated objective vector
    assert kept == [r for r, k in zip(sweep, keep) if k]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_exits_3(tmp_path, capsys):
    # a step large enough to overflow the next forward pass
    plan = tiny_plan()
    plan.stages["cloud"].learning_rate = 1e300
    path = tmp_path / "plan.json"
    harness.save_plan(path, plan)
    code = dispatch(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err and "base" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_divergence_that_shows_in_a_report_exits_3(tmp_path, capsys):
    # one step per epoch over the 480 training rows: the step's loss is
    # finite, and the report after it is the first pass that overflows
    plan = tiny_plan()
    for stage in plan.stages.values():
        stage.learning_rate, stage.batch_size = 1e200, 1000
    path = tmp_path / "plan.json"
    harness.save_plan(path, plan)
    code = dispatch(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == ("error: training stage 'base' diverged at epoch 1: "
                                       "a loss or a pass is not finite\n")


def test_frontier_command_on_hand_written_csv(tmp_path):
    src = tmp_path / "rows.csv"
    with open(src, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "s_p", "s_comp"])
        writer.writerow(["A", "0.9", "0.7"])
        writer.writerow(["B", "0.8", "0.8"])
        writer.writerow(["C", "0.95", "0.9"])
    dst = tmp_path / "front.csv"
    assert dispatch(["frontier", "--input", str(src), "--output", str(dst)]) == 0
    rows = metrics.read_report_rows(dst)
    assert [r["label"] for r in rows] == ["A", "C"]


def test_frontier_into_a_missing_directory_exits_2_naming_the_output(tmp_path, capsys):
    src, dst = tmp_path / "rows.csv", tmp_path / "nodir" / "out.csv"
    src.write_text("label,s_p,s_comp\nA,0.9,0.7\n")
    assert dispatch(["frontier", "--input", str(src), "--output", str(dst)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{dst}'\n"
    assert not dst.parent.exists()


@pytest.mark.parametrize("command", ["frontier", "report", "train", "evaluate"])
def test_a_directory_given_as_a_file_exits_2_naming_it(plan_file, tmp_path, capsys, command):
    somedir, src = tmp_path / "somedir", tmp_path / "rows.csv"
    somedir.mkdir()
    src.write_text("label,s_p,s_comp\nA,0.9,0.7\n")
    args = {"frontier": ["--input", str(src), "--output", str(somedir)],
            "report": ["--input", str(somedir)],
            "train": ["--config", str(somedir), "--out", str(tmp_path / "out")],
            "evaluate": ["--config", str(somedir), "--out", str(tmp_path / "out")]}[command]
    assert dispatch([command, *args]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{somedir}'\n"
    assert sorted(os.listdir(tmp_path)) == ["plan.json", "rows.csv", "somedir"]
    assert os.listdir(somedir) == []


@pytest.mark.parametrize("command", ["train", "report", "frontier"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "noise"
    path.write_bytes(b"\xff" + np.random.default_rng(0).bytes(199))
    args = {"train": ["--config", str(path), "--out", str(tmp_path / "out")],
            "report": ["--input", str(path)],
            "frontier": ["--input", str(path), "--output", str(tmp_path / "f.csv")]}[command]
    assert dispatch([command, *args]) == 2
    err = capsys.readouterr().err
    if command == "train":
        assert err.startswith(f"error: {path}: invalid JSON (")
    else:
        assert err == f"error: {path}: not a UTF-8 CSV\n"
    assert os.listdir(tmp_path) == ["noise"]


def test_frontier_missing_column_exits_2(tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("label,s_p\nA,0.9\n")
    dst = tmp_path / "front.csv"
    assert dispatch(["frontier", "--input", str(src), "--output", str(dst)]) == 2
    assert "s_comp" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["A,0.9,high", "A,0.9", "A,0.9,nan", "A,inf,0.1", "A,0.9,0.1,9"],
                         ids=["non-numeric", "short-row", "nan", "inf", "long-row"])
def test_frontier_bad_cell_exits_2_naming_the_file(tmp_path, capsys, row):
    src = tmp_path / "rows.csv"
    src.write_text(f"label,s_p,s_comp\nB,0.8,0.8\n{row}\n")
    assert dispatch(["frontier", "--input", str(src), "--output", str(tmp_path / "f.csv")]) == 2
    assert f"error: {src} row 2: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["rows.csv"]


@pytest.mark.parametrize("command", ["report", "frontier"])
@pytest.mark.parametrize("first", [True, False], ids=["first-row", "later-row"])
def test_a_row_longer_than_the_header_exits_2_naming_it(tmp_path, capsys, command, first):
    src = tmp_path / "rows.csv"
    rows = ["cloud,1,1,1,9", "edge,0,0,0"]
    src.write_text("\n".join(["label,s_p,s_comp,s_comm", *(rows if first else rows[::-1])]) + "\n")
    args = ["--input", str(src)]
    if command == "frontier":
        args += ["--output", str(tmp_path / "f.csv")]
    assert dispatch([command, *args]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {src} row {1 if first else 2}: 5 cells, the header has 4\n"
    assert out == "" and os.listdir(tmp_path) == ["rows.csv"]


def test_frontier_writes_utf8_whatever_the_locale(tmp_path):
    """Text is written in the encoding it is read in, even where the locale's
    encoding is ASCII."""
    src, dst = tmp_path / "rows.csv", tmp_path / "front.csv"
    src.write_text("label,s_p,s_comp\ncafé,0.9,0.1\nthé,0.5,0.5\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                          os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-m", "edgecloud.cli", "frontier", "--input", str(src),
                           "--output", str(dst)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert dst.read_bytes().decode("utf-8") == "label,s_p,s_comp\r\ncafé,0.9,0.1\r\n"


def test_report_escapes_what_an_ascii_locale_cannot_print(tmp_path):
    """A label the output stream cannot encode is printed backslash-escaped,
    in a column as wide as the escaped label, and the command exits 0."""
    src = tmp_path / "r.csv"
    src.write_text("label,accuracy\ncafé,0.5\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                          os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-m", "edgecloud.cli", "report", "--input", str(src)],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.decode("ascii").splitlines() == [
        "label    accuracy", "-------  --------", "caf\\xe9  0.5000  "]


def test_frontier_drops_a_dominated_row_that_shares_a_kept_label(tmp_path, capsys):
    src, dst = tmp_path / "rows.csv", tmp_path / "front.csv"
    src.write_text("label,s_p,s_comp\na,0.9,0.1\na,0.1,0.9\nb,0.5,0.5\n")
    assert dispatch(["frontier", "--input", str(src), "--output", str(dst)]) == 0
    assert dst.read_bytes() == b"label,s_p,s_comp\r\na,0.9,0.1\r\n"
    assert "(1 of 3 rows non-dominated)" in capsys.readouterr().out


def test_frontier_command_keeps_the_rows_sweep_keeps(pipeline_out, tmp_path):
    dst = tmp_path / "front.csv"
    assert dispatch(["frontier", "--input", os.path.join(pipeline_out, "sweep.csv"),
                     "--output", str(dst), "--objectives", "s_p,s_comp"]) == 0
    with open(os.path.join(pipeline_out, "sweep_frontier_comp.csv"), "rb") as fh:
        assert dst.read_bytes() == fh.read()


@pytest.mark.parametrize("command", ["report", "frontier"])
def test_a_csv_that_starts_with_a_byte_order_mark_is_read(tmp_path, capsys, command):
    src, dst = tmp_path / "rows.csv", tmp_path / "front.csv"
    src.write_bytes(b"\xef\xbb\xbflabel,s_p,s_comp\nA,0.9,0.7\nB,0.8,0.8\n")
    args = {"report": ["--input", str(src)],
            "frontier": ["--input", str(src), "--output", str(dst)]}[command]
    assert dispatch([command, *args]) == 0
    if command == "report":
        assert capsys.readouterr().out.splitlines()[0].split() == ["label", "s_p", "s_comp"]
    else:
        assert dst.read_bytes() == b"label,s_p,s_comp\r\nA,0.9,0.7\r\n"


def test_report_prints_a_short_row_with_empty_cells(tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("label,s_p,s_comp\nA,0.9,0.7\nB,0.8\n")
    assert dispatch(["report", "--input", str(src)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["B", "0.8000"]


def test_report_without_a_label_column_exits_2(pipeline_out, capsys):
    path = os.path.join(pipeline_out, "train_cloud.csv")
    assert dispatch(["report", "--input", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: missing column 'label'\n"


def test_frontier_with_three_objectives_exits_2(tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("label,s_p,s_comp,s_comm\nA,0.9,0.7,0.5\n")
    dst = tmp_path / "front.csv"
    assert dispatch(["frontier", "--input", str(src), "--output", str(dst),
                     "--objectives", "s_p,s_comp,s_comm"]) == 2
    assert "--objectives" in capsys.readouterr().err
    assert not dst.exists()


def test_out_dir_from_environment(plan_file, tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("EDGECLOUD_OUT", str(out))
    assert dispatch(["train", "--config", plan_file]) == 0
    assert (out / "edge.npz").exists()


def test_seed_override_changes_what_train_writes(plan_file, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert dispatch(["train", "--config", plan_file, "--out", out_a]) == 0
    assert dispatch(["train", "--config", plan_file, "--out", out_b, "--seed", "99"]) == 0
    a, b = _written(out_a), _written(out_b)
    assert sorted(a) == sorted(b)
    assert all(a[name] != b[name] for name in a)


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_a_negative_master_seed_exits_2_before_any_output(tmp_path, capsys, command):
    cfg = harness.plan_to_dict(tiny_plan())
    cfg["master_seed"] = -3
    path, out = tmp_path / "plan.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert dispatch([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: plan.master_seed: must be >= 0\n"
    harness.save_plan(path, tiny_plan())
    assert dispatch([command, "--config", str(path), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed -1: must be >= 0\n"
    assert not out.exists()


def test_sweep_routes_on_the_plan_confidence_mode(tmp_path):
    plan = tiny_plan()
    for pc in plan.policies:
        pc.confidence_mode = "max-class"
    path, out = tmp_path / "plan.json", str(tmp_path / "out")
    harness.save_plan(path, plan)
    for command in ("train", "evaluate", "sweep"):
        assert dispatch([command, "--config", str(path), "--out", out]) == 0, command
    reports = {r["label"]: r for r in metrics.read_report_rows(os.path.join(out, "reports.csv"))}
    sweep = metrics.read_report_rows(os.path.join(out, "sweep.csv"))
    for row, policy in ((sweep[0], "adaptive"), (sweep[-1], "independent")):
        assert {k: v for k, v in row.items() if k != "label"} == \
            {k: v for k, v in reports[policy].items() if k != "label"}, policy


@pytest.mark.parametrize("policy, key, value", [
    (0, "c1", 1.5), (2, "c2", -0.2), (None, "kd_weight", -1.0), (None, "kd_weight", math.inf),
    (1, "confidence_mode", "softmax-max"),
])
def test_train_refuses_a_plan_evaluate_would_refuse(tmp_path, capsys, policy, key, value):
    cfg = harness.plan_to_dict(tiny_plan())
    (cfg if policy is None else cfg["policies"][policy])[key] = value
    path, out = tmp_path / "plan.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert dispatch(["train", "--config", str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "edge.npz").exists()


REFUSED_AT_TRAIN = MISTYPED_FIELDS[:3] + [(("c2_grid",), [0.2, 0.9],
                                            "plan.c2_grid: entries must lie in")]
REPEATED_LABELS = [
    (("policies",), harness.plan_to_dict(tiny_plan())["policies"] + [{"variant": "independent",
                                                                      "c1": 0.8}],
     r"plan.policies\[3\]: duplicate label 'independent'$"),
    (("c2_grid",), [0.3, 0.3000001], r"plan.c2_grid\[1\]: duplicate label 'dynamic\(c2=0\.3\)'$"),
]


@pytest.mark.parametrize("keys, value, message", REFUSED_AT_TRAIN + REPEATED_LABELS,
                         ids=[field_id(keys) for keys, _, _ in REFUSED_AT_TRAIN]
                         + ["repeated-policy", "repeated-c2"])
def test_train_refuses_a_mistyped_or_unsweepable_plan(tmp_path, capsys, keys, value, message):
    cfg = harness.plan_to_dict(tiny_plan())
    set_field(cfg, keys, value)
    path, out = tmp_path / "plan.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert dispatch(["train", "--config", str(path), "--out", str(out)]) == 2
    assert re.search(f"^error: {message}", capsys.readouterr().err)
    assert not (out / "edge.npz").exists()


REFUSED_AT_LOAD = [
    (("edge", "hidden"), [-3], r"plan.edge.hidden\[0\]: must be >= 1"),
    (("edge", "hidden"), [0], r"plan.edge.hidden\[0\]: must be >= 1"),
    (("recall_bost",), True, "plan.recall_bost: unknown field"),
    (("cloud", "taps"), [0, 1, 2], "plan.cloud.taps: unknown field"),
    (("bytes_per_element",), 4, "plan.bytes_per_element: unknown field"),
    (("adapter", "edge_tap"), 5, r"plan.adapter.edge_tap: must lie in \[0, 1\]"),
    (("dataset", "dim"), 0, "plan.dataset.dim: must be >= 1"),
    (("dataset", "n"), 3, "plan.dataset.n: must be >= num_classes"),
    (("dataset", "normal_fraction"), 1.5, r"plan.dataset.normal_fraction: must lie in \[0, 1\]"),
    (("dataset", "normal_fraction"), 1.0,
     "plan.dataset.normal_fraction: must leave a positive training sample"),
    (("dataset", "difficulty"), -0.1, r"plan.dataset.difficulty: must lie in \[0, 1\]"),
]


@pytest.mark.parametrize("keys, value, message", REFUSED_AT_LOAD,
                         ids=["edge-width--3", "edge-width-0", "recall_bost", "cloud.taps",
                              "bytes_per_element",
                              "edge-tap-5", "dataset-dim-0", "dataset-n-3",
                              "dataset-normal_fraction-1.5", "dataset-normal_fraction-1.0",
                              "dataset-difficulty--0.1"])
def test_train_refuses_an_unbuildable_or_misspelled_plan(tmp_path, capsys, keys, value, message):
    cfg = harness.plan_to_dict(tiny_plan())
    set_field(cfg, keys, value)
    path, out = tmp_path / "plan.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    for command in ("train", "evaluate", "sweep"):
        assert dispatch([command, "--config", str(path), "--out", str(out)]) == 2
        assert re.search(f"^error: {message}$", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("keys, value, message", [
    (("kd_weight",), 0.0, "plan.kd_weight: must be > 0 when recall_boost is on"),
    (("dataset", "normal_fraction"), 0.0,
     "plan.recall_boost: needs a normal row in the training split"),
], ids=["without-imitation", "without-a-normal-training-row"])
def test_recall_boost_refused_before_any_output(tmp_path, capsys, keys, value, message):
    cfg = harness.plan_to_dict(tiny_plan(recall_boost=True))
    set_field(cfg, keys, value)
    path, out = tmp_path / "plan.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    for command in ("train", "evaluate", "sweep"):
        assert dispatch([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The edge case: the tiny plan's cloud widths, so edge and cloud cost the same FLOPs.
@pytest.mark.parametrize("keys, value, message", [
    (("stages", "finetune", "batch_size"), 0, "plan.stages.finetune.batch_size: must be >= 1"),
    (("stages", "finetune", "learning_rate"), math.inf,
     "plan.stages.finetune.learning_rate: must be finite"),
    (("edge", "hidden"), [16, 16, 16],
     "plan.edge: comp score needs flops_cloud > flops_edge, got 1460 >= 1460 per sample"),
], ids=["batch_size", "learning_rate", "edge-as-costly-as-the-cloud"])
def test_train_rejects_a_bad_plan_before_running_any_stage(tmp_path, capsys, monkeypatch,
                                                           keys, value, message):
    cfg = harness.plan_to_dict(tiny_plan())
    set_field(cfg, keys, value)
    path, out = tmp_path / "plan.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    ran = []

    def recording(name):
        procedure = getattr(train, name)

        def run(*args, **kwargs):
            ran.append(name)
            return procedure(*args, **kwargs)
        return run

    for name in ("train_base", "train_edge_kd", "finetune_adapter"):
        monkeypatch.setattr(train, name, recording(name))
    assert dispatch(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ran == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# Atomic writes: every output file is written beside its target, then
# renamed over it, so a writer that fails midway leaves the old file.

class Midway(Exception):
    """Raised by a patched writer after it has written part of a file."""


REPORTS = [metrics.CostReport("edge", 0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 0.5, 0.4),
           metrics.CostReport("cloud", 1.0, 1.0, 1.0, 1.0, 1.0, 90.0, 0.9, 0.8)]


def _writers(tmp_path):
    """Name -> a call that writes one file at the path it is given."""
    source = tmp_path / "input.csv"
    metrics.write_reports_csv(source, REPORTS)
    rep = train.LossReport(1.0, 0.0, 0.5, 0.5, 0.5)
    return {
        "save_params": lambda path: nncore.save_params(path, [nncore.Param("w", np.arange(3.0))]),
        "training_log": lambda path: train.write_training_log(path, train.TrainResult([rep, rep])),
        "reports_csv": lambda path: metrics.write_reports_csv(path, REPORTS),
        "frontier": lambda path: dispatch(["frontier", "--input", str(source),
                                           "--output", str(path)]),
    }


@pytest.mark.parametrize("name", ["save_params", "training_log", "reports_csv", "frontier"])
def test_a_writer_failing_midway_leaves_the_old_file(tmp_path, monkeypatch, capsys, name):
    write = _writers(tmp_path)[name]
    out = tmp_path / "out"
    out.mkdir()
    path = out / ("file.npz" if name == "save_params" else "file.csv")
    write(path)
    old = path.read_bytes()
    real_writer = csv.writer

    def failing_savez(fh, *args, **kwargs):
        fh.write(b"PK partial")
        raise Midway

    def failing_csv_writer(fh, *args, **kwargs):
        writer = real_writer(fh, *args, **kwargs)

        class FirstRowOnly:
            def writerow(self, row):
                writer.writerow(row)
                fh.flush()
                raise Midway

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        return FirstRowOnly()

    monkeypatch.setattr(np, "savez", failing_savez)
    monkeypatch.setattr(csv, "writer", failing_csv_writer)
    with pytest.raises(Midway):
        write(path)
    assert path.read_bytes() == old
    assert os.listdir(out) == [path.name]
