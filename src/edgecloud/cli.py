"""Command-line entry point.

Subcommands map onto the harness pipeline; every plan command takes a JSON
plan and an output directory (``--out``, or the ``EDGECLOUD_OUT`` environment
variable, default ``./out``). All randomness flows from the plan's master
seed (overridable with ``--seed``), so re-running any command with the same
inputs reproduces its outputs byte for byte. The dataset is a function of
the plan: every command that needs it gets it from ``harness.build_dataset``,
which shares it read-only within a process, and it is never written. Text
files are written as UTF-8, the encoding they are read in.

    train      run all training stages; write checkpoints + per-stage logs
    evaluate   score every policy in the plan; write reports.csv + frontiers
    sweep      dynamic-threshold sweep; write sweep.csv + sweep frontiers
    frontier   re-filter an existing reports CSV to its non-dominated rows
    report     print a reports CSV as a readable summary table

Exit codes: 0 success, 2 bad usage, a malformed config, a path that
cannot be read or written (the error names it) or checkpoints whose values
overflow on the validation split (the error names the pass), 3 training
divergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys

from . import harness, metrics, nncore, train as train_mod
from .nncore import ConfigError, UsageError
from .train import DivergenceError

CHECKPOINT_FILES = {"edge": "edge.npz", "cloud": "cloud.npz", "adapter": "adapter.npz"}


def _out_dir(args, *, create: bool = False) -> str:
    """``--out``, else ``$EDGECLOUD_OUT``, else ``out``; a path that exists and
    is not a directory is refused. Only ``train`` makes it (``create``):
    ``evaluate`` and ``sweep`` need the checkpoints in it."""
    out = args.out or os.environ.get("EDGECLOUD_OUT") or "out"
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"--out {out}: not a directory")
    if create:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: cannot create it ({exc.strerror})") from None
    return out


def _load_plan(args) -> harness.ExperimentPlan:
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed {args.seed}: must be >= 0")
    if not os.path.exists(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    return harness.load_plan(args.config, seed_override=args.seed)


def _load_system(plan, out_dir) -> harness.TrainedSystem:
    ds = harness.build_dataset(plan)
    edge, cloud, adapter = harness.blank_models(plan)
    for name, component in (("edge", edge), ("cloud", cloud), ("adapter", adapter)):
        path = os.path.join(out_dir, CHECKPOINT_FILES[name])
        if not os.path.exists(path):
            raise ConfigError(f"missing checkpoint {path}; run `train` first")
        nncore.restore_params(component.params(), nncore.load_params(path), path)
    return harness.TrainedSystem(plan, ds, edge, cloud, adapter)


def _scored(score, plan, out_dir) -> list[metrics.CostReport]:
    """``score`` of the system restored from ``out_dir``. Checkpoints whose
    finite values overflow on the validation split are refused, naming the
    pass that did."""
    try:
        return score(_load_system(plan, out_dir))
    except ArithmeticError as exc:
        raise ConfigError(f"{out_dir}: the checkpoints do not score: {exc}") from None


def cmd_train(args) -> int:
    plan = _load_plan(args)
    out = _out_dir(args, create=True)
    ds = harness.build_dataset(plan)
    edge, cloud, adapter = harness.build_models(plan)
    logs = harness.train_stages(plan, ds, edge, cloud, adapter)
    for name, component in (("edge", edge), ("cloud", cloud), ("adapter", adapter)):
        nncore.save_params(os.path.join(out, CHECKPOINT_FILES[name]), component.params())
    for name, result in logs.items():
        train_mod.write_training_log(os.path.join(out, f"train_{name}.csv"), result)
    print(f"wrote checkpoints and training logs to {out}")
    for name, result in logs.items():
        final = result.final
        print(f"  {name}: ce={final.ce_loss:.4f} acc={final.accuracy:.4f} recall={final.recall:.4f}")
    return 0


def _write_reports(out_dir, files: dict[str, list[metrics.CostReport]]) -> None:
    for name, reports in files.items():
        metrics.write_reports_csv(os.path.join(out_dir, name), reports)


def cmd_evaluate(args) -> int:
    plan = _load_plan(args)
    out = _out_dir(args)
    reports = _scored(harness.evaluate_policies, plan, out)
    _write_reports(out, {"reports.csv": reports,
                         "frontier_comp.csv": metrics.frontier_reports(reports, "s_comp"),
                         "frontier_comm.csv": metrics.frontier_reports(reports, "s_comm")})
    print(f"wrote {os.path.join(out, 'reports.csv')} ({len(reports)} systems)")
    return 0


def cmd_sweep(args) -> int:
    plan = _load_plan(args)
    out = _out_dir(args)
    reports = _scored(harness.sweep_dynamic, plan, out)
    frontier = metrics.frontier_reports(reports, "s_comp", "s_comm")
    _write_reports(out, {"sweep.csv": reports, "sweep_frontier.csv": frontier,
                         "sweep_frontier_comp.csv": metrics.frontier_reports(reports, "s_comp"),
                         "sweep_frontier_comm.csv": metrics.frontier_reports(reports, "s_comm")})
    print(f"wrote sweep CSVs to {out} ({len(reports)} points, {len(frontier)} non-dominated)")
    return 0


def _read_rows(path, columns) -> list[dict[str, str]]:
    """The data rows of the CSV at ``path``, which must exist and hold ``columns``."""
    if not os.path.exists(path):
        raise ConfigError(f"input CSV not found: {path}")
    rows = metrics.read_report_rows(path)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    for col in columns:
        if col not in rows[0]:
            raise ConfigError(f"{path}: missing column {col!r}")
    return rows


def cmd_frontier(args) -> int:
    names = args.objectives.split(",")
    if len(names) > 2:
        raise UsageError(f"--objectives: expected 'perf,cost' or 'cost', got {args.objectives!r}")
    objectives = names if len(names) == 2 else ["s_p", *names]
    rows = _read_rows(args.input, [*objectives, "label"])
    costs = []
    for i, row in enumerate(rows):
        try:
            perf, cost = (float(row[c]) for c in objectives)
        except ValueError as exc:
            raise ConfigError(f"{args.input} row {i + 1}: {exc}") from exc
        if not (math.isfinite(perf) and math.isfinite(cost)):
            raise ConfigError(f"{args.input} row {i + 1}: objectives must be finite")
        costs.append((-perf, cost))
    keep = metrics.pareto_frontier(costs, [row["label"] for row in rows])
    kept_rows = [row for row, kept in zip(rows, keep) if kept]
    with nncore.atomic_open(args.output, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(kept_rows)
    print(f"wrote {args.output} ({len(kept_rows)} of {len(rows)} rows non-dominated)")
    return 0


def cmd_report(args) -> int:
    rows = _read_rows(args.input, ["label"])
    cols = ["label", "accuracy", "s_p", "s_comp", "s_comm", "tau", "psi", "recall"]
    present = [c for c in cols if c in rows[0]]
    # a character the output stream cannot encode is printed escaped, as \xe9
    encoding = sys.stdout.encoding or "utf-8"
    rows = [{c: row[c].encode(encoding, "backslashreplace").decode(encoding) for c in present}
            for row in rows]
    widths = {c: max(len(c), 8) for c in present}
    widths["label"] = max(len(r["label"]) for r in rows + [{"label": "label"}])

    def fmt(row):
        cells = []
        for c in present:
            v = row[c]
            if c != "label":
                try:
                    v = f"{float(v):.4f}"
                except ValueError:
                    pass
            cells.append(v.ljust(widths[c]))
        return "  ".join(cells)

    print(fmt({c: c for c in present}))
    print("  ".join("-" * widths[c] for c in present))
    for row in rows:
        print(fmt(row))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    :func:`dispatch` in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(prog="edgecloud",
                                     description="edge-cloud collaborative inference simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_plan_command(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON experiment plan")
        p.add_argument("--seed", type=int, default=None, help="override the plan's master seed")
        p.add_argument("--out", default=None, help="output directory (default $EDGECLOUD_OUT or ./out)")
        p.set_defaults(func=func)
        return p

    add_plan_command("train", cmd_train, "run all training stages")
    add_plan_command("evaluate", cmd_evaluate, "evaluate the policy grid")
    add_plan_command("sweep", cmd_sweep, "sweep the dynamic c2 threshold")

    pf = sub.add_parser("frontier", help="re-filter a reports CSV to non-dominated rows")
    pf.add_argument("--input", required=True)
    pf.add_argument("--output", required=True)
    pf.add_argument("--objectives", default="s_p,s_comp",
                    help="perf,cost column pair (default s_p,s_comp)")
    pf.set_defaults(func=cmd_frontier)

    pr = sub.add_parser("report", help="print a reports CSV as a summary table")
    pr.add_argument("--input", required=True)
    pr.set_defaults(func=cmd_report)
    return parser


def dispatch(argv) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
