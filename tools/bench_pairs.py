"""Paired benchmark of a parent commit against the working tree, one JSON out.

    python tools/bench_pairs.py --parent HEAD --seeds 0-9 --seconds 40 \
        --scratch /tmp/pairs --out pairs.json

It exports the parent with ``git archive`` and copies the working tree's
files (tracked and untracked, less what ``.gitignore`` ignores) into sibling
directories under ``--scratch``, then runs ``perfbench/run.py --trace 0`` in
each, one process at a time: for every seed and workload a pair of runs,
the parent first on even seeds and second on odd ones. The workloads are
``BENCHMARK.json``'s, or those of them that ``--workloads`` names. Each
side runs its own ``perfbench/run.py``. The JSON holds, per workload, every pair's
correctness, command counts and whether the two ``outputs.sha256`` agree,
and per end-to-end metric of ``BENCHMARK.json`` the statistics of
:func:`summarize`. ``--digest-seeds`` adds both trees' ``tools/output_digest.py``
lines, plain and then with ``--recall-boost``, and whether they are equal.
A metric is ``claim_holds`` when the change is better in at least nine of
ten pairs and its median is better than the parent's by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

from output_digest import parse_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> list[float]:
    """Inclusive quartiles (``statistics.quantiles(method="inclusive")``);
    one value is its own three quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Statistics of one metric over paired runs: ``parent[i]`` and
    ``change[i]`` are pair ``i``; ``better`` is ``"lower"`` or ``"higher"``
    and ``bound`` the largest relative worsening of the median allowed.

    A pair is won by the change when its value is strictly better. The
    relative change, median gap and worsening are taken against the
    parent's median; ``resolved`` says whether the parent's IQR is at most
    ``bound`` of its median, so that a gap of ``bound`` shows."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonempty pairs: {len(parent)} parent, {len(change)} change")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    iqr = p_q[2] - p_q[0]
    gain = sign * (p_med - c_med)  # > 0: the change's median is better
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return {
        "better": better,
        "bound": bound,
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": p_q,
        "change_quartiles": c_q,
        "parent_iqr": iqr,
        "parent_iqr_share": iqr / abs(p_med) if p_med else math.inf,
        "median_gap": c_med - p_med,
        "relative_change": (c_med - p_med) / abs(p_med) if p_med else math.inf,
        "pairs": len(parent),
        "pairs_won_by_change": won,
        "worse_beyond_bound": -gain > bound * abs(p_med),
        "resolved": iqr <= bound * abs(p_med),
        "claim_holds": 10 * won >= 9 * len(parent) and gain > iqr,
    }


def src_lines(tree: str) -> int:
    pkg = os.path.join(tree, "src", "edgecloud")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def export_trees(parent_ref: str, scratch: str) -> dict[str, str]:
    """``git archive`` of ``parent_ref`` and a copy of the working tree's
    files, as ``scratch/parent`` and ``scratch/change``; the parent commit."""
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    for tree in trees.values():
        if os.path.exists(tree):
            raise SystemExit(f"{tree} exists; give an empty --scratch")
        os.makedirs(tree)
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", parent_ref], check=True,
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "-C", ROOT, "archive", commit], check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(trees["parent"], filter="data")
    files = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True,
                           text=True).stdout.split("\0")
    for name in filter(None, files):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):
            dest = os.path.join(trees["change"], name)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copy2(source, dest)
    return {**trees, "commit": commit}


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process: its result line and ``outputs.sha256``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {**result, "outputs.sha256": info["outputs.sha256"]}


def digest_lines(tree: str, seeds: str) -> list[str] | None:
    """``tree``'s ``output_digest.py --seeds seeds`` lines, then those of the
    same run with ``--recall-boost``; None when the tree has no such tool."""
    tool = os.path.join(tree, "tools", "output_digest.py")
    if not os.path.isfile(tool):
        return None
    lines = []
    for extra in ([], ["--recall-boost"]):
        out = subprocess.run([sys.executable, tool, "--seeds", seeds, *extra], cwd=tree,
                             check=True, capture_output=True, text=True).stdout
        lines += out.strip().splitlines()
    return lines


def digest_report(trees: dict[str, str], seeds: str) -> dict:
    """Both trees' :func:`digest_lines`, and whether the parent has them and
    the change prints the same."""
    lines = {side: digest_lines(trees[side], seeds) for side in SIDES}
    return {"output_digest": lines,
            "output_digest_equal": lines["parent"] is not None
            and lines["parent"] == lines["change"]}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--seeds", type=parse_seeds, default="0-9",
                        help="seeds, one pair each per workload (default 0-9)")
    parser.add_argument("--workloads", default=",".join(known),
                        help=f"comma-separated, of BENCHMARK.json's (default {','.join(known)})")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--scratch", required=True, help="empty directory for the two trees")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--digest-seeds",
                        help="also record output_digest.py --seeds lines, plain and "
                             "with --recall-boost")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"--workloads: unknown workload {unknown[0]!r}; BENCHMARK.json has "
                     f"{', '.join(known)}")
    trees = export_trees(args.parent, args.scratch)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], workload, seed, args.seconds)
                print(f"seed {seed} {workload} {side}: correct {pair[side]['correct']}",
                      file=sys.stderr, flush=True)
            runs[workload].append(pair)
    import numpy
    report = {
        "schema": 1,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0",
        "protocol": "paired runs, one process at a time; the parent first on even seeds, "
                    "second on odd ones; quartiles inclusive; a pair is won on a strictly "
                    "better value",
        "parent": {"ref": args.parent, "commit": trees["commit"],
                   "src_lines": src_lines(trees["parent"])},
        "change": {"tree": "working tree", "src_lines": src_lines(trees["change"])},
        "seeds": args.seeds,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "workloads": {},
    }
    for workload, pairs in runs.items():
        report["workloads"][workload] = {
            "pairs": [{"seed": p["seed"], "first": p["first"],
                       "outputs_sha256_equal": p["parent"]["outputs.sha256"]
                       == p["change"]["outputs.sha256"],
                       **{side: {k: p[side][k] for k in ("correct", "attempted", "failed")}
                          for side in SIDES}} for p in pairs],
            "metrics": {m["name"]: summarize([p["parent"]["metrics"][m["name"]]["value"]
                                              for p in pairs],
                                             [p["change"]["metrics"][m["name"]]["value"]
                                              for p in pairs], m["better"], m["bound"])
                        for m in benchmark["end_to_end"]},
        }
    if args.digest_seeds:
        report.update(digest_report(trees, args.digest_seeds))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
