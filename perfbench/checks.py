"""Output checks on the files the CLI writes, and content digests for repeat checks.

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import os
import zipfile

ANCHORS = {"edge": 0.0, "cloud": 1.0}
ANCHOR_COLUMNS = ("s_p", "s_comp", "s_comm")

TRAIN_FILES = ("edge.npz", "cloud.npz", "adapter.npz",
               "train_cloud.csv", "train_edge_kd.csv", "train_finetune.csv")
EVALUATE_FILES = ("reports.csv", "frontier_comp.csv", "frontier_comm.csv")
SWEEP_FILES = ("sweep.csv", "sweep_frontier.csv", "sweep_frontier_comp.csv",
               "sweep_frontier_comm.csv")


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _numeric(row: dict[str, str]) -> dict[str, float]:
    return {k: float(v) for k, v in row.items() if k != "label"}


def check_reports(rows) -> list[str]:
    """The edge and cloud anchor rows score (0, 0, 0) and (1, 1, 1)."""
    by_label = {r["label"]: r for r in rows}
    problems = []
    for label, expected in ANCHORS.items():
        row = by_label.get(label)
        if row is None:
            problems.append(f"reports: no {label!r} anchor row")
            continue
        got = tuple(float(row[c]) for c in ANCHOR_COLUMNS)
        if got != (expected,) * len(ANCHOR_COLUMNS):
            problems.append(f"reports: {label} anchor scores {got}, expected {expected}")
    return problems


def check_sweep(sweep_rows, report_rows) -> list[str]:
    """Collapse identities at the sweep's ends, constant tau, non-decreasing psi.

    The sweep's first row (c2 = 0) must equal the ``adaptive`` report and its
    last row (c2 = c1) the ``independent`` report in every numeric column.
    """
    if not sweep_rows:
        return ["sweep: no rows"]
    by_label = {r["label"]: r for r in report_rows}
    problems = []
    first, last = sweep_rows[0]["label"], sweep_rows[-1]["label"]
    if first != "dynamic(c2=0)":
        problems.append(f"sweep: first row is {first!r}, expected 'dynamic(c2=0)'")
    for row, policy in ((sweep_rows[0], "adaptive"), (sweep_rows[-1], "independent")):
        if policy not in by_label:
            problems.append(f"sweep: no {policy!r} report to compare {row['label']} with")
            continue
        got, want = _numeric(row), _numeric(by_label[policy])
        diff = sorted(k for k in want if got.get(k) != want[k])
        if diff:
            problems.append(f"sweep: {row['label']} differs from {policy} in {', '.join(diff)}")
    taus = [float(r["tau"]) for r in sweep_rows]
    if any(t != taus[0] for t in taus):
        problems.append("sweep: tau is not constant along the sweep")
    psis = [float(r["psi"]) for r in sweep_rows]
    if any(b < a for a, b in zip(psis, psis[1:])):
        problems.append("sweep: psi decreases along the sweep")
    return problems


def file_digest(path) -> str:
    """SHA-256 of a file; for ``.npz`` archives, of the arrays they hold, since
    the zip entries carry write timestamps."""
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode())
                h.update(zf.read(name))
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def dir_digests(out_dir, names) -> dict[str, str]:
    """Digest of each named output file; a missing file digests as ``missing``."""
    return {name: file_digest(os.path.join(out_dir, name))
            if os.path.exists(os.path.join(out_dir, name)) else "missing"
            for name in names}


def combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}:{digests[name]}\n".encode())
    return h.hexdigest()
