"""Trade-off scores and Pareto frontier extraction.

Scores are computed from per-route tallies (rows, correct rows, recalled
positives), and a :class:`CostReport` is one reports-CSV row, its fields the
columns in order. All three scores are anchored so an edge-only system
scores 0 and a pure cloud system scores 1:

* communication: ``s_comm = tau * psi`` where ``tau`` is the offloaded
  fraction and ``psi`` the exact integer element total of the offloaded
  rows over ``input_elements`` times their count, rounded once,
* computation: ``s_comp = (flops_sys - flops_edge) / (flops_cloud -
  flops_edge)`` with ``flops_sys = flops_edge + mean(cloud-side flops per
  sample)`` (the branch-weighted generalization of a single offload
  ratio),
* performance: ``s_p = (pi_sys - pi_edge) / (pi_cloud - pi_edge)``, which
  may exceed 1 when the combined system beats the cloud model.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nncore import ConfigError, UsageError, atomic_open
from .policy import EDGE_CODE


def comm_score(counts, route_elements: Sequence[int],
               input_elements: int) -> tuple[float, float, float]:
    """Offload fraction, mean size ratio over offloaded rows, and their product.

    ``counts[code]`` is the number of rows on a route and
    ``route_elements[code]`` the elements one such row transmits (0 on the
    edge-only route). ``psi`` is the exact element total over
    ``input_elements`` times the offloaded count, rounded once; with no
    offloaded rows it is reported as 0 by convention.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0 or input_elements <= 0:
        raise UsageError("comm_score needs a routed row and positive input_elements")
    offloaded = n - int(counts[EDGE_CODE])
    tau = offloaded / n
    psi = int(counts @ route_elements) / (input_elements * offloaded) if offloaded else 0.0
    return tau, psi, tau * psi


def check_flops(flops_edge: float, flops_cloud: float) -> None:
    if flops_cloud <= flops_edge:
        raise ConfigError("comp score needs flops_cloud > flops_edge")


def comp_score_value(flops_edge: float, flops_cloud: float, flops_sys: float) -> float:
    """Computation score from aggregate FLOP counts (any consistent unit)."""
    check_flops(flops_edge, flops_cloud)
    return (flops_sys - flops_edge) / (flops_cloud - flops_edge)


def comp_score(flops_edge: float, flops_cloud: float, counts,
               route_flops: Sequence[int]) -> tuple[float, float]:
    """Branch-weighted system FLOPs and the normalized computation score.

    ``counts[code]`` is the number of rows on a route and ``route_flops[code]``
    the cloud-side FLOPs of one such row; their exact integer total is
    divided by the row count.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        raise UsageError("comp_score needs a routed row")
    flops_sys = flops_edge + int(counts @ route_flops) / n
    return flops_sys, comp_score_value(flops_edge, flops_cloud, flops_sys)


def perf_score(pi_sys: float, pi_edge: float, pi_cloud: float) -> float:
    """Fraction of the edge-to-cloud performance gap the system fills.

    Undefined when the gap is zero; reported as NaN so callers can flag it.
    """
    gap = pi_cloud - pi_edge
    if gap == 0.0:
        return math.nan
    return (pi_sys - pi_edge) / gap


@dataclass(frozen=True)
class CostReport:
    """Scores and raw costs of one evaluated system: one reports-CSV row."""

    label: str
    s_p: float
    s_comp: float
    s_comm: float
    tau: float
    psi: float
    flops_ecc: float
    accuracy: float
    recall: float

    def __post_init__(self) -> None:
        if abs(self.s_comm - self.tau * self.psi) > 1e-12:
            raise UsageError("s_comm must equal tau * psi")


REPORT_COLUMNS = [f.name for f in dataclasses.fields(CostReport)]


def pareto_frontier(costs, labels: Sequence[str]) -> np.ndarray:
    """Mask of the non-dominated rows of an (n, k) array, every column minimized.

    Of rows with equal cost vectors only one is kept: the one with the
    greatest label, and the first of those if labels repeat. Rows are
    scanned in ascending lexicographic cost order (greatest label first
    among equals), so any row that dominates or equals a row is scanned
    before it; each row is therefore compared against the kept front only.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or 0 in costs.shape or len(labels) != len(costs):
        raise UsageError("pareto_frontier needs a nonempty (n, k) cost array and n labels")
    if not np.isfinite(costs).all():
        raise UsageError("pareto_frontier needs finite costs")
    rows = costs.tolist()
    by_label = sorted(range(len(rows)), key=labels.__getitem__, reverse=True)
    keep = np.zeros(len(rows), dtype=bool)
    front = np.empty_like(costs)
    kept = 0
    for i in sorted(by_label, key=rows.__getitem__):
        if not (front[:kept] <= costs[i]).all(axis=1).any():  # no kept row dominates or equals it
            front[kept] = costs[i]
            kept += 1
            keep[i] = True
    return keep


def frontier_reports(reports: Sequence[CostReport], *cost_fields: str) -> list[CostReport]:
    """Reports whose (s_p max, each cost min) vector is non-dominated, in order."""
    costs = [[-r.s_p, *(getattr(r, f) for f in cost_fields)] for r in reports]
    keep = pareto_frontier(costs, [r.label for r in reports])
    return [r for r, kept in zip(reports, keep) if kept]


# ---------------------------------------------------------------------------
# CSV export with a fixed, documented schema.

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_reports_csv(path, reports: Sequence[CostReport]) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([_fmt(getattr(r, col)) for col in REPORT_COLUMNS])


def read_report_rows(path) -> list[dict[str, str]]:
    """Rows of a reports-schema CSV as dicts (values kept as strings; a short
    row's missing cells read as empty). A leading UTF-8 byte-order mark is
    skipped; a file that is not UTF-8 is refused."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.DictReader(fh, restval="")
            if reader.fieldnames is None:
                raise ConfigError(f"{path}: empty CSV")
            return list(reader)
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not a UTF-8 CSV") from None
