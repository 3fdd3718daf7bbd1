"""Trade-off scores and Pareto frontier extraction.

Scores are computed from per-route tallies (rows, correct rows, recalled
positives), and a :class:`CostReport` is one reports-CSV row, its fields the
columns in order. All three scores are anchored so an edge-only system
scores 0 and a pure cloud system scores 1:

* communication: ``s_comm = tau * psi`` where ``tau`` is the offloaded
  fraction and ``psi`` the exact integer byte total of the offloaded rows
  over ``input_bytes`` times their count, rounded once,
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
from typing import Iterable, Sequence

import numpy as np

from .nncore import ConfigError, UsageError
from .policy import EDGE_CODE

MAX = "max"
MIN = "min"


def comm_score(counts, route_bytes: Sequence[int],
               input_bytes: int) -> tuple[float, float, float]:
    """Offload fraction, mean size ratio over offloaded rows, and their product.

    ``counts[code]`` is the number of rows on a route and ``route_bytes[code]``
    the bytes one such row transmits (0 on the edge-only route). ``psi`` is
    the exact byte total over ``input_bytes`` times the offloaded count,
    rounded once; with no offloaded rows it is reported as 0 by convention.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0 or input_bytes <= 0:
        raise UsageError("comm_score needs a routed row and positive input_bytes")
    offloaded = n - int(counts[EDGE_CODE])
    tau = offloaded / n
    psi = int(counts @ route_bytes) / (input_bytes * offloaded) if offloaded else 0.0
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


@dataclass(frozen=True)
class ParetoPoint:
    """Objective vector with explicit optimization senses."""

    objectives: tuple[float, ...]
    senses: tuple[str, ...]
    label: str = ""

    def __post_init__(self) -> None:
        objectives = tuple(float(v) for v in self.objectives)
        senses = tuple(self.senses)
        if len(objectives) != len(senses) or not objectives:
            raise UsageError("objectives and senses must align and be nonempty")
        if any(s not in (MAX, MIN) for s in senses):
            raise UsageError(f"senses must be '{MAX}' or '{MIN}'")
        if any(not math.isfinite(v) for v in objectives):
            raise UsageError("objectives must be finite")
        object.__setattr__(self, "objectives", objectives)
        object.__setattr__(self, "senses", senses)


def _normalized(point: ParetoPoint) -> tuple[float, ...]:
    return tuple(v if s == MAX else -v for v, s in zip(point.objectives, point.senses))


def pareto_frontier(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Exactly the non-dominated points, deduplicated, sorted by first objective.

    Candidates are scanned in descending lexicographic order of their
    sense-normalized objectives, so any dominator of a point has already
    been processed; each candidate is therefore compared against the
    retained frontier only.
    """
    points = list(points)
    if not points:
        raise UsageError("pareto_frontier needs at least one point")
    senses = points[0].senses
    if any(p.senses != senses for p in points):
        raise UsageError("all points must share senses")
    ordered = sorted(points, key=lambda p: (_normalized(p), p.label), reverse=True)
    front: list[ParetoPoint] = []
    front_norm: list[tuple[float, ...]] = []
    for p in ordered:
        np_ = _normalized(p)
        if any(fn == np_ for fn in front_norm):
            continue  # duplicate objectives
        dominated = any(
            all(x >= y for x, y in zip(fn, np_)) and any(x > y for x, y in zip(fn, np_))
            for fn in front_norm)
        if not dominated:
            front.append(p)
            front_norm.append(np_)
    return sorted(front, key=lambda p: (p.objectives, p.label))


def frontier_labels(pairs: Iterable[tuple[str, Sequence[float]]]) -> set[str]:
    """Labels of the non-dominated pairs; a vector's first objective is a max, the rest mins."""
    points = (ParetoPoint(v, (MAX,) + (MIN,) * (len(v) - 1), label) for label, v in pairs)
    return {p.label for p in pareto_frontier(points)}


def frontier_reports(reports: Sequence[CostReport], *cost_fields: str) -> list[CostReport]:
    """Reports whose (s_p max, each cost min) vector is non-dominated, in order."""
    keep = frontier_labels((r.label, [getattr(r, f) for f in ("s_p", *cost_fields)])
                           for r in reports)
    return [r for r in reports if r.label in keep]


# ---------------------------------------------------------------------------
# CSV export with a fixed, documented schema.

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_reports_csv(path, reports: Sequence[CostReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([_fmt(getattr(r, col)) for col in REPORT_COLUMNS])


def read_report_rows(path) -> list[dict[str, str]]:
    """Rows of a reports-schema CSV as dicts (values kept as strings; a short
    row's missing cells read as empty)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty CSV")
        return list(reader)
