"""Trade-off scores and Pareto frontier extraction.

All three scores are anchored so an edge-only system scores 0 and a pure
cloud system scores 1:

* communication: ``s_comm = tau * psi`` where ``tau`` is the offloaded
  fraction and ``psi`` the mean transmitted-to-raw byte ratio over
  offloaded samples,
* computation: ``s_comp = (flops_sys - flops_edge) / (flops_cloud -
  flops_edge)`` with ``flops_sys = flops_edge + mean(cloud-side flops per
  sample)`` (the branch-weighted generalization of a single offload
  ratio),
* performance: ``s_p = (pi_sys - pi_edge) / (pi_cloud - pi_edge)``, which
  may exceed 1 when the combined system beats the cloud model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .nncore import ConfigError, UsageError
from .policy import EDGE_CODE

MAX = "max"
MIN = "min"

REPORT_COLUMNS = ["label", "s_p", "s_comp", "s_comm", "tau", "psi",
                  "flops_ecc", "accuracy", "recall"]


def comm_score(codes, route_bytes: Sequence[int],
               input_bytes: int) -> tuple[float, float, float]:
    """Offload fraction, mean size ratio over offloaded samples, and their product.

    ``codes`` holds one route code per sample and ``route_bytes[code]`` the
    bytes a sample on that route transmits. ``psi`` is a left-to-right sum
    of the per-sample ratios in sample order, divided by the offload count;
    with no offloaded samples it is reported as 0 by convention.
    """
    codes = np.asarray(codes)
    if codes.size == 0:
        raise UsageError("comm_score needs at least one route code")
    if input_bytes <= 0:
        raise UsageError("input_bytes must be positive")
    offloaded = codes[codes != EDGE_CODE]
    tau = len(offloaded) / len(codes)
    ratios = (np.take(route_bytes, offloaded) / input_bytes).tolist()
    psi = sum(ratios) / len(ratios) if ratios else 0.0
    return tau, psi, tau * psi


def comp_score_value(flops_edge: float, flops_cloud: float, flops_sys: float) -> float:
    """Computation score from aggregate FLOP counts (any consistent unit)."""
    if flops_cloud <= flops_edge:
        raise ConfigError("comp score needs flops_cloud > flops_edge")
    return (flops_sys - flops_edge) / (flops_cloud - flops_edge)


def comp_score(flops_edge: float, flops_cloud: float, codes,
               route_flops: Sequence[int]) -> tuple[float, float]:
    """Branch-weighted system FLOPs and the normalized computation score.

    ``route_flops[code]`` is the cloud-side FLOPs of one sample on that
    route; their exact integer sum is divided by the sample count.
    """
    codes = np.asarray(codes)
    if codes.size == 0:
        raise UsageError("comp_score needs at least one route code")
    flops_sys = flops_edge + int(np.take(route_flops, codes).sum()) / len(codes)
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
    """Scores and raw costs for one evaluated system."""

    label: str
    tau: float
    psi: float
    s_comm: float
    flops_ecc: float
    flops_edge: float
    flops_cloud: float
    s_comp: float
    pi_ecc: float
    pi_edge: float
    pi_cloud: float
    s_p: float
    accuracy: float
    recall: float

    def __post_init__(self) -> None:
        if abs(self.s_comm - self.tau * self.psi) > 1e-12:
            raise UsageError("s_comm must equal tau * psi")
        if self.flops_cloud <= self.flops_edge:
            raise UsageError("flops_cloud must exceed flops_edge")


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


def points_from_reports(reports: Sequence[CostReport],
                        fields: Sequence[str] = ("s_p", "s_comp", "s_comm"),
                        senses: Sequence[str] = (MAX, MIN, MIN)) -> list[ParetoPoint]:
    return [ParetoPoint(tuple(getattr(r, f) for f in fields), tuple(senses), r.label)
            for r in reports]


def frontier_reports(reports: Sequence[CostReport], cost_field: str) -> list[CostReport]:
    """Reports whose (s_p max, cost min) pair is non-dominated."""
    points = points_from_reports(reports, ("s_p", cost_field), (MAX, MIN))
    keep = {p.label for p in pareto_frontier(points)}
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
    """Rows of a reports-schema CSV as dicts (values kept as strings)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty CSV")
        return list(reader)
