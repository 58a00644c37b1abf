"""Tube covers, δ-close projected pair counts, and the double-counting
experiment behind the projection lower bound.

Pairs are counted ordered, matching the (p1, p2) ∈ P × P convention; the
factor 2 against unordered counts is absorbed once here.  Tubes are
realized as occupied δ-cells of the projected values, which is equivalent
to geometric slabs up to constants for sets in the unit ball and enables
sort-and-sweep counting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .delta_core import (
    Direction,
    DirectionSet,
    PointSet2D,
    as_delta,
    grid_cells_1d,
    project,
    projected_values,
    projection_sweep,
)
from .errors import InvariantError


@dataclass(frozen=True)
class Tube:
    """Width-δ slab perpendicular to `direction`: points p with
    offset <= p·e < offset + width."""

    direction: Direction
    offset: float
    width: float
    index: int = 0  # grid cell index k with offset = k * width

    def contains_value(self, v: float) -> bool:
        return self.offset <= v < self.offset + self.width

    def contains(self, x: float, y: float) -> bool:
        return self.contains_value(x * self.direction.ex + y * self.direction.ey)


@dataclass(frozen=True)
class TubeFamily:
    direction: Direction
    tubes: tuple
    covered: PointSet2D

    def __len__(self):
        return len(self.tubes)


@dataclass(frozen=True)
class IncidenceTally:
    per_direction: dict
    total: int


@dataclass(frozen=True)
class CauchySchwarzBound:
    bound: float
    actual: int
    tube_count: int


@dataclass(frozen=True)
class DirectionSumReport:
    lhs: int
    rhs: float
    implied_c: float
    tally: IncidenceTally


@dataclass(frozen=True)
class KaufmanWitness:
    direction: Direction
    n: int
    index: int
    profile: tuple  # N(π_e P, δ) for every direction, in E's order


def tube_cover(P: PointSet2D, e: Direction, delta) -> TubeFamily:
    """Cover P by the occupied δ-cells of its projection onto e."""
    d = as_delta(delta)
    cells = grid_cells_1d(project(P, e), d)
    tubes = tuple(Tube(e, float(k) * d, d, index=int(k)) for k in cells)
    return TubeFamily(direction=e, tubes=tubes, covered=P)


def close_pairs(P: PointSet2D, e: Direction, delta) -> int:
    """Ordered pairs (p, q), p != q, with |π_e(p) - π_e(q)| <= δ: one
    direction of `projection_sweep`."""
    return int(projection_sweep(P, DirectionSet([e.theta]), delta)[1][0])


def close_pairs_bruteforce(P: PointSet2D, e: Direction, delta) -> int:
    """Quadratic reference count; the documented oracle for close_pairs."""
    d = as_delta(delta)
    proj = projected_values(P.points, [e.theta])[0]
    diff = np.abs(proj[:, None] - proj[None, :]) <= d
    return int(diff.sum()) - proj.size


def cauchy_schwarz_lower_bound(P: PointSet2D, e: Direction, delta) -> CauchySchwarzBound:
    """bound = |P|²/M - |P| with M the projection covering number; the
    actual distinct-pair count always dominates it (same-cell pairs alone
    meet the bound), asserted before returning."""
    cells, pairs = projection_sweep(P, DirectionSet([e.theta]), delta)
    m, actual = int(cells[0]), int(pairs[0])
    n = len(P)
    bound = n * n / m - n if m else 0.0
    if actual < bound - 1e-9:
        raise InvariantError("Cauchy-Schwarz violation: actual < bound", actual, bound, e.theta)
    return CauchySchwarzBound(bound=bound, actual=actual, tube_count=m)


def tally_close_pairs(P: PointSet2D, E: DirectionSet, delta) -> IncidenceTally:
    per = dict(enumerate(projection_sweep(P, E, delta)[1].tolist()))
    return IncidenceTally(per_direction=per, total=sum(per.values()))


def direction_sum_upper_bound(P: PointSet2D, E: DirectionSet, delta, c=1.0,
                              strict=False) -> DirectionSumReport:
    """Sum of close-pair counts over a δ-separated direction set against
    the c · log²(1/δ) · δ^-2 benchmark; the implied constant (lhs divided
    by the benchmark with c = 1) is reported alongside.  With strict=True
    (c calibrated beforehand), lhs > rhs raises instead of reporting."""
    d = as_delta(delta)
    E.require_separated(d)
    tally = tally_close_pairs(P, E, d)
    benchmark = math.log(1.0 / d) ** 2 * d ** -2
    report = DirectionSumReport(
        lhs=tally.total,
        rhs=c * benchmark,
        implied_c=tally.total / benchmark,
        tally=tally,
    )
    if strict and report.lhs > report.rhs:
        raise InvariantError("direction sum exceeds its calibrated bound", report.lhs, report.rhs,
                             max(tally.per_direction, key=tally.per_direction.get))
    return report


def kaufman_witness(P: PointSet2D, E: DirectionSet, delta, s=None) -> KaufmanWitness:
    """Direction in E maximizing N(π_e(P), δ), with the maximum and the
    whole N profile; ties go to the lowest index."""
    d = as_delta(delta)
    if len(E) == 0:
        raise ValueError("direction set is empty")
    if s is not None and len(E) < d ** -s:
        warnings.warn(
            f"direction set of size {len(E)} is below delta^-s = {d ** -s:.4g}",
            stacklevel=2,
        )
    profile = projection_sweep(P, E, d)[0]
    best = int(np.argmax(profile))
    return KaufmanWitness(direction=E[best], n=int(profile[best]), index=best,
                          profile=tuple(profile.tolist()))
