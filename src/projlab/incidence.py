"""δ-close projected pair counts, and the double-counting experiment
behind the projection lower bound.

Pairs are counted ordered, matching the (p1, p2) ∈ P × P convention; the
factor 2 against unordered counts is absorbed once here.  A tube in
direction e is one occupied half-open cell [kδ, (k+1)δ) of
`grid_cells_1d(project(P, e), δ)`, which is equivalent to a geometric slab
up to constants for sets in the unit ball and enables sort-and-sweep
counting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .delta_core import (
    Direction,
    DirectionSet,
    PointSet2D,
    as_delta,
    as_exponent,
    delta_pow_minus,
    projected_values,
    projection_sweep,
)
from .errors import InvariantError


@dataclass(frozen=True)
class CauchySchwarzBound:
    bound: float
    actual: int
    tube_count: int


@dataclass(frozen=True)
class KaufmanWitness:
    direction: Direction
    n: int
    index: int
    profile: tuple  # N(π_e P, δ) for every direction, in E's order


def close_pairs(P: PointSet2D, e: Direction, delta) -> int:
    """Ordered pairs (p, q), p != q, with |π_e(p) - π_e(q)| <= δ: one
    direction of `projection_sweep`."""
    return int(projection_sweep(P, DirectionSet([e.theta]), delta)[1][0])


def close_pairs_bruteforce(P: PointSet2D, e: Direction, delta) -> int:
    """Quadratic reference count; the documented oracle for close_pairs.
    Every pair's fl(|v_i - v_j|) <= δ, compared in blocks of whole rows of
    at most CHUNK_ELEMENTS entries (one row at least)."""
    from .delta_core import CHUNK_ELEMENTS  # read per call, so a patched block size holds

    d = as_delta(delta)
    proj = projected_values(P.points, [e.theta])[0]
    rows = max(1, CHUNK_ELEMENTS // max(proj.size, 1))
    close = sum(int(np.count_nonzero(np.abs(proj[a : a + rows, None] - proj) <= d))
                for a in range(0, proj.size, rows))
    return close - proj.size


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


def kaufman_witness(P: PointSet2D, E: DirectionSet, delta, s=None) -> KaufmanWitness:
    """Direction in E maximizing N(π_e(P), δ), with the maximum and the
    whole N profile; ties go to the lowest index.  An exponent `s`, when
    given, must lie in (0, 2]."""
    d = as_delta(delta)
    bound = None if s is None else delta_pow_minus(d, as_exponent(s, "exponent s"))
    if len(E) == 0:
        raise ValueError("direction set is empty")
    profile = projection_sweep(P, E, d, pairs=False)[0]
    if bound is not None and len(E) < bound:
        warnings.warn(
            f"direction set of size {len(E)} is below delta^-s = {bound:.4g}",
            stacklevel=2,
        )
    best = int(np.argmax(profile))
    return KaufmanWitness(direction=E[best], n=int(profile[best]), index=best,
                          profile=tuple(profile.tolist()))
