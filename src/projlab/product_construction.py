"""Product-like sets (an s-dimensional fiber over each base point),
roughly-horizontal filtering, per-pair canonical tubes, triple
intersections with their endpoint-pair extraction, the projection-like
maps (x, y) ↦ x + c·y, good-triple scans, and the exhaustive
projection-growth sweep.

Tube identity is discrete: two tubes are equal iff they carry the same
direction index and the same grid offset.  Tie-breaking is deterministic
everywhere: lowest direction index first, then lowest offset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .delta_core import (
    Direction,
    DirectionSet,
    PointSet2D,
    ScalarSet,
    as_delta,
    check_delta_t,
    covering_number,
    projected_values,
    projection_sweep,
)
from .errors import NonConcentrationError


class ProductLikeSet:
    """Base set B with one fiber A_b per base point, realizing
    ⋃_b A_b × {b} (fiber value = x coordinate, base value = y)."""

    __slots__ = ("base", "fibers", "delta", "s", "tau")

    def __init__(self, base: ScalarSet, fibers, delta, s, tau):
        self.delta = as_delta(delta)
        self.s = float(s)
        self.tau = float(tau)
        self.base = base if isinstance(base, ScalarSet) else ScalarSet(base)
        coerced = {}
        for b in self.base:
            if b not in fibers:
                raise ValueError(f"missing fiber for base point {b}")
            f = fibers[b]
            coerced[b] = f if isinstance(f, ScalarSet) else ScalarSet(f)
        if len(coerced) != len(fibers):
            raise ValueError("fibers keyed off the base set")
        self.fibers = coerced

    def __len__(self):
        return sum(len(f) for f in self.fibers.values())

    def point_rows(self):
        """(a, b) rows sorted by (b, a); the serialization order."""
        rows = []
        for b in self.base:
            for a in self.fibers[b]:
                rows.append((a, b))
        return np.asarray(rows, dtype=np.float64).reshape(-1, 2)

    def fiber_ids(self):
        """Index in the base of each row's fiber; nondecreasing along the rows."""
        return np.repeat(np.arange(len(self.base)), [len(self.fibers[b]) for b in self.base])

    def points(self) -> PointSet2D:
        return PointSet2D(self.point_rows())

    def validate(self, max_ratio=8.0):
        """Run the non-concentration checks the type promises: base at
        exponent tau, each fiber at s, the assembled set at s + tau.
        Returns the reports; raises NonConcentrationError on failure."""
        reports = {}
        rep = check_delta_t(self.base, self.delta, self.tau)
        if rep.worst_ratio > max_ratio:
            raise NonConcentrationError("base set", rep, max_ratio)
        reports["base"] = rep
        for b, f in self.fibers.items():
            if len(f) == 1:
                warnings.warn(f"degenerate single-point fiber at b = {b}", stacklevel=2)
            rep = check_delta_t(f, self.delta, self.s)
            if rep.worst_ratio > max_ratio:
                raise NonConcentrationError(f"fiber at b = {b}", rep, max_ratio)
            reports[f"fiber:{b!r}"] = rep
        rep = check_delta_t(self.points(), self.delta, min(self.s + self.tau, 2.0))
        if rep.worst_ratio > max_ratio:
            raise NonConcentrationError("assembled product-like set", rep, max_ratio)
        reports["assembled"] = rep
        return reports


def build_product_like(base, fibers, delta, s, tau, max_ratio=8.0) -> ProductLikeSet:
    """Assemble and validate a product-like set; any failed check raises
    with the witness ball named."""
    p = ProductLikeSet(base, fibers, delta, s, tau)
    p.validate(max_ratio=max_ratio)
    return p


@dataclass(frozen=True)
class FilterResult:
    product: ProductLikeSet
    directions: DirectionSet
    degenerate: bool


def roughly_horizontal_filter(P: ProductLikeSet, E: DirectionSet, cos_min=0.5) -> FilterResult:
    """Restrict to near-horizontal directions and thin fibers so that any
    δ-tube perpendicular to a kept direction meets each fiber at most once.

    Keeps |cos θ| >= cos_min and, per fiber, a greedy subsequence with
    gaps >= δ/min|cos θ|; for δ-separated fibers this keeps at least every
    other point.  E drained empty (all directions near-vertical) is
    flagged, not an error.
    """
    d = P.delta
    kept_thetas = [t for t in E.thetas.tolist() if abs(math.cos(t)) >= cos_min]
    degenerate = len(kept_thetas) < max(1, len(E) / 2)
    if not kept_thetas:
        return FilterResult(product=P, directions=DirectionSet([]), degenerate=True)
    cos_floor = min(abs(math.cos(t)) for t in kept_thetas)
    needed_gap = d / cos_floor * (1.0 + 1e-9)
    new_fibers = {}
    for b, f in P.fibers.items():
        vals = f.values
        if len(vals) < 2 or float(np.diff(vals).min()) >= needed_gap:
            new_fibers[b] = f
            continue
        kept = [vals[0]]
        for v in vals[1:]:
            if v - kept[-1] >= needed_gap:
                kept.append(v)
        new_fibers[b] = ScalarSet(kept)
    thinned = ProductLikeSet(P.base, new_fibers, d, P.s, P.tau)
    return FilterResult(product=thinned, directions=DirectionSet(kept_thetas), degenerate=degenerate)


def _cell_runs(rows, E: DirectionSet, delta):
    """For each direction of E in order: the cells floor(π_e/δ) holding two
    or more points, π_e from `projected_values`, as (cell, ascending point
    indices) in cell order, read off the runs of one stable argsort."""
    cells = np.floor(projected_values(rows, E.thetas) / as_delta(delta)).astype(np.int64)
    for col in cells:
        order = np.argsort(col, kind="stable")
        sorted_cells = col[order]
        # runs start where the sorted cell changes; prepending cell - 1 starts one at 0
        starts = np.flatnonzero(np.diff(sorted_cells, prepend=sorted_cells[:1] - 1))
        stops = np.append(starts[1:], col.size)
        yield [(int(sorted_cells[a]), order[a:b].tolist())
               for a, b in zip(starts, stops) if b - a > 1]


class PairTubeIndex:
    """Canonical tube for every related cross-fiber point pair.

    The tube chosen for a pair is the one with the lowest direction index
    containing both points (the offset is then determined), so families
    and intersections are deterministic.  The pairs are also bucketed by
    fiber pair, so a family reads one bucket (none for a fiber with itself).
    """

    def __init__(self, P: ProductLikeSet, E: DirectionSet, delta=None):
        self.product = P
        self.directions = E
        self.delta = as_delta(delta) if delta is not None else P.delta
        self.rows = P.point_rows()
        self.fiber_ids = P.fiber_ids()
        self.base_values = list(P.base)
        fid = self.fiber_ids.tolist()
        canonical: dict = {}
        for di, runs in enumerate(_cell_runs(self.rows, E, self.delta)):
            for k, group in runs:
                for i, j in combinations(group, 2):
                    if fid[i] != fid[j]:
                        canonical.setdefault((i, j), (di, k))
        self.pair_tube = canonical
        self._by_fibers: dict = {}
        for (i, j), tube in canonical.items():
            self._by_fibers.setdefault((fid[i], fid[j]), {})[(i, j)] = tube

    def family(self, b1, b2) -> "TubePairFamily":
        for b in (b1, b2):
            if b not in self.product.fibers:
                raise ValueError(f"{b} is not a base point")
        f1 = self.base_values.index(b1)
        f2 = self.base_values.index(b2)
        pair_to_tube = {}
        tube_to_pair = {}
        for (i, j), tube in self._by_fibers.get((min(f1, f2), max(f1, f2)), {}).items():
            p, q = (i, j) if f1 < f2 else (j, i)
            pair_to_tube[(p, q)] = tube
            if tube in tube_to_pair:
                raise ValueError(
                    f"pair-to-tube map not injective at tube {tube}; "
                    "roughly-horizontal condition violated"
                )
            tube_to_pair[tube] = (p, q)
        return TubePairFamily(b1=b1, b2=b2, pair_to_tube=pair_to_tube, tube_to_pair=tube_to_pair)


@dataclass(frozen=True)
class TubePairFamily:
    b1: float
    b2: float
    pair_to_tube: dict
    tube_to_pair: dict

    @property
    def tubes(self) -> frozenset:
        return frozenset(self.tube_to_pair)

    def __len__(self):
        return len(self.tube_to_pair)


@dataclass(frozen=True)
class TriplePairData:
    triple: tuple
    shared_tubes: tuple
    pairs: tuple  # distinct (a1, a3) endpoint pairs, sorted
    middles: tuple  # the a2 value witnessing each shared tube

    @property
    def count_identity_holds(self) -> bool:
        return len(self.pairs) == len(self.shared_tubes)


def triple_intersections(P: ProductLikeSet, b1, b2, b3, E: DirectionSet, delta=None,
                         index: PairTubeIndex | None = None) -> TriplePairData:
    """Shared tubes of the (b1,b2) and (b2,b3) families and the endpoint
    pairs (a1, a3) they generate through their unique decompositions."""
    if len({b1, b2, b3}) != 3:
        raise ValueError("triple must have three distinct base points")
    idx = index if index is not None else PairTubeIndex(P, E, delta)
    f12 = idx.family(b1, b2)
    f23 = idx.family(b2, b3)
    shared = sorted(f12.tubes & f23.tubes)
    pairs = set()
    middles = []
    for tube in shared:
        i1, j1 = f12.tube_to_pair[tube]
        i2, j2 = f23.tube_to_pair[tube]
        if j1 != i2:
            raise ValueError(
                f"tube {tube} holds two distinct middle-fiber points; "
                "roughly-horizontal condition violated"
            )
        pairs.add((float(idx.rows[i1, 0]), float(idx.rows[j2, 0])))
        middles.append(float(idx.rows[j1, 0]))
    return TriplePairData(
        triple=(b1, b2, b3),
        shared_tubes=tuple(shared),
        pairs=tuple(sorted(pairs)),
        middles=tuple(middles),
    )


def triple_projection(x, y, b1, b2, b3) -> float:
    """The map x + ((b2 - b1)/(b3 - b2))·y; undefined when b3 = b2."""
    if b3 == b2:
        raise ZeroDivisionError("triple projection undefined for b3 == b2")
    return x + (b2 - b1) / (b3 - b2) * y


@dataclass(frozen=True)
class GoodTripleScan:
    triples: tuple  # (b1, b2, b3, intersection_size) meeting both filters
    total_intersections: int  # sum over all scanned separated triples


def good_triple_scan(P: ProductLikeSet, E: DirectionSet, delta=None,
                     separation_min=0.25, threshold=1.0,
                     index: PairTubeIndex | None = None) -> GoodTripleScan:
    """All ordered pairwise-distinct base triples with pairwise separation
    >= separation_min, keeping those whose tube families share at least
    `threshold` tubes; also the global intersection sum over the scanned
    triples (the Cauchy-Schwarz diagnostic)."""
    for name, value in (("separation_min", separation_min), ("threshold", threshold)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    idx = index if index is not None else PairTubeIndex(P, E, delta)
    base = list(P.base)
    families = {}

    def fam(bi, bj):
        if (bi, bj) not in families:
            families[(bi, bj)] = idx.family(bi, bj).tubes
        return families[(bi, bj)]

    hits = []
    total = 0
    for b1 in base:
        for b2 in base:
            if b2 == b1:
                continue
            for b3 in base:
                if b3 == b1 or b3 == b2:
                    continue
                if min(abs(b1 - b2), abs(b1 - b3), abs(b2 - b3)) < separation_min:
                    continue
                size = len(fam(b1, b2) & fam(b2, b3))
                total += size
                if size >= threshold:
                    hits.append((b1, b2, b3, size))
    return GoodTripleScan(triples=tuple(hits), total_intersections=total)


def compression_check(g_prime, b1, b2, b3, delta, s):
    """Covering number of the triple-projected endpoint pairs against the
    δ^-s benchmark; returns (N, bound) for ratio reporting."""
    d = as_delta(delta)
    pairs = list(g_prime)
    if not pairs:
        return 0, d ** -float(s)
    vals = [triple_projection(a1, a3, b1, b2, b3) for a1, a3 in pairs]
    return covering_number(ScalarSet(vals), d), d ** -float(s)


@dataclass(frozen=True)
class ProductExperiment:
    witness: Direction | None
    max_n: int
    profile: tuple  # (theta, N) rows in direction order
    target: float


def product_experiment(P: ProductLikeSet, E: DirectionSet, delta=None, s=None,
                       epsilon=0.0) -> ProductExperiment:
    """Exhaustive projection sweep over E: the first direction whose
    projection occupies at least δ^-(s+ε) cells (None when absent) and the
    exact maximum, with the full (theta, N) profile."""
    d = as_delta(delta) if delta is not None else P.delta
    s_val = float(s) if s is not None else P.s
    if len(E) == 0:
        warnings.warn("empty direction set; experiment is vacuous", stacklevel=2)
    target = d ** -(s_val + float(epsilon))
    counts = projection_sweep(P.points(), E, d)[0]
    hits = np.flatnonzero(counts >= target)
    return ProductExperiment(
        witness=E[int(hits[0])] if hits.size else None,
        max_n=int(counts.max(initial=0)),
        profile=tuple(zip(E.thetas.tolist(), counts.tolist())),
        target=target,
    )
