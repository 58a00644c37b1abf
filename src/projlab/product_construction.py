"""Product-like sets (an s-dimensional fiber over each base point),
roughly-horizontal filtering, per-pair canonical tubes in one pair table
whose slices are the tube families, triple intersections read off two
such slices with their endpoint-pair extraction, the projection-like
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

import numpy as np

from .delta_core import (
    Direction,
    DirectionSet,
    PointSet2D,
    ScalarSet,
    _cell_index,
    as_delta,
    as_exponent,
    check_delta_t,
    covering_number,
    delta_pow_minus,
    projected_values,
    projection_sweep,
)
from .errors import NonConcentrationError

# the worst non-concentration ratio a product-like set's checks accept
PRODUCT_RATIO_BOUND = 8.0
# the least |cos θ| of a direction roughly_horizontal_filter keeps
ROUGHLY_HORIZONTAL_COS = 0.5


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
        a = np.concatenate([np.empty(0)] + [self.fibers[b].values for b in self.base])
        return np.column_stack([a, self.base.values[self.fiber_ids()]])

    def fiber_ids(self):
        """Index in the base of each row's fiber; nondecreasing along the rows."""
        return np.repeat(np.arange(len(self.base)), [len(self.fibers[b]) for b in self.base])

    def points(self) -> PointSet2D:
        return PointSet2D(self.point_rows())

    def validate(self):
        """Run the non-concentration checks the type promises: base at
        exponent tau, each fiber at s, the assembled set at s + tau, each
        held to PRODUCT_RATIO_BOUND.  Returns the reports; raises
        NonConcentrationError on failure."""
        reports = {}
        rep = check_delta_t(self.base, self.delta, self.tau)
        if rep.worst_ratio > PRODUCT_RATIO_BOUND:
            raise NonConcentrationError("base set", rep, PRODUCT_RATIO_BOUND)
        reports["base"] = rep
        for b, f in self.fibers.items():
            if len(f) == 1:
                warnings.warn(f"degenerate single-point fiber at b = {b}", stacklevel=2)
            rep = check_delta_t(f, self.delta, self.s)
            if rep.worst_ratio > PRODUCT_RATIO_BOUND:
                raise NonConcentrationError(f"fiber at b = {b}", rep, PRODUCT_RATIO_BOUND)
            reports[f"fiber:{b!r}"] = rep
        rep = check_delta_t(self.points(), self.delta, min(self.s + self.tau, 2.0))
        if rep.worst_ratio > PRODUCT_RATIO_BOUND:
            raise NonConcentrationError("assembled product-like set", rep, PRODUCT_RATIO_BOUND)
        reports["assembled"] = rep
        return reports


def build_product_like(base, fibers, delta, s, tau) -> ProductLikeSet:
    """Assemble and validate a product-like set; any failed check raises
    with the witness ball named."""
    p = ProductLikeSet(base, fibers, delta, s, tau)
    p.validate()
    return p


@dataclass(frozen=True)
class FilterResult:
    product: ProductLikeSet
    directions: DirectionSet
    degenerate: bool


def roughly_horizontal_filter(P: ProductLikeSet, E: DirectionSet) -> FilterResult:
    """Restrict to near-horizontal directions and thin fibers so that any
    δ-tube perpendicular to a kept direction meets each fiber at most once.

    Keeps |cos θ| >= ROUGHLY_HORIZONTAL_COS and, per fiber, a greedy
    subsequence with gaps >= δ/min|cos θ|; for δ-separated fibers this keeps
    at least every other point.  E drained empty (all directions
    near-vertical) is flagged, not an error.
    """
    d = P.delta
    kept_thetas = [t for t in E.thetas.tolist() if abs(math.cos(t)) >= ROUGHLY_HORIZONTAL_COS]
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


class PairTubeIndex:
    """Canonical tube for every related cross-fiber point pair, in one table.

    Rows on different fibers are related when they share a cell floor(π_e/δ)
    for some direction of E; the pair's tube is the lowest such direction
    index and its cell, so families and intersections are deterministic.
    `table` (int64) lists each related pair under both of its fibers, as rows
    (fiber · |B| + other fiber, direction, cell, point on the fiber, point on
    the other fiber) sorted stably on the first three columns from (i, j)
    order.  So fam(b1, b2) is one slice (empty for b1 = b2), fiber m's rows
    are another, and a row repeating the previous row's first three columns
    marks a non-injective family.  `pair_tube` is the half with i < j, as
    rows (i, j, direction, cell).
    """

    def __init__(self, P: ProductLikeSet, E: DirectionSet, delta=None):
        self.delta = as_delta(delta) if delta is not None else P.delta
        self.rows = P.point_rows()
        fiber_ids = P.fiber_ids()
        self.base_values = list(P.base)
        n, nb = len(self.rows), len(self.base_values)
        cells = _cell_index(projected_values(self.rows, E.thetas), self.delta)
        order = np.argsort(cells, axis=1, kind="stable")
        cells = np.take_along_axis(cells, order, axis=1)
        # a tube is a run of equal cells in one direction's sorted row (prepending
        # cell - 1 starts a run at 0); each position pairs with the `later`
        # positions up to the last of its run
        new_run = (np.diff(cells, axis=1, prepend=cells[:, :1] - 1) != 0).ravel()
        order, cells, pos = order.ravel(), cells.ravel(), np.arange(cells.size)
        later = np.flatnonzero(np.append(new_run[1:], True))[np.cumsum(new_run) - 1] - pos
        # pairs are laid out position by position: the k-th of p is (p, p + 1 + k)
        first = np.repeat(pos, later)
        i = order[first]
        j = order[np.arange(first.size) - np.repeat(np.cumsum(later) - later - pos - 1, later)]
        cross = fiber_ids[i] != fiber_ids[j]
        first, i, j = first[cross], i[cross], j[cross]
        # positions run direction-major, so a pair's first one is its lowest
        # direction; np.unique leaves the pairs in (i, j) order
        keep = np.unique(i * n + j, return_index=True)[1]
        i, j, di, k = i[keep], j[keep], first[keep] // n, cells[first[keep]]
        del first, cross, keep
        fi, fj = fiber_ids[i], fiber_ids[j]
        cols = np.stack([np.append(fi * nb + fj, fj * nb + fi), np.tile(di, 2), np.tile(k, 2),
                         np.append(i, j), np.append(j, i)])
        cols = np.take(cols, np.lexsort(cols[2::-1]), axis=1)
        # held as columns, table[:, 0] is contiguous for family()'s searchsorted;
        # read-only, since family() hands out views of it
        self.table = cols.T
        self.table.setflags(write=False)
        self.pair_tube = cols[[3, 4, 1, 2]][:, cols[3] < cols[4]].T
        self._repeats = (np.diff(cols[:3], axis=1, prepend=cols[:3, :1] - 1) == 0).all(axis=0)

    def family(self, b1, b2) -> np.ndarray:
        """fam(b1, b2) as the read-only slice of `table` with rows (direction,
        cell, point on b1, point on b2), one per tube, sorted on (direction,
        cell); empty for b1 = b2.  Raises for a point off the base and for a
        non-injective family, naming its lowest repeated tube."""
        for b in (b1, b2):
            if b not in self.base_values:
                raise ValueError(f"{b} is not a base point")
        key = self.base_values.index(b1) * len(self.base_values) + self.base_values.index(b2)
        lo, hi = np.searchsorted(self.table[:, 0], [key, key + 1])
        if self._repeats[lo:hi].any():
            tube = tuple(self.table[lo + self._repeats[lo:hi].argmax(), 1:3].tolist())
            raise ValueError(f"pair-to-tube map not injective at tube {tube}; "
                             "roughly-horizontal condition violated")
        return self.table[lo:hi, 1:]


@dataclass(frozen=True)
class TriplePairData:
    triple: tuple
    shared_tubes: tuple
    pairs: tuple  # distinct (a1, a3) endpoint pairs, sorted
    middles: tuple  # the a2 value witnessing each shared tube

    @property
    def count_identity_holds(self) -> bool:
        return len(self.pairs) == len(self.shared_tubes)


def triple_intersections(index: PairTubeIndex, b1, b2, b3) -> TriplePairData:
    """The tubes that fam(b1, b2) and fam(b2, b3) of `index` share, in (direction,
    cell) order, with their middle points and the sorted distinct endpoint pairs
    (a1, a3).  A slice holds a tube once, so after one stable sort of both slices
    on (direction, cell) a shared tube is a (b1, b2) row followed by its (b2, b3)
    row.  Raises for a triple of fewer than three base points, through `family`
    (b1, b2 first), and at the first shared tube meeting fiber b2 twice."""
    if len({b1, b2, b3}) != 3:
        raise ValueError("triple must have three distinct base points")
    rows = np.concatenate([index.family(b1, b2), index.family(b2, b3)])
    rows = rows[np.lexsort(rows.T[1::-1])]  # stable: a tie keeps its (b1, b2) row first
    tie = np.flatnonzero((rows[1:, :2] == rows[:-1, :2]).all(axis=1))
    f12, f23 = rows[tie], rows[tie + 1]
    split = f12[:, 3] != f23[:, 2]
    if split.any():
        raise ValueError(f"tube {tuple(f12[split.argmax(), :2].tolist())} holds two distinct "
                         "middle-fiber points; roughly-horizontal condition violated")
    a = index.rows[:, 0]
    return TriplePairData(
        triple=(b1, b2, b3),
        shared_tubes=tuple(map(tuple, f12[:, :2].tolist())),
        pairs=tuple(sorted(set(zip(a[f12[:, 2]].tolist(), a[f23[:, 3]].tolist())))),
        middles=tuple(a[f12[:, 3]].tolist()),
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
                     separation_min=0.25, threshold=1.0) -> GoodTripleScan:
    """All ordered pairwise-distinct base triples with pairwise separation
    >= separation_min, keeping those whose tube families share at least
    `threshold` tubes, in (b1, b2, b3) base order; also the global
    intersection sum over the scanned triples (the Cauchy-Schwarz
    diagnostic).

    Per middle fiber m, M[b, t] = 1 when tube t holds a pair of fibers b
    and m, so (M Mᵀ)[b1, b3] = |fam(b1, m) ∩ fam(m, b3)|, exact in
    float64.  A non-injective family raises, through
    `PairTubeIndex.family`, only when the scan reads it: at the first
    scanned triple that reads one, (b1, b2) before (b2, b3)."""
    for name, value in (("separation_min", separation_min), ("threshold", threshold)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    idx = PairTubeIndex(P, E, delta)
    base, nb, table = idx.base_values, len(idx.base_values), idx.table
    gaps = np.abs(np.subtract.outer(P.base.values, P.base.values))
    separated = (gaps >= separation_min) & ~np.eye(nb, dtype=bool)
    bounds = np.searchsorted(table[:, 0], np.arange(nb + 1) * nb)  # fiber m's rows
    # a tube's id: direction index · rows + the rank of its cell
    tube = table[:, 1] * len(table) + np.unique(table[:, 2], return_inverse=True)[1]
    bad = np.zeros((nb, nb), dtype=bool)  # the non-injective families: the index's repeats
    bad.flat[table[idx._repeats, 0]] = True
    hits, total, first_bad = [np.zeros((4, 0), dtype=np.int64)], 0, nb ** 3
    for m in range(nb):
        # member[b, t] = 1 when m's t-th tube holds a pair of fibers b and m
        sel = slice(bounds[m], bounds[m + 1])
        tubes, col = np.unique(tube[sel], return_inverse=True)
        member = np.zeros((nb, tubes.size))
        member[table[sel, 0] % nb, col] = 1.0
        sizes = member @ member.T
        scanned = separated & separated[m][:, None] & separated[m][None, :]
        total += int(sizes[scanned].sum())
        b1, b3 = np.nonzero(scanned & (sizes >= threshold))
        hits.append(np.stack([b1, np.full_like(b1, m), b3, sizes[b1, b3].astype(np.int64)]))
        # the first scanned (b1, m, b3) that reads a non-injective family
        b1, b3 = np.nonzero(scanned & (bad[m][:, None] | bad[m][None, :]))
        first_bad = int(((b1 * nb + m) * nb + b3).min(initial=first_bad))
    if first_bad < nb ** 3:
        b1, m, b3 = np.unravel_index(first_bad, (nb, nb, nb))
        idx.family(base[b1], base[m])
        idx.family(base[m], base[b3])
    hits = np.concatenate(hits, axis=1)
    hits = hits[:, np.lexsort(hits[2::-1])].T.tolist()
    return GoodTripleScan(triples=tuple((base[b1], base[m], base[b3], size)
                                        for b1, m, b3, size in hits),
                          total_intersections=total)


def compression_check(g_prime, b1, b2, b3, delta, s):
    """Covering number of the triple-projected endpoint pairs against the
    δ^-s benchmark; returns (N, bound) for ratio reporting."""
    d = as_delta(delta)
    bound = delta_pow_minus(d, s)
    vals = [triple_projection(a1, a3, b1, b2, b3) for a1, a3 in g_prime]
    return covering_number(ScalarSet(vals), d), bound


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
    exact maximum, with the full (theta, N) profile.  s must lie in (0, 2]
    and ε be a finite number >= 0."""
    d = as_delta(delta) if delta is not None else P.delta
    s_val = as_exponent(s if s is not None else P.s, "exponent s")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")
    if len(E) == 0:
        warnings.warn("empty direction set; experiment is vacuous", stacklevel=2)
    target = delta_pow_minus(d, s_val + float(epsilon))
    counts = projection_sweep(P.points(), E, d, pairs=False)[0]
    hits = np.flatnonzero(counts >= target)
    return ProductExperiment(
        witness=E[int(hits[0])] if hits.size else None,
        max_n=int(counts.max(initial=0)),
        profile=tuple(zip(E.thetas.tolist(), counts.tolist())),
        target=target,
    )
