"""Core δ-discretization primitives: scalar/point sets, grid covering
numbers, non-concentration checks, subset extraction, and projections.

Conventions fixed here and used everywhere else:

* The canonical covering number N(A, δ) is the number of nonempty cells of
  the half-open grid {[kδ, (k+1)δ) : k ∈ Z} anchored at 0 (squares of the
  product grid in 2-D).  It is within a factor 2 of the optimal 1-D cover
  by closed length-δ intervals (see `optimal_interval_cover`) and within a
  factor 4 of an optimal disc cover in 2-D.
* Cell membership is floor(v/δ); boundary ties resolve by the half-open
  convention, inputs are never snapped first.
* Balls B(x, r) are closed Euclidean balls.
* Non-concentration scans use centers in the set itself and dyadic radii
  {δ, 2δ, 4δ, ...} capped at 1.  Against arbitrary centers and radii this
  loses at most a factor 2^t, absorbed into caller-side constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeparationError

TWO_PI = 2.0 * math.pi

# relative slack when verifying declared separations (grid sets sit exactly
# at distance δ; exact comparisons would be FP-fragile)
SEPARATION_RTOL = 1e-9

# guaranteed bounds for extract_delta_s_subset: every output passes
# check_delta_t with worst_ratio <= EXTRACTION_RATIO_BOUND (a ball of radius
# r meets <= 4 dyadic cells of side in [r, 2r), each capped at
# ceil((2r/delta)^s) <= 4(r/delta)^s + 1 points), and has cardinality
# >= EXTRACTION_CARDINALITY_C * content * delta^-s.
EXTRACTION_RATIO_BOUND = 20.0
EXTRACTION_CARDINALITY_C = 0.01

# values per block in check_delta_t (distance rows) and projection_sweep
# (projected values): bounds their memory whatever the input size
CHUNK_ELEMENTS = 2 ** 22


def as_delta(delta) -> float:
    """Coerce a Scale or plain number to a validated float scale."""
    d = float(delta)
    if not 0.0 < d <= 0.5:
        raise ValueError(f"scale must lie in (0, 1/2], got {d}")
    return d


@dataclass(frozen=True)
class Scale:
    """A spatial scale δ ∈ (0, 1/2], optionally the exact dyadic 2^-j."""

    delta: float
    j: int | None = None

    def __post_init__(self):
        as_delta(self.delta)
        if self.j is not None and self.delta != 2.0 ** -self.j:
            raise ValueError(f"delta {self.delta} is not exactly 2^-{self.j}")

    @classmethod
    def dyadic(cls, j: int) -> "Scale":
        if j < 1:
            raise ValueError("dyadic exponent must be a positive integer")
        return cls(2.0 ** -j, j)

    @property
    def is_dyadic(self) -> bool:
        return self.j is not None

    def __float__(self) -> float:
        return self.delta


class ScalarSet:
    """Finite set of reals in an ambient interval, sorted strictly increasing.

    Values equal under float comparison are collapsed; nothing coarser.
    """

    __slots__ = ("values", "lo", "hi")

    def __init__(self, values, lo=None, hi=None):
        arr = np.unique(np.asarray(values, dtype=np.float64).ravel())
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("scalar set values must be finite")
        self.values = arr
        self.values.setflags(write=False)
        self.lo = float(lo) if lo is not None else (float(arr[0]) if arr.size else 0.0)
        self.hi = float(hi) if hi is not None else (float(arr[-1]) if arr.size else 1.0)
        if self.lo > self.hi:
            raise ValueError("ambient interval is empty")
        if arr.size and (arr[0] < self.lo or arr[-1] > self.hi):
            raise ValueError("values fall outside the ambient interval")

    def __len__(self):
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values.tolist())

    def __repr__(self):
        return f"ScalarSet(n={len(self)}, ambient=[{self.lo:.4g}, {self.hi:.4g}])"


class PointSet2D:
    """Finite planar point collection, stored in lexicographic order.

    If `separation` is declared, pairwise Euclidean distances are verified
    to be >= separation (up to SEPARATION_RTOL) at construction.
    """

    __slots__ = ("points", "separation")

    def __init__(self, points, separation=None, check=True):
        arr = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("points must be finite")
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        self.points = arr[order]
        self.points.setflags(write=False)
        self.separation = float(separation) if separation is not None else None
        if self.separation is not None:
            if self.separation <= 0:
                raise ValueError("separation must be positive")
            if check:
                violation = _closest_violation(self.points, self.separation)
                if violation is not None:
                    i, j, dist = violation
                    raise SeparationError(
                        self.separation,
                        (tuple(self.points[i]), tuple(self.points[j])),
                        dist,
                    )

    def __len__(self):
        return int(self.points.shape[0])

    def __repr__(self):
        return f"PointSet2D(n={len(self)}, separation={self.separation})"

    @property
    def xs(self):
        return self.points[:, 0]

    @property
    def ys(self):
        return self.points[:, 1]


def _closest_violation(pts, r, rtol=SEPARATION_RTOL):
    """Grid-bucketed scan for a pair closer than r*(1-rtol); None if clean."""
    n = pts.shape[0]
    if n < 2:
        return None
    thresh = r * (1.0 - rtol)
    cells = np.floor(pts / r).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        buckets.setdefault((int(cells[i, 0]), int(cells[i, 1])), []).append(i)
    for (cx, cy), idxs in buckets.items():
        cand = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cand.extend(buckets.get((cx + dx, cy + dy), ()))
        for i in idxs:
            for j in cand:
                if j <= i:
                    continue
                dist = math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
                if dist < thresh:
                    return i, j, dist
    return None


@dataclass(frozen=True)
class Direction:
    """Unit vector e = (cos θ, sin θ) on the circle, θ normalized to [0, 2π)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @classmethod
    def from_vector(cls, x, y) -> "Direction":
        norm = math.hypot(x, y)
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        if abs(norm - 1.0) > 1e-12:
            x, y = x / norm, y / norm
        return cls(math.atan2(y, x))

    @property
    def ex(self) -> float:
        return math.cos(self.theta)

    @property
    def ey(self) -> float:
        return math.sin(self.theta)


class DirectionSet:
    """Sorted set of directions on the circle (angles in [0, 2π))."""

    __slots__ = ("thetas",)

    def __init__(self, thetas):
        arr = np.unique(np.asarray(thetas, dtype=np.float64).ravel() % TWO_PI)
        self.thetas = arr
        self.thetas.setflags(write=False)

    @classmethod
    def net(cls, count, anchor=0.0, span=TWO_PI, jitter=0.0, seed=None):
        """Uniformly spaced net of `count` directions anchored at `anchor`.

        Optional seeded jitter displaces each angle by at most `jitter`.
        """
        if count < 1:
            raise ValueError("net needs at least one direction")
        thetas = anchor + span * np.arange(count) / count
        if jitter:
            rng = np.random.default_rng(seed)
            thetas = thetas + jitter * rng.uniform(-1.0, 1.0, size=count)
        return cls(thetas)

    def __len__(self):
        return int(self.thetas.size)

    def __iter__(self):
        return (Direction(t) for t in self.thetas.tolist())

    def __getitem__(self, i) -> Direction:
        return Direction(float(self.thetas[i]))

    def vectors(self):
        return np.column_stack([np.cos(self.thetas), np.sin(self.thetas)])

    def min_angular_gap(self) -> float:
        if len(self) < 2:
            return TWO_PI
        gaps = np.diff(self.thetas)
        wrap = TWO_PI - (self.thetas[-1] - self.thetas[0])
        return float(min(gaps.min(), wrap))

    def require_separated(self, delta):
        d = as_delta(delta)
        gap = self.min_angular_gap()
        if gap < d * (1.0 - SEPARATION_RTOL):
            gaps = np.diff(self.thetas)
            if gaps.size and gaps.min() <= gap:
                idx = int(np.argmin(gaps))
                pair = (float(self.thetas[idx]), float(self.thetas[idx + 1]))
            else:  # the wraparound gap is the violation
                pair = (float(self.thetas[-1]), float(self.thetas[0]))
            raise SeparationError(d, (("theta", pair[0]), ("theta", pair[1])), gap)


@dataclass(frozen=True)
class NonConcentrationReport:
    """Result of a (δ,t) non-concentration scan.

    worst_ratio = max over scanned (x, r) of |P ∩ B(x,r)| / (r/δ)^t, with
    the witness ball attaining it.  Thresholds are the caller's business;
    `passes` compares against c * log(1/δ)^log_power_used.
    """

    exponent: float
    worst_ratio: float
    witness_center: tuple
    witness_radius: float
    log_power_used: float
    delta: float
    n_points: int

    def threshold(self, c=1.0) -> float:
        if self.log_power_used == 0.0:
            return c
        return c * math.log(1.0 / self.delta) ** self.log_power_used

    def passes(self, c=1.0) -> bool:
        return self.worst_ratio <= self.threshold(c)


def _coerce_coords(obj):
    """Accept ScalarSet / PointSet2D / raw arrays; return (n, dim) array."""
    if isinstance(obj, ScalarSet):
        return obj.values.reshape(-1, 1)
    if isinstance(obj, PointSet2D):
        return obj.points
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 2 and arr.shape[1] in (1, 2):
        return arr
    raise ValueError("expected a 1-D or 2-D coordinate collection")


def covering_number(S, delta) -> int:
    """Number of nonempty half-open δ-grid cells meeting the 1-D set S."""
    return int(grid_cells_1d(S, delta).size)


def covering_number_2d(P, delta) -> int:
    """Number of nonempty δ×δ half-open grid cells meeting the planar set P."""
    d = as_delta(delta)
    pts = P.points if isinstance(P, PointSet2D) else np.asarray(P, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        return 0
    cells = np.floor(pts / d).astype(np.int64)
    return int(np.unique(cells, axis=0).shape[0])


def grid_cells_1d(S, delta):
    """Sorted distinct grid indices k with [kδ, (k+1)δ) meeting S."""
    d = as_delta(delta)
    vals = S.values if isinstance(S, ScalarSet) else np.asarray(S, dtype=np.float64).ravel()
    return np.unique(np.floor(vals / d).astype(np.int64))


def optimal_interval_cover(S, delta) -> int:
    """Minimum number of closed length-δ intervals covering S.

    Greedy left-to-right sweep, which is exact in one dimension.  Sandwich
    against the grid convention: cover <= covering_number <= 2 * cover.
    """
    d = as_delta(delta)
    vals = S.values if isinstance(S, ScalarSet) else np.unique(np.asarray(S, dtype=np.float64))
    n = vals.size
    count = 0
    i = 0
    while i < n:
        count += 1
        i = int(np.searchsorted(vals, vals[i] + d, side="right"))
    return count


def dyadic_radii(delta):
    """The scan radii {δ, 2δ, 4δ, ...} capped at 1 (1 appended if missed)."""
    d = as_delta(delta)
    radii = []
    r = d
    while r <= 1.0:
        radii.append(r)
        r *= 2.0
    if radii[-1] < 1.0:
        radii.append(1.0)
    return radii


def check_delta_t(P, delta, t, *, log_power=0.0, validate_separation=True) -> NonConcentrationReport:
    """Scan the (δ,t) non-concentration condition over P.

    Centers range over P itself and radii over `dyadic_radii(delta)`; balls
    are closed.  Rejects input that is not δ-separated (the condition is
    only meaningful for δ-separated sets) unless validation is disabled.
    """
    d = as_delta(delta)
    if not 0.0 < t <= 2.0:
        raise ValueError(f"exponent t must lie in (0, 2], got {t}")
    pts = _coerce_coords(P)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot scan an empty set")
    if validate_separation:
        if pts.shape[1] == 1:
            vals = pts[:, 0]
            if n > 1:
                gaps = np.diff(np.sort(vals))
                k = int(np.argmin(gaps))
                if gaps[k] < d * (1.0 - SEPARATION_RTOL):
                    sv = np.sort(vals)
                    raise SeparationError(d, ((float(sv[k]),), (float(sv[k + 1]),)), float(gaps[k]))
        else:
            violation = _closest_violation(pts, d)
            if violation is not None:
                i, j, dist = violation
                raise SeparationError(d, (tuple(pts[i]), tuple(pts[j])), dist)

    radii = np.asarray(dyadic_radii(d))
    powers = (radii / d) ** t
    worst = -1.0
    witness = (0, 0.0)
    # row-chunked distance matrix; rows sorted once, counts via searchsorted
    chunk = max(1, min(n, CHUNK_ELEMENTS // n))
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]
        if pts.shape[1] == 1:
            dists = np.abs(block[:, 0][:, None] - pts[:, 0][None, :])
        else:
            diff = block[:, None, :] - pts[None, :, :]
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dists.sort(axis=1)
        for bi in range(block.shape[0]):
            counts = np.searchsorted(dists[bi], radii, side="right")
            ratios = counts / powers
            k = int(np.argmax(ratios))
            if ratios[k] > worst:
                worst = float(ratios[k])
                witness = (start + bi, float(radii[k]))
    center = tuple(pts[witness[0]].tolist())
    if len(center) == 1:
        center = (center[0],)
    return NonConcentrationReport(
        exponent=float(t),
        worst_ratio=worst,
        witness_center=center,
        witness_radius=witness[1],
        log_power_used=float(log_power),
        delta=d,
        n_points=n,
    )


class DyadicCells:
    """The points of an (n, 2) array bucketed by dyadic cell at levels
    0..depth from one sort.  A point's level-j cell fine >> (depth - j) is
    exactly floor(pts · 2^j); `order` sorts the points stably in quadtree
    order (each level's (cx, cy), coarser levels first), so each level-j
    cell is one run of `order`, siblings run in (cx, cy) order, and a
    level-depth cell holds its points in index order."""

    __slots__ = ("depth", "fine", "order")

    def __init__(self, pts, depth):
        self.depth = depth
        self.fine = np.floor(pts * 2.0 ** depth).astype(np.int64)
        self.order = np.lexsort([self.fine[:, k] >> (depth - j)  # the last key is primary
                                 for j in range(depth, -1, -1) for k in (1, 0)])

    def level(self, j):
        """(cells, starts, inverse) at level j: one cell per run of `order`,
        where each run starts in `order`, and each point's run number."""
        cells = self.fine[self.order] >> (self.depth - j)
        new = np.ones(cells.shape[0], dtype=bool)
        new[1:] = (cells[1:] != cells[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        inverse = np.empty(cells.shape[0], dtype=np.int64)
        inverse[self.order] = np.cumsum(new) - 1
        return cells[starts], starts, inverse


def _dyadic_levels(K, delta, s):
    """Validated (δ, (n, 2) points, first level with side <= δ)."""
    d = as_delta(delta)
    if not 0.0 < s <= 2.0:
        raise ValueError(f"exponent s must lie in (0, 2], got {s}")
    pts = _coerce_coords(K)
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
    return d, pts, max(0, math.ceil(math.log2(1.0 / d)))


def dyadic_content(K, delta, s) -> float:
    """Greedy dyadic estimate of the s-content of the δ-neighborhood of K.

    Bottom-up DP over the dyadic tree: a cell costs min(side^s, sum of its
    occupied children), with occupied δ-level cells costing δ-side^s.
    """
    d, pts, levels = _dyadic_levels(K, delta, s)
    if pts.shape[0] == 0:
        return 0.0
    tree = DyadicCells(pts, levels)
    _, starts, _ = tree.level(levels)
    cost = np.full(starts.size, (2.0 ** -levels) ** s)
    for j in range(levels - 1, -1, -1):
        _, parent_starts, inverse = tree.level(j)
        parent = inverse[tree.order[starts]]
        cost = np.minimum((2.0 ** -j) ** s, np.bincount(parent, weights=cost))
        starts = parent_starts
    return float(sum(cost.tolist()))


def extract_delta_s_subset(K, delta, s) -> PointSet2D:
    """Extract a δ-separated subset P of K obeying the (δ,s) caps.

    Top-down dyadic-tree greedy: at level j each cell keeps at most
    ceil((2^-j / δ)^s) of the points selected below it, preferring children
    with the most occupied δ-cells (ties to the lower cell index).  A final
    greedy pass enforces strict pairwise δ-separation.

    With κ = dyadic_content(K, δ, s), the output satisfies
    |P| >= EXTRACTION_CARDINALITY_C * κ * δ^-s and passes
    check_delta_t(δ, s) with worst_ratio <= EXTRACTION_RATIO_BOUND.
    """
    d, pts, levels = _dyadic_levels(K, delta, s)
    if pts.shape[0] == 0:
        raise ValueError("cannot extract from an empty set")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    tree = DyadicCells(pts, levels)
    # one representative (lexicographically least) per δ-level cell, and
    # cuts[j]: the δ-cell numbers at which each level-j cell starts
    _, fine_starts, fine_inverse = tree.level(levels)
    reps = tree.order[fine_starts]
    cuts = [fine_inverse[tree.order[tree.level(j)[1]]] for j in range(levels + 1)]
    caps = [math.ceil(((2.0 ** -j) / d) ** s) for j in range(levels + 1)]

    def select(level, lo, hi):  # the level-`level` cell of δ-cells lo..hi-1
        if hi - lo == 1:
            return [int(reps[lo])]
        c = cuts[level + 1]
        bounds = c[np.searchsorted(c, lo) : np.searchsorted(c, hi)].tolist() + [hi]
        # most δ-cells first; the stable sort keeps siblings in (cx, cy) order
        children = sorted(zip(bounds[:-1], bounds[1:]), key=lambda ab: ab[0] - ab[1])
        chosen: list[int] = []
        for a, b in children:
            chosen.extend(select(level + 1, a, b))
            if len(chosen) >= caps[level]:
                break
        return chosen[: caps[level]]

    roots = cuts[0].tolist() + [reps.size]
    selected = [i for lo, hi in zip(roots[:-1], roots[1:]) for i in select(0, lo, hi)]

    # greedy δ-separation sweep in lexicographic order
    chosen_pts = pts[sorted(selected)]
    kept: list[int] = []
    buckets: dict[tuple[int, int], list[int]] = {}
    thresh = d * (1.0 - SEPARATION_RTOL)
    for i in range(chosen_pts.shape[0]):
        cx, cy = int(math.floor(chosen_pts[i, 0] / d)), int(math.floor(chosen_pts[i, 1] / d))
        ok = True
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in buckets.get((cx + dx, cy + dy), ()):
                    if math.hypot(*(chosen_pts[i] - chosen_pts[j])) < thresh:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            buckets.setdefault((cx, cy), []).append(i)
    return PointSet2D(chosen_pts[kept], separation=d, check=False)


def projected_values(pts, thetas):
    """π_e(p) = x·cos θ + y·sin θ with one row per angle θ and one column
    per point of the (n, 2) array `pts`; cos and sin come from `math`, as in
    `Direction.ex`/`ey`.  The one place the projection is computed."""
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    vals = np.multiply.outer(cos, pts[:, 0])
    vals += np.multiply.outer(sin, pts[:, 1])
    return vals


def project(P, e: Direction) -> ScalarSet:
    """Orthogonal projection x ↦ x·e of a planar set, as a ScalarSet."""
    pts = P.points if isinstance(P, PointSet2D) else np.asarray(P, dtype=np.float64).reshape(-1, 2)
    return ScalarSet(projected_values(pts, [e.theta])[0])


def _close_pair_count(row, d):
    """Unordered pairs i < j of the sorted `row` with fl(row[j] - row[i]) <= d,
    the oracle's test.  fl(row[i] + d) can be an ulp off at the window's edge,
    so each end steps over runs of equal values until that test agrees."""
    right = np.searchsorted(row, row + d, side="right")
    padded = np.append(row, np.inf)
    while (grow := padded[right] - row <= d).any():
        right[grow] = np.searchsorted(row, row[right[grow]], side="right")
    while (shrink := row[right - 1] - row > d).any():
        right[shrink] = np.searchsorted(row, row[right[shrink] - 1], side="left")
    # row[i] meets row[i+1 .. right-1]: unordered pairs, each once
    return int((right - np.arange(1, row.size + 1)).sum())


def projection_sweep(P: PointSet2D, E: DirectionSet, delta):
    """N(π_e P, δ) and the number of ordered pairs p != q with
    |π_e(p) - π_e(q)| <= δ, for every e in E: two int64 arrays indexed like
    `E.thetas`.  Projects blocks of at most CHUNK_ELEMENTS values and sorts
    each direction's values once; N counts their distinct floor(v/δ), and
    `_close_pair_count` the pairs."""
    d = as_delta(delta)
    pts = P.points
    thetas = E.thetas
    n = pts.shape[0]
    cells = np.zeros(thetas.size, dtype=np.int64)
    pairs = np.zeros(thetas.size, dtype=np.int64)
    if n == 0:
        return cells, pairs
    width = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, thetas.size, width):
        block = projected_values(pts, thetas[start : start + width])
        block.sort(axis=1)
        for k, row in enumerate(block):
            pairs[start + k] = _close_pair_count(row, d)
        np.floor(np.divide(block, d, out=block), out=block)
        cells[start : start + block.shape[0]] = 1 + np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
    return cells, 2 * pairs


def project_param(P, t: float) -> ScalarSet:
    """Parametrized projection (x, y) ↦ x + t·y, as a ScalarSet."""
    pts = P.points if isinstance(P, PointSet2D) else np.asarray(P, dtype=np.float64).reshape(-1, 2)
    vals = pts[:, 0] + float(t) * pts[:, 1]
    return ScalarSet(vals)
