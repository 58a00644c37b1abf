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
from dataclasses import dataclass, field

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

# values per block in projection_sweep (projected values) and, divided by
# 64, in check_delta_t (distances, or stencil runs): bounds their memory
# whatever the input size
CHUNK_ELEMENTS = 2 ** 22

# check_delta_t's pruning: cells of side r/NC_CELLS_PER_RADIUS bound the
# ball counts at radius r and hold the points that are counted exactly; the
# exact counts of the NC_SAMPLE centers with the largest bound ratio give
# the lower bound that prunes the rest
NC_CELLS_PER_RADIUS = 8
NC_SAMPLE = 32

# cells along each axis of a `_BallCells` grid at most: keeps the rounding
# of its cell indices under the hair, and the packed keys of all the
# radii a float δ allows (at most 1,076) inside int64
MAX_CELLS = 2 ** 25


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
                    pair = (tuple(self.points[i].tolist()), tuple(self.points[j].tolist()))
                    raise SeparationError(self.separation, pair, dist)

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


def _closest_violation(pts, r):
    """The closest pair i < j of the (n, 1) or (n, 2) array closer than
    r*(1-SEPARATION_RTOL), ties to the lowest (i, j), as (i, j, distance);
    None if clean."""
    return min(_close_pairs(pts, r), key=lambda p: (p[2], p[0], p[1]), default=None)


def _close_pairs(pts, r):
    """Every pair i < j of the (n, 1) or (n, 2) array whose `math.hypot`
    distance is below r*(1-SEPARATION_RTOL), as (i, j, distance) in (i, j)
    order.  The candidates are the pairs within a hair (2^-30) over that
    threshold on one `_BallCells` grid, which holds every such pair whatever
    the rounding of `math.hypot`."""
    n = pts.shape[0]
    if n < 2:  # nothing to pair, and _BallCells needs a point
        return []
    thresh = r * (1.0 - SEPARATION_RTOL)
    limit = thresh * (1.0 + 2.0 ** -30)
    grid = _BallCells(pts, np.array([limit]), 1)
    centers = np.arange(n)
    near_i, near_j = [], []
    for a, b, sizes, pos, dists in grid.stencil_distances(pts, centers, np.zeros(n, dtype=np.int64)):
        i = np.repeat(centers[a:b], sizes)
        j = grid.order[pos]
        near = (i < j) & (dists <= limit)
        near_i.append(i[near])
        near_j.append(j[near])
    i, j = np.concatenate(near_i), np.concatenate(near_j)
    first = np.lexsort((j, i))
    i, j = i[first].tolist(), j[first].tolist()
    dists = [math.hypot(*diff) for diff in (pts[i] - pts[j]).tolist()]
    return [pair for pair in zip(i, j, dists) if pair[2] < thresh]


@dataclass(frozen=True)
class Direction:
    """Unit vector e = (cos θ, sin θ) on the circle, θ normalized to [0, 2π)."""

    theta: float

    def __post_init__(self):
        theta = float(self.theta) % TWO_PI
        # x % TWO_PI rounds up to TWO_PI itself for x a hair below 0
        object.__setattr__(self, "theta", theta if theta < TWO_PI else 0.0)

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
        arr = np.asarray(thetas, dtype=np.float64).ravel() % TWO_PI
        arr[arr == TWO_PI] = 0.0  # as in Direction
        self.thetas = np.unique(arr)
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
    # work counters: centers whose ball counts were computed exactly, and
    # the center-to-point distances computed for them
    exact_centers: int = field(default=0, compare=False)
    distances: int = field(default=0, compare=False)

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

    Exact and pruned.  `_BallCells` bounds every center's count at every
    radius.  The NC_SAMPLE centers with the largest bound ratio are counted
    exactly; their worst ratio L, first attained by the sampled center f,
    is a lower bound on the worst ratio.  Any other center is counted, in
    index order and only at the radii whose bound ratio reaches L, if its
    bound ratio exceeds L, or equals it before f.  A pair left out has a
    ratio below L, or cannot beat f, so the report is the one a full scan
    gives: the first center in index order attaining the worst ratio, and
    its smallest such radius.  The report counts the centers counted
    exactly and the distances computed.
    """
    d = as_delta(delta)
    if not 0.0 < t <= 2.0:
        raise ValueError(f"exponent t must lie in (0, 2], got {t}")
    pts = _coerce_coords(P)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot scan an empty set")
    if not np.isfinite(pts).all():
        raise ValueError("cannot scan non-finite coordinates")
    if validate_separation and (violation := _closest_violation(pts, d)) is not None:
        i, j, dist = violation
        raise SeparationError(d, (tuple(pts[i].tolist()), tuple(pts[j].tolist())), dist)

    radii = np.asarray(dyadic_radii(d))
    powers = (radii / d) ** t
    # every center's ratio at r = δ is at least 1, and one at a radius
    # with (r/δ)^t > n is below 1: such radii cannot attain the worst ratio
    scanned = powers <= n
    worst, witness, work = _pruned_scan(pts, radii[scanned], powers[scanned])
    return NonConcentrationReport(
        exponent=float(t),
        worst_ratio=worst,
        witness_center=tuple(pts[witness[0]].tolist()),
        witness_radius=witness[1],
        log_power_used=float(log_power),
        delta=d,
        n_points=n,
        exact_centers=work[0],
        distances=work[1],
    )


def _pruned_scan(pts, radii, powers):
    """check_delta_t's two-phase scan: (worst ratio, (witness index,
    witness radius), (centers counted exactly, distances computed))."""
    n = pts.shape[0]
    grid = _BallCells(pts, radii, NC_CELLS_PER_RADIUS)
    bound_ratio = grid.bounds() / powers
    best_bound = bound_ratio.max(axis=1)
    exact = np.zeros(n, dtype=bool)
    distances = 0
    worst, witness = -1.0, (n, 0.0)

    def count(centers, live):
        """Count the increasing `centers` exactly at their `live` radii; the
        first of them attaining their worst ratio becomes the witness if
        that ratio is larger than the worst so far, or equal at a smaller
        index."""
        nonlocal distances, worst, witness
        row, k = np.nonzero(live)
        counts = np.zeros(live.shape, dtype=np.int64)
        counts[row, k], pairs = grid.ball_counts(pts, centers[row], k)
        distances += pairs
        exact[centers] = True
        ratios = counts / powers
        ratios[~live] = -np.inf
        rowmax = ratios.max(axis=1)
        j = int(np.argmax(rowmax))
        if rowmax[j] > worst or (rowmax[j] == worst and centers[j] < witness[0]):
            worst, witness = float(rowmax[j]), (int(centers[j]), float(radii[int(np.argmax(ratios[j]))]))

    # the exact rows of the sample: every center's ratio at r = δ is at
    # least 1, so a radius whose bound ratio is below 1 cannot hold a worst
    sample = np.sort(np.argsort(-best_bound, kind="stable")[:NC_SAMPLE])
    count(sample, bound_ratio[sample] >= 1.0)
    # any other center can be the witness only with a bound ratio above the
    # sample's worst, or equal to it at a smaller index, and only at the
    # radii whose bound ratio reaches it; those are counted in index order,
    # skipping centers whose bound cannot beat the witness found so far
    rest = np.ones(n, dtype=bool)
    rest[sample] = False
    index = np.arange(n)
    candidates = index[rest & ((best_bound > worst) | ((best_bound == worst) & (index < witness[0])))]
    live = bound_ratio[candidates] >= worst
    for a, b in _blocks(live.sum(axis=1) * grid.offsets.shape[1]):
        block = candidates[a:b]
        keep = (best_bound[block] > worst) | ((best_bound[block] == worst) & (block < witness[0]))
        if keep.any():
            count(block[keep], live[a:b][keep])
    return worst, witness, (int(exact.sum()), distances)


def _pair_block():
    """check_delta_t's block: distances, or stencil runs, computed at once."""
    return max(1, CHUNK_ELEMENTS // 64)


def _blocks(sizes):
    """Slices [a, b) of consecutive items whose `sizes` sum to at most
    _pair_block() (or of one item)."""
    ends = np.cumsum(sizes)
    a = 0
    while a < ends.size:
        done = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + _pair_block(), side="right")))
        yield a, b
        a = b


class _BallCells:
    """The points bucketed for balls of each radius r in `radii`: cells of
    side a hair over r/m, packed row-major into int64 keys, each radius's
    keys in a range of their own, all sorted once.

    A point at float distance <= r from a center lies in one of the
    center's stencil cells (dx, dy): |dx|, |dy| <= m and the cell's nearest
    point within r of the center's cell, max(|dx|-1, 0)² + max(|dy|-1, 0)²
    <= m² (no dy in 1-D).  The hair (2^-20 of the side) absorbs the
    rounding of the cell indices and of the distance itself, and every
    excluded cell misses by a factor of at least sqrt(1 + 1/m²).  Each
    stencil row is one run of `keys`, found by `searchsorted`.  Cells are
    counted from the set's least coordinates, at most MAX_CELLS along each
    axis: a radius below MAX_CELLS·m/span gets cells of side span/MAX_CELLS,
    wider than r/m, which the same stencil still covers."""

    __slots__ = ("radii", "order", "keys", "points", "cell_keys", "offsets", "reach")

    def __init__(self, pts, radii, m):
        self.radii = radii
        lo = pts.min(axis=0)
        span = float((pts.max(axis=0) - lo).max())
        sides = np.maximum(radii / m, span / MAX_CELLS) * (1.0 + 2.0 ** -20)
        # cell indices shifted by m, so every stencil cell's is >= 0
        cells = np.floor((pts - lo) / sides[:, None, None]).astype(np.int64) + m
        extent = cells.max(axis=1) + m + 1  # per radius and axis
        keys = cells[:, :, 0]
        self.offsets = np.zeros((radii.size, 1), dtype=np.int64)
        self.reach = np.array([m])
        if pts.shape[1] == 2:
            keys = keys + cells[:, :, 1] * extent[:, :1]
            dy = range(-m, m + 1)
            self.offsets = np.array(dy) * extent[:, :1]
            self.reach = np.array([min(m, 1 + math.isqrt(m * m - max(abs(v) - 1, 0) ** 2)) for v in dy])
        size = extent.prod(axis=1)
        self.cell_keys = keys + (np.cumsum(size) - size)[:, None]
        self.order = np.argsort(self.cell_keys, axis=None, kind="stable")
        self.keys = self.cell_keys.ravel()[self.order]
        self.points = pts[self.order % pts.shape[0]]

    def runs(self, cell_keys, radius):
        """Per key and stencil row of the radius index, the run of `order`
        whose keys lie in key + row offset + [-reach, reach]: (lo, hi)."""
        rows = cell_keys[:, None] + self.offsets[radius]
        return (np.searchsorted(self.keys, rows - self.reach, side="left"),
                np.searchsorted(self.keys, rows + self.reach, side="right"))

    def bounds(self):
        """(n, radii) array: the number of points in each point's stencil at
        each radius, an upper bound on |P ∩ B(x, r)|, computed once per
        occupied cell."""
        new = np.empty(self.keys.size, dtype=bool)
        new[0] = True
        np.not_equal(self.keys[1:], self.keys[:-1], out=new[1:])
        occupied = self.keys[new]
        radius = self.order[new] // self.cell_keys.shape[1]
        per_cell = np.empty(occupied.size, dtype=np.int64)
        step = max(1, _pair_block() // self.offsets.shape[1])
        for a in range(0, occupied.size, step):
            lo, hi = self.runs(occupied[a : a + step], radius[a : a + step])
            per_cell[a : a + step] = (hi - lo).sum(axis=1)
        out = np.empty(self.keys.size, dtype=np.int64)
        out[self.order] = per_cell[np.cumsum(new) - 1]
        return out.reshape(self.cell_keys.shape).T

    def stencil_distances(self, pts, centers, radius):
        """Per block [a, b) of centers, at most _pair_block() distances:
        (a, b, sizes, pos, dists), the number of points in each center's
        stencil at its radius index, their positions in `order` (center by
        center) and their distances to the center (`abs` in 1-D, einsum and
        sqrt in 2-D)."""
        lo, hi = self.runs(self.cell_keys[radius, centers], radius)
        lens = hi - lo
        sizes = lens.sum(axis=1)
        for a, b in _blocks(sizes):
            run = lens[a:b].ravel()
            pos = np.repeat(lo[a:b].ravel() - (np.cumsum(run) - run), run) + np.arange(run.sum())
            diff = np.take(self.points, pos, axis=0) - np.repeat(pts[centers[a:b]], sizes[a:b], axis=0)
            if pts.shape[1] == 1:
                dists = np.abs(diff[:, 0])
            else:
                dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            yield a, b, sizes[a:b], pos, dists

    def ball_counts(self, pts, centers, radius):
        """(counts, distances): |P ∩ B(x_c, r)| for each center and radius
        index, from the distances to the points of its stencil (`<= r`)."""
        counts = np.empty(centers.size, dtype=np.int64)
        total = 0
        for a, b, sizes, pos, dists in self.stencil_distances(pts, centers, radius):
            hits = np.zeros(pos.size + 1, dtype=np.int64)
            np.cumsum(dists <= np.repeat(self.radii[radius[a:b]], sizes), out=hits[1:])
            ends = np.cumsum(sizes)
            counts[a:b] = hits[ends] - hits[ends - sizes]
            total += pos.size
        return counts, total


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
        # within a level-(j - 1) cell, the level-j (cx, cy) order is the
        # order of the quadrant digit 2·(cx & 1) + (cy & 1); the last key
        # is primary, so the sort reads level 0's (cx, cy), then one int8
        # digit per finer level
        fine = self.fine
        digits = [(2 * ((fine[:, 0] >> shift) & 1) + ((fine[:, 1] >> shift) & 1)).astype(np.int8)
                  for shift in range(depth)]
        self.order = np.lexsort(digits + [fine[:, 1] >> depth, fine[:, 0] >> depth])

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
    greedy sweep over the picks in lexicographic order keeps a point unless
    an earlier kept point is closer than δ(1 - SEPARATION_RTOL), reading
    the pairs from `_close_pairs`.

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

    # greedy δ-separation sweep in lexicographic order: a point is kept
    # unless an earlier kept point is closer than δ(1 - SEPARATION_RTOL);
    # pairs come in (i, j) order, so i's fate is settled before its pairs
    chosen_pts = pts[sorted(selected)]
    keep = np.ones(chosen_pts.shape[0], dtype=bool)
    for i, j, _ in _close_pairs(chosen_pts, d):
        if keep[i]:
            keep[j] = False
    return PointSet2D(chosen_pts[keep], separation=d, check=False)


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
