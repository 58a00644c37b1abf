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

# values per block (512 KiB of float64 or int64) in every chunked kernel:
# projection_sweep (projected values, or one direction's), check_delta_t
# and _close_pairs (distances, or stencil runs), additive's pair sums and
# incidence.close_pairs_bruteforce (differences): bounds their memory
# whatever the input size
CHUNK_ELEMENTS = 2 ** 16

# check_delta_t's pruning: cells of side r/NC_CELLS_PER_RADIUS bound the
# ball counts at radius r and hold the points that are counted exactly; its
# walk over the centers, largest bound ratio first, counts NC_SAMPLE of
# them in its first block and twice as many in each later one
NC_CELLS_PER_RADIUS = 8
NC_SAMPLE = 32

# the least δ of a planar check_delta_t: squared distances near δ stay in
# the normal float range above it (2^-1020 >= 2^-1022), and a subnormal or
# zero square would count a point outside a ball as inside
PLANAR_NC_DELTA_FLOOR = 2.0 ** -510

# cells along each axis of a `_BallCells` grid at most: keeps the rounding
# of its cell indices under the hair, and the packed keys of all the
# radii a float δ allows (at most 1,076) inside int64
MAX_CELLS = 2 ** 25


def as_delta(delta) -> float:
    """Coerce a number to a validated float scale δ ∈ (0, 1/2]."""
    d = float(delta)
    if not 0.0 < d <= 0.5:
        raise ValueError(f"scale must lie in (0, 1/2], got {d}")
    return d


def as_exponent(value, name) -> float:
    """Coerce a number to a validated float exponent in (0, 2]; `name` is
    how the refusal calls it ("exponent s", say)."""
    v = float(value)
    if not 0.0 < v <= 2.0:
        raise ValueError(f"{name} must lie in (0, 2], got {v}")
    return v


def delta_pow_minus(delta, exponent) -> float:
    """δ^-exponent as a float; a power past float range is refused with a
    ValueError naming δ and the exponent."""
    try:
        return float(delta) ** -float(exponent)
    except OverflowError:
        raise ValueError(f"delta^-{float(exponent)} overflows a float at delta {float(delta)}") from None


class ScalarSet:
    """Finite set of reals, sorted strictly increasing.

    Values equal under float comparison are collapsed; nothing coarser.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.unique(np.asarray(values, dtype=np.float64).ravel())
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("scalar set values must be finite")
        self.values = arr
        self.values.setflags(write=False)

    def __len__(self):
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values.tolist())

    def __repr__(self):
        return f"ScalarSet(n={len(self)})"


class PointSet2D:
    """Finite planar point collection, stored in lexicographic order.

    A declared `separation` (distances >= separation, up to
    SEPARATION_RTOL) is verified, or holds by construction (check=False).
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
                _require_separation(self.points, self.separation)

    def __len__(self):
        return int(self.points.shape[0])

    def __repr__(self):
        return f"PointSet2D(n={len(self)}, separation={self.separation})"


def _require_separation(pts, r):
    """Raise SeparationError naming the closest pair i < j of the (n, 1) or
    (n, 2) array closer than r*(1-SEPARATION_RTOL), ties to the lowest
    (i, j), if there is one."""
    violation = min(_close_pairs(pts, r), key=lambda p: (p[2], p[0], p[1]), default=None)
    if violation is not None:
        i, j, dist = violation
        raise SeparationError(r, (tuple(pts[i].tolist()), tuple(pts[j].tolist())), dist)


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
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError(f"direction angles must be finite, got {theta}")
        theta %= TWO_PI
        # x % TWO_PI rounds up to TWO_PI itself for x a hair below 0
        object.__setattr__(self, "theta", theta if theta < TWO_PI else 0.0)

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
        arr = np.asarray(thetas, dtype=np.float64).ravel()
        if not np.isfinite(arr).all():
            raise ValueError("direction angles must be finite")
        arr = arr % TWO_PI
        arr[arr == TWO_PI] = 0.0  # as in Direction
        self.thetas = np.unique(arr)
        self.thetas.setflags(write=False)

    @classmethod
    def net(cls, count, span=TWO_PI):
        """Uniformly spaced net of `count` directions over [0, span)."""
        if count < 1:
            raise ValueError("net needs at least one direction")
        return cls(span * np.arange(count) / count)

    def __len__(self):
        return int(self.thetas.size)

    def __iter__(self):
        return (Direction(t) for t in self.thetas.tolist())

    def __getitem__(self, i) -> Direction:
        return Direction(float(self.thetas[i]))

    def min_angular_gap(self) -> float:
        if len(self) < 2:
            return TWO_PI
        gaps = np.diff(self.thetas)
        wrap = TWO_PI - (self.thetas[-1] - self.thetas[0])
        return float(min(gaps.min(), wrap))


@dataclass(frozen=True)
class NonConcentrationReport:
    """Result of a (δ,t) non-concentration scan.

    worst_ratio = max over scanned (x, r) of |P ∩ B(x,r)| / (r/δ)^t, with
    the witness ball attaining it.  Thresholds are the caller's business:
    each caller compares worst_ratio against its own bound.
    """

    exponent: float
    worst_ratio: float
    witness_center: tuple
    witness_radius: float
    delta: float
    n_points: int
    # work counters: centers whose ball counts were computed exactly, and
    # the center-to-point distances computed for them
    exact_centers: int = field(default=0, compare=False)
    distances: int = field(default=0, compare=False)


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


def grid_cells_1d(S, delta):
    """Sorted distinct grid indices k with [kδ, (k+1)δ) meeting S."""
    vals = S.values if isinstance(S, ScalarSet) else np.asarray(S, dtype=np.float64).ravel()
    return np.unique(_cell_index(vals, as_delta(delta)))


def _cell_index(vals, d):
    """floor(vals / d) as int64, for an array of any shape.  A non-finite
    value is refused, and so is a δ at which an index would leave int64,
    exactly when some |v| >= δ·2^63, naming the smallest usable δ."""
    bound = float(np.abs(vals).max(initial=0.0))
    if not bound < math.ldexp(d, 63):
        if not math.isfinite(bound):
            raise ValueError(f"grid cells need finite values, got {bound!r}")
        least = math.ldexp(bound, -63)
        least = least if math.ldexp(least, 63) > bound else math.nextafter(least, math.inf)
        raise ValueError(f"delta {d!r} takes floor(v / delta) out of int64 for |v| up to {bound!r}; "
                         f"the smallest usable delta is {least!r}")
    return np.floor(vals / d).astype(np.int64)


def optimal_interval_cover(S, delta) -> int:
    """Minimum number of closed length-δ intervals covering S.

    Greedy left-to-right sweep, which is exact in one dimension.  Sandwich
    against the grid convention: cover <= covering_number <= 2 * cover.
    """
    d = as_delta(delta)
    vals = (S if isinstance(S, ScalarSet) else ScalarSet(S)).values
    n = vals.size
    count = 0
    i = 0
    while i < n:
        count += 1
        i = int(np.searchsorted(vals, vals[i] + d, side="right"))
    return count


def dyadic_radii(delta):
    """The scan radii {δ, 2δ, 4δ, ...} capped at 1 (1 appended if missed):
    δ·2^k for k below δ's level j, then 1 (which is δ·2^j if δ = 2^-j)."""
    d = as_delta(delta)
    return [math.ldexp(d, k) for k in range(_dyadic_level(d)[0])] + [1.0]


def check_delta_t(P, delta, t) -> NonConcentrationReport:
    """Scan the (δ,t) non-concentration condition over P.

    Centers range over P itself and radii over `dyadic_radii(delta)`; balls
    are closed.  Rejects input that is not δ-separated, unless it is a
    PointSet2D declaring a separation >= δ.

    Exact and pruned.  `_BallCells` bounds every center's count at every
    radius, and one walk visits the centers by descending bound ratio (ties
    in index order), NC_SAMPLE in its first block and twice as many in each
    later one.  The worst ratio L counted so far, first attained by the
    center f, starts at 1, which every center reaches at r = δ.  A block's
    centers whose bound ratio exceeds L, or equals it before f, are counted
    exactly, at the radii whose bound ratio reaches L; the walk stops at the
    first center that cannot beat f.  A pair left out has a ratio below L,
    or cannot beat f, so the report is the one a full scan gives: the first
    center in index order attaining the worst ratio, and its smallest such
    radius.  The report counts the centers counted exactly and the
    distances computed.
    """
    d = as_delta(delta)
    t = as_exponent(t, "exponent t")
    pts = _coerce_coords(P)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot scan an empty set")
    if not np.isfinite(pts).all():
        raise ValueError("cannot scan non-finite coordinates")
    if pts.shape[1] == 2 and d < PLANAR_NC_DELTA_FLOOR:
        raise ValueError(f"a planar scan needs delta >= 2^-510, where squared distances stay "
                         f"normal floats; got {d}")
    if not (isinstance(P, PointSet2D) and P.separation is not None and P.separation >= d):
        _require_separation(pts, d)

    radii = np.asarray(dyadic_radii(d))
    powers = (radii / d) ** t
    # every center's ratio at r = δ is at least 1, and one at a radius
    # with (r/δ)^t > n is below 1: such radii cannot attain the worst ratio
    scanned = powers <= n
    worst, witness, work = _pruned_scan(pts, radii[scanned], powers[scanned])
    return NonConcentrationReport(
        exponent=t,
        worst_ratio=worst,
        witness_center=tuple(pts[witness[0]].tolist()),
        witness_radius=witness[1],
        delta=d,
        n_points=n,
        exact_centers=work[0],
        distances=work[1],
    )


def _pruned_scan(pts, radii, powers):
    """check_delta_t's walk, described there: (worst ratio, (witness
    index, witness radius), (centers counted exactly, distances computed))."""
    n = pts.shape[0]
    grid = _BallCells(pts, radii, NC_CELLS_PER_RADIUS)
    bound_ratio = grid.bounds() / powers
    best_bound = bound_ratio.max(axis=1)
    walk = np.argsort(-best_bound, kind="stable")
    # every center's ratio at r = δ is at least 1: the worst so far starts
    # there, with no witness yet
    worst, witness = 1.0, (n, 0.0)
    exact = distances = 0
    a, size = 0, NC_SAMPLE
    while a < n:
        # the centers whose bound beats the witness, or ties it at a smaller
        # index, are a prefix of the walk (ties go in index order); sorted
        # by index, the first row at the block's worst is its first center
        block = walk[a : a + size]
        bound = best_bound[block]
        block = np.sort(block[(bound > worst) | ((bound == worst) & (block < witness[0]))])
        if block.size == 0:
            break
        live = bound_ratio[block] >= worst
        row, k = np.nonzero(live)
        counts = np.zeros(live.shape, dtype=np.int64)
        counts[row, k], pairs = grid.ball_counts(pts, block[row], k)
        exact, distances = exact + block.size, distances + pairs
        ratios = counts / powers
        ratios[~live] = -np.inf
        rowmax = ratios.max(axis=1)
        j = int(np.argmax(rowmax))
        if rowmax[j] > worst or (rowmax[j] == worst and block[j] < witness[0]):
            worst, witness = float(rowmax[j]), (int(block[j]), float(radii[int(np.argmax(ratios[j]))]))
        a, size = a + size, 2 * size
    return worst, witness, (exact, distances)


def _blocks(sizes):
    """Slices [a, b) of consecutive items whose `sizes` sum to at most
    CHUNK_ELEMENTS (or of one item)."""
    ends = np.cumsum(sizes)
    a = 0
    while a < ends.size:
        done = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + CHUNK_ELEMENTS, side="right")))
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
        whose keys lie in key + row offset + [-reach, reach]: (a, lo, hi)
        for the keys from a on, at most CHUNK_ELEMENTS runs at a time."""
        step = max(1, CHUNK_ELEMENTS // self.offsets.shape[1])
        for a in range(0, cell_keys.size, step):
            rows = cell_keys[a : a + step, None] + self.offsets[radius[a : a + step]]
            yield (a, np.searchsorted(self.keys, rows - self.reach, side="left"),
                   np.searchsorted(self.keys, rows + self.reach, side="right"))

    def bounds(self):
        """(n, radii) array: the number of points in each point's stencil at
        each radius, an upper bound on |P ∩ B(x, r)|, computed once per
        occupied cell."""
        new = np.empty(self.keys.size, dtype=bool)
        new[0] = True
        np.not_equal(self.keys[1:], self.keys[:-1], out=new[1:])
        occupied = self.keys[new]
        per_cell = np.empty(occupied.size, dtype=np.int64)
        for a, lo, hi in self.runs(occupied, self.order[new] // self.cell_keys.shape[1]):
            per_cell[a : a + lo.shape[0]] = (hi - lo).sum(axis=1)
        out = np.empty(self.keys.size, dtype=np.int64)
        out[self.order] = per_cell[np.cumsum(new) - 1]
        return out.reshape(self.cell_keys.shape).T

    def stencil_distances(self, pts, centers, radius):
        """Per block [a, b) of centers, at most CHUNK_ELEMENTS distances
        (or one center's) from `runs`' chunks of stencil runs:
        (a, b, sizes, pos, dists), the number of points in each center's
        stencil at its radius index, their positions in `order` (center by
        center) and their distances to the center (`abs` in 1-D, einsum and
        sqrt in 2-D)."""
        for start, lo, hi in self.runs(self.cell_keys[radius, centers], radius):
            chunk = centers[start : start + lo.shape[0]]
            lens = hi - lo
            sizes = lens.sum(axis=1)
            for a, b in _blocks(sizes):
                run = lens[a:b].ravel()
                pos = np.repeat(lo[a:b].ravel() - (np.cumsum(run) - run), run) + np.arange(run.sum())
                diff = np.take(self.points, pos, axis=0) - np.repeat(pts[chunk[a:b]], sizes[a:b], axis=0)
                if pts.shape[1] == 1:
                    dists = np.abs(diff[:, 0])
                else:
                    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                yield start + a, start + b, sizes[a:b], pos, dists

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
    level-depth cell holds its points in index order; position i of
    `order` starts a level-j run exactly when split[i] <= j.  A depth past
    `max_depth(pts)`, where floor(pts · 2^depth) would leave int64, is
    refused with a ValueError."""

    __slots__ = ("depth", "fine", "order", "split")

    def __init__(self, pts, depth):
        _check_depth(depth, pts)
        self.depth = depth
        self.fine = np.floor(pts * 2.0 ** depth).astype(np.int64)
        # within a level-(j - 1) cell, the level-j (cx, cy) order is the
        # order of the quadrant digit 2·(cx & 1) + (cy & 1); the last key
        # is primary, so the sort reads level 0's (cx, cy), then one int8
        # digit per finer level
        fine = self.fine
        digits = [(2 * ((fine[:, 0] >> shift) & 1) + ((fine[:, 1] >> shift) & 1)).astype(np.int8)
                  for shift in range(depth)]
        keys = digits + [fine[:, 1] >> depth, fine[:, 0] >> depth]
        self.order = np.lexsort(keys)
        # where each sorted key changes, coarser levels overwriting finer
        self.split = np.full(self.order.size, depth + 1, dtype=np.min_scalar_type(depth + 1))
        self.split[:1] = 0
        for j, key in zip([*range(depth, 0, -1), 0, 0], keys):
            key = key[self.order]
            self.split[1:][key[1:] != key[:-1]] = j

    @staticmethod
    def max_depth(pts):
        """The largest depth at which floor(pts · 2^depth) stays in int64:
        every |coordinate| · 2^depth is below 2^63."""
        return 63 - math.frexp(float(np.abs(pts).max()) if pts.size else 0.0)[1]

    def level(self, j):
        """(cells, starts, inverse) at level j: one cell per run of `order`,
        where each run starts in `order`, and each point's run number."""
        new = self.split <= j
        starts = np.flatnonzero(new)
        inverse = np.empty(new.size, dtype=np.int64)
        inverse[self.order] = np.cumsum(new) - 1
        return self.fine[self.order[starts]] >> (self.depth - j), starts, inverse

    def parent(self, j, starts):
        """Level-j run number of each level-k run (k >= j) from all their starts."""
        return np.cumsum(self.split[starts] <= j) - 1

    def restrict(self, j, runs):
        """The tree over the level-j runs numbered `runs`, its `order` still
        indexing every point; its `split` holds at levels j and finer."""
        sub = object.__new__(DyadicCells)
        keep = np.isin(np.cumsum(self.split <= j) - 1, runs)
        sub.depth, sub.fine, sub.order, sub.split = self.depth, self.fine, self.order[keep], self.split[keep]
        return sub


def _check_depth(depth, pts):
    """Refuse, naming `DyadicCells.max_depth(pts)`, a depth at which
    floor(pts · 2^depth) would leave int64."""
    limit = DyadicCells.max_depth(pts)
    if depth > limit:
        raise ValueError(f"dyadic depth {depth} takes floor(x * 2^{depth}) out of int64 "
                         f"for these coordinates; the largest usable depth is {limit}")


def _dyadic_level(d):
    """(j, exact) for δ in (0, 1/2]: the first level j whose side 2^-j is
    at most δ, and whether δ == 2^-j.  frexp gives δ = m·2^e with m in
    [1/2, 1), so 2^(e-1) <= δ < 2^e, exactly and for every float δ."""
    m, e = math.frexp(d)
    return 1 - e, m == 0.5


def _dyadic_levels(K, delta, s):
    """Validated (δ, (n, 2) points, first level with side <= δ)."""
    d = as_delta(delta)
    as_exponent(s, "exponent s")
    pts = _coerce_coords(K)
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
    return d, pts, _dyadic_level(d)[0]


def dyadic_content(K, delta, s) -> float:
    """Greedy dyadic estimate of the s-content of the δ-neighborhood of K.

    Bottom-up DP over the dyadic tree: a cell costs min(side^s, sum of its
    occupied children), with occupied δ-level cells costing δ-side^s.
    """
    d, pts, levels = _dyadic_levels(K, delta, s)
    if pts.shape[0] == 0:
        return 0.0
    tree = DyadicCells(pts, levels)
    starts = np.flatnonzero(tree.split <= levels)
    cost = np.full(starts.size, (2.0 ** -levels) ** s)
    for j in range(levels - 1, -1, -1):
        cost = np.minimum((2.0 ** -j) ** s, np.bincount(tree.parent(j, starts), weights=cost))
        starts = starts[tree.split[starts] <= j]
    return float(sum(cost.tolist()))


def extract_delta_s_subset(K, delta, s) -> PointSet2D:
    """Extract a δ-separated subset P of K obeying the (δ,s) caps.

    Dyadic-tree greedy from the level-0 cells: a level-j cell lists its
    children's picks, most occupied δ-cells first (ties to the lower cell
    index), and keeps the first ceil((2^-j / δ)^s); a δ-cell picks its
    lexicographically least point.  It runs bottom-up, one array pass per
    level, and picks what the top-down recursion would, as that stops a
    list at its cap and keeps the same prefix.  A final greedy sweep over
    the picks in lexicographic order keeps a point unless an earlier kept
    point is closer than δ(1 - SEPARATION_RTOL), reading the pairs from
    `_close_pairs`.  `two_scale_decomposition` runs the same greedy and
    sweep from its level-j good cells, one root per ball.

    With κ = dyadic_content(K, δ, s), the output satisfies
    |P| >= EXTRACTION_CARDINALITY_C * κ * δ^-s and passes
    check_delta_t(δ, s) with worst_ratio <= EXTRACTION_RATIO_BOUND.
    """
    d, pts, levels = _dyadic_levels(K, delta, s)
    if pts.shape[0] == 0:
        raise ValueError("cannot extract from an empty set")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return _extract_below(pts, DyadicCells(pts, levels), d, s, 0)


def _extract_below(pts, tree, d, s, root):
    """extract_delta_s_subset's greedy and sweep on `tree`, a DyadicCells
    over the lexicographic (n, 2) array `pts` (or its `restrict`), its depth
    the first level with side <= d and each level-`root` cell a root.  Up
    the levels, each δ-cell's pick carries its cell and its place among
    that cell's picks; `runs` start the cells, each of `size` δ-cells."""
    levels = tree.depth
    runs = np.flatnonzero(tree.split <= levels)
    picks, cell = tree.order[runs], np.arange(runs.size)
    place, size = np.zeros_like(runs), np.ones_like(runs)
    for j in range(levels - 1, root - 1, -1):
        parent, first = tree.parent(j, runs), np.flatnonzero(tree.split[runs] <= j)
        # siblings by most δ-cells, then run order (a stable sort, parents
        # kept in order); a child's picks follow those of the siblings ahead
        by = np.lexsort((-size, parent))
        held = np.bincount(cell, minlength=runs.size)[by]
        ahead = np.empty_like(held)
        ahead[by] = np.cumsum(held) - held
        place += ahead[cell] - ahead[by[first]][parent[cell]]
        keep = place < math.ceil(((2.0 ** -j) / d) ** s)
        picks, cell, place = picks[keep], parent[cell[keep]], place[keep]
        size, runs = np.add.reduceat(size, first), runs[first]

    # greedy δ-separation sweep in lexicographic order: a point is kept
    # unless an earlier kept point is closer than δ(1 - SEPARATION_RTOL);
    # pairs come in (i, j) order, so i's fate is settled before its pairs
    chosen_pts = pts[np.sort(picks)]
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


def projection_sweep(P: PointSet2D, E: DirectionSet, delta, pairs=True):
    """N(π_e P, δ) and the number of ordered pairs p != q with
    |π_e(p) - π_e(q)| <= δ, for every e in E: two int64 arrays indexed like
    `E.thetas`.  Projects blocks of whole directions, at most
    max(CHUNK_ELEMENTS, |P|) values each, and sorts each direction's values
    once; N counts their distinct floor(v/δ), once `_cell_index` accepts δ
    for the ends of every sorted row, and `_close_pair_count` the pairs
    (with pairs=False, zeros)."""
    d = as_delta(delta)
    pts = P.points
    thetas = E.thetas
    n = pts.shape[0]
    cells = np.zeros(thetas.size, dtype=np.int64)
    close = np.zeros(thetas.size, dtype=np.int64)
    if n == 0:
        return cells, close
    width = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, thetas.size, width):
        block = projected_values(pts, thetas[start : start + width])
        block.sort(axis=1)
        _cell_index(block[:, [0, -1]], d)
        if pairs:
            for k, row in enumerate(block):
                close[start + k] = _close_pair_count(row, d)
        np.floor(np.divide(block, d, out=block), out=block)
        cells[start : start + block.shape[0]] = 1 + np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
    return cells, 2 * close

