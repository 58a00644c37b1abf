"""Two-scale machinery: mass distributions with dyadic caps, efficient
dyadic covers, scale pigeonholing, the √δ/δ decomposition, energy sums,
tube restriction, horizontal dilation, and direction reparametrization.

The pigeonhole constant is fixed at 6/π² so that scale selection is total
(the quotas over all levels sum to exactly the available mass, so some
level must meet its quota).  The good-ball mass threshold is
factor · √δ / log^power(1/δ) with natural log, factor 1/4 and power 2 by
default; both are tunable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .delta_core import (
    Direction,
    DirectionSet,
    DyadicCells,
    PointSet2D,
    ScalarSet,
    Scale,
    as_delta,
    check_delta_t,
    covering_number,
    extract_delta_s_subset,
)
from .errors import InvariantError, TwoScaleError
from .incidence import Tube
from .product_construction import ProductLikeSet

GOOD_BALL_FACTOR = 0.25
GOOD_BALL_LOG_POWER = 2.0
TWO_SCALE_RATIO_BOUND = 8.0
PIGEONHOLE_CONSTANT = 6.0 / math.pi ** 2


class WeightedPointSet:
    """Points with nonnegative weights; optionally carries the dyadic-cap
    certificate (exponent and the max mass(cell)/side^exponent ratio)."""

    __slots__ = ("points", "weights", "total_mass", "exponent", "certificate_ratio")

    def __init__(self, points: PointSet2D, weights, exponent=None, certificate_ratio=None):
        self.points = points if isinstance(points, PointSet2D) else PointSet2D(points)
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.size != len(self.points):
            raise ValueError("one weight per point required")
        if w.size and w.min() < 0:
            raise ValueError("weights must be nonnegative")
        self.weights = w
        self.weights.setflags(write=False)
        self.total_mass = float(w.sum())
        self.exponent = exponent
        self.certificate_ratio = certificate_ratio

    def __len__(self):
        return len(self.points)


def _singleton_level(pts, level):
    """First level >= `level` (at most 40) at which no two points share a
    dyadic cell; no cell deeper than the returned level is built."""
    while level < 40 and DyadicCells(pts, level).level(level)[1].size < pts.shape[0]:
        level += 1
    return level


def _max_cap_ratio(tree: DyadicCells, weights, exponent):
    """Largest mass(cell) / side^exponent over the levels 0..tree.depth,
    with the (level, cell) that attains it."""
    worst, witness = -1.0, None
    for j in range(tree.depth + 1):
        cells, _, inverse = tree.level(j)
        ratio = np.bincount(inverse, weights=weights) / (2.0 ** -j) ** exponent
        k = int(np.argmax(ratio))
        if ratio[k] > worst:
            worst, witness = float(ratio[k]), (j, tuple(cells[k].tolist()))
    return worst, witness


def frostman_weights(P: PointSet2D, exponent, min_scale=None) -> WeightedPointSet:
    """Mass distribution maximizing total weight under the dyadic caps
    mass(level-j cell) <= (2^-j)^exponent, by bottom-up proportional
    capping.  `min_scale` fixes the finest capped level (weights start at
    that level's cap); by default the tree is deepened until cells are
    singletons (capped at level 40)."""
    if not 0.0 < exponent <= 2.0:
        raise ValueError("exponent must lie in (0, 2]")
    pts = P.points if isinstance(P, PointSet2D) else np.asarray(P, float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("cannot weight an empty set")
    if min_scale is not None:
        levels = max(0, math.ceil(math.log2(1.0 / as_delta(min_scale))))
    else:
        levels = _singleton_level(pts, 0)
    tree = DyadicCells(pts, levels)
    # start at the finest cap, split evenly inside shared finest cells
    _, _, inverse = tree.level(levels)
    w = (2.0 ** -levels) ** exponent / np.bincount(inverse)[inverse]
    for j in range(levels, -1, -1):
        _, _, inverse = tree.level(j)
        mass = np.bincount(inverse, weights=w)
        cap = (2.0 ** -j) ** exponent
        scale = np.ones_like(mass)
        over = mass > cap
        scale[over] = cap / mass[over]
        w = w * scale[inverse]
    ratio, witness = _max_cap_ratio(tree, w, exponent)
    if ratio > 1.0 + 1e-9:
        raise InvariantError("cap certificate failed", ratio, 1.0 + 1e-9, witness)
    return WeightedPointSet(P if isinstance(P, PointSet2D) else PointSet2D(pts),
                            w, exponent=exponent, certificate_ratio=ratio)


@dataclass(frozen=True)
class DyadicCover:
    """Cells (level j, (kx, ky)) covering the input; diam_sum is
    Σ √2 · 2^-j over the cells."""

    cells: tuple
    diam_sum: float

    def __len__(self):
        return len(self.cells)

    def levels(self):
        return sorted({j for j, _ in self.cells})


def efficient_cover(P: PointSet2D, delta0, floor=None) -> DyadicCover:
    """Dyadic cover with all diameters <= δ0 minimizing Σ diam within the
    dyadic family: bottom-up aggregation merges four children into their
    parent whenever the parent diameter does not exceed the children's sum.
    Costs are counted exactly, as integers in units of the finest cell's
    diameter, so ties merge whatever the order of the children.

    The finest level considered is `floor` (a scale), else the set's
    declared separation, else the first level at which occupied cells are
    singletons."""
    pts = P.points
    if pts.shape[0] == 0:
        return DyadicCover(cells=(), diam_sum=0.0)
    d0 = float(delta0)
    if d0 <= 0:
        raise ValueError("delta0 must be positive")
    j_min = max(0, math.ceil(math.log2(math.sqrt(2.0) / d0)))
    if floor is not None:
        j_max = max(j_min, math.ceil(math.log2(1.0 / as_delta(floor))))
    elif P.separation is not None:
        j_max = max(j_min, math.ceil(math.log2(1.0 / P.separation)))
    else:
        j_max = _singleton_level(pts, j_min)
    tree = DyadicCells(pts, j_max)
    fine, starts, _ = tree.level(j_max)
    fine_points = tree.order[starts]  # one point in each finest cell
    # units[run]: Σ 2^(j_max - j) over the best cover of the run's cell;
    # top[finest cell]: the level of the cover cell that holds it
    units = np.ones(starts.size, dtype=np.int64)
    top = np.full(starts.size, j_max)
    for j in range(j_max - 1, j_min - 1, -1):
        _, parent_starts, inverse = tree.level(j)
        units = np.add.reduceat(units, np.searchsorted(starts, parent_starts))
        merge = units >= 1 << (j_max - j)
        units[merge] = 1 << (j_max - j)
        top[merge[inverse[fine_points]]] = j
        starts = parent_starts
    chosen = {(t, (x >> (j_max - t), y >> (j_max - t))) for t, (x, y) in zip(top.tolist(), fine.tolist())}
    return DyadicCover(cells=tuple(sorted(chosen)),
                       diam_sum=math.sqrt(2.0) * 2.0 ** -j_max * int(units.sum()))


def cover_cell_masses(cover: DyadicCover, mu: WeightedPointSet):
    """μ-mass of every cover cell, keyed by (level, cell)."""
    tree = DyadicCells(mu.points.points, max((j for j, _ in cover.cells), default=0))
    masses = {}
    for j in dict.fromkeys(j for j, _ in cover.cells):
        cells, starts, _ = tree.level(j)
        runs = dict(zip(map(tuple, cells.tolist()), np.split(tree.order, starts[1:])))
        for level, cell in cover.cells:
            if level == j:
                run = runs.get(tuple(cell), ())  # summed in point-index order
                masses[(j, tuple(cell))] = float(mu.weights[np.sort(run)].sum()) if len(run) else 0.0
    return masses


def pick_scale(cover: DyadicCover, mu: WeightedPointSet, delta0):
    """Smallest level j whose cover mass meets the (6/π²)/(j-j0+1)² quota;
    returns (j, δ = 2^-2j).  Existence is forced: the quotas over all
    levels sum to exactly the covered mass."""
    masses = cover_cell_masses(cover, mu)
    total = sum(masses.values())
    if total < 0.5 * mu.total_mass:
        raise ValueError(
            f"cover carries only {total:.4g} of the mass {mu.total_mass:.4g}; "
            "need at least half"
        )
    per_level: dict = {}
    for (j, _), m in masses.items():
        per_level[j] = per_level.get(j, 0.0) + m
    j0 = min(per_level)
    quota = {j: PIGEONHOLE_CONSTANT * total / (j - j0 + 1) ** 2 for j in per_level}
    for j in sorted(per_level):
        if per_level[j] >= quota[j] * (1.0 - 1e-12):
            return j, Scale(2.0 ** (-2 * j), j=2 * j)
    raise InvariantError("pigeonhole failure: no level met its quota", per_level, quota)


@dataclass(frozen=True)
class TwoScaleStructure:
    """√δ-separated good balls with anchors forming a (√δ,1)-set and a
    (δ,1)-set inside each ball whose union is again a (δ,1)-set."""

    delta: float
    sqrt_delta: float
    level: int
    balls: tuple  # (kx, ky) cell indices at `level`
    anchors: PointSet2D
    fine_sets: dict
    fine: PointSet2D
    reports: dict


def two_scale_decomposition(K: PointSet2D, mu: WeightedPointSet, delta,
                            good_ball_factor=GOOD_BALL_FACTOR,
                            log_power=GOOD_BALL_LOG_POWER,
                            max_ratio=TWO_SCALE_RATIO_BOUND) -> TwoScaleStructure:
    """Select good √δ-cells (mass >= factor·√δ/log^power(1/δ)), thin them
    to pairwise ball separation >= √δ, extract a (δ,1)-set inside each,
    anchor at the lexicographically least point, and verify the output
    invariants (both scans within max_ratio) before returning."""
    d = as_delta(delta)
    j2 = round(math.log2(1.0 / d))
    if 2.0 ** -j2 != d or j2 % 2 != 0:
        raise TwoScaleError("delta must be dyadic with an even exponent (2^-2j)")
    j = j2 // 2
    sqrt_d = 2.0 ** -j
    pts = K.points
    threshold = good_ball_factor * sqrt_d / math.log(1.0 / d) ** log_power

    if len(mu) != len(K):
        raise ValueError("mu must weight exactly the points of K")
    cells, _, inverse = DyadicCells(pts, j).level(j)
    mass = np.bincount(inverse, weights=mu.weights)
    good = [(float(mass[r]), tuple(cells[r].tolist()), r) for r in np.flatnonzero(mass >= threshold)]
    # thin to pairwise non-adjacent cells (Chebyshev index distance >= 2),
    # greedily by descending mass, ties to the lower cell index
    good.sort(key=lambda t: (-t[0], t[1]))
    kept = []
    for m, cell, r in good:
        if all(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) >= 2 for _, c, _ in kept):
            kept.append((m, cell, r))
    if len(kept) < 2:
        raise TwoScaleError(
            f"only {len(kept)} good ball(s) at threshold {threshold:.3g}; "
            "use a larger delta or lower the threshold"
        )
    kept.sort(key=lambda t: t[1])
    fine_sets = {}  # in cell order
    anchors = []
    for _, cell, r in kept:
        sub = extract_delta_s_subset(PointSet2D(pts[inverse == r]), d, 1.0)
        fine_sets[cell] = sub
        anchors.append(tuple(sub.points[0]))  # lexicographically least
    anchor_set = PointSet2D(anchors)
    fine = PointSet2D(np.vstack([sub.points for sub in fine_sets.values()]))

    reports = {
        "coarse": check_delta_t(anchor_set, sqrt_d, 1.0),
        "fine": check_delta_t(fine, d, 1.0),
    }
    for name, rep in reports.items():
        if rep.worst_ratio > max_ratio:
            raise TwoScaleError(
                f"{name} scan ratio {rep.worst_ratio:.3g} exceeds {max_ratio}"
            )
    for cell, sub in fine_sets.items():
        rep = check_delta_t(sub, d, 1.0)
        if rep.worst_ratio > max_ratio:
            raise TwoScaleError(f"ball {cell} scan ratio {rep.worst_ratio:.3g}")
    return TwoScaleStructure(
        delta=d,
        sqrt_delta=sqrt_d,
        level=j,
        balls=tuple(fine_sets),
        anchors=anchor_set,
        fine_sets=fine_sets,
        fine=fine,
        reports=reports,
    )


def energy(P, alpha) -> float:
    """Riesz-type sum Σ_{p≠q} |p-q|^-alpha over ordered pairs."""
    if isinstance(P, ScalarSet):
        coords = P.values.reshape(-1, 1)
    elif isinstance(P, PointSet2D):
        coords = P.points
    else:
        coords = np.asarray(P, float)
        coords = coords.reshape(-1, 1) if coords.ndim == 1 else coords
    n = coords.shape[0]
    if n < 2:
        return 0.0
    diff = coords[:, None, :] - coords[None, :, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    off = ~np.eye(n, dtype=bool)
    if float(dists[off].min()) == 0.0:
        raise ValueError("energy undefined: coincident points")
    return float((dists[off] ** -float(alpha)).sum())


def restrict_to_tube(ts: TwoScaleStructure, tube: Tube) -> PointSet2D:
    """Union of the fine sets of the balls whose anchor lies in the tube."""
    if abs(tube.width - ts.sqrt_delta) > 1e-12 * ts.sqrt_delta:
        raise ValueError(f"tube width {tube.width} must equal sqrt(delta) = {ts.sqrt_delta}")
    picked = []
    for cell, anchor in zip(ts.balls, ts.anchors.points):
        if tube.contains(anchor[0], anchor[1]):
            picked.append(ts.fine_sets[cell].points)
    if not picked:
        warnings.warn("tube contains no anchors; empty restriction", stacklevel=2)
        return PointSet2D(np.empty((0, 2)))
    return PointSet2D(np.vstack(picked))


def horizontal_dilate(f_prime: ProductLikeSet, delta=None) -> ProductLikeSet:
    """Scale fiber values by δ^-1/2 (the base is untouched); the result
    lives at scale √δ with the same fiber exponent."""
    d = as_delta(delta) if delta is not None else f_prime.delta
    j2 = round(math.log2(1.0 / d))
    if 2.0 ** -j2 != d or j2 % 2 != 0:
        raise ValueError("horizontal dilation needs delta = 2^-2j exactly")
    factor = 2.0 ** (j2 // 2)  # δ^-1/2, an exact power of two
    sqrt_d = 1.0 / factor
    for b, f in f_prime.fibers.items():
        if len(f) > 1 and float(f.values[-1] - f.values[0]) > 4.0 * sqrt_d:
            warnings.warn(f"fiber at b = {b} is wider than 4·sqrt(delta)", stacklevel=2)
    fibers = {b: ScalarSet(f.values * factor) for b, f in f_prime.fibers.items()}
    return ProductLikeSet(f_prime.base, fibers, sqrt_d, f_prime.s, f_prime.tau)


def reparam_directions(E: DirectionSet, center: Direction, window) -> ScalarSet:
    """Slopes {tan(θ - θ_center)} of directions within `window` of the
    center; directions outside the window (or with cos(θ-θ_center) < 1/2)
    are rejected."""
    w = float(window)
    out = []
    for t in E.thetas.tolist():
        diff = (t - center.theta + math.pi) % (2 * math.pi) - math.pi
        if abs(diff) > w:
            raise ValueError(f"direction theta={t:.6g} lies outside the window {w:.6g}")
        if math.cos(diff) < 0.5:
            raise ValueError(f"direction theta={t:.6g} is not roughly parallel to the center")
        out.append(math.tan(diff))
    return ScalarSet(out)


def rescaled_projection_identity(f_prime: ProductLikeSet, t, delta=None):
    """lhs = N(π_{t'}(dilated F'), √δ) with t' = δ^-1/2 t, rhs =
    N(π_t(F'), δ); the two are equal cell-by-cell (exact integer
    equality), asserted before returning (lhs, rhs)."""
    d = as_delta(delta) if delta is not None else f_prime.delta
    sqrt_d = math.sqrt(d)
    t = float(t)
    if not 0.0 <= t <= sqrt_d * (1.0 + 1e-12):
        raise ValueError(f"slope t = {t} outside [0, sqrt(delta) = {sqrt_d:.4g}]")
    dilated = horizontal_dilate(f_prime, d)
    factor = 1.0 / dilated.delta  # δ^-1/2 exactly
    rows_f = dilated.point_rows()
    rows_fp = f_prime.point_rows()
    lhs = covering_number(ScalarSet(rows_f[:, 0] + (factor * t) * rows_f[:, 1]), dilated.delta)
    rhs = covering_number(ScalarSet(rows_fp[:, 0] + t * rows_fp[:, 1]), d)
    if lhs != rhs:
        raise InvariantError("dilation identity violated", lhs, rhs, t)
    return lhs, rhs


def neighborhood_sum_measure(d2: ScalarSet, c, c_b, delta) -> float:
    """Lebesgue measure of the δ-neighborhood of c·D² + c_b·D², computed
    as δ times the grid covering number of the dilated sumset."""
    if c == 0 or c_b == 0:
        raise ValueError("both dilation coefficients must be nonzero")
    d = as_delta(delta)
    vals = np.add.outer(float(c) * d2.values, float(c_b) * d2.values).ravel()
    if vals.size == 0:
        return 0.0
    return d * covering_number(ScalarSet(vals), d)


def directional_energy(mu: WeightedPointSet, directions: DirectionSet, dir_weights,
                       s, delta) -> float:
    """Σ_e ν(e) Σ_{x≠y} μ(x)μ(y) / max(|π_e(x) - π_e(y)|, δ)^s, the
    δ-floored discretization of the projected s-energy average."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    d = as_delta(delta)
    nu = np.asarray(dir_weights, dtype=np.float64).ravel()
    if nu.size != len(directions):
        raise ValueError("one weight per direction required")
    pts = mu.points.points
    n = pts.shape[0]
    if n < 2:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    if float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[~np.eye(n, dtype=bool)].min()) == 0.0:
        raise ValueError("directional energy undefined: coincident points")
    ww = np.outer(mu.weights, mu.weights)
    off = ~np.eye(n, dtype=bool)
    total = 0.0
    for k in range(len(directions)):
        e = directions[k]
        gaps = np.abs(diff[:, :, 0] * e.ex + diff[:, :, 1] * e.ey)
        floored = np.maximum(gaps, d)
        total += float(nu[k]) * float((ww[off] / floored[off] ** float(s)).sum())
    return total
