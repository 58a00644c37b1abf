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
    PointSet2D,
    ScalarSet,
    as_delta,
    check_delta_t,
    covering_number,
    extract_delta_s_subset,
)
from .errors import TwoScaleError
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


def _level_cells(pts, level):
    return np.floor(pts * (2.0 ** level)).astype(np.int64)


def _max_cap_ratio(pts, weights, exponent, levels):
    worst = 0.0
    for j in range(levels + 1):
        cells = _level_cells(pts, j)
        _, inv = np.unique(cells, axis=0, return_inverse=True)
        mass = np.bincount(inv, weights=weights)
        worst = max(worst, float(mass.max()) / (2.0 ** -j) ** exponent)
    return worst


def frostman_weights(P: PointSet2D, exponent, min_scale=None) -> WeightedPointSet:
    """Mass distribution maximizing total weight under the dyadic caps
    mass(level-j cell) <= (2^-j)^exponent, by bottom-up proportional
    capping.  `min_scale` fixes the finest capped level (weights start at
    that level's cap); by default the tree is deepened until cells are
    singletons (capped at level 40)."""
    if not 0.0 < exponent <= 2.0:
        raise ValueError("exponent must lie in (0, 2]")
    pts = P.points if isinstance(P, PointSet2D) else np.asarray(P, float).reshape(-1, 2)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot weight an empty set")
    if min_scale is not None:
        levels = max(0, math.ceil(math.log2(1.0 / as_delta(min_scale))))
    else:
        levels = 0
        while levels < 40:
            if np.unique(_level_cells(pts, levels), axis=0).shape[0] == n:
                break
            levels += 1
    # start at the finest cap, split evenly inside shared finest cells
    cells = _level_cells(pts, levels)
    _, inv, counts = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
    w = (2.0 ** -levels) ** exponent / counts[inv]
    for j in range(levels, -1, -1):
        cells = _level_cells(pts, j)
        _, inv = np.unique(cells, axis=0, return_inverse=True)
        mass = np.bincount(inv, weights=w)
        cap = (2.0 ** -j) ** exponent
        scale = np.ones_like(mass)
        over = mass > cap
        scale[over] = cap / mass[over]
        w = w * scale[inv]
    ratio = _max_cap_ratio(pts, w, exponent, levels)
    if ratio > 1.0 + 1e-9:
        raise AssertionError(f"cap certificate failed: ratio {ratio}")
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
        j_max = j_min
        while j_max < 40:
            if np.unique(_level_cells(pts, j_max), axis=0).shape[0] == pts.shape[0]:
                break
            j_max += 1
    diam = {j: math.sqrt(2.0) * 2.0 ** -j for j in range(j_min, j_max + 1)}
    # cost[cell] = (Σ diam of the best cover below, chosen cells)
    cells = np.unique(_level_cells(pts, j_max), axis=0)
    cost = {tuple(c): (diam[j_max], ((j_max, tuple(c)),)) for c in cells.tolist()}
    for j in range(j_max - 1, j_min - 1, -1):
        parents: dict = {}
        for (kx, ky), (c, chosen) in cost.items():
            key = (kx // 2, ky // 2)
            prev = parents.get(key)
            parents[key] = (c + prev[0], chosen + prev[1]) if prev else (c, chosen)
        new_cost = {}
        for key, (child_sum, chosen) in parents.items():
            if diam[j] <= child_sum:
                new_cost[key] = (diam[j], ((j, key),))
            else:
                new_cost[key] = (child_sum, chosen)
        cost = new_cost
    total = 0.0
    chosen_cells = []
    for key in sorted(cost):
        c, chosen = cost[key]
        total += c
        chosen_cells.extend(chosen)
    return DyadicCover(cells=tuple(sorted(chosen_cells)), diam_sum=total)


def cover_cell_masses(cover: DyadicCover, mu: WeightedPointSet):
    """μ-mass of every cover cell, keyed by (level, cell)."""
    pts = mu.points.points
    masses = {}
    by_level: dict = {}
    for j, cell in cover.cells:
        by_level.setdefault(j, []).append(cell)
    for j, cells in by_level.items():
        idx = _level_cells(pts, j)
        lookup = {}
        for i, c in enumerate(map(tuple, idx.tolist())):
            lookup.setdefault(c, []).append(i)
        for cell in cells:
            sel = lookup.get(tuple(cell), ())
            masses[(j, tuple(cell))] = float(mu.weights[list(sel)].sum()) if sel else 0.0
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
    for j in sorted(per_level):
        quota = PIGEONHOLE_CONSTANT * total / (j - j0 + 1) ** 2
        if per_level[j] >= quota * (1.0 - 1e-12):
            from .delta_core import Scale

            return j, Scale(2.0 ** (-2 * j), j=2 * j)
    raise AssertionError("pigeonhole failure: no level met its quota")


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

    cells = _level_cells(pts, j)
    uniq, inv = np.unique(cells, axis=0, return_inverse=True)
    mass = np.bincount(inv, weights=mu.weights) if len(mu) == len(K) else None
    if mass is None:
        raise ValueError("mu must weight exactly the points of K")
    good = [(float(mass[i]), tuple(uniq[i])) for i in range(uniq.shape[0]) if mass[i] >= threshold]
    # thin to pairwise non-adjacent cells (Chebyshev index distance >= 2),
    # greedily by descending mass, ties to the lower cell index
    good.sort(key=lambda t: (-t[0], t[1]))
    kept = []
    for m, cell in good:
        if all(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) >= 2 for _, c in kept):
            kept.append((m, cell))
    if len(kept) < 2:
        raise TwoScaleError(
            f"only {len(kept)} good ball(s) at threshold {threshold:.3g}; "
            "use a larger delta or lower the threshold"
        )
    kept_cells = sorted(cell for _, cell in kept)
    cell_ids = {c: i for i, c in enumerate(map(tuple, uniq.tolist()))}
    fine_sets = {}
    anchors = []
    for cell in kept_cells:
        members = pts[inv == cell_ids[cell]]
        sub = extract_delta_s_subset(PointSet2D(members), None, d, 1.0)
        fine_sets[cell] = sub
        anchors.append(tuple(sub.points[0]))  # lexicographically least
    anchor_set = PointSet2D(anchors)
    fine = PointSet2D(np.vstack([fine_sets[c].points for c in kept_cells]))

    reports = {
        "coarse": check_delta_t(anchor_set, sqrt_d, 1.0),
        "fine": check_delta_t(fine, d, 1.0),
    }
    for name, rep in reports.items():
        if rep.worst_ratio > max_ratio:
            raise TwoScaleError(
                f"{name} scan ratio {rep.worst_ratio:.3g} exceeds {max_ratio}"
            )
    for cell in kept_cells:
        rep = check_delta_t(fine_sets[cell], d, 1.0)
        if rep.worst_ratio > max_ratio:
            raise TwoScaleError(f"ball {cell} scan ratio {rep.worst_ratio:.3g}")
    return TwoScaleStructure(
        delta=d,
        sqrt_delta=sqrt_d,
        level=j,
        balls=tuple(kept_cells),
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
        raise AssertionError(f"dilation identity violated: {lhs} != {rhs}")
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
