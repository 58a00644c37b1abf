"""Two-scale machinery: mass distributions with dyadic caps, the √δ/δ
decomposition, and horizontal dilation with its rescaled projection
identity.

The good-ball mass threshold is factor · √δ / log²(1/δ) with natural
log; the factor is 1/4 by default and tunable, the log power is fixed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .delta_core import (
    DyadicCells,
    PointSet2D,
    ScalarSet,
    _dyadic_level,
    _extract_below,
    as_delta,
    as_exponent,
    check_delta_t,
    covering_number,
)
from .errors import InvariantError, TwoScaleError
from .product_construction import ProductLikeSet

GOOD_BALL_FACTOR = 0.25
GOOD_BALL_LOG_POWER = 2.0
TWO_SCALE_RATIO_BOUND = 8.0


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


def _capped_tree(pts, levels, exponent):
    """One DyadicCells(pts, levels), with frostman_weights' capped weights
    on it and their certificate ratio: (tree, weights, ratio)."""
    if pts.shape[0] == 0:
        raise ValueError("cannot weight an empty set")
    tree = DyadicCells(pts, levels)
    # start at the finest cap, split evenly inside shared finest cells; the
    # capping pass at that level reads the same walk
    _, _, inverse = tree.level(levels)
    w = (2.0 ** -levels) ** exponent / np.bincount(inverse)[inverse]
    for j in range(levels, -1, -1):
        if j < levels:
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
    return tree, w, ratio


def frostman_weights(P: PointSet2D, exponent, min_scale) -> WeightedPointSet:
    """Mass distribution maximizing total weight under the dyadic caps
    mass(level-j cell) <= (2^-j)^exponent, by bottom-up proportional
    capping from the finest capped level, the first whose side is at most
    `min_scale` (weights start at that level's cap)."""
    as_exponent(exponent, "exponent")
    levels = _dyadic_level(as_delta(min_scale))[0]
    P = P if isinstance(P, PointSet2D) else PointSet2D(P)
    _, w, ratio = _capped_tree(P.points, levels, exponent)
    return WeightedPointSet(P, w, exponent=exponent, certificate_ratio=ratio)


@dataclass(frozen=True)
class TwoScaleStructure:
    """√δ-separated good balls with anchors forming a (√δ,1)-set and a
    (δ,1)-set inside each ball whose union `fine` is again a (δ,1)-set.
    A ball's set is the points of `fine` in its cell, and its anchor is the
    lexicographically least of them."""

    delta: float
    sqrt_delta: float
    level: int
    balls: tuple  # (kx, ky) cell indices at `level`
    anchors: PointSet2D
    fine: PointSet2D
    reports: dict


def two_scale_decomposition(K: PointSet2D, delta, exponent,
                            good_ball_factor=GOOD_BALL_FACTOR,
                            max_ratio=TWO_SCALE_RATIO_BOUND) -> TwoScaleStructure:
    """Weigh K by `frostman_weights`' caps down to δ, select good √δ-cells
    (mass >= factor·√δ/log²(1/δ)), thin them to pairwise ball separation
    >= √δ, extract a (δ,1)-set inside each, anchor at the
    lexicographically least point, and verify both scans within max_ratio.
    The factor (finite, >= 0), max_ratio (finite), the exponent and δ =
    2^-2j are checked before any work.

    One DyadicCells over K at depth 2j carries the weights, the level-j
    masses and, restricted to the kept balls, one extraction: each kept
    cell is a root of `extract_delta_s_subset`'s greedy, whose coarser
    caps exceed the cell's own, so a ball's picks are those of an
    extraction on its points alone.  Kept cells are more than √δ >= 2δ
    apart, so one separation sweep over all picks keeps what a sweep per
    ball would.  A ball's own scan needs no run: its centers and the radii
    it would scan (r/δ <= its size) are among the fine scan's, where each
    ball count is at least as large."""
    if not 0.0 <= good_ball_factor < math.inf:
        raise ValueError(f"good_ball_factor must be a finite number >= 0, got {good_ball_factor}")
    if not math.isfinite(max_ratio):
        raise ValueError(f"max_ratio must be finite, got {max_ratio}")
    as_exponent(exponent, "exponent")
    d = as_delta(delta)
    j2, exact = _dyadic_level(d)
    if not exact or j2 % 2 != 0:
        raise TwoScaleError("delta must be dyadic with an even exponent (2^-2j)")
    j = j2 // 2
    sqrt_d = 2.0 ** -j
    pts = K.points  # lexicographic, as the extraction needs
    threshold = good_ball_factor * sqrt_d / math.log(1.0 / d) ** GOOD_BALL_LOG_POWER

    tree, weights, _ = _capped_tree(pts, j2, exponent)
    cells, _, inverse = tree.level(j)
    mass = np.bincount(inverse, weights=weights)
    good = [(float(mass[r]), tuple(cells[r].tolist()), r) for r in np.flatnonzero(mass >= threshold)]
    # thin to pairwise non-adjacent cells (Chebyshev index distance >= 2),
    # greedily by descending mass, ties to the lower cell index: a cell is
    # kept unless a kept cell is one of its eight neighbours
    good.sort(key=lambda t: (-t[0], t[1]))
    kept = {}  # cell -> its level-j run
    for _, (kx, ky), r in good:
        if not any((kx + dx, ky + dy) in kept for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            kept[kx, ky] = r
    if len(kept) < 2:
        raise TwoScaleError(f"only {len(kept)} good ball(s) at threshold {threshold:.3g}; "
                            "use a larger delta or lower the threshold")
    fine = _extract_below(pts, tree.restrict(j, list(kept.values())), d, 1.0, j)
    # each ball's first point of `fine`, which is lexicographic
    tree = DyadicCells(fine.points, j)
    anchor_set = PointSet2D(fine.points[tree.order[tree.split <= j]])

    reports = {
        "coarse": check_delta_t(anchor_set, sqrt_d, 1.0),
        "fine": check_delta_t(fine, d, 1.0),
    }
    for name, rep in reports.items():
        if rep.worst_ratio > max_ratio:
            raise TwoScaleError(f"{name} scan ratio {rep.worst_ratio:.3g} exceeds {max_ratio}")
    return TwoScaleStructure(delta=d, sqrt_delta=sqrt_d, level=j, balls=tuple(sorted(kept)),
                             anchors=anchor_set, fine=fine, reports=reports)

def horizontal_dilate(f_prime: ProductLikeSet, delta=None) -> ProductLikeSet:
    """Multiply fiber values by δ^-1/2 (the base is untouched); the result
    lives at scale √δ with the same fiber exponent."""
    d = as_delta(delta) if delta is not None else f_prime.delta
    j2, exact = _dyadic_level(d)
    if not exact or j2 % 2 != 0:
        raise ValueError("horizontal dilation needs delta = 2^-2j exactly")
    factor = 2.0 ** (j2 // 2)  # δ^-1/2, an exact power of two
    sqrt_d = 1.0 / factor
    for b, f in f_prime.fibers.items():
        if len(f) > 1 and float(f.values[-1] - f.values[0]) > 4.0 * sqrt_d:
            warnings.warn(f"fiber at b = {b} is wider than 4·sqrt(delta)", stacklevel=2)
    fibers = {b: ScalarSet(f.values * factor) for b, f in f_prime.fibers.items()}
    return ProductLikeSet(f_prime.base, fibers, sqrt_d, f_prime.s, f_prime.tau)


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
