import math

import numpy as np
import pytest

from projlab.delta_core import (
    Direction,
    DirectionSet,
    PointSet2D,
    ScalarSet,
    check_delta_t,
    covering_number,
)
from projlab.errors import TwoScaleError
from projlab.incidence import Tube
from projlab.product_construction import ProductLikeSet
from projlab.scale_blowup import (
    DyadicCover,
    WeightedPointSet,
    directional_energy,
    efficient_cover,
    energy,
    frostman_weights,
    horizontal_dilate,
    neighborhood_sum_measure,
    pick_scale,
    reparam_directions,
    rescaled_projection_identity,
    restrict_to_tube,
    two_scale_decomposition,
)

import oracles


def dyadic_cap_oracle(points, weights, exponent, max_level):
    """Independent exhaustive walk of the dyadic caps."""
    return max(max(oracles.brute_dyadic_masses(points, weights, j).values()) / (2.0 ** -j) ** exponent
               for j in range(max_level + 1))


def unit_grid(j):
    d = 2.0 ** -j
    side = 2 ** j
    return PointSet2D([(ix * d, iy * d) for ix in range(side) for iy in range(side)],
                      separation=d, check=False)


def test_frostman_single_point_min_scale():
    d = 2.0 ** -6
    w = frostman_weights(PointSet2D([(0.3, 0.4)]), 1.0, min_scale=d)
    assert w.total_mass == pytest.approx(d)
    assert w.certificate_ratio <= 1.0 + 1e-9


def test_frostman_one_cell_cluster():
    d = 2.0 ** -6
    pts = PointSet2D([(0.5 + k * d / 8, 0.5) for k in range(5)])
    w = frostman_weights(pts, 1.0, min_scale=d)
    assert w.total_mass <= d + 1e-12


def test_frostman_full_grid_mass_one():
    w = frostman_weights(unit_grid(5), 1.0)
    assert 0.25 <= w.total_mass <= 4.0
    assert w.total_mass == pytest.approx(1.0)
    # exhaustive certificate via the independent oracle
    worst = dyadic_cap_oracle(w.points.points.tolist(), w.weights.tolist(), 1.0, 5)
    assert worst <= 1.0 + 1e-9
    assert w.certificate_ratio == pytest.approx(worst)


def test_frostman_default_depth_matches_oracle_caps():
    rng = np.random.default_rng(44)
    mu = frostman_weights(PointSet2D(rng.uniform(0, 1, size=(300, 2))), 1.5)
    pts, w = mu.points.points.tolist(), mu.weights.tolist()
    # without min_scale the tree goes down to the first level of singletons
    depth = next(j for j in range(41) if len(oracles.brute_dyadic_masses(pts, w, j)) == len(pts))
    assert max(w) == (2.0 ** -depth) ** 1.5
    worst = dyadic_cap_oracle(pts, w, 1.5, depth)
    assert worst <= 1.0 + 1e-9
    assert mu.certificate_ratio == worst


def test_frostman_errors():
    with pytest.raises(ValueError):
        frostman_weights(PointSet2D(np.empty((0, 2))), 1.0)
    with pytest.raises(ValueError):
        frostman_weights(PointSet2D([(0, 0)]), 2.5)


def test_efficient_cover_one_point_and_clusters():
    d0 = 0.1
    cov = efficient_cover(PointSet2D([(0.3, 0.3)]), d0)
    assert len(cov) == 1
    assert cov.diam_sum <= d0
    far = PointSet2D([(0.1, 0.1), (0.9, 0.9)])
    cov = efficient_cover(far, d0)
    assert len(cov) == 2


def test_efficient_cover_exact_tie_merges():
    # the 14 children's diameters sum to exactly the parent's √2·2^-2; as a
    # float sum they came to one ulp less, and the parent was not taken
    ks = [(34, 54), (34, 59), (35, 59), (36, 50), (37, 57), (37, 61), (38, 50), (38, 52),
          (38, 57), (40, 56), (41, 52), (42, 48), (43, 48), (45, 49), (46, 55), (47, 59)]
    d = 2.0 ** -6
    cov = efficient_cover(PointSet2D([(a * d, b * d) for a, b in ks]), 0.5, floor=d)
    assert cov.cells == ((2, (2, 3)),)
    assert cov.diam_sum == math.sqrt(2.0) * 2.0 ** -2


def test_efficient_cover_segment_factor_two():
    d = 2.0 ** -8
    seg = PointSet2D([(k * d, 0.5) for k in range(257)], separation=d, check=False)
    cov = efficient_cover(seg, 0.25, floor=d)
    length = 1.0
    assert cov.diam_sum <= 2.0 * length
    assert cov.diam_sum >= length  # sum of diameters must reach the span


def test_pick_scale_single_level():
    cells = tuple((5, (k, 3)) for k in range(4))
    cov = DyadicCover(cells=cells, diam_sum=4 * math.sqrt(2) * 2 ** -5)
    pts = [(k * 2.0 ** -5 + 2.0 ** -7, 3 * 2.0 ** -5) for k in range(4)]
    mu = WeightedPointSet(PointSet2D(pts), [0.25] * 4)
    j, scale = pick_scale(cov, mu, 2.0 ** -5)
    assert j == 5
    assert float(scale) == 2.0 ** -10


def test_pick_scale_even_split_frozen():
    # oracle arithmetic: quota at j0 is (6/pi^2) ~ 0.608 > 0.25, so the
    # first level meeting its quota is j0 + 1
    j0 = 3
    cells = []
    pts = []
    for k, j in enumerate(range(j0, j0 + 4)):
        cells.append((j, (k + 4, k + 4)))
        pts.append(((k + 4) * 2.0 ** -j, (k + 4) * 2.0 ** -j))
    cov = DyadicCover(cells=tuple(cells), diam_sum=1.0)
    mu = WeightedPointSet(PointSet2D(pts), [0.25] * 4)
    j, scale = pick_scale(cov, mu, 2.0 ** -j0)
    assert j == j0 + 1
    assert float(scale) == 2.0 ** (-2 * (j0 + 1))


def test_pick_scale_totality_1000_seeds():
    for seed in range(1000):
        rng = np.random.default_rng(90000 + seed)
        j0 = int(rng.integers(2, 6))
        n_levels = int(rng.integers(1, 6))
        cells = []
        pts = []
        masses = []
        for k in range(n_levels):
            j = j0 + k
            for c in range(int(rng.integers(1, 4))):
                kx, ky = int(rng.integers(0, 2 ** j)), int(rng.integers(0, 2 ** j))
                cells.append((j, (kx, ky)))
                pts.append(((kx + 0.5) * 2.0 ** -j, (ky + 0.5) * 2.0 ** -j))
                masses.append(float(rng.uniform(0.01, 1.0)))
        cov = DyadicCover(cells=tuple(cells), diam_sum=1.0)
        mu = WeightedPointSet(PointSet2D(pts), masses)
        j, _ = pick_scale(cov, mu, 2.0 ** -j0)  # must never raise
        assert j >= j0


def test_two_scale_full_grid():
    d = 2.0 ** -6
    grid = unit_grid(6)
    mu = frostman_weights(grid, 1.0)
    ts = two_scale_decomposition(grid, mu, d)
    assert ts.reports["coarse"].worst_ratio <= 8.0
    assert ts.reports["fine"].worst_ratio <= 8.0
    assert len(ts.balls) >= 2
    # frozen regression for the 2^-6 grid pipeline
    assert len(ts.balls) == 16
    assert len(ts.fine) == 16 * 8


def test_two_scale_single_cluster_rejected():
    d = 2.0 ** -6
    sq = 2.0 ** -3
    pts = PointSet2D([(k * d, 0.5) for k in range(4)])
    mu = frostman_weights(pts, 1.0, min_scale=d)
    with pytest.raises(TwoScaleError):
        two_scale_decomposition(pts, mu, d)


def test_two_scale_requires_even_dyadic():
    pts = unit_grid(3)
    mu = frostman_weights(pts, 1.0)
    with pytest.raises(TwoScaleError):
        two_scale_decomposition(pts, mu, 2.0 ** -5)


def test_two_scale_horizontal_line():
    d = 2.0 ** -8
    line = PointSet2D([(k * d, 0.5) for k in range(256)], separation=d, check=False)
    mu = frostman_weights(line, 1.0, min_scale=d)
    ts = two_scale_decomposition(line, mu, d)
    assert ts.reports["coarse"].worst_ratio <= 4.0
    assert all(abs(a[1] - 0.5) < 2.0 ** -4 for a in ts.anchors.points)
    # all anchors share one horizontal slab: restriction returns all of P
    k = math.floor(0.5 / ts.sqrt_delta)
    tube = Tube(Direction(math.pi / 2), offset=k * ts.sqrt_delta, width=ts.sqrt_delta)
    assert len(restrict_to_tube(ts, tube)) == len(ts.fine)


def test_energy_examples():
    assert energy(PointSet2D([(0, 0), (1, 0)]), 0.7) == pytest.approx(2.0)
    assert energy(PointSet2D([(0, 0), (0.5, 0)]), 1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        energy(PointSet2D([(0, 0), (0, 0)]), 1.0)


def test_energy_scale_stability():
    # AP realization of a (d', 1-s)-set: the measured constant
    # energy / d'^(2(s-1)) stays within a factor 4 across three scales
    s = 0.7
    t = 1.0 - s
    ratios = []
    for j in (6, 8, 10):
        dp = 2.0 ** -j
        n = int(round(dp ** -t))
        h = dp ** t
        p = ScalarSet(np.arange(n) * h)
        e = energy(p, t)
        ratios.append(e / dp ** (2 * (s - 1)))
    assert max(ratios) / min(ratios) <= 4.0


def test_restrict_to_tube():
    d = 2.0 ** -6
    grid = unit_grid(6)
    mu = frostman_weights(grid, 1.0)
    ts = two_scale_decomposition(grid, mu, d)
    sq = ts.sqrt_delta
    wide = Tube(Direction(0.0), offset=-10.0, width=sq)
    with pytest.raises(ValueError):
        restrict_to_tube(ts, Tube(Direction(0.0), offset=0.0, width=2 * sq))
    # a vertical slab through the first anchor column picks up whole balls
    anchor_x = ts.anchors.points[0][0]
    k = math.floor(anchor_x / sq)
    tube = Tube(Direction(0.0), offset=k * sq, width=sq)
    got = restrict_to_tube(ts, tube)
    expect = sum(len(ts.fine_sets[c]) for c, a in zip(ts.balls, ts.anchors.points)
                 if k * sq <= a[0] < (k + 1) * sq)
    assert len(got) == expect
    with pytest.warns(UserWarning):
        empty = restrict_to_tube(ts, Tube(Direction(0.0), offset=50.0, width=sq))
    assert len(empty) == 0


def make_fprime(delta, seed=0, n_base=6, fiber_len=8):
    """Grid-anchored product-like set with fibers of width < sqrt(delta)."""
    rng = np.random.default_rng(seed)
    sq = math.sqrt(delta)
    base = ScalarSet(np.sort(rng.choice(np.arange(1, int(1 / sq) - 1), size=n_base, replace=False)) * sq)
    fibers = {}
    for b in base:
        start = int(rng.integers(0, int(1 / delta) - 4 * fiber_len))
        fibers[b] = ScalarSet((start + 4 * np.arange(fiber_len)) * delta)
    return ProductLikeSet(base, fibers, delta, 0.5, 0.5)


def test_horizontal_dilate_spacing_and_equivariance():
    d = 2.0 ** -8
    f = ProductLikeSet(ScalarSet([0.5]), {0.5: ScalarSet([0.0, d, 2 * d])}, d, 0.5, 0.5)
    g = horizontal_dilate(f, d)
    sq = math.sqrt(d)
    assert list(g.fibers[0.5]) == pytest.approx([0.0, sq, 2 * sq])
    # covering-number equivariance is exact for grid data
    a = ScalarSet(np.arange(10) * 3 * d)
    assert covering_number(ScalarSet(a.values * (1 / sq)), sq) == covering_number(a, d)


def test_horizontal_dilate_preserves_worst_ratio_exactly():
    d = 2.0 ** -10
    f = make_fprime(d, seed=3)
    g = horizontal_dilate(f, d)
    for b in f.base:
        r_orig = check_delta_t(f.fibers[b], d, 0.5)
        r_resc = check_delta_t(g.fibers[b], math.sqrt(d), 0.5)
        assert r_resc.worst_ratio == r_orig.worst_ratio


def test_reparam_directions():
    d = 2.0 ** -10
    sq = math.sqrt(d)
    center = Direction(0.3)
    assert list(reparam_directions(DirectionSet([0.3]), center, 2 * sq)) == [0.0]
    with pytest.raises(ValueError):
        reparam_directions(DirectionSet([0.3 + math.pi / 4]), center, 2 * sq)
    net = DirectionSet.net(32, anchor=center.theta - sq / 2, span=sq)
    out = reparam_directions(net, center, 2 * sq)
    gaps = np.diff(out.values)
    assert gaps.min() >= d * (1 - 1e-9) / 2
    assert gaps.max() <= 2 * d
    assert out.values[-1] - out.values[0] <= 2 * sq


def test_rescaled_projection_identity_trivial():
    d = 2.0 ** -8
    f = ProductLikeSet(ScalarSet([0.25]), {0.25: ScalarSet([0.0, 4 * d])}, d, 0.5, 0.5)
    lhs, rhs = rescaled_projection_identity(f, 0.0, d)
    assert lhs == rhs == 2
    single = ProductLikeSet(ScalarSet([0.5]), {0.5: ScalarSet([0.125])}, d, 0.5, 0.5)
    assert rescaled_projection_identity(single, 0.0, d) == (1, 1)


def test_rescaled_projection_identity_50_seeds():
    d = 2.0 ** -8
    sq = math.sqrt(d)
    for seed in range(50):
        f = make_fprime(d, seed=seed)
        rng = np.random.default_rng(777 + seed)
        t = float(rng.uniform(0.0, sq))
        lhs, rhs = rescaled_projection_identity(f, t, d)
        assert lhs == rhs


def test_neighborhood_sum_measure():
    d = 2.0 ** -8
    assert neighborhood_sum_measure(ScalarSet([0.0]), 1.0, 0.8, d) == pytest.approx(d)
    n = 12
    ap = ScalarSet(np.arange(n) * d)
    assert neighborhood_sum_measure(ap, 1.0, 1.0, d) == pytest.approx(d * (2 * n - 1))
    with pytest.raises(ValueError):
        neighborhood_sum_measure(ap, 0.0, 1.0, d)
    rng = np.random.default_rng(55)
    vals = np.unique(rng.integers(0, 200, size=30)) * d
    got = neighborhood_sum_measure(ScalarSet(vals), 1.0, 0.8, d)
    sums = [v + 0.8 * w for v in vals for w in vals]
    assert got == pytest.approx(oracles.interval_union_measure(sums, d))


def test_directional_energy_examples():
    d = 2.0 ** -8
    two = WeightedPointSet(PointSet2D([(0.0, 0.0), (1.0, 0.0)]), [1.0, 1.0])
    aligned = DirectionSet([0.0])
    perp = DirectionSet([math.pi / 2])
    s = 0.6
    assert directional_energy(two, aligned, [1.0], s, d) == pytest.approx(2.0)
    assert directional_energy(two, perp, [1.0], s, d) == pytest.approx(2.0 * d ** -s)


def test_directional_energy_seeded_vs_triple_loop():
    d = 2.0 ** -6
    rng = np.random.default_rng(66)
    pts = rng.uniform(0, 1, size=(40, 2))
    w = rng.uniform(0.1, 1.0, size=40)
    mu = WeightedPointSet(PointSet2D(pts), w[np.lexsort((pts[:, 1], pts[:, 0]))])
    dirs = DirectionSet.net(5)
    nu = [0.1, 0.2, 0.3, 0.2, 0.2]
    got = directional_energy(mu, dirs, nu, 0.5, d)
    total = 0.0
    p = mu.points.points
    for k, th in enumerate(dirs.thetas.tolist()):
        for i in range(40):
            for j in range(40):
                if i == j:
                    continue
                gap = abs((p[i, 0] - p[j, 0]) * math.cos(th) + (p[i, 1] - p[j, 1]) * math.sin(th))
                total += nu[k] * mu.weights[i] * mu.weights[j] / max(gap, d) ** 0.5
    assert got == pytest.approx(total, rel=1e-9)
