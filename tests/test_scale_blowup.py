import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import delta_core, scale_blowup
from projlab.delta_core import (
    SEPARATION_RTOL,
    PointSet2D,
    ScalarSet,
    check_delta_t,
    covering_number,
)
from projlab.errors import TwoScaleError
from projlab.generators import gen_random_frostman
from projlab.product_construction import ProductLikeSet
from projlab.scale_blowup import (
    GOOD_BALL_FACTOR,
    GOOD_BALL_LOG_POWER,
    frostman_weights,
    horizontal_dilate,
    rescaled_projection_identity,
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
    w = frostman_weights(unit_grid(5), 1.0, min_scale=2.0 ** -5)
    assert 0.25 <= w.total_mass <= 4.0
    assert w.total_mass == pytest.approx(1.0)
    # exhaustive certificate via the independent oracle
    worst = dyadic_cap_oracle(w.points.points.tolist(), w.weights.tolist(), 1.0, 5)
    assert worst <= 1.0 + 1e-9
    assert w.certificate_ratio == pytest.approx(worst)


def test_frostman_default_depth_matches_oracle_caps():
    rng = np.random.default_rng(44)
    raw = rng.uniform(0, 1, size=(300, 2))
    # the first level of singletons: every point weighs its own finest cap
    depth = next(j for j in range(41) if len(oracles.brute_dyadic_masses(raw.tolist(), [1.0] * 300, j)) == 300)
    mu = frostman_weights(PointSet2D(raw), 1.5, min_scale=2.0 ** -depth)
    pts, w = mu.points.points.tolist(), mu.weights.tolist()
    assert max(w) == (2.0 ** -depth) ** 1.5
    worst = dyadic_cap_oracle(pts, w, 1.5, depth)
    assert worst <= 1.0 + 1e-9
    assert mu.certificate_ratio == worst


def test_frostman_weights_walks_the_finest_level_once_while_capping(monkeypatch):
    # the capping loop reuses the walk that seeds the weights; the
    # certificate walks every level once more: 2L + 2 walks for L = 6
    walks = []
    level = delta_core.DyadicCells.level
    monkeypatch.setattr(delta_core.DyadicCells, "level", lambda tree, j: walks.append(j) or level(tree, j))
    raw = np.random.default_rng(47).uniform(0, 1, size=(200, 2))
    frostman_weights(PointSet2D(raw), 1.0, min_scale=2.0 ** -6)
    assert walks == [6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6]


def test_frostman_weights_a_raw_array_as_its_point_set():
    # the weights of a raw array were left in its order, next to the
    # lexicographically sorted points
    raw = np.random.default_rng(46).uniform(0, 1, size=(200, 2))
    raw[:, 0] = np.round(raw[:, 0] * 8) / 8  # points sharing cells, so weights differ
    want = frostman_weights(PointSet2D(raw), 1.0, min_scale=2.0 ** -6)
    got = frostman_weights(raw, 1.0, min_scale=2.0 ** -6)
    assert np.array_equal(got.points.points, want.points.points)
    assert np.array_equal(got.weights, want.weights)


def test_frostman_errors():
    with pytest.raises(ValueError, match="^cannot weight an empty set$"):
        frostman_weights(PointSet2D(np.empty((0, 2))), 1.0, min_scale=0.25)
    for exponent in (2.5, 0.0, math.nan):
        with pytest.raises(ValueError, match=f"^exponent must lie in \\(0, 2\\], got {exponent}$"):
            frostman_weights(PointSet2D([(0, 0)]), exponent, min_scale=0.25)
    with pytest.raises(ValueError, match=r"^scale must lie in \(0, 1/2\], got 0.0$"):
        frostman_weights(PointSet2D([(0, 0)]), 1.0, min_scale=0.0)
    # two points that share every cell down to the deepest the coordinates allow
    with pytest.raises(ValueError, match="the largest usable depth is 22$"):
        frostman_weights(PointSet2D([(2.0 ** 40, 0.0), (2.0 ** 40, 2.0 ** -30)]), 1.0, min_scale=2.0 ** -23)


def test_two_scale_full_grid():
    d = 2.0 ** -6
    ts = two_scale_decomposition(unit_grid(6), d, 1.0)
    assert ts.reports["coarse"].worst_ratio <= 8.0
    assert ts.reports["fine"].worst_ratio <= 8.0
    assert len(ts.balls) >= 2
    # frozen regression for the 2^-6 grid pipeline
    assert len(ts.balls) == 16
    assert len(ts.fine) == 16 * 8


def test_two_scale_single_cluster_rejected():
    d = 2.0 ** -6
    pts = PointSet2D([(k * d, 0.5) for k in range(4)])
    with pytest.raises(TwoScaleError):
        two_scale_decomposition(pts, d, 1.0)


def test_two_scale_requires_even_dyadic():
    with pytest.raises(TwoScaleError):
        two_scale_decomposition(unit_grid(3), 2.0 ** -5, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_two_scale_rejects_non_finite_max_ratio(value):
    with pytest.raises(ValueError, match="^max_ratio must be finite"):
        two_scale_decomposition(unit_grid(3), 2.0 ** -6, 1.0, max_ratio=value)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -1.0, -1e-300])
def test_two_scale_rejects_a_good_ball_factor_that_is_not_finite_and_at_least_0(factor):
    with pytest.raises(ValueError, match=f"^good_ball_factor must be a finite number >= 0, got {factor}$"):
        two_scale_decomposition(unit_grid(3), 2.0 ** -6, 1.0, good_ball_factor=factor)
    # 0 passes every occupied cell, as the smallest positive factor does
    grid = unit_grid(6)
    assert (two_scale_decomposition(grid, 2.0 ** -6, 1.0, good_ball_factor=0.0).balls
            == two_scale_decomposition(grid, 2.0 ** -6, 1.0, good_ball_factor=5e-324).balls)


def spy_on_trees(monkeypatch):
    """Record (points, depth) of every DyadicCells two-scale builds."""
    built = []

    def spy(pts, depth):
        built.append((pts, depth))
        return delta_core.DyadicCells(pts, depth)

    monkeypatch.setattr(scale_blowup, "DyadicCells", spy)
    return built


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(good_ball_factor=math.nan), ValueError, "good_ball_factor must be a finite number >= 0, got nan"),
    (dict(good_ball_factor=-1.0), ValueError, "good_ball_factor must be a finite number >= 0, got -1.0"),
    (dict(max_ratio=math.nan), ValueError, "max_ratio must be finite, got nan"),
    (dict(exponent=0.0), ValueError, "exponent must lie in (0, 2], got 0.0"),
    (dict(exponent=2.5), ValueError, "exponent must lie in (0, 2], got 2.5"),
    (dict(delta=0.1), TwoScaleError, "delta must be dyadic with an even exponent (2^-2j)"),
])
def test_two_scale_refuses_before_building_a_tree(monkeypatch, kwargs, error, message):
    built = spy_on_trees(monkeypatch)
    args = dict(delta=2.0 ** -6, exponent=1.0) | kwargs
    with pytest.raises(error) as info:
        two_scale_decomposition(unit_grid(6), **args)
    assert str(info.value) == message
    assert built == []


def test_two_scale_builds_two_trees_and_weighs_its_own_points(monkeypatch):
    K, d, exponent = two_scale_input("frostman-0")
    built = spy_on_trees(monkeypatch)
    monkeypatch.setattr(scale_blowup, "frostman_weights", lambda *args, **kwargs: pytest.fail("weighed twice"))
    ts = two_scale_decomposition(K, d, exponent)
    ((k_pts, k_depth), (fine_pts, fine_depth)) = built
    assert k_pts is K.points and k_depth == 2 * ts.level
    assert fine_pts is ts.fine.points and fine_depth == ts.level


def test_two_scale_horizontal_line():
    d = 2.0 ** -8
    line = PointSet2D([(k * d, 0.5) for k in range(256)], separation=d, check=False)
    ts = two_scale_decomposition(line, d, 1.0)
    assert ts.reports["coarse"].worst_ratio <= 4.0
    assert all(abs(a[1] - 0.5) < 2.0 ** -4 for a in ts.anchors.points)


def two_scale_input(case):
    """(K, delta, exponent) as `projlab two-scale` reads them: the
    benchmark's random_frostman sets and lattice, and a toy set of random
    points in the level-3 cells with both indices even, so every ball is
    kept and each sits exactly two cells from its neighbours."""
    if case.startswith("frostman"):
        d, exponent = 2.0 ** -10, 1.5
        K = gen_random_frostman(4096, exponent, d, seed=int(case.split("-")[1]))
    elif case == "lattice":
        d, exponent = 2.0 ** -8, 1.0
        ticks = np.arange(256) / 256
        K = PointSet2D([(x, y) for x in ticks for y in ticks])
    else:
        d, exponent = 2.0 ** -6, 1.0
        rng = np.random.default_rng(12)
        corners = [(kx, ky) for kx in range(0, 8, 2) for ky in range(0, 8, 2)]
        K = PointSet2D(np.vstack([(np.array(c) + rng.uniform(0, 1, size=(40, 2))) / 8 for c in corners]))
    return K, d, exponent


def assert_matches_per_ball_oracle(K, exponent, ts):
    # the good balls from the public weights, by the brute masses
    mu = frostman_weights(K, exponent, min_scale=ts.delta)
    threshold = GOOD_BALL_FACTOR * ts.sqrt_delta / math.log(1.0 / ts.delta) ** GOOD_BALL_LOG_POWER
    cells = oracles.thinned_good_cells(K.points.tolist(), mu.weights.tolist(), ts.level, threshold)
    assert ts.balls == tuple(cells)
    sets = oracles.per_ball_fine_sets(K.points, ts.level, ts.balls, ts.delta)
    assert np.array_equal(ts.fine.points, PointSet2D(np.vstack(list(sets.values()))).points)
    assert np.array_equal(ts.anchors.points, PointSet2D([s[0] for s in sets.values()]).points)
    # no ball's own scan can fail where the union's passes
    for s in sets.values():
        assert check_delta_t(PointSet2D(s), ts.delta, 1.0).worst_ratio <= ts.reports["fine"].worst_ratio


@pytest.mark.parametrize("case", ["frostman-0", "frostman-1", "frostman-2", "lattice", "two-apart"])
def test_two_scale_matches_per_ball_oracle(case):
    K, d, exponent = two_scale_input(case)
    ts = two_scale_decomposition(K, d, exponent)
    if case == "two-apart":
        assert ts.balls == tuple((kx, ky) for kx in range(0, 8, 2) for ky in range(0, 8, 2))
    assert_matches_per_ball_oracle(K, exponent, ts)


@pytest.mark.parametrize("case", ["frostman-0", "two-apart"])
def test_two_scale_fine_scan_trusts_the_separation_of_its_sweep(monkeypatch, case):
    K, d, exponent = two_scale_input(case)
    calls = []
    require = delta_core._require_separation
    monkeypatch.setattr(delta_core, "_require_separation", lambda pts, r: calls.append(r) or require(pts, r))
    ts = two_scale_decomposition(K, d, exponent)
    assert ts.fine.separation == d
    assert calls == [ts.sqrt_delta]  # the anchors' coarse scan alone checks separation


def test_dyadic_exponent_checks_read_subnormal_deltas():
    # 1/δ overflows to inf for these δ, and round(log2(inf)) raised OverflowError
    p = ProductLikeSet(ScalarSet([0.0]), {0.0: ScalarSet([0.1])}, 0.25, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"needs delta = 2\^-2j exactly"):
        horizontal_dilate(p, 1e-310)
    assert horizontal_dilate(p, 2.0 ** -1074).delta == 2.0 ** -537
    K, _, exponent = two_scale_input("two-apart")
    with pytest.raises(TwoScaleError, match="even exponent"):
        two_scale_decomposition(K, 1e-310, exponent)


@pytest.mark.parametrize("case", ["frostman-0", "frostman-1", "lattice", "two-apart"])
def test_two_scale_extraction_matches_top_down_oracle(case):
    # the extraction rooted at the kept level-j cells, against the top-down
    # greedy from those roots and a plain greedy separation pass
    K, d, exponent = two_scale_input(case)
    ts = two_scale_decomposition(K, d, exponent)
    cells = np.floor(K.points * 2.0 ** ts.level)
    inside = K.points[[tuple(c) in set(ts.balls) for c in cells.tolist()]]
    picks = oracles.top_down_picks(inside, d, 1.0, 2 * ts.level, ts.level)
    want = oracles.greedy_separated([list(p) for p in picks], d * (1.0 - SEPARATION_RTOL))
    assert ts.fine.points.tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 31), st.integers(0, 31)),
                max_size=60))
def test_property_two_scale_matches_per_ball_oracle(points):
    # level-3 cells of side 8δ at δ = 2^-6, offsets in quarters of δ so
    # that points tie at δ; the corner points keep two balls apart
    d = 2.0 ** -6
    K = PointSet2D([(0.0, 0.0), (1.0 - d, 1.0 - d)]
                   + [((32 * cx + ox) * d / 4, (32 * cy + oy) * d / 4) for cx, cy, ox, oy in points])
    assert_matches_per_ball_oracle(K, 1.0, two_scale_decomposition(K, d, 1.0))


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


def test_horizontal_dilate_warns_on_a_fiber_wider_than_4_sqrt_delta():
    d = 2.0 ** -6  # 4·sqrt(delta) = 1/2
    wide = ProductLikeSet(ScalarSet([0.0, 0.5]), {0.0: ScalarSet([0.0, 0.5]),
                                                  0.5: ScalarSet([0.0, 0.5 + d])}, d, 0.5, 0.5)
    with pytest.warns(UserWarning, match=r"^fiber at b = 0.5 is wider than 4·sqrt\(delta\)$"):
        g = horizontal_dilate(wide, d)
    assert list(g.fibers[0.5]) == [0.0, 4.0 + 8 * d]
    exactly_4_sqrt_delta = ProductLikeSet(ScalarSet([0.0]), {0.0: ScalarSet([0.0, 0.5])}, d, 0.5, 0.5)
    horizontal_dilate(exactly_4_sqrt_delta, d)  # no warning


def test_horizontal_dilate_preserves_worst_ratio_exactly():
    d = 2.0 ** -10
    f = make_fprime(d, seed=3)
    g = horizontal_dilate(f, d)
    for b in f.base:
        r_orig = check_delta_t(f.fibers[b], d, 0.5)
        r_resc = check_delta_t(g.fibers[b], math.sqrt(d), 0.5)
        assert r_resc.worst_ratio == r_orig.worst_ratio


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
