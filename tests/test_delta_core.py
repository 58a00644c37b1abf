import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import delta_core
from projlab.delta_core import (
    EXTRACTION_CARDINALITY_C,
    EXTRACTION_RATIO_BOUND,
    SEPARATION_RTOL,
    Direction,
    DirectionSet,
    DyadicCells,
    NonConcentrationReport,
    PointSet2D,
    ScalarSet,
    Scale,
    check_delta_t,
    covering_number,
    covering_number_2d,
    dyadic_content,
    extract_delta_s_subset,
    optimal_interval_cover,
    project,
    project_param,
    projection_sweep,
)
from projlab.errors import SeparationError
from projlab.generators import gen_random_frostman

import oracles


def test_scale_validation():
    assert float(Scale.dyadic(6)) == 2.0 ** -6
    assert Scale.dyadic(6).is_dyadic
    with pytest.raises(ValueError):
        Scale(0.7)
    with pytest.raises(ValueError):
        Scale(0.0)
    with pytest.raises(ValueError):
        Scale(0.25, j=3)  # 0.25 == 2^-2, not 2^-3


def test_scalar_set_sorted_dedup():
    s = ScalarSet([0.3, 0.1, 0.3, 0.2])
    assert list(s) == [0.1, 0.2, 0.3]
    assert s.lo == 0.1 and s.hi == 0.3
    with pytest.raises(ValueError):
        ScalarSet([0.5], lo=0.0, hi=0.4)


def test_covering_number_empty_and_grid():
    assert covering_number(ScalarSet([]), 0.1) == 0
    d = 2.0 ** -4
    s = ScalarSet([k * d for k in range(10)])
    assert covering_number(s, d) == 10


def test_covering_number_seeded_vs_greedy_cover():
    # frozen oracle relationship: greedy optimal <= grid count <= 2 * greedy
    rng = np.random.default_rng(20260810)
    vals = rng.uniform(0.0, 1.0, size=200)
    d = 0.01
    grid = covering_number(ScalarSet(vals), d)
    opt = oracles.greedy_interval_cover(vals, d)
    assert opt <= grid <= 2 * opt
    # package greedy equals the independent oracle greedy
    assert optimal_interval_cover(ScalarSet(vals), d) == opt


def test_greedy_cover_is_exact_on_tiny_sets():
    rng = np.random.default_rng(7)
    for _ in range(60):
        vals = rng.uniform(0, 1, size=rng.integers(1, 10))
        d = float(rng.uniform(0.02, 0.3))
        assert oracles.greedy_interval_cover(vals, d) == oracles.exhaustive_interval_cover(vals, d)


def test_covering_sandwich_100_seeds():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        vals = rng.uniform(0, 1, size=n)
        d = float(rng.choice([2.0 ** -k for k in range(3, 9)]))
        grid = covering_number(ScalarSet(vals), d)
        opt = oracles.greedy_interval_cover(vals, d)
        assert opt <= grid <= 2 * opt


def test_covering_monotonicity_dyadic():
    rng = np.random.default_rng(12)
    vals = rng.uniform(0, 1, size=150)
    s = ScalarSet(vals)
    sub = ScalarSet(vals[:70])
    for j in range(3, 8):
        d = 2.0 ** -j
        assert covering_number(sub, d) <= covering_number(s, d)
        # nested grids: finer delta never decreases the count
        assert covering_number(s, d / 2) >= covering_number(s, d)


def test_covering_factor2_monotonicity_general():
    # non-nested scales only obey factor-2 monotonicity via the sandwich
    rng = np.random.default_rng(13)
    vals = rng.uniform(0, 1, size=120)
    s = ScalarSet(vals)
    for d1, d2 in [(0.09, 0.1), (0.031, 0.05), (0.011, 0.013)]:
        assert covering_number(s, d1) >= covering_number(s, d2) / 2


def test_scale_equivariance_dyadic_factor():
    rng = np.random.default_rng(14)
    vals = rng.uniform(0, 1, size=100)
    d = 2.0 ** -6
    for a in [0.5, 0.25, 2.0 ** -3]:
        assert covering_number(ScalarSet(vals * a), a * d) == covering_number(ScalarSet(vals), d)


def test_covering_2d_trivial_and_cantor():
    assert covering_number_2d(PointSet2D([(0.0, 0.0)]), 0.1) == 1
    d = 2.0 ** -4
    grid = [(i * d, j * d) for i in range(17) for j in range(17)]
    assert covering_number_2d(PointSet2D(grid), d) == 17 ** 2
    # four-corner iterate depth 3 occupies exactly its 64 corner cells
    c3 = oracles.cantor_left_endpoints(0.25, 3)
    pts = [(x, y) for x in c3 for y in c3]
    assert covering_number_2d(PointSet2D(pts), 4.0 ** -3) == 64


def test_check_delta_t_single_point():
    rep = check_delta_t(PointSet2D([(0.3, 0.4)]), 2.0 ** -5, 1.0)
    assert rep.worst_ratio == 1.0
    assert rep.witness_radius == 2.0 ** -5


def test_check_delta_t_ap_frozen_value():
    # oracle-pinned maximum for {0, d, ..., 15d} at t = 1/2: 4*sqrt(2),
    # attained at an interior center with r = 8d
    d = 2.0 ** -8
    vals = [k * d for k in range(16)]
    worst, witness = oracles.brute_nonconcentration(vals, d, 0.5)
    assert worst == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
    rep = check_delta_t(ScalarSet(vals), d, 0.5)
    assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert rep.witness_radius == pytest.approx(8 * d)


def test_check_delta_t_full_grid_line():
    d = 2.0 ** -6
    vals = [k * d for k in range(65)]
    rep = check_delta_t(ScalarSet(vals), d, 1.0)
    worst, _ = oracles.brute_nonconcentration(vals, d, 1.0)
    assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert rep.worst_ratio <= 3.0


def test_check_delta_t_rejects_crowded_input():
    d = 2.0 ** -4
    with pytest.raises(SeparationError):
        check_delta_t(ScalarSet([0.0, d / 3]), d, 1.0)
    with pytest.raises(SeparationError) as err:
        check_delta_t(PointSet2D([(0.0, 0.0), (d / 4, 0.0)]), d, 1.0)
    assert "distance" in str(err.value)


def test_separation_error_names_the_closest_pair_as_plain_floats():
    d = 2.0 ** -4
    want = ("separation violation: points (0.0, 0.0) and (0.015625, 0.0) are at "
            "distance 0.015625 < required 0.0625")
    with pytest.raises(SeparationError) as err:
        check_delta_t(PointSet2D([(0, 0), (2 ** -6, 0)]), d, 1.0)
    assert str(err.value) == want
    with pytest.raises(SeparationError) as err:
        PointSet2D([(0, 0), (2 ** -6, 0)], separation=d)
    assert str(err.value) == want
    # of several violations, the closest pair is named
    with pytest.raises(SeparationError) as err:
        check_delta_t(PointSet2D([(0, 0), (0.04, 0), (0.5, 0), (0.5 + 2 ** -6, 0)]), d, 1.0)
    assert str(err.value) == want.replace("(0.0, 0.0) and (0.015625, 0.0)", "(0.5, 0.0) and (0.515625, 0.0)")


def test_check_delta_t_matches_oracle_on_seeded_2d(monkeypatch):
    rng = np.random.default_rng(15)
    d = 2.0 ** -5
    pts = np.unique(np.floor(rng.uniform(0, 1, size=(60, 2)) / d), axis=0) * d
    rep = check_delta_t(PointSet2D(pts), d, 1.0)
    worst, _ = oracles.brute_nonconcentration([tuple(p) for p in pts], d, 1.0)
    assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
    # rows in chunks of 7 (the last one ragged) give the same report
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", 7 * len(pts))
    assert check_delta_t(PointSet2D(pts), d, 1.0) == rep


def _twin_report(coords, d, t, log_power=0.0):
    worst, center, radius = oracles.quadratic_nonconcentration(coords, d, t)
    return NonConcentrationReport(exponent=float(t), worst_ratio=worst, witness_center=center,
                                  witness_radius=radius, log_power_used=float(log_power), delta=d,
                                  n_points=len(coords))


@pytest.fixture(scope="module")
def frostman_sets():
    # the generator's benchmark-size sets: n = 4,096, t = 1.5, δ = 2^-10
    return [gen_random_frostman(4096, 1.5, 2.0 ** -10, seed=seed) for seed in range(3)]


def test_check_delta_t_matches_quadratic_twin_on_generator_sets(frostman_sets):
    d = 2.0 ** -10
    for pts in frostman_sets:
        rep = check_delta_t(pts, d, 1.5)
        assert rep == _twin_report(pts.points, d, 1.5)


def test_check_delta_t_prunes_most_centers_of_the_generator_set(frostman_sets):
    # a scan that silently counted every center exactly would be quadratic
    rep = check_delta_t(frostman_sets[0], 2.0 ** -10, 1.5)
    assert rep.exact_centers < 0.1 * rep.n_points
    assert 0 < rep.distances < 0.01 * rep.n_points ** 2


def test_check_delta_t_prunes_at_a_tiny_delta(frostman_sets):
    # at δ = 2^-30 the unit square spans more than MAX_CELLS cells of the
    # finest radii; their coarser cells still bound each ball by the center
    # alone, every center ties at ratio 1 at r = δ, and only the sample is
    # counted exactly
    d = 2.0 ** -30
    pts = frostman_sets[0]
    rep = check_delta_t(pts, d, 1.5)
    assert (rep.worst_ratio, rep.witness_center, rep.witness_radius) == (1.0, tuple(pts.points[0]), d)
    assert rep.exact_centers < 0.1 * rep.n_points
    assert rep.distances < 0.01 * rep.n_points ** 2
    head = pts.points[:512]
    assert check_delta_t(head, d, 1.5) == _twin_report(head, d, 1.5)


def test_check_delta_t_matches_quadratic_twin_on_lattice_ties_and_log_power():
    # the 64² lattice: many centers tie near the worst ratio
    d = 2.0 ** -6
    ticks = np.arange(64) * d
    lattice = np.array([(x, y) for x in ticks for y in ticks])
    assert check_delta_t(PointSet2D(lattice), d, 1.0) == _twin_report(lattice, d, 1.0)
    rep = check_delta_t(PointSet2D(lattice), d, 1.0, log_power=1.0)
    assert rep == _twin_report(lattice, d, 1.0, log_power=1.0)
    assert rep.log_power_used == 1.0
    # two translated copies of one cluster tie center for center at every
    # radius short of the gap between them: the witness (at r = δ) is the
    # first copy's, found in index order
    rng = np.random.default_rng(41)
    d = 2.0 ** -9
    cluster = np.unique(rng.integers(0, 40, size=(500, 2)), axis=0) * d
    twins = PointSet2D(np.vstack([cluster, cluster + [0.5, 0.0]]))
    rep = check_delta_t(twins, d, 1.5)
    assert rep == _twin_report(twins.points, d, 1.5)
    assert rep.witness_center[0] < 0.5


def test_check_delta_t_matches_quadratic_twin_on_rounded_and_spread_sets():
    # multiples of 0.1 put distances a rounding away from the radii 0.1·2^k
    d = 0.1
    ticks = np.arange(21) * d
    rounded = np.array([(x, y) for x in ticks for y in ticks])
    assert check_delta_t(rounded, d, 1.0) == _twin_report(rounded, d, 1.0)
    # a far point spans more than MAX_CELLS cells of the finest radii: those
    # radii get coarser cells, wider than r
    rng = np.random.default_rng(45)
    d = 2.0 ** -10
    spread = np.vstack([np.unique(rng.integers(0, 200, size=(400, 2)), axis=0) * d, [[3e6, 0.0]]])
    rep = check_delta_t(spread, d, 1.5)
    assert rep == _twin_report(spread, d, 1.5)


def test_check_delta_t_matches_quadratic_twin_on_scalar_fibers():
    rng = np.random.default_rng(43)
    d = 2.0 ** -12
    grid = ScalarSet(np.unique(rng.integers(0, 4096, size=1500)) * d)
    # off-grid values at gaps of at least δ, and a small fiber
    loose = ScalarSet(np.cumsum(d + rng.exponential(3 * d, size=900)))
    small = ScalarSet(np.unique(rng.integers(0, 64, size=20)) * d)
    for fiber in (grid, loose, small):
        for t in (0.5, 1.0):
            assert check_delta_t(fiber, d, t) == _twin_report(fiber.values, d, t)


@settings(max_examples=80, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40, unique=True),
    delta=st.sampled_from([2.0 ** -3, 2.0 ** -4, 0.1, 0.15]),
    eighths=st.integers(min_value=1, max_value=16),
    one_d=st.booleans(),
    m=st.integers(min_value=1, max_value=3),
    max_cells=st.sampled_from([1, 3, 16, 2 ** 25]),
    sample=st.integers(min_value=1, max_value=4),
    chunk=st.integers(min_value=1, max_value=3000),
)
def test_property_pruned_scan_matches_brute_oracle(cells, delta, eighths, one_d, m, max_cells, sample, chunk):
    # grid points in index order (not sorted), so ties between centers and
    # radii sit exactly on ball boundaries; coarse cells (few per axis, as
    # for a set spanning more than MAX_CELLS cells), tiny samples and blocks
    # of at most chunk // 64 distances
    t = eighths / 8
    if one_d:
        coords = [(i * delta,) for i in dict.fromkeys(i for i, _ in cells)]
    else:
        coords = [(i * delta, j * delta) for i, j in cells]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delta_core, "NC_CELLS_PER_RADIUS", m)
        mp.setattr(delta_core, "MAX_CELLS", max_cells)
        mp.setattr(delta_core, "NC_SAMPLE", sample)
        mp.setattr(delta_core, "CHUNK_ELEMENTS", chunk)
        rep = check_delta_t(np.array(coords), delta, t, validate_separation=False)
    worst, (center, radius) = oracles.brute_nonconcentration(coords, delta, t)
    assert (rep.worst_ratio, rep.witness_center, rep.witness_radius) == (worst, center, radius)


def test_check_delta_t_cells_a_hair_wider_than_r_over_m(monkeypatch):
    # the last two points are r = 2^-3 apart, and on cells of side exactly
    # r/8 counted from the least point, 0, the rounded quotients put them 9
    # cells apart: only the hair keeps the pair in the stencil (in tiny
    # blocks)
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", 64)
    d = 2.0 ** -7
    xs = [0.0, math.nextafter(2.0 ** -6, 0.0), 9 * 2.0 ** -6]
    for coords, P in (([(x,) for x in xs], ScalarSet(xs)), ([(x, 0.5) for x in xs], PointSet2D([(x, 0.5) for x in xs]))):
        rep = check_delta_t(P, d, 0.125)
        worst, (center, radius) = oracles.brute_nonconcentration(coords, d, 0.125)
        assert (rep.worst_ratio, rep.witness_center, rep.witness_radius) == (worst, center, radius)
        assert radius == 2.0 ** -3


def _brute_close_pairs(pts, r):
    """Every pair i < j of the coordinate lists at `math.hypot` distance
    below r*(1 - SEPARATION_RTOL), as (i, j, distance) in (i, j) order."""
    thresh = r * (1.0 - SEPARATION_RTOL)
    n = len(pts)
    pairs = [(i, j, math.hypot(*(a - b for a, b in zip(pts[i], pts[j])))) for i in range(n) for j in range(i + 1, n)]
    return [pair for pair in pairs if pair[2] < thresh]


def _brute_violation(pts, r):
    """The closest such pair, (i, j, distance) with the least (distance, i,
    j); None if there is none."""
    return min(_brute_close_pairs(pts, r), key=lambda p: (p[2], p[0], p[1]), default=None)


@pytest.mark.parametrize("chunk, max_cells", [(None, None), (200, 3), (64, 1)])
def test_close_pairs_match_all_pairs_loop(monkeypatch, chunk, max_cells):
    # blocks of chunk // 64 distances (the last one ragged) and cells of
    # side span / max_cells, far wider than the threshold
    if chunk is not None:
        monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(delta_core, "MAX_CELLS", max_cells)
    rng = np.random.default_rng(59)
    plane = rng.uniform(-1, 1, size=(150, 2))
    line = rng.uniform(-1, 1, size=(120, 1))
    sets = [(plane, 0.05), (np.vstack([plane, plane[:5]]), 0.02), (line, 0.01), (np.vstack([line, line[:5]]), 0.002),
            (np.unique(rng.integers(0, 20, size=(150, 2)), axis=0) * 0.1, 0.1)]
    # pairs exactly at r·(1 - SEPARATION_RTOL) are left out, on an axis and
    # a diagonal and in 1-D; an ulp closer they are listed
    r = 2.0 ** -5
    thresh = r * (1.0 - SEPARATION_RTOL)
    for gap, listed in ((thresh, False), (math.nextafter(thresh, 0.0), True)):
        for pts, pairs in ((np.array([[0.0, 0.0], [gap, 0.0], [0.9, 0.9], [0.0, -gap]]), [(0, 1), (0, 3)]),
                           (np.array([[0.0, 0.0], [gap * 0.6, gap * 0.8]]), [(0, 1)]),
                           (np.array([[0.5], [0.0], [gap]]), [(1, 2)])):
            assert [p[:2] for p in _brute_close_pairs(pts.tolist(), r)] == (pairs if listed else [])
            sets.append((pts, r))
    for pts, r in sets:
        assert delta_core._close_pairs(pts, r) == _brute_close_pairs(pts.tolist(), r)


@pytest.mark.parametrize("chunk", [None, 200])
def test_closest_violation_matches_brute_pair_search(monkeypatch, chunk):
    if chunk is not None:  # the cell screen's distances a few at a time
        monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(47)
    sets = [(rng.uniform(0, 1, size=(150, 2)), r) for r in (0.2, 0.02, 0.004)]
    sets.append((np.unique(rng.integers(0, 30, size=(200, 2)), axis=0) * 0.1, 0.1))
    sets.append((rng.uniform(-3, 3, size=(80, 2)), 0.05))
    # a threshold below span / MAX_CELLS: cells far wider than the threshold
    tiny = 2.0 ** -31
    sets.append((rng.uniform(0, 1, size=(150, 2)), tiny))
    sets.append((np.array([[0.25, 0.5], [0.25 + tiny / 2, 0.5], [0.75, 0.5]]), tiny))
    # pairs exactly at r·(1 - SEPARATION_RTOL), on an axis and a diagonal,
    # are clean; an ulp closer they are not
    r = 2.0 ** -5
    thresh = r * (1.0 - SEPARATION_RTOL)
    for gap in (thresh, math.nextafter(thresh, 0.0)):
        sets.append((np.array([[0.5, 0.5], [0.5 + gap, 0.5], [0.9, 0.9]]), r))
        sets.append((np.array([[0.1, 0.2], [0.1, 0.2 + gap]]), r))
        sets.append((np.array([[0.0, 0.0], [gap * 0.6, gap * 0.8]]), r))
    for pts, r in sets:
        pts = PointSet2D(pts).points
        got = delta_core._closest_violation(pts, r)
        assert got == _brute_violation(pts.tolist(), r)
        if got is not None:
            i, j, dist = got
            assert dist == math.hypot(*(pts[i] - pts[j])) < r * (1.0 - SEPARATION_RTOL)


def test_dyadic_cells_match_oracle_masses():
    rng = np.random.default_rng(23)
    base = rng.uniform(0, 1, size=(40, 2))
    sets = [
        rng.uniform(-2.0, 2.0, size=(200, 2)),  # negative coordinates
        np.repeat(base, 3, axis=0)[rng.permutation(120)],  # each point three times
        np.empty((0, 2)),
        np.array([[0.3, -0.7]]),
    ]
    depth = 7
    for pts in sets:
        w = rng.uniform(0, 1, size=pts.shape[0])
        tree = DyadicCells(pts, depth)
        assert sorted(tree.order.tolist()) == list(range(pts.shape[0]))
        prev = set()
        for j in range(depth + 1):
            cells, starts, inverse = tree.level(j)
            want = oracles.brute_dyadic_masses(pts.tolist(), w.tolist(), j)
            assert [tuple(c) for c in cells[inverse].tolist()] == [
                (math.floor(x * 2 ** j), math.floor(y * 2 ** j)) for x, y in pts.tolist()]
            masses = np.bincount(inverse, weights=w, minlength=starts.size)
            assert dict(zip(map(tuple, cells.tolist()), masses.tolist())) == want
            # one run of `order` per occupied cell, nested in the coarser runs
            assert starts.size == len(want)
            stops = np.append(starts[1:], pts.shape[0])
            for r, (a, b) in enumerate(zip(starts, stops)):
                assert (inverse[tree.order[a:b]] == r).all()
            assert prev <= set(starts.tolist())
            prev = set(starts.tolist())


@pytest.mark.parametrize("depth", [0, 1, 9])
def test_dyadic_cells_order_matches_full_key_lexsort(depth):
    # reference: every level's full (cx, cy) as int64 keys, coarser first
    rng = np.random.default_rng(31 + depth)
    base = rng.uniform(-1.5, 1.5, size=(300, 2))
    sets = [base, np.repeat(base[:60], 4, axis=0)[rng.permutation(240)]]
    for pts in sets:
        fine = np.floor(pts * 2.0 ** depth).astype(np.int64)
        want = np.lexsort([fine[:, k] >> (depth - j) for j in range(depth, -1, -1) for k in (1, 0)])
        assert np.array_equal(DyadicCells(pts, depth).order, want)


def test_extract_single_point():
    p = extract_delta_s_subset(PointSet2D([(0.25, 0.5)]), 2.0 ** -5, 1.0)
    assert len(p) == 1


def test_extract_full_grid():
    d = 2.0 ** -6
    grid = [(i * d, j * d) for i in range(64) for j in range(64)]
    kappa = dyadic_content(PointSet2D(grid), d, 1.0)
    p = extract_delta_s_subset(PointSet2D(grid), d, 1.0)
    assert len(p) >= EXTRACTION_CARDINALITY_C * kappa * (1.0 / d)
    assert len(p) == 64  # frozen regression: root cap binds exactly
    rep = check_delta_t(p, d, 1.0)
    assert rep.worst_ratio <= EXTRACTION_RATIO_BOUND


def test_extract_degenerate_line_at_s2():
    d = 2.0 ** -6
    line = [(k * d, 0.0) for k in range(64)]
    p = extract_delta_s_subset(PointSet2D(line), d, 2.0)
    # caps never bind on a line at s = 2; everything survives
    assert len(p) == 64
    assert check_delta_t(p, d, 2.0).worst_ratio <= EXTRACTION_RATIO_BOUND


def test_extract_errors():
    with pytest.raises(ValueError):
        extract_delta_s_subset(PointSet2D(np.empty((0, 2))), 0.1, 1.0)
    with pytest.raises(ValueError):
        extract_delta_s_subset(PointSet2D([(0, 0)]), 0.1, 2.5)
    with pytest.raises(ValueError):
        extract_delta_s_subset(PointSet2D([(0, 0)]), 0.1, 0.0)


def test_extract_soundness_100_seeds():
    d = 2.0 ** -6
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(0, 1, size=(int(rng.integers(1, 300)), 2))
        s = float(rng.choice([0.5, 1.0, 1.5]))
        kappa = dyadic_content(PointSet2D(pts), d, s)
        out = extract_delta_s_subset(PointSet2D(pts), d, s)
        rep = check_delta_t(out, d, s)
        assert rep.worst_ratio <= EXTRACTION_RATIO_BOUND
        assert len(out) >= EXTRACTION_CARDINALITY_C * kappa * (1.0 / d) ** s


def test_extract_sweep_matches_greedy_oracle(monkeypatch):
    # the final sweep keeps exactly what a plain greedy loop over its input
    # (the lexicographically sorted picks) keeps
    swept = []
    close_pairs = delta_core._close_pairs

    def spy(pts, r):
        swept.append(pts.tolist())
        return close_pairs(pts, r)

    monkeypatch.setattr(delta_core, "_close_pairs", spy)
    rng = np.random.default_rng(53)
    dropped = 0
    for k in range(60):
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 300)), 2))
        if k % 2:
            pts = np.round(pts * 64) / 64  # on the 2^-6 grid: pairs exactly δ apart
        d = (2.0 ** -6, 0.37 * 2.0 ** -4, 0.1)[k % 3]
        s = float(rng.choice([0.5, 1.0, 2.0]))
        swept.clear()
        out = extract_delta_s_subset(PointSet2D(pts), d, s)
        (picks,) = swept
        want = oracles.greedy_separated(picks, d * (1.0 - SEPARATION_RTOL))
        assert out.points.tolist() == want
        dropped += len(picks) - len(want)
    assert dropped > 0


def test_project_axes_and_diagonal():
    p = PointSet2D([(0.2, 0.5), (0.7, 0.1)])
    assert list(project(p, Direction(0.0))) == [0.2, 0.7]
    assert list(project(p, Direction(math.pi / 2))) == pytest.approx([0.1, 0.5])
    one = project(PointSet2D([(1.0, 1.0)]), Direction(math.pi / 4))
    assert list(one) == pytest.approx([math.sqrt(2.0)], abs=1e-15)


def test_projection_sweep_matches_per_direction_oracles(monkeypatch):
    rng = np.random.default_rng(18)
    d = 2.0 ** -6
    # grid points (projections on cell edges at θ = 0, π/2) plus random ones
    grid = rng.integers(0, 64, size=(30, 2)) * d
    pts = PointSet2D(np.vstack([grid, rng.uniform(0, 1, size=(30, 2))]))
    e = DirectionSet(np.concatenate([[0.0, math.pi / 2], rng.uniform(0, 2 * math.pi, 9)]))
    want_n = [covering_number(project(pts, e[i]), d) for i in range(len(e))]
    want_pairs = [oracles.brute_close_pairs(pts.points.tolist(), th, d) for th in e.thetas.tolist()]
    whole = projection_sweep(pts, e, d)
    # 3 directions per block: blocks of 3, 3, 3 and a ragged 2
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", 3 * len(pts) + 1)
    for cells, pairs in (whole, projection_sweep(pts, e, d)):
        assert cells.tolist() == want_n
        assert pairs.tolist() == want_pairs


def test_projection_sweep_one_point_and_empty_inputs():
    d = 2.0 ** -6
    one = PointSet2D([(0.3, 0.7)])
    cells, pairs = projection_sweep(one, DirectionSet.net(5), d)
    assert cells.tolist() == [1] * 5 and pairs.tolist() == [0] * 5
    cells, pairs = projection_sweep(one, DirectionSet([]), d)
    assert cells.shape == pairs.shape == (0,)
    cells, pairs = projection_sweep(PointSet2D([]), DirectionSet.net(3), d)
    assert cells.tolist() == pairs.tolist() == [0] * 3


def test_project_param_matches_rotated_projection():
    rng = np.random.default_rng(16)
    pts = PointSet2D(rng.uniform(0, 1, size=(50, 2)))
    theta = 0.3
    e = Direction(theta)
    a = np.array(sorted(math.cos(theta) * v for v in project_param(pts, math.tan(theta))))
    b = np.asarray(project(pts, e).values)
    assert np.max(np.abs(a - b)) < 1e-9
    assert list(project_param(pts, 0.0).values) == sorted(pts.xs.tolist())
    assert project_param(PointSet2D([(0.2, 0.5)]), 1.0).values[0] == pytest.approx(0.7)


def test_projection_contraction_constant():
    rng = np.random.default_rng(17)
    d = 2.0 ** -5
    pts = PointSet2D(rng.uniform(0, 1, size=(200, 2)))
    n2 = covering_number_2d(pts, d)
    for theta in rng.uniform(0, 2 * math.pi, size=8):
        assert covering_number(project(pts, Direction(theta)), d) <= 3 * n2


def test_direction_set_net_and_separation():
    e = DirectionSet.net(8)
    assert len(e) == 8
    assert e.min_angular_gap() == pytest.approx(math.pi / 4)
    e.require_separated(0.5)
    with pytest.raises(SeparationError):
        DirectionSet([0.0, 1e-4]).require_separated(0.01)


def test_direction_unit_norm():
    d = Direction(1.234)
    assert math.hypot(d.ex, d.ey) == pytest.approx(1.0, abs=1e-12)
    assert Direction.from_vector(0.0, -2.0).theta == pytest.approx(3 * math.pi / 2)
    with pytest.raises(ValueError):
        Direction.from_vector(0.0, 0.0)


def test_tiny_negative_angles_wrap_to_zero():
    # x % TWO_PI rounds up to TWO_PI itself for these x, which must not be
    # kept: the angles lie in [0, TWO_PI), and reading one back must not move it
    for theta in (-5e-324, -1e-17, -4.4e-16):
        assert Direction(theta).theta == 0.0
        assert DirectionSet([theta, 1.0]).thetas.tolist() == [0.0, 1.0]
    assert Direction(-1e-15).theta == math.nextafter(2 * math.pi, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=9),
)
def test_property_sandwich_holds(vals, j):
    d = 2.0 ** -j
    grid = covering_number(ScalarSet(vals), d)
    opt = oracles.greedy_interval_cover(vals, d)
    assert opt <= grid <= 2 * opt


def test_nonconcentration_report_passes_threshold():
    d = 2.0 ** -6
    rep = check_delta_t(ScalarSet([k * d for k in range(10)]), d, 1.0, log_power=1.0)
    assert rep.threshold(1.0) == pytest.approx(math.log(1.0 / d))
    assert rep.passes(c=rep.worst_ratio / math.log(1.0 / d) + 0.1)
