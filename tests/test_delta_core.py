import gc
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
    check_delta_t,
    covering_number,
    dyadic_content,
    extract_delta_s_subset,
    optimal_interval_cover,
    project,
    projection_sweep,
)
from projlab.errors import SeparationError
from projlab.generators import gen_four_corner, gen_random_frostman

import oracles


def test_as_delta_refuses_a_scale_outside_zero_to_half():
    for bad in (0.7, 0.0):
        with pytest.raises(ValueError, match=r"scale must lie in \(0, 1/2\]"):
            delta_core.as_delta(bad)
    assert delta_core.as_delta(0.5) == 0.5


def test_exponents_outside_zero_to_two_are_refused_by_one_rule():
    assert delta_core.as_exponent(2, "exponent t") == 2.0
    for bad in (0.0, -1.0, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^exponent t must lie in \\(0, 2\\], got {bad}$"):
            check_delta_t(PointSet2D([(0, 0)]), 0.25, bad)
        with pytest.raises(ValueError, match=f"^exponent s must lie in \\(0, 2\\], got {bad}$"):
            dyadic_content(PointSet2D([(0, 0)]), 0.25, bad)


def test_delta_pow_minus_refuses_a_power_past_float_range():
    assert delta_core.delta_pow_minus(2.0 ** -8, 0.5) == 16.0
    assert delta_core.delta_pow_minus(1e-200, 1.5) == 1e-200 ** -1.5
    for d, exponent in ((1e-200, 2), (2.0 ** -8, 200.5)):
        with pytest.raises(ValueError, match=f"^delta\\^-{float(exponent)} overflows a float at delta {d}$"):
            delta_core.delta_pow_minus(d, exponent)


def test_scalar_set_sorted_dedup():
    s = ScalarSet([0.3, 0.1, 0.3, 0.2])
    assert list(s) == [0.1, 0.2, 0.3]


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
    # blocks of 6 distances (the last one ragged) give the same report
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", 6)
    assert check_delta_t(PointSet2D(pts), d, 1.0) == rep


def _twin_report(coords, d, t):
    worst, center, radius = oracles.quadratic_nonconcentration(coords, d, t)
    return NonConcentrationReport(exponent=float(t), worst_ratio=worst, witness_center=center,
                                  witness_radius=radius, delta=d, n_points=len(coords))


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
    # the walk's first block alone, counted at its live radii
    assert rep.exact_centers <= delta_core.NC_SAMPLE and rep.distances <= 64


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


def test_planar_check_delta_t_refuses_a_delta_below_its_floor():
    # the x axis at a tiny δ, as a planar and as a 1-D set: at δ = 1e-200 the
    # squares of distances near δ underflowed, and the planar scan read 2.0
    # for two points 1.05δ apart where the 1-D scan reads the true 1.0
    floor = delta_core.PLANAR_NC_DELTA_FLOOR
    assert floor == 2.0 ** -510
    for d in (floor, math.nextafter(floor, 0.0), 1e-200):
        x = [0.0, 1.05 * d, 2.1 * d, 3.2 * d, 9.0 * d]
        line = check_delta_t(ScalarSet(x), d, 0.5).worst_ratio
        planar = PointSet2D([(v, 0.0) for v in x])
        if d >= floor:
            assert check_delta_t(planar, d, 0.5).worst_ratio == line
            continue
        with pytest.raises(ValueError, match=f"^a planar scan needs delta >= 2\\^-510, .*; got {d}$"):
            check_delta_t(planar, d, 0.5)
        # refused before the separation pass, which would name the close pair
        with pytest.raises(ValueError, match="^a planar scan needs delta >= 2\\^-510"):
            check_delta_t(PointSet2D([(0.0, 0.0), (0.5 * d, 0.0)]), d, 0.5)
    assert check_delta_t(ScalarSet([0.0, 1.05e-200]), 1e-200, 1.0).worst_ratio == 1.0


def test_check_delta_t_matches_quadratic_twin_on_lattice_ties():
    # the 64² lattice: many centers tie near the worst ratio
    d = 2.0 ** -6
    ticks = np.arange(64) * d
    lattice = np.array([(x, y) for x in ticks for y in ticks])
    rep = check_delta_t(PointSet2D(lattice), d, 1.0)
    assert rep == _twin_report(lattice, d, 1.0)
    # its stencil bounds tie the worst ratio at many centers, and those are
    # counted; the walk counts no more of them than the scan it replaced
    assert rep.exact_centers <= 448 and rep.distances <= 1_741_088
    fine = np.arange(256) * (d / 4)
    big = np.stack(np.meshgrid(fine, fine, indexing="ij"), axis=-1).reshape(-1, 2)
    rep = check_delta_t(PointSet2D(big, separation=d / 4, check=False), d / 4, 2.0)
    assert (rep.worst_ratio, rep.witness_center, rep.witness_radius) == (5.0, (d / 4, d / 4), d / 4)
    assert rep.exact_centers <= 63_759 and rep.distances <= 2_632_276
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
    chunk=st.integers(min_value=1, max_value=46),
)
def test_property_pruned_scan_matches_brute_oracle(cells, delta, eighths, one_d, m, max_cells, sample, chunk):
    # grid points in index order (not sorted), so ties between centers and
    # radii sit exactly on ball boundaries; coarse cells (few per axis, as
    # for a set spanning more than MAX_CELLS cells), tiny samples and blocks
    # of at most chunk distances
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
        rep = check_delta_t(np.array(coords), delta, t)
    worst, (center, radius) = oracles.brute_nonconcentration(coords, delta, t)
    assert (rep.worst_ratio, rep.witness_center, rep.witness_radius) == (worst, center, radius)


def test_check_delta_t_cells_a_hair_wider_than_r_over_m(monkeypatch):
    # the last two points are r = 2^-3 apart, and on cells of side exactly
    # r/8 counted from the least point, 0, the rounded quotients put them 9
    # cells apart: only the hair keeps the pair in the stencil (in blocks of
    # one distance)
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", 1)
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


@pytest.mark.parametrize("chunk, max_cells", [(None, None), (3, 3), (1, 1)])
def test_close_pairs_match_all_pairs_loop(monkeypatch, chunk, max_cells):
    # blocks of chunk distances (the last one ragged) and cells of
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


@pytest.mark.parametrize("chunk", [None, 3])
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
        pts = PointSet2D(pts).points  # distinct rows, so a pair of points names its indices
        want = _brute_violation(pts.tolist(), r)
        if want is None:
            delta_core._require_separation(pts, r)
            continue
        with pytest.raises(SeparationError) as err:
            delta_core._require_separation(pts, r)
        i, j, dist = want
        assert err.value.pair == (tuple(pts[i].tolist()), tuple(pts[j].tolist()))
        assert (err.value.distance, err.value.r) == (dist, r)
        assert dist == math.hypot(*(pts[i] - pts[j])) < r * (1.0 - SEPARATION_RTOL)


def brute_runs(pts, order, j):
    """Run number at each position of `order` when consecutive points
    sharing a level-j cell (floor(x·2^j), floor(y·2^j)) form one run."""
    keys = [(math.floor(x * 2 ** j), math.floor(y * 2 ** j)) for x, y in pts[order].tolist()]
    return np.cumsum([i == 0 or keys[i] != keys[i - 1] for i in range(len(keys))]) - 1


def test_dyadic_cells_match_oracle_masses():
    rng = np.random.default_rng(23)
    base = rng.uniform(0, 1, size=(40, 2))
    sets = [
        rng.uniform(-2.0, 2.0, size=(200, 2)),  # negative coordinates
        np.repeat(base, 3, axis=0)[rng.permutation(120)],  # each point three times
        np.empty((0, 2)),
        np.array([[0.3, -0.7]]),
        # level-0 cells that differ only in x, with the same digits below
        np.column_stack([np.arange(-3, 3) + 0.25, np.full(6, 0.3)]),
    ]
    for depth in range(13):
        for pts in sets:
            w = rng.uniform(0, 1, size=pts.shape[0])
            tree = DyadicCells(pts, depth)
            assert sorted(tree.order.tolist()) == list(range(pts.shape[0]))
            runs = [brute_runs(pts, tree.order, j) for j in range(depth + 1)]
            # split: the coarsest level whose run starts at each position
            new = [np.diff(r, prepend=-1) == 1 for r in runs] + [np.ones(pts.shape[0], dtype=bool)]
            assert tree.split.tolist() == np.argmax(new, axis=0).tolist()
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
                assert inverse[tree.order].tolist() == runs[j].tolist()
                stops = np.append(starts[1:], pts.shape[0])
                for r, (a, b) in enumerate(zip(starts, stops)):
                    assert (inverse[tree.order[a:b]] == r).all()
                assert prev <= set(starts.tolist())
                prev = set(starts.tolist())
                # the parent map: the level-j run of every run of each finer level
                for k in range(j, depth + 1):
                    finer = tree.level(k)[1]
                    assert tree.parent(j, finer).tolist() == runs[j][finer].tolist()


@pytest.mark.parametrize("scale", [0.0, 0.7, 1.0, 2.0 ** 23 + 0.5, 3.0e9, 2.0 ** 62])
def test_dyadic_cells_refuse_a_depth_past_int64(scale):
    pts = np.array([[0.0, 0.0], [scale, -scale / 3]])
    limit = DyadicCells.max_depth(pts)
    for depth in range(max(0, limit - 2), limit + 1):
        fine = [math.floor(v * 2 ** depth) for v in pts.ravel().tolist()]
        assert all(-2 ** 63 <= f < 2 ** 63 for f in fine)
        assert DyadicCells(pts, depth).fine.ravel().tolist() == fine
    if scale:
        assert max(abs(math.floor(v * 2 ** (limit + 1))) for v in pts.ravel().tolist()) >= 2 ** 63
    with pytest.raises(ValueError, match=f"the largest usable depth is {limit}$"):
        DyadicCells(pts, limit + 1)


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


def top_down_extraction(pts, d, s, levels=None, root=0):
    """The extraction by the oracles: the top-down greedy's picks, then the
    plain greedy separation pass over them in lexicographic order."""
    if levels is None:
        levels = max(0, math.ceil(math.log2(1.0 / d)))
    picks = oracles.top_down_picks(pts, d, s, levels, root)
    return oracles.greedy_separated([list(p) for p in picks], d * (1.0 - SEPARATION_RTOL))


def test_extract_leaves_no_reference_cycle():
    # a cycle would hold the extraction's arrays until a garbage collection
    pts = PointSet2D(np.random.default_rng(8).uniform(0, 1, size=(500, 2)))
    gc.collect()
    extract_delta_s_subset(pts, 2.0 ** -6, 1.0)
    assert gc.collect() == 0


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
    assert p.points.tolist() == top_down_extraction(grid, d, 1.0)
    rep = check_delta_t(p, d, 1.0)
    assert rep.worst_ratio <= EXTRACTION_RATIO_BOUND


def test_extract_degenerate_line_at_s2():
    d = 2.0 ** -6
    line = [(k * d, 0.0) for k in range(64)]
    p = extract_delta_s_subset(PointSet2D(line), d, 2.0)
    # caps never bind on a line at s = 2; everything survives
    assert len(p) == 64
    assert check_delta_t(p, d, 2.0).worst_ratio <= EXTRACTION_RATIO_BOUND
    assert p.points.tolist() == top_down_extraction(line, d, 2.0)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_one_dimensional_input_is_the_points_at_y_0(s):
    d = 2.0 ** -7
    xs = np.random.default_rng(4).uniform(0, 1, size=200)
    on_axis = PointSet2D(np.column_stack([xs, np.zeros(xs.size)]))
    for one_d in (ScalarSet(xs), xs):
        assert dyadic_content(one_d, d, s) == dyadic_content(on_axis, d, s)
        assert extract_delta_s_subset(one_d, d, s).points.tolist() == \
            extract_delta_s_subset(on_axis, d, s).points.tolist()


def test_dyadic_content_of_an_empty_set_is_0():
    assert dyadic_content(PointSet2D(np.empty((0, 2))), 0.1, 1.0) == 0.0
    assert dyadic_content(ScalarSet([]), 2.0 ** -5, 0.5) == 0.0


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
        assert out.points.tolist() == top_down_extraction(pts, d, s)


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
        assert picks == [list(p) for p in oracles.top_down_picks(pts, d, s, math.ceil(math.log2(1 / d)), 0)]
        want = oracles.greedy_separated(picks, d * (1.0 - SEPARATION_RTOL))
        assert out.points.tolist() == want
        dropped += len(picks) - len(want)
    assert dropped > 0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=80, unique=True),
    st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    st.booleans(),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_property_extraction_matches_top_down_oracle(levels, extra, ticks, s, halfway, seed):
    # points on the 2^-(levels + extra) grid: up to 4^extra per δ-cell, and
    # siblings often tie on their counts of occupied δ-cells
    d = 2.0 ** -levels
    pts = PointSet2D(np.array(ticks, dtype=np.float64) * 2.0 ** -(levels + extra)).points
    root = levels // 2 if halfway else 0
    want = top_down_extraction(pts, d, s, levels, root)
    tree = DyadicCells(pts, levels)
    assert delta_core._extract_below(pts, tree, d, s, root).points.tolist() == want
    if root == 0:
        assert extract_delta_s_subset(PointSet2D(pts), d, s).points.tolist() == want
    # the tree restricted to some of its level-root runs, as two-scale cuts
    # it down to its kept balls, against a fresh tree over their points
    chosen = np.random.default_rng(seed).random(np.count_nonzero(tree.split <= root)) < 0.5
    chosen[0] |= not chosen.any()
    runs = np.flatnonzero(chosen)
    sub = pts[np.isin(tree.level(root)[2], runs)]
    assert (delta_core._extract_below(pts, tree.restrict(root, runs), d, s, root).points.tolist()
            == delta_core._extract_below(sub, DyadicCells(sub, levels), d, s, root).points.tolist())


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


@pytest.mark.parametrize("per_block", [1, 7, 10])
def test_projection_sweep_n_only_matches_full_sweep(monkeypatch, per_block):
    rng = np.random.default_rng(19)
    d = 2.0 ** -6
    pts = PointSet2D(np.vstack([rng.integers(0, 64, size=(30, 2)) * d, rng.uniform(0, 1, size=(30, 2))]))
    e = DirectionSet(np.concatenate([[0.0, math.pi / 4, math.pi / 2], rng.uniform(0, 2 * math.pi, 8)]))
    full_cells, _ = projection_sweep(pts, e, d)
    # blocks of 1, 7 + a ragged 4, and 10 + a ragged 1 of the 11 directions
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", per_block * len(pts) + len(pts) - 1)
    cells, pairs = projection_sweep(pts, e, d, pairs=False)
    assert cells.dtype == pairs.dtype == np.int64
    assert cells.tolist() == full_cells.tolist()
    assert pairs.tolist() == [0] * len(e)


def test_projection_sweep_peak_memory_is_one_block():
    # 4,096 points × 1,024 directions: 32 MiB of projected values in one
    # piece, 16 directions (512 KiB) in each block
    pts, e, d = gen_four_corner(6), DirectionSet.net(1024, span=math.pi), 2.0 ** -11
    whole = projection_sweep(pts, e, d)
    swept, peak = oracles.traced_peak(lambda: projection_sweep(pts, e, d))
    assert [a.tolist() for a in swept] == [a.tolist() for a in whole]
    assert peak <= 4 * 2 ** 20, peak


@pytest.mark.parametrize("chunk", [None, 3 * 4 ** 5 + 1, 100])
def test_projection_sweep_blocks_hold_at_most_max_chunk_or_n_values(monkeypatch, chunk):
    # the default block, 3 directions of 4^5 points a block (the last one
    # ragged), and a block smaller than one direction
    pts, e, d = gen_four_corner(5), DirectionSet.net(100, span=math.pi), 2.0 ** -9
    whole = projection_sweep(pts, e, d)
    if chunk is not None:
        monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", chunk)
    blocks = []
    project_block = delta_core.projected_values

    def spy(points, thetas):
        vals = project_block(points, thetas)
        blocks.append(vals.shape)
        return vals

    monkeypatch.setattr(delta_core, "projected_values", spy)
    swept = projection_sweep(pts, e, d)
    assert [a.tolist() for a in swept] == [a.tolist() for a in whole]
    n = len(pts)
    assert all(cols == n and rows * cols <= max(delta_core.CHUNK_ELEMENTS, n) for rows, cols in blocks)
    assert sum(rows for rows, _ in blocks) == len(e)
    if chunk is None:  # 64 directions of 1,024 points: 512 KiB of float64 a block
        assert [rows for rows, _ in blocks] == [64, 36]


def test_projection_sweep_one_point_and_empty_inputs():
    d = 2.0 ** -6
    one = PointSet2D([(0.3, 0.7)])
    cells, pairs = projection_sweep(one, DirectionSet.net(5), d)
    assert cells.tolist() == [1] * 5 and pairs.tolist() == [0] * 5
    cells, pairs = projection_sweep(one, DirectionSet([]), d)
    assert cells.shape == pairs.shape == (0,)
    cells, pairs = projection_sweep(PointSet2D([]), DirectionSet.net(3), d)
    assert cells.tolist() == pairs.tolist() == [0] * 3


def test_projection_contraction_constant():
    rng = np.random.default_rng(17)
    d = 2.0 ** -5
    pts = PointSet2D(rng.uniform(0, 1, size=(200, 2)))
    n2 = len({(math.floor(x / d), math.floor(y / d)) for x, y in pts.points.tolist()})
    for theta in rng.uniform(0, 2 * math.pi, size=8):
        assert covering_number(project(pts, Direction(theta)), d) <= 3 * n2


def test_direction_set_net_and_separation():
    e = DirectionSet.net(8)
    assert len(e) == 8
    assert e.min_angular_gap() == pytest.approx(math.pi / 4)


def test_direction_unit_norm():
    d = Direction(1.234)
    assert math.hypot(d.ex, d.ey) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_directions_refuse_a_non_finite_angle(theta):
    # a NaN angle read 0.0, the x axis, and an infinite one warned and held a NaN
    with pytest.raises(ValueError, match=f"^direction angles must be finite, got {theta}$"):
        Direction(theta)
    with pytest.raises(ValueError, match="^direction angles must be finite$"):
        DirectionSet([0.5, theta])


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


def _brute_level(d):
    """The first j >= 0 with 2^-j <= d by a search over powers of two (2.0 ** -j
    is exact down to the least subnormal), and whether d == 2^-j."""
    j = 0
    while 2.0 ** -j > d:
        j += 1
    return j, 2.0 ** -j == d


def test_dyadic_level_matches_a_search_over_powers_of_two():
    deltas = [5e-324, 1e-310, 2.0 ** -1060 * 3, 0.1, 0.3, 0.5, 1e-20]
    for j in range(1, 1075):
        deltas += [2.0 ** -j, math.nextafter(2.0 ** -j, 0.0), math.nextafter(2.0 ** -j, 1.0)]
    for d in deltas:
        if 0.0 < d <= 0.5:
            assert delta_core._dyadic_level(d) == _brute_level(d), d


def test_dyadic_radii_match_a_doubling_loop():
    def doubling(d):
        radii, r = [], d
        while r <= 1.0:
            radii.append(r)
            r *= 2.0
        return radii if radii[-1] == 1.0 else radii + [1.0]

    deltas = [5e-324, 1e-310, 0.1, 0.15, 0.3, 0.5]
    for j in range(1, 1075):
        deltas += [2.0 ** -j, math.nextafter(2.0 ** -j, 0.0), math.nextafter(2.0 ** -j, 1.0)]
    for d in deltas:
        if 0.0 < d <= 0.5:
            assert delta_core.dyadic_radii(d) == doubling(d), d


def test_extraction_levels_start_at_the_first_side_at_most_delta():
    # 1/δ rounds to 2^10 here, so ceil(log2(1/δ)) read level 10, whose side is above δ
    d = math.nextafter(2.0 ** -10, 0.0)
    assert delta_core._dyadic_levels(PointSet2D([(0.1, 0.2)]), d, 1.0)[2] == 11
    assert delta_core._dyadic_levels(PointSet2D([(0.1, 0.2)]), 2.0 ** -10, 1.0)[2] == 10
    assert delta_core._dyadic_level(d) == (11, False)
    assert delta_core._dyadic_level(2.0 ** -1074) == (1074, True)


def test_covering_number_refuses_a_delta_past_int64():
    # floor(0.3 / 1e-20) is past 2^63: the int64 cast wrapped and the count read 1
    with pytest.raises(ValueError) as err:
        covering_number(ScalarSet([0.1, 0.2, 0.3]), 1e-20)
    least = float(str(err.value).rsplit(" ", 1)[1])
    assert str(err.value).startswith("delta 1e-20 takes floor(v / delta) out of int64 for |v| up to 0.3;")
    assert covering_number(ScalarSet([0.1, 0.2, 0.3]), least) == 3
    with pytest.raises(ValueError, match="out of int64"):
        covering_number(ScalarSet([0.1, 0.2, 0.3]), math.nextafter(least, 0.0))


@pytest.mark.parametrize("bound", [0.75, 1.0, math.nextafter(1.0, 0.0), 0.3, 2.0 ** -900])
def test_cell_index_refuses_exactly_where_an_index_leaves_int64(bound):
    vals = np.array([-bound, 0.0, bound / 3, bound])
    least = math.nextafter(math.ldexp(bound, -63), math.inf)
    for d in (least, math.nextafter(least, 1.0)):
        cells = delta_core._cell_index(vals, d)
        want = [math.floor(v / d) for v in vals.tolist()]
        assert cells.tolist() == want and all(-2 ** 63 <= k < 2 ** 63 for k in want)
    with pytest.raises(ValueError, match=f"the smallest usable delta is {least!r}$"):
        delta_core._cell_index(vals, math.nextafter(least, 0.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grid_cells_name_a_non_finite_value(value):
    # the refusal read "the smallest usable delta is nan", and the greedy
    # cover counted 2
    vals = np.array([value, 0.1])
    with pytest.raises(ValueError, match=f"^grid cells need finite values, got {abs(value)!r}$"):
        covering_number(vals, 0.1)
    with pytest.raises(ValueError, match="^scalar set values must be finite$"):
        optimal_interval_cover(vals, 0.1)
    assert covering_number(vals[1:], 0.1) == optimal_interval_cover(vals[1:], 0.1) == 1


def test_projection_sweep_n_is_covering_number_on_both_sides_of_int64():
    rng = np.random.default_rng(5)
    P = PointSet2D(np.vstack([rng.uniform(-1, 1, size=(40, 2)), [(-0.75, 0.0), (0.75, 0.5)]]))
    E = DirectionSet([0.0, 0.9, 2.5])
    bound = float(np.abs(delta_core.projected_values(P.points, E.thetas)).max())
    edge = math.ldexp(bound, -63)  # the first δ at which some |v|/δ reaches 2^63
    assert bound == math.ldexp(edge, 63)
    for d in (math.nextafter(edge, 1.0), 2 * edge):
        want = [covering_number(project(P, e), d) for e in E]
        for pairs in (True, False):
            assert projection_sweep(P, E, d, pairs=pairs)[0].tolist() == want
    first = int(np.argmax(np.abs(delta_core.projected_values(P.points, E.thetas)).max(axis=1)))
    for d in (edge, math.nextafter(edge, 0.0)):
        with pytest.raises(ValueError, match="out of int64") as swept:
            projection_sweep(P, E, d)
        with pytest.raises(ValueError, match="out of int64") as counted:
            covering_number(project(P, E[first]), d)
        assert str(swept.value) == str(counted.value)


def test_check_delta_t_trusts_a_declared_separation(monkeypatch):
    calls = []
    require = delta_core._require_separation
    monkeypatch.setattr(delta_core, "_require_separation", lambda pts, r: calls.append(r) or require(pts, r))
    d = 2.0 ** -5
    grid = [(i * d, j * d) for i in range(8) for j in range(8)]
    declared = PointSet2D(grid, separation=d)
    assert calls == [d]  # the check at construction
    plain = check_delta_t(PointSet2D(grid), d, 1.0)
    assert calls == [d, d]
    assert check_delta_t(declared, d, 1.0) == plain
    check_delta_t(declared, d / 2, 1.0)
    assert calls == [d, d]
    # a separation declared below δ proves nothing at δ
    with pytest.raises(SeparationError):
        check_delta_t(declared, 2 * d, 1.0)
    assert calls == [d, d, 2 * d]
    # the sets that declare a separation by construction: the extraction's
    # sweep and the generator's δ-cell corners
    picked = extract_delta_s_subset(PointSet2D(grid), d, 1.0)
    check_delta_t(picked, d, 1.0)
    gen_random_frostman(64, 1.0, 2.0 ** -7, seed=5)
    assert calls == [d, d, 2 * d]
    # an undeclared crowded set is still refused, naming its closest pair
    with pytest.raises(SeparationError) as err:
        check_delta_t(PointSet2D([(0, 0), (2 ** -6, 0)]), 2.0 ** -4, 1.0)
    assert str(err.value) == ("separation violation: points (0.0, 0.0) and (0.015625, 0.0) are at "
                              "distance 0.015625 < required 0.0625")
    assert len(calls) == 4
