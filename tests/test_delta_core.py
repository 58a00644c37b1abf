import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import delta_core
from projlab.delta_core import (
    EXTRACTION_CARDINALITY_C,
    EXTRACTION_RATIO_BOUND,
    Direction,
    DirectionSet,
    DyadicCells,
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
