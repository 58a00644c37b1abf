import math

import numpy as np
import pytest

from projlab import delta_core
from projlab.delta_core import (Direction, DirectionSet, PointSet2D, covering_number, grid_cells_1d, project,
                               projected_values, projection_sweep)
from projlab.incidence import (
    cauchy_schwarz_lower_bound,
    close_pairs,
    close_pairs_bruteforce,
    kaufman_witness,
)

import oracles


def test_tube_cell_counts():
    # a tube in direction e is one occupied cell of grid_cells_1d(π_e P, δ)
    d = 2.0 ** -4
    assert len(grid_cells_1d(project(PointSet2D([(0.3, 0.3)]), Direction(0.0)), d)) == 1
    row = PointSet2D([(k * d, 0.0) for k in range(10)])
    assert len(grid_cells_1d(project(row, Direction(0.0)), d)) == 10
    assert len(grid_cells_1d(project(row, Direction(math.pi / 2)), d)) == 1


def test_tube_cells_partition_the_points():
    # half-open cells: every point lies in exactly one tube, and the tube
    # count matches the sweep's projection covering number
    rng = np.random.default_rng(21)
    d = 2.0 ** -5
    pts = PointSet2D(rng.uniform(0, 1, size=(80, 2)))
    for theta in [0.0, 0.4, 1.1, 2.9]:
        e = Direction(theta)
        cells = grid_cells_1d(project(pts, e), d)
        assert len(cells) == projection_sweep(pts, DirectionSet([theta]), d, pairs=False)[0][0]
        for x, y in pts.points:
            v = x * e.ex + y * e.ey
            assert sum(1 for k in cells if float(k) * d <= v < float(k) * d + d) == 1


def test_close_pairs_trivial():
    d = 2.0 ** -6
    assert close_pairs(PointSet2D([(0.1, 0.2)]), Direction(0.3), d) == 0
    # equal projections count in both orders
    two = PointSet2D([(0.0, 0.0), (0.0, 1.0)])
    assert close_pairs(two, Direction(0.0), d) == 2
    # a pair counts when fl(v_j - v_i) <= δ, as in both oracles; fl(v_i + δ)
    # is one ulp too high in the first case and too low in the second
    far, near = 0.30000000000000004, 0.006235154479937335
    for pts, delta, want in (
        ([(0.1, 0.0), (far, 0.0)], 0.2, 0),
        ([(0.1, 0.0), (far, 0.0), (far, 0.5)], 0.2, 2),
        ([(-0.0019071029260054688, 0.0), (near, 0.0)], 0.008142257405942804, 2),
        ([(-0.0019071029260054688, 0.0), (near, 0.0), (near, 0.5)], 0.008142257405942804, 6),
    ):
        p = PointSet2D(pts)
        assert close_pairs(p, Direction(0.0), delta) == want
        assert close_pairs_bruteforce(p, Direction(0.0), delta) == want
        assert oracles.brute_close_pairs(p.points.tolist(), 0.0, delta) == want


def test_close_pairs_matches_oracle_seeded():
    rng = np.random.default_rng(300)
    d = 2.0 ** -8
    pts = rng.uniform(0, 1, size=(300, 2))
    p = PointSet2D(pts)
    count = close_pairs(p, Direction(0.0), d)
    assert count == oracles.brute_close_pairs(p.points.tolist(), 0.0, d)
    assert count == close_pairs_bruteforce(p, Direction(0.0), d)


def test_close_pairs_sweep_oracle_equivalence_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 120))
        p = PointSet2D(rng.uniform(0, 1, size=(n, 2)))
        d = float(rng.choice([2.0 ** -k for k in range(4, 9)]))
        theta = float(rng.uniform(0, 2 * math.pi))
        assert close_pairs(p, Direction(theta), d) == close_pairs_bruteforce(p, Direction(theta), d)


@pytest.mark.parametrize("chunk", [1, 7 * 300, 2 ** 16])
def test_close_pairs_bruteforce_blocks_match_the_one_shot_count(monkeypatch, chunk):
    # rows compared 1, 7 (300 = 42·7 + a ragged 6) and 218 (218 + a ragged
    # 82) at a time; grid points tie, and sit exactly δ apart, at θ = 0, π/2
    rng = np.random.default_rng(29)
    d = 2.0 ** -6
    p = PointSet2D(np.vstack([rng.integers(0, 64, size=(150, 2)) * d, rng.uniform(0, 1, size=(150, 2))]))
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", chunk)
    for theta in (0.0, math.pi / 2, 0.7, 2.1):
        proj = projected_values(p.points, [theta])[0]
        want = int(np.count_nonzero(np.abs(proj[:, None] - proj[None, :]) <= d)) - proj.size
        assert close_pairs_bruteforce(p, Direction(theta), d) == want


def test_close_pairs_bruteforce_peak_memory_is_one_block():
    # 2,000 points: 32 MiB of differences at once, 512 KiB a block
    rng = np.random.default_rng(30)
    p, e, d = PointSet2D(rng.uniform(0, 1, size=(2000, 2))), Direction(0.4), 2.0 ** -8
    count, peak = oracles.traced_peak(lambda: close_pairs_bruteforce(p, e, d))
    assert count == close_pairs(p, e, d)
    assert peak <= 2 * 2 ** 20, peak


def test_cauchy_schwarz_examples():
    d = 2.0 ** -6
    # all-distinct cells: M = |P|, bound 0
    spread = PointSet2D([(k * 4 * d, 0.5) for k in range(10)])
    r = cauchy_schwarz_lower_bound(spread, Direction(0.0), d)
    assert r.tube_count == 10 and r.bound == pytest.approx(0.0) and r.actual >= 0
    # ten points in one tube: complete ordered pair count
    stack = PointSet2D([(0.5, k * d) for k in range(10)])
    r = cauchy_schwarz_lower_bound(stack, Direction(0.0), d)
    assert r.tube_count == 1 and r.bound == pytest.approx(90.0) and r.actual == 90


def test_cauchy_schwarz_seeded_directions():
    rng = np.random.default_rng(23)
    d = 2.0 ** -7
    p = PointSet2D(rng.uniform(0, 1, size=(300, 2)))
    for theta in rng.uniform(0, 2 * math.pi, size=5):
        r = cauchy_schwarz_lower_bound(p, Direction(theta), d)
        assert r.actual >= r.bound


def test_arc_bound_enumeration():
    # corrected constant: a delta-separated net meets the two arcs
    # {|pi_e(p-q)| <= delta} in at most 4/|p-q| + 4 directions
    d = 2.0 ** -8
    net = DirectionSet.net(int(2 * math.pi / d) - 3)
    spacing = net.min_angular_gap()
    assert spacing >= d
    rng = np.random.default_rng(24)
    for _ in range(20):
        p = rng.uniform(0, 1, size=2)
        q = rng.uniform(0, 1, size=2)
        dist = float(np.hypot(*(p - q)))
        if dist < 2 * d:
            continue
        hits = oracles.directions_hitting_pair(net.thetas.tolist(), p, q, d)
        assert len(hits) <= 4.0 / dist + 4.0


def test_kaufman_witness_line_and_two_points():
    d = 2.0 ** -6
    line = PointSet2D([(k * d, 0.0) for k in range(30)])
    e = DirectionSet([0.0, 0.3, 0.6])
    w = kaufman_witness(line, e, d)
    assert w.n == 30  # bi-Lipschitz projections keep all cells distinct
    two = PointSet2D([(0.1, 0.1), (0.8, 0.5)])
    for theta in [0.0, 1.0, 2.0]:
        n = kaufman_witness(two, DirectionSet([theta]), d).n
        assert n in (1, 2)


def test_kaufman_witness_exact_argmax_four_corner():
    d = 4.0 ** -4
    c = oracles.cantor_left_endpoints(0.25, 4)
    pts = PointSet2D([(x, y) for x in c for y in c])
    e = DirectionSet.net(math.ceil(d ** -0.7))
    witness = kaufman_witness(pts, e, d, s=0.7)
    sweep = [covering_number(project(pts, e[i]), d) for i in range(len(e))]
    assert witness.profile == tuple(sweep)
    assert witness.n == max(sweep)
    assert witness.index == sweep.index(max(sweep))


@pytest.mark.parametrize("j", range(2, 7))
def test_kaufman_profile_of_four_corner_on_the_diagonal_is_3_to_the_j(j):
    # x + y over K_j takes 3^j values (base-4 digits 0, 3 and 6) at least
    # 3·4^-j apart, each in its own 4^-j cell of (x + y)/√2: N = 3^j
    c = oracles.cantor_left_endpoints(0.25, j)
    pts = PointSet2D([(x, y) for x in c for y in c])
    e = DirectionSet([0.0, math.pi / 4, 1.0])
    assert kaufman_witness(pts, e, 4.0 ** -j).profile[1] == 3 ** j


def test_kaufman_witness_warns_on_fewer_directions_than_delta_pow_minus_s():
    d = 2.0 ** -6
    pts = PointSet2D([(0.1, 0.2), (0.7, 0.4)])
    with pytest.warns(UserWarning, match=r"^direction set of size 4 is below delta\^-s = 8$"):
        w = kaufman_witness(pts, DirectionSet.net(4), d, s=0.5)
    assert w.profile == kaufman_witness(pts, DirectionSet.net(4), d).profile
    kaufman_witness(pts, DirectionSet.net(8), d, s=0.5)  # 8 directions: no warning


def test_kaufman_witness_refuses_delta_pow_minus_s_past_float_range():
    # its check against len(E) raised OverflowError after the sweep
    with pytest.raises(ValueError, match=r"^delta\^-2.0 overflows a float at delta 1e-200$"):
        kaufman_witness(PointSet2D([(0.0, 0.0)]), DirectionSet.net(4), 1e-200, s=2.0)
    assert kaufman_witness(PointSet2D([(0.0, 0.0)]), DirectionSet.net(4), 1e-200).n == 1


def test_kaufman_witness_empty_errors():
    with pytest.raises(ValueError):
        kaufman_witness(PointSet2D([(0, 0)]), DirectionSet([]), 0.1)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, 2.5])
def test_kaufman_witness_refuses_an_exponent_outside_zero_to_two(s):
    with pytest.raises(ValueError, match=r"^exponent s must lie in \(0, 2\], got "):
        kaufman_witness(PointSet2D([(0, 0)]), DirectionSet.net(4), 0.1, s=s)
    with pytest.warns(UserWarning, match="below delta"):  # s = 2 itself is accepted
        kaufman_witness(PointSet2D([(0, 0)]), DirectionSet.net(4), 0.1, s=2.0)
