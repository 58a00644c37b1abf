import math

import numpy as np
import pytest

from projlab.delta_core import Direction, DirectionSet, PointSet2D, covering_number, project
from projlab.errors import InvariantError, SeparationError
from projlab.incidence import (
    cauchy_schwarz_lower_bound,
    close_pairs,
    close_pairs_bruteforce,
    direction_sum_upper_bound,
    kaufman_witness,
    tube_cover,
)

import oracles


def test_tube_cover_counts():
    d = 2.0 ** -4
    assert len(tube_cover(PointSet2D([(0.3, 0.3)]), Direction(0.0), d)) == 1
    row = PointSet2D([(k * d, 0.0) for k in range(10)])
    assert len(tube_cover(row, Direction(0.0), d)) == 10
    assert len(tube_cover(row, Direction(math.pi / 2), d)) == 1


def test_tube_cover_partition():
    # half-open cells: every point lies in exactly one tube, and the tube
    # count matches the projection covering number
    rng = np.random.default_rng(21)
    d = 2.0 ** -5
    pts = PointSet2D(rng.uniform(0, 1, size=(80, 2)))
    for theta in [0.0, 0.4, 1.1, 2.9]:
        e = Direction(theta)
        fam = tube_cover(pts, e, d)
        assert len(fam) == covering_number(project(pts, e), d)
        for x, y in pts.points:
            assert sum(1 for t in fam.tubes if t.contains(x, y)) == 1


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


def test_direction_sum_trivial_and_separation():
    d = 2.0 ** -6
    p = PointSet2D([(0.0, 0.0), (0.9, 0.0)])
    rep = direction_sum_upper_bound(p, DirectionSet([0.0]), d)
    assert rep.lhs == 0
    with pytest.raises(SeparationError):
        direction_sum_upper_bound(p, DirectionSet([0.0, d / 10]), d)


def test_direction_sum_strict_mode():
    d = 2.0 ** -6
    stack = PointSet2D([(0.5, k * d) for k in range(10)])
    e = DirectionSet([0.0])
    # lhs = 90 ordered pairs; a deliberately tiny c trips the invariant
    with pytest.raises(InvariantError) as info:
        direction_sum_upper_bound(stack, e, d, c=1e-9, strict=True)
    assert (info.value.lhs, info.value.witness) == (90, 0)
    rep = direction_sum_upper_bound(stack, e, d, c=1.0, strict=True)
    assert rep.lhs == 90


def test_direction_sum_exhaustive_instance():
    d = 2.0 ** -6
    pts = PointSet2D([(k * d, (k * 7 % 64) * d) for k in range(64)])
    e = DirectionSet.net(32)
    rep = direction_sum_upper_bound(pts, e, d)
    brute = sum(
        oracles.brute_close_pairs(pts.points.tolist(), th, d) for th in e.thetas.tolist()
    )
    assert rep.lhs == brute
    assert rep.tally.total == sum(rep.tally.per_direction.values())
    assert rep.implied_c == pytest.approx(rep.lhs / (math.log(1 / d) ** 2 * d ** -2))


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


def test_kaufman_witness_empty_errors():
    with pytest.raises(ValueError):
        kaufman_witness(PointSet2D([(0, 0)]), DirectionSet([]), 0.1)
