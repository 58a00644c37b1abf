import math

import numpy as np
import pytest

from projlab.delta_core import Direction, DirectionSet, ScalarSet, covering_number
from projlab.errors import NonConcentrationError, SeparationError
from projlab.generators import gen_ap, gen_planted_collinear
from projlab.product_construction import (
    PairTubeIndex,
    ProductLikeSet,
    affine_renormalize,
    build_product_like,
    compression_check,
    good_triple_scan,
    product_experiment,
    relation_graph,
    renormalized_directions,
    roughly_horizontal_filter,
    triple_intersections,
    triple_projection,
    tube_pair_family,
)

import oracles

D10 = 2.0 ** -10
SQ10 = 2.0 ** -5


def ap_product(delta=D10, step=None, b_count=None, a_count=None):
    """Product of √δ-spaced APs: the τ = s = 1/2 reference instance."""
    step = step if step is not None else math.sqrt(delta)
    b_count = b_count or round(1 / (2 * step))
    a_count = a_count or round(1 / (2 * step))
    base = gen_ap(b_count, step)
    fibers = {b: gen_ap(a_count, step) for b in base}
    return base, fibers


def test_build_product_like_single_point():
    with pytest.warns(UserWarning, match="degenerate single-point fiber at b = 0.0"):
        p = build_product_like(ScalarSet([0.0]), {0.0: ScalarSet([0.0])}, 0.25, 1.0, 1.0)
    assert len(p) == 1
    with pytest.warns(UserWarning, match="degenerate single-point fiber at b = 0.0"):
        reports = p.validate()
    assert all(r.worst_ratio == 1.0 for r in reports.values())


def test_build_product_like_ap_instance():
    base, fibers = ap_product()
    p = build_product_like(base, fibers, D10, 0.5, 0.5)
    reports = p.validate(max_ratio=4.0)
    assert reports["assembled"].worst_ratio <= 4.0


def test_build_product_like_rejects_crowded_fiber():
    base = gen_ap(4, 0.25)
    fibers = {b: gen_ap(8, SQ10) for b in base}
    fibers[0.0] = ScalarSet([0.5, 0.5 + D10 / 2])  # spacing δ/2
    with pytest.raises(SeparationError):
        build_product_like(base, fibers, D10, 0.5, 0.5)


def test_build_product_like_rejects_concentration():
    # heavy clustering at scale 2δ fails the fiber check with a witness
    base = gen_ap(3, 0.4)
    bad = ScalarSet(np.arange(64) * D10)  # a full δ-block: far too dense for s=1/2
    fibers = {b: bad for b in base}
    with pytest.raises(NonConcentrationError) as err:
        build_product_like(base, fibers, D10, 0.5, 0.5)
    assert err.value.report.witness_radius > 0


def test_roughly_horizontal_identity_for_e0():
    base, fibers = ap_product(delta=2.0 ** -8)
    p = ProductLikeSet(base, fibers, 2.0 ** -8, 0.5, 0.5)
    res = roughly_horizontal_filter(p, DirectionSet([0.0]))
    assert not res.degenerate
    assert len(res.directions) == 1
    assert res.product.fiber_sizes() == p.fiber_sizes()


def test_roughly_horizontal_drops_vertical():
    base, fibers = ap_product(delta=2.0 ** -8)
    p = ProductLikeSet(base, fibers, 2.0 ** -8, 0.5, 0.5)
    res = roughly_horizontal_filter(p, DirectionSet([math.pi / 2, math.pi / 2 + 0.1]))
    assert res.degenerate
    assert len(res.directions) == 0


def test_roughly_horizontal_tube_membership_exhaustive():
    d = 2.0 ** -8
    base = gen_ap(4, 0.25)
    fibers = {b: gen_ap(16, d) for b in base}  # δ-spaced: must be thinned
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    mixed = DirectionSet([0.0, 0.3, 1.0, math.pi / 2, 2.8])
    res = roughly_horizontal_filter(p, mixed)
    for b, f in res.product.fibers.items():
        assert len(f) >= len(fibers[b]) // 2
    from projlab.incidence import tube_cover
    for e in res.directions:
        for b, f in res.product.fibers.items():
            fam = tube_cover(res.product.points(), e, d)
            for t in fam.tubes:
                inside = [a for a in f if t.contains(a, b)]
                assert len(inside) <= 1


def test_relation_graph_single_tube_complete():
    d = 2.0 ** -6
    base = ScalarSet([0.0, 0.3, 0.6])
    fibers = {b: ScalarSet([0.5]) for b in base}  # all project to one cell at e=(1,0)
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    g = relation_graph(p, DirectionSet([0.0]), d)
    assert len(g.union_edges) == 3  # complete graph on 3 points, unordered
    assert g.q_ratio == pytest.approx(6 / 9)


def test_relation_graph_singleton():
    p = ProductLikeSet(ScalarSet([0.0]), {0.0: ScalarSet([0.2])}, 0.25, 1.0, 1.0)
    g = relation_graph(p, DirectionSet([0.0, 0.5]), 0.25)
    assert len(g.union_edges) == 0


def test_relation_graph_matches_triple_loop_oracle():
    d = 2.0 ** -8
    base = gen_ap(4, 0.25, 0.05)
    fibers = {b: gen_ap(8, 8 * d, (hash(str(b)) % 7) * d) for b in base}
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    e = DirectionSet([0.0, 0.05, 0.1, 2.9])
    g = relation_graph(p, e, d)
    rows = p.point_rows()
    # brute force: same floor cell, all direction/pair combinations
    union = set()
    per_dir_counts = {}
    for di, th in enumerate(e.thetas.tolist()):
        proj = rows @ np.array([math.cos(th), math.sin(th)])
        cells = np.floor(proj / d).astype(int)
        cnt = 0
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if cells[i] == cells[j]:
                    union.add((i, j))
                    cnt += 1
        per_dir_counts[di] = cnt
    assert g.union_edges == union
    for di, cnt in per_dir_counts.items():
        assert len(g.per_direction[di]) == cnt
    # edge symmetry is inherent in unordered storage; spot-check adjacency
    for (i, j) in list(g.union_edges)[:5]:
        assert (i, j) in g.union_edges and i < j


def collinear_instance(jitter=0.0, delta=D10, seed=0):
    base = ScalarSet([0.0, 0.5, 1.0])
    return gen_planted_collinear(base, slope=0.5, intercept=0.1, jitter=jitter,
                                 seed=seed, delta=delta, fiber_size=8,
                                 fiber_step=16 * delta, validate=False)


def line_direction(slope):
    # tubes perpendicular to e catch the line x = a + slope*y when e ∝ (1, -slope)
    return math.atan2(-slope, 1.0)


def test_tube_pair_family_basics():
    d = D10
    p = collinear_instance()
    e = DirectionSet([line_direction(0.5), 0.3])
    fam = tube_pair_family(p, 0.0, 0.5, e, d)
    assert len(fam) >= 8  # every planted progression pair shares a tube
    empty = tube_pair_family(p, 0.5, 0.5, e, d)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        tube_pair_family(p, 0.0, 0.123, e, d)
    # family size at least the related-pair count, exactly (injective map)
    assert len(fam.pair_to_tube) == len(fam.tube_to_pair)


def test_family_matches_quadratic_oracle_every_fiber_pair():
    d = 2.0 ** -8
    base = ScalarSet([0.0, 0.2, 0.45, 0.7, 0.9])
    p = gen_planted_collinear(base, slope=0.5, intercept=0.1, jitter=d / 4, seed=5,
                              delta=d, fiber_size=6, fiber_step=16 * d, validate=False)
    e = DirectionSet(np.append(np.linspace(-0.6, 0.6, 9), line_direction(0.5)))
    idx = PairTubeIndex(p, e, d)
    rows = p.point_rows().tolist()
    related = 0
    for b1 in base:
        for b2 in base:
            fam = idx.family(b1, b2)
            want = {} if b1 == b2 else oracles.brute_tube_family(rows, e.thetas.tolist(), d, b1, b2)
            assert fam.pair_to_tube == want
            assert fam.tube_to_pair == {tube: pair for pair, tube in want.items()}
            related += len(want)
    assert related > 0


def test_family_not_injective_names_the_tube():
    # θ = 0 tubes are vertical strips, and strip 0 holds both points of fiber 0
    fibers = {0.0: ScalarSet([0.1, 0.15]), 0.5: ScalarSet([0.2])}
    p = ProductLikeSet(ScalarSet([0.0, 0.5]), fibers, 0.25, 0.5, 0.5)
    idx = PairTubeIndex(p, DirectionSet([0.0]), 0.25)
    with pytest.raises(ValueError, match=r"not injective at tube \(0, 0\)"):
        idx.family(0.0, 0.5)


def test_triple_intersections_two_middle_points_names_the_tube():
    # all three base points share cell 0 at θ = π/2 (direction 1), so tube
    # (1, 0) holds every point; θ = 0 (direction 0) ties 0.1 to 0.2 and 0.6 to
    # 0.7 first, which leaves (0.1, 0.6) and (0.2, 0.7) to tube (1, 0)
    fibers = {0.0: ScalarSet([0.1]), 0.05: ScalarSet([0.2, 0.6]), 0.1: ScalarSet([0.7])}
    p = ProductLikeSet(ScalarSet([0.0, 0.05, 0.1]), fibers, 0.25, 0.5, 0.5)
    e = DirectionSet([0.0, math.pi / 2])
    with pytest.raises(ValueError, match=r"tube \(1, 0\) holds two distinct middle-fiber"):
        triple_intersections(p, 0.0, 0.05, 0.1, e, 0.25)


def test_triple_intersections_planted_line():
    d = D10
    p = collinear_instance()
    e = DirectionSet([line_direction(0.5), 0.3])
    data = triple_intersections(p, 0.0, 0.5, 1.0, e, d)
    assert data.count_identity_holds
    assert len(data.pairs) >= 8  # the shared tubes of the planted family
    # geometry oracle: every extracted (a1, a3) pair really shares a tube
    # with a middle point: check collinearity within tube width tolerance
    for (a1, a3), a2 in zip(data.pairs, data.middles):
        line_mid = (a1 + a3) / 2.0  # b2 is the midpoint of b1, b3 here
        assert abs(line_mid - a2) <= 2 * d / abs(math.cos(line_direction(0.5)))


def test_triple_intersections_singleton_planted():
    # one collinear point per fiber: exactly one shared tube, |G'| = 1
    d = D10
    base = ScalarSet([0.0, 0.5, 1.0])
    p = gen_planted_collinear(base, slope=0.5, intercept=0.3, jitter=0.0,
                              delta=d, fiber_size=1, validate=False)
    e = DirectionSet([line_direction(0.5)])
    data = triple_intersections(p, 0.0, 0.5, 1.0, e, d)
    assert len(data.shared_tubes) == 1
    assert len(data.pairs) == 1


def test_triple_intersections_disjoint():
    d = 2.0 ** -8
    base = ScalarSet([0.0, 0.45, 0.9])
    fibers = {0.0: ScalarSet([0.1]), 0.45: ScalarSet([0.5]), 0.9: ScalarSet([0.95])}
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    e = DirectionSet([0.7])  # no shared tubes in a skew direction
    data = triple_intersections(p, 0.0, 0.45, 0.9, e, d)
    assert data.pairs == () and data.shared_tubes == ()
    with pytest.raises(ValueError):
        triple_intersections(p, 0.0, 0.0, 0.9, e, d)


def test_triple_intersections_full_ap_product_pinned():
    d = 2.0 ** -8
    base = ScalarSet([0.0, 0.5, 1.0])
    fibers = {b: gen_ap(8, 16 * d, 0.1 + 0.5 * b) for b in base}  # slope 1/2 planted AP
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    e = DirectionSet([line_direction(0.5)])
    idx = PairTubeIndex(p, e, d)
    data = triple_intersections(p, 0.0, 0.5, 1.0, e, d, index=idx)
    # exhaustive: count tubes shared by both families directly
    f12 = idx.family(0.0, 0.5).tubes
    f23 = idx.family(0.5, 1.0).tubes
    assert len(data.shared_tubes) == len(f12 & f23)
    assert data.count_identity_holds
    assert len(data.pairs) == 8  # frozen: one shared tube per progression index


def test_triple_projection_formula():
    assert triple_projection(0.3, 0.4, 0.0, 0.5, 1.0) == pytest.approx(0.7, abs=1e-12)
    assert triple_projection(0.3, 99.0, 0.2, 0.2, 1.0) == 0.3  # b2 == b1: coefficient 0
    with pytest.raises(ZeroDivisionError):
        triple_projection(0.0, 0.0, 0.1, 0.5, 0.5)


def test_good_triple_scan_filters():
    d = D10
    p = collinear_instance()
    e = DirectionSet([line_direction(0.5), 0.3])
    scan = good_triple_scan(p, e, d, separation_min=2.0, threshold=0.0)
    assert scan.triples == ()
    scan = good_triple_scan(p, e, d, separation_min=0.0, threshold=0.0)
    assert len(scan.triples) == 3 * 2 * 1
    scan = good_triple_scan(p, e, d, separation_min=0.25, threshold=8.0)
    assert all(size >= 8 for *_, size in scan.triples)
    idx = PairTubeIndex(p, e, d)
    for b1, b2, b3, size in scan.triples:
        assert size == len(idx.family(b1, b2).tubes & idx.family(b2, b3).tubes)


def test_compression_check_trivial_and_planted():
    d = D10
    assert compression_check([], 0.0, 0.5, 1.0, d, 0.5) == (0, d ** -0.5)
    n, bound = compression_check([(0.2, 0.4)], 0.0, 0.5, 1.0, d, 0.5)
    assert n == 1
    # planted family compresses to about the middle fiber's covering number
    p = collinear_instance()
    e = DirectionSet([line_direction(0.5)])
    data = triple_intersections(p, 0.0, 0.5, 1.0, e, d)
    n, _ = compression_check(data.pairs, 0.0, 0.5, 1.0, d, 0.5)
    mid_cover = covering_number(p.fibers[0.5], d)
    assert n <= mid_cover + 2


def planted_pairs(inst, b1, b3):
    """The planted family: same progression index in the two outer fibers."""
    f1, f3 = inst.fibers[b1].values, inst.fibers[b3].values
    return list(zip(f1.tolist(), f3.tolist()))


def test_compression_jitter_within_two_cells():
    d = D10
    clean = collinear_instance(jitter=0.0)
    dirty = collinear_instance(jitter=d / 2, seed=11)
    out = {}
    for tag, inst in (("clean", clean), ("dirty", dirty)):
        out[tag], _ = compression_check(planted_pairs(inst, 0.0, 1.0), 0.0, 0.5, 1.0, d, 0.5)
    assert out["dirty"] <= out["clean"] + 2
    assert out["clean"] <= out["dirty"] + 2


def test_product_experiment_contains_horizontal_bound():
    d = 2.0 ** -8
    base = gen_ap(4, 0.25, 0.01)
    fibers = {b: gen_ap(16, math.sqrt(d), 0.0) for b in base}
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    e = DirectionSet.net(16, anchor=0.0, span=math.pi)
    res = product_experiment(p, e, d, s=0.5, epsilon=0.0)
    floor = max(covering_number(f, d) for f in p.fibers.values())
    assert res.max_n >= floor
    assert len(res.profile) == 16
    assert res.witness is not None  # horizontal already reaches δ^-1/2 = 16
    # monotone in E: adding directions never lowers the max
    bigger = DirectionSet.net(32, anchor=0.0, span=math.pi)
    res2 = product_experiment(p, bigger, d, s=0.5, epsilon=0.0)
    assert res2.max_n >= res.max_n


def test_product_experiment_degenerate_single_fiber():
    d = 2.0 ** -8
    p = ProductLikeSet(ScalarSet([0.5]), {0.5: gen_ap(16, math.sqrt(d))}, d, 0.5, 0.0)
    res = product_experiment(p, DirectionSet([0.0]), d, s=0.5)
    assert res.max_n == covering_number(p.fibers[0.5], d)


def test_product_experiment_empty_direction_set():
    d = 2.0 ** -8
    p = ProductLikeSet(ScalarSet([0.5]), {0.5: gen_ap(16, math.sqrt(d))}, d, 0.5, 0.0)
    with pytest.warns(UserWarning, match="vacuous"):
        res = product_experiment(p, DirectionSet([]), d, s=0.5)
    assert res.profile == () and res.max_n == 0 and res.witness is None


def test_affine_renormalization_preserves_covering():
    d = 2.0 ** -8
    rng = np.random.default_rng(31)
    base = gen_ap(5, 0.2, 0.05)
    fibers = {b: ScalarSet(np.sort(rng.choice(np.arange(256), size=10, replace=False)) * d)
              for b in base}
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    for theta in (0.1, 0.7, -0.4):
        e0 = Direction(theta)
        q = affine_renormalize(p, e0)
        n_orig = covering_number(
            ScalarSet(p.point_rows() @ np.array([e0.ex, e0.ey])), d)
        n_horiz = covering_number(ScalarSet(q.point_rows()[:, 0]), d)
        assert n_horiz <= 2 * n_orig and n_orig <= 2 * n_horiz
        # the general direction transfer: projections onto the transformed
        # raw vectors reproduce the original projection values
        e_set = DirectionSet([0.2, 0.9, 2.5])
        vs = renormalized_directions(e_set, e0)
        for k in range(len(e_set)):
            orig = np.sort(p.point_rows() @ e_set.vectors()[k])
            moved = np.sort(q.point_rows() @ vs[k])
            assert np.max(np.abs(orig - moved)) < 1e-12
    with pytest.raises(ValueError):
        affine_renormalize(p, Direction(math.pi / 2))


def test_experiment_sweep_is_own_oracle_regression():
    d = D10
    base, fibers = ap_product(delta=d)
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    e = DirectionSet.net(math.ceil(d ** -0.5), anchor=0.0, span=math.pi)
    res = product_experiment(p, e, d, s=0.5, epsilon=0.0)
    repeat = product_experiment(p, e, d, s=0.5, epsilon=0.0)
    assert res == repeat
    assert res.max_n == max(n for _, n in res.profile)
    assert res.max_n >= 32  # δ^-1/2 cells along the horizontal sweep
