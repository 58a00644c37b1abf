import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab.delta_core import DirectionSet, ScalarSet, covering_number
from projlab.errors import NonConcentrationError, SeparationError
from projlab.generators import gen_ap, gen_planted_collinear
from projlab.product_construction import (
    PairTubeIndex,
    ProductLikeSet,
    build_product_like,
    compression_check,
    good_triple_scan,
    product_experiment,
    roughly_horizontal_filter,
    triple_intersections,
    triple_projection,
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
    assert {b: len(f) for b, f in res.product.fibers.items()} == {b: len(f) for b, f in p.fibers.items()}


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
    index = PairTubeIndex(p, e, d)
    fam = index.family(0.0, 0.5)
    assert len(fam) >= 8  # every planted progression pair shares a tube
    empty = index.family(0.5, 0.5)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        index.family(0.0, 0.123)
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


def _table_cases():
    d = 2.0 ** -8
    base = ScalarSet([0.0, 0.2, 0.45, 0.7, 0.9])
    planted = gen_planted_collinear(base, slope=0.5, intercept=0.1, jitter=d / 4, seed=5,
                                    delta=d, fiber_size=6, fiber_step=16 * d, validate=False)
    # fibers closer than δ share vertical-direction cells across fibers
    close = ProductLikeSet(ScalarSet([0.0, 0.1, 0.2]), {0.0: ScalarSet([0.1, 0.3, 0.35]),
                                                        0.1: ScalarSet([0.12, 0.3]),
                                                        0.2: ScalarSet([0.6])}, 0.25, 0.5, 0.5)
    one = ProductLikeSet(ScalarSet([0.5]), {0.5: ScalarSet([0.1, 0.2, 0.6])}, 0.25, 0.5, 0.5)
    return {
        "planted": (planted, DirectionSet(np.append(np.linspace(-0.6, 0.6, 9), line_direction(0.5))), d),
        "near-vertical": (close, DirectionSet([math.pi / 2, math.pi / 2 - 1e-9, 0.0, 0.3]), 0.25),
        "no-directions": (planted, DirectionSet([]), d),
        "one-fiber": (one, DirectionSet([0.0, math.pi / 2]), 0.25),
    }


@pytest.mark.parametrize("case", sorted(_table_cases()))
def test_pair_tube_table_rows_match_oracle(case):
    p, e, d = _table_cases()[case]
    idx = PairTubeIndex(p, e, d)
    base = list(p.base)
    rows = idx.rows.tolist()
    assert rows == [[a, b] for b in base for a in p.fibers[b]]
    fiber = [base.index(y) for _, y in rows]
    table = idx.pair_tube
    assert table.dtype == np.int64 and table.shape == (len(table), 4)
    keys = [(fiber[i], fiber[j], di, k, i, j) for i, j, di, k in table.tolist()]
    assert keys == sorted(keys)
    assert all(i < j and fi < fj for fi, fj, _, _, i, j in keys)
    want = {}
    for f, b1 in enumerate(base):
        for b2 in base[f + 1:]:
            want.update(oracles.brute_tube_family(rows, e.thetas.tolist(), d, b1, b2))
    got = {(i, j): (di, k) for i, j, di, k in table.tolist()}
    assert got == want and len(table) == len(want)  # one row per related pair
    if case in ("no-directions", "one-fiber"):
        assert table.shape == (0, 4)
        assert len(idx.family(base[0], base[0])) == 0


def _scan_or_error(scan):
    try:
        return scan()
    except ValueError as err:
        return str(err)


@st.composite
def scan_products(draw):
    """1-7 fibers of 1-4 points on 1/16 grids, δ of 1/8 or 1/4 and up to 4
    directions on [0, π), near-vertical ones included: small enough for the
    loop oracle, coarse enough that families meet and repeat tubes."""
    def grid_values(count, step, top):
        return sorted(k * step for k in draw(st.lists(st.integers(0, top), min_size=count,
                                                      max_size=count, unique=True)))

    base = grid_values(draw(st.integers(1, 7)), 1 / 16, 16)
    fibers = {b: grid_values(draw(st.integers(1, 4)), 1 / 16, 15) for b in base}
    vertical = st.sampled_from([math.pi / 2, math.pi / 2 - 1e-9, math.pi / 2 + 1e-12])
    count = draw(st.integers(0, 4))
    thetas = draw(st.lists(st.floats(0.0, math.pi, exclude_max=True) | vertical,
                           min_size=count, max_size=count))
    return base, fibers, DirectionSet(thetas), draw(st.sampled_from([1 / 8, 1 / 4]))


@settings(max_examples=200, deadline=None)
@given(case=scan_products(), data=st.data())
def test_good_triple_scan_matches_loop_oracle(case, data):
    base, fibers, e, d = case
    p = ProductLikeSet(ScalarSet(base), {b: ScalarSet(f) for b, f in fibers.items()}, d, 0.5, 0.5)
    rows = [(a, b) for b in base for a in fibers[b]]
    thetas = e.thetas.tolist()
    # ties: the separation is a base gap, the threshold an intersection size
    separation = data.draw(st.sampled_from(sorted({abs(a - b) for a in base for b in base})))
    first = _scan_or_error(lambda: oracles.triple_scan_loop(rows, thetas, d, base, separation, 0.0))
    sizes = sorted({size for *_, size in first[0]}) if isinstance(first, tuple) else []
    threshold = float(data.draw(st.sampled_from(sizes or [0, 1])))
    want = _scan_or_error(lambda: oracles.triple_scan_loop(rows, thetas, d, base, separation, threshold))
    got = _scan_or_error(lambda: good_triple_scan(p, e, d, separation_min=separation, threshold=threshold))
    assert (got if isinstance(got, str) else (got.triples, got.total_intersections)) == want


def test_good_triple_scan_raises_for_the_first_family_the_loop_reads():
    # families (0.25, 0.625) and (0.375, 0.625) both repeat a tube; the loop's
    # first triple (0.25, 0.375, 0.625) reads the second as its (b2, b3)
    fibers = {0.25: [0.875], 0.375: [0.25], 0.625: [0.5, 0.625]}
    p = ProductLikeSet(ScalarSet(list(fibers)), {b: ScalarSet(f) for b, f in fibers.items()},
                       0.5, 0.5, 0.5)
    e = DirectionSet([1.0, 2.0])
    rows = [(a, b) for b, f in fibers.items() for a in f]
    for scan in (lambda: oracles.triple_scan_loop(rows, [1.0, 2.0], 0.5, list(fibers), 0.0, 1.0),
                 lambda: good_triple_scan(p, e, 0.5, separation_min=0.0)):
        with pytest.raises(ValueError, match=r"not injective at tube \(1, 0\)"):
            scan()
    with pytest.raises(ValueError, match=r"not injective at tube \(0, 1\)"):
        PairTubeIndex(p, e, 0.5).family(0.25, 0.625)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_good_triple_scan_matches_loop_oracle_on_benchmark_seeds(seed):
    # the benchmark's product-triples input: 24 fibers of 32 at δ = 2^-12, a
    # 63-direction net over [-0.6, 0.6] plus the planted line's normal
    d = 2.0 ** -12
    p = gen_planted_collinear(ScalarSet(np.arange(24) / 24), slope=0.5, intercept=0.1,
                              jitter=d / 4, seed=seed, delta=d, fiber_size=32, validate=False)
    e = DirectionSet(np.append(np.linspace(-0.6, 0.6, 63), line_direction(0.5)))
    scan = good_triple_scan(p, e, d)
    want = oracles.triple_scan_loop(p.point_rows().tolist(), e.thetas.tolist(), d, list(p.base),
                                    0.25, 1.0)
    assert (scan.triples, scan.total_intersections) == want
    assert len(scan.triples) > 0


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


@pytest.mark.parametrize("name", ["separation_min", "threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_good_triple_scan_rejects_non_finite_thresholds(name, value):
    p = collinear_instance()
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        good_triple_scan(p, DirectionSet([0.3]), D10, **{name: value})


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
    e = DirectionSet.net(16, span=math.pi)
    res = product_experiment(p, e, d, s=0.5, epsilon=0.0)
    floor = max(covering_number(f, d) for f in p.fibers.values())
    assert res.max_n >= floor
    assert len(res.profile) == 16
    assert res.witness is not None  # horizontal already reaches δ^-1/2 = 16
    # monotone in E: adding directions never lowers the max
    bigger = DirectionSet.net(32, span=math.pi)
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


def test_experiment_sweep_is_own_oracle_regression():
    d = D10
    base, fibers = ap_product(delta=d)
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    e = DirectionSet.net(math.ceil(d ** -0.5), span=math.pi)
    res = product_experiment(p, e, d, s=0.5, epsilon=0.0)
    repeat = product_experiment(p, e, d, s=0.5, epsilon=0.0)
    assert res == repeat
    assert res.max_n == max(n for _, n in res.profile)
    assert res.max_n >= 32  # δ^-1/2 cells along the horizontal sweep
