import math
import re
import warnings

import numpy as np
import pytest

from projlab import generators
from projlab.delta_core import ScalarSet, check_delta_t
from projlab.additive import GridSet, sumset
from projlab.generators import (
    gen_ap,
    gen_cantor_1d,
    gen_four_corner,
    gen_planted_collinear,
    gen_random_frostman,
    _branching_points,
    _child_pools,
    _pcg64_states,
    _pool_hash_calls,
    _urn_draws,
)

import oracles


def test_gen_ap():
    assert list(gen_ap(1, 0.5, 0.3)) == [0.3]
    assert list(gen_ap(3, 0.25)) == [0.0, 0.25, 0.5]
    with pytest.raises(ValueError):
        gen_ap(0, 0.1)
    # sumset of an AP with itself occupies 2n-1 grid cells
    d = 2.0 ** -6
    a = GridSet.from_values(gen_ap(10, d).values, d)
    assert len(sumset(a, a, "+")) == 19


def test_gen_cantor_depths():
    assert list(gen_cantor_1d(0.25, 0)) == [0.0]
    got = list(gen_cantor_1d(0.25, 2))
    expected = oracles.cantor_left_endpoints(0.25, 2)
    assert got == expected == [0.0, 3.0 / 16, 3.0 / 4, 15.0 / 16]
    # the array build rounds as the list recursion does, bit for bit
    for contraction in (0.1, 0.3, 1.0 / 3.0, 0.45):
        for depth in range(11):
            assert list(gen_cantor_1d(contraction, depth)) == oracles.cantor_left_endpoints(contraction, depth)
    with pytest.raises(ValueError):
        gen_cantor_1d(0.5, 2)


def test_gen_cantor_nonconcentration():
    contraction, depth = 0.25, 5
    t = math.log(2) / math.log(1 / contraction)
    rep = check_delta_t(gen_cantor_1d(contraction, depth), contraction ** depth, t)
    assert rep.worst_ratio <= 4.0


def test_four_corner_counts_and_product_structure():
    assert len(gen_four_corner(0)) == 1
    assert len(gen_four_corner(2)) == 16
    d = 3
    c = gen_cantor_1d(0.25, d)
    pts = gen_four_corner(d)
    expected = sorted((x, y) for x in c for y in c)
    assert [tuple(p) for p in pts.points] == expected


def test_point_budget_bounds_cantor_and_four_corner_depth(monkeypatch):
    assert generators.MAX_GENERATED_POINTS == 2 ** 22
    with pytest.raises(ValueError, match=r"depth 23 builds 2\^23 points"):
        gen_cantor_1d(0.25, 23)
    with pytest.raises(ValueError, match=r"depth 12 builds 2\^24 points"):
        gen_four_corner(12)
    # at a budget of 2^4: cantor1d depth 4 and four_corner depth 2 are the deepest
    monkeypatch.setattr(generators, "MAX_GENERATED_POINTS", 2 ** 4)
    assert len(gen_cantor_1d(0.25, 4)) == 16 and len(gen_four_corner(2)) == 16
    with pytest.raises(ValueError, match="over the budget of 16"):
        gen_cantor_1d(0.25, 5)
    with pytest.raises(ValueError, match="over the budget of 16"):
        gen_four_corner(3)


def test_point_budget_bounds_ap_random_frostman_and_planted(monkeypatch):
    # at the budget of 2^22: 10^11 terms, and the default fiber sizes
    # round(δ^-s / 4) at δ = 1e-20, s = 1 and at δ = 1e-5, s = 2, refused
    # before numpy is asked for the array
    with pytest.raises(ValueError, match=r"^n 100000000000 builds 100000000000 points, over the "
                                         r"budget of 4194304$"):
        gen_ap(10 ** 11, 1e-12)
    base = ScalarSet([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=r"^fiber size 25000000000000000000 on 3 base points at delta "
                                         r"1e-20 builds 75000000000000000000 points, over the budget"):
        gen_planted_collinear(base, 0.5, 0.1, 0.0, delta=1e-20, s=1.0, validate=False)
    with pytest.raises(ValueError, match=r"^fiber size 2500000000 on 3 base points at delta 1e-05 "
                                         r"builds 7500000000 points, over the budget"):
        gen_planted_collinear(base, 0.5, 0.1, 0.0, delta=1e-5, s=2.0, validate=False)
    # at a budget of 2^4: 16 terms or points, and 3 fibers of 5, are the most
    monkeypatch.setattr(generators, "MAX_GENERATED_POINTS", 2 ** 4)
    d = 2.0 ** -10
    assert len(gen_ap(16, 0.5)) == 16 and len(gen_random_frostman(16, 1.0, d)) == 16
    assert len(gen_planted_collinear(base, 0.5, 0.1, 0.0, delta=d, fiber_size=5, validate=False)) == 15
    with pytest.raises(ValueError, match=r"^n 17 builds 17 points, over the budget of 16$"):
        gen_ap(17, 0.5)
    with pytest.raises(ValueError, match=r"^n 17 builds 17 points, over the budget of 16$"):
        gen_random_frostman(17, 1.0, d)
    with pytest.raises(ValueError, match=r"^fiber size 6 on 3 base points at delta 0.0009765625 "
                                         r"builds 18 points, over the budget of 16$"):
        gen_planted_collinear(base, 0.5, 0.1, 0.0, delta=d, fiber_size=6, validate=False)


@pytest.mark.parametrize("step, origin, message", [
    (math.inf, 0.0, "step must be positive and finite, got inf"),
    (math.nan, 0.0, "step must be positive and finite, got nan"),
    (-0.5, 0.0, "step must be positive and finite, got -0.5"),
    (0.5, math.inf, "origin must be finite, got inf"),
    (0.5, -math.inf, "origin must be finite, got -inf"),
    (0.5, math.nan, "origin must be finite, got nan"),
    (1e308, 0.0, "the last term origin + (n - 1)·step overflows at n 3, step 1e+308"),
    # steps below the float spacing: the terms wrote one row, or two
    (0.5, 1.7e308, "n 3 terms at step 0.5 from origin 1.7e+308 round to fewer distinct floats: 1"),
    (1.0, 2.0 ** 53, "n 3 terms at step 1.0 from origin 9007199254740992.0 round to fewer "
                     "distinct floats: 2"),
])
def test_gen_ap_names_a_step_or_origin_it_refuses(step, origin, message):
    # inf · arange warned before the set refused its non-finite values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_ap(3, step, origin)


def test_four_corner_nonconcentration():
    d = 4
    rep = check_delta_t(gen_four_corner(d), 4.0 ** -d, 1.0)
    assert rep.worst_ratio <= 4.0


def test_random_frostman_basic():
    d = 2.0 ** -8
    pts = gen_random_frostman(2 ** 8, 1.0, d, seed=1)
    assert len(pts) == 2 ** 8
    rep = check_delta_t(pts, d, 1.0)
    assert rep.worst_ratio <= 8.0
    single = gen_random_frostman(1, 1.0, d, seed=2)
    assert len(single) == 1


def test_random_frostman_deterministic():
    d = 2.0 ** -7
    a = gen_random_frostman(100, 1.0, d, seed=5)
    b = gen_random_frostman(100, 1.0, d, seed=5)
    assert np.array_equal(a.points, b.points)
    c = gen_random_frostman(100, 1.0, d, seed=6)
    assert not np.array_equal(a.points, c.points)


def test_random_frostman_full_grid_at_exponent_two():
    d = 2.0 ** -3
    pts = gen_random_frostman(64, 2.0, d, seed=3)
    grid = sorted((i * d, j * d) for i in range(8) for j in range(8))
    assert [tuple(p) for p in pts.points] == grid


def test_random_frostman_infeasible():
    with pytest.raises(ValueError):
        gen_random_frostman(10 ** 6, 1.0, 2.0 ** -6, seed=0)


BRANCHING_CASES = (
    [(4096, 1.5, 2.0 ** -10, seed, 0) for seed in range(10)]
    + [(256, 1.0, 2.0 ** -8, 1, attempt) for attempt in (1, 3)]
    + [(1, 1.0, 2.0 ** -5, 0, 1),
       (64, 2.0, 2.0 ** -3, 3, 0),      # every cell full
       (200, 2.0, 2.0 ** -4, 4, 2),     # the root draws more than half its total
       (2000, 1.2, 2.0 ** -14, 0, 0),
       (300, 1.0, 2.0 ** -9, 2 ** 40 + 7, 2)]  # two entropy words
)


@pytest.mark.parametrize("case", BRANCHING_CASES, ids=lambda c: "n{}-s{}-d{}-seed{}-a{}".format(
    c[0], c[1], round(-math.log2(c[2])), c[3], c[4]))
def test_branching_points_match_recursive_oracle(case):
    want = oracles.branching_points_recursive(*case)
    got = _branching_points(*case).points
    assert np.array_equal(got, want[np.lexsort((want[:, 1], want[:, 0]))])


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 127 + 3])
def test_derived_pools_and_pcg64_states_match_numpy(seed):
    rng = np.random.default_rng(seed % 1000)
    for _ in range(25):
        attempt = int(rng.integers(0, 2 ** 33))
        path = [int(c) for c in rng.integers(0, 4, int(rng.integers(0, 16)))]
        root = np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
        pools = root.pool.astype(np.uint64)[None, :]
        calls = _pool_hash_calls(seed, (attempt,))
        for child in path:
            pools = _child_pools(pools, calls)[:, child]
            calls += 4
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(attempt, *path))
        assert pools[0].tolist() == ss.pool.tolist()
        state = np.random.PCG64(ss).state["state"]
        hi, lo, inc_hi, inc_lo = (int(a[0]) for a in _pcg64_states(pools))
        assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (state["state"], state["inc"])


def _numpy_state(hi, lo, inc_hi, inc_lo):
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": int(hi) << 64 | int(lo), "inc": int(inc_hi) << 64 | int(inc_lo)}}


def test_urn_draws_replay_numpy_multivariate_hypergeometric():
    rng = np.random.default_rng(20)
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    urn_flips = buffered_starts = 0
    for cap in (1, 2, 3, 8, 23, 64, 182, 2 ** 20):
        # every count the replay takes, each from 20 random 128-bit (state, inc)
        counts = np.array([c for c in range(4 * cap + 1) if min(c, 4 * cap - c) < 10] * 20)
        assert (counts > 2 * cap).any()  # multivariate_hypergeometric's own flip
        states = rng.integers(0, 2 ** 64, size=(4, len(counts)), dtype=np.uint64)
        states[3] |= 1
        got = _urn_draws(*states, cap, counts)
        for count, state, row in zip(counts.tolist(), states.T, got):
            bitgen.state = _numpy_state(*state)
            assert row.tolist() == gen.multivariate_hypergeometric([cap] * 4, count).tolist()
            # the same draws as hypergeometric calls, to see what they covered
            bitgen.state = _numpy_state(*state)
            left = min(count, 4 * cap - count)
            for color in range(3):
                if left == 0:
                    break
                buffered_starts += color > 0 and bitgen.state["has_uint32"]
                urn_flips += left > (4 - color) * cap // 2
                left -= int(gen.hypergeometric(cap, (3 - color) * cap, left))
    assert urn_flips > 20 and buffered_starts > 500


def test_branching_points_route_only_large_draws_to_numpy(monkeypatch):
    case = (4096, 1.5, 2.0 ** -10, 0, 0)
    sampled, replayed = [], []

    class SpyGenerator:
        def __init__(self, bitgen, _generator=np.random.Generator):
            self._gen = _generator(bitgen)

        def multivariate_hypergeometric(self, colors, count):
            sampled.append((colors[0], count))
            return self._gen.multivariate_hypergeometric(colors, count)

    def spy_urn_draws(*args, _urn_draws=generators._urn_draws):
        replayed.append(len(args[-1]))
        return _urn_draws(*args)

    monkeypatch.setattr(np.random, "Generator", SpyGenerator)
    monkeypatch.setattr(generators, "_urn_draws", spy_urn_draws)
    got = _branching_points(*case).points
    monkeypatch.undo()
    assert sampled and all(min(count, 4 * cap - count) >= 10 for cap, count in sampled)
    # the cells that split are the occupied cells of levels 0 to 9
    k = np.round(got * 2 ** 10).astype(np.int64)
    cells = sum(len(np.unique(k >> (10 - j), axis=0)) for j in range(10))
    assert len(sampled) + sum(replayed) == cells
    want = oracles.branching_points_recursive(*case)
    assert np.array_equal(got, want[np.lexsort((want[:, 1], want[:, 0]))])


def test_random_frostman_sampler_limit():
    # at δ = 2^-16 the root's children are capped at ceil((2^15)^exponent)
    limit = "; the sampler needs a total below 1000000000$"
    with pytest.raises(ValueError, match="^level 0 splits among 4 children of cap 1073741824, "
                                         "a cell total of 4294967296" + limit):
        gen_random_frostman(10, 2.0, 2.0 ** -16, seed=0)
    with pytest.raises(ValueError, match="^level 0 splits among 4 children of cap 250000000, "
                                         "a cell total of 1000000000" + limit):
        gen_random_frostman(1, 1.8598235232143656, 2.0 ** -16, seed=0)
    # one cap lower, a total of 999,999,996, which the sampler takes
    assert len(gen_random_frostman(1, 1.859823522829647, 2.0 ** -16, seed=0)) == 1


def test_random_frostman_refuses_a_level_past_int64_counters():
    # at δ = 2^-70 the int64 cell counters wrapped past level 63 and the
    # points came out with negative coordinates
    for level in (64, 70):
        with pytest.raises(ValueError, match=f"^dyadic depth {level} takes floor\\(x \\* 2\\^{level}\\) "
                                             "out of int64 .* the largest usable depth is 63$"):
            gen_random_frostman(3, 0.1, 2.0 ** -level, seed=0)
    pts = gen_random_frostman(3, 0.1, 2.0 ** -63, seed=0).points
    assert len(pts) == 3 and pts.min() >= 0.0 and pts.max() < 1.0
    with pytest.raises(ValueError, match="^branching generator needs an exactly dyadic delta$"):
        gen_random_frostman(3, 0.1, 1e-310, seed=0)


def test_planted_collinear_exact_identity():
    base = ScalarSet([0.0, 0.5, 1.0])
    p = gen_planted_collinear(base, slope=1.0, intercept=0.2, jitter=0.0,
                              delta=2.0 ** -10, fiber_size=1, validate=False)
    planted = {b: p.fibers[b].values[0] for b in base}
    assert planted[0.0] == 0.2 and planted[0.5] == 0.7 and planted[1.0] == 1.2
    # x + ((b2-b1)/(b3-b2)) y with the planted pair equals the scaled middle
    from projlab.product_construction import triple_projection
    lhs = triple_projection(planted[0.0], planted[1.0], 0.0, 0.5, 1.0)
    assert lhs == pytest.approx(2.0 * planted[0.5], abs=1e-12)


def test_planted_collinear_slope_zero_constant():
    base = ScalarSet([0.0, 0.4, 0.8])
    p = gen_planted_collinear(base, slope=0.0, intercept=0.3, jitter=0.0,
                              delta=2.0 ** -8, fiber_size=1, validate=False)
    vals = {p.fibers[b].values[0] for b in base}
    assert vals == {0.3}


def test_planted_collinear_jitter_bound():
    base = ScalarSet([0.0, 0.5, 1.0])
    d = 2.0 ** -10
    with pytest.raises(ValueError):
        gen_planted_collinear(base, 1.0, 0.2, jitter=d, delta=d)
    # NaN and negative jitters drew no shift and wrote the jitter-free product
    for jitter in (math.nan, -1.0, -d):
        with pytest.raises(ValueError, match=r"^jitter must lie in \[0, delta/2\], got "):
            gen_planted_collinear(base, 1.0, 0.2, jitter=jitter, delta=d)


def test_planted_collinear_refuses_an_exponent_outside_zero_to_two():
    base = ScalarSet([0.0, 0.5, 1.0])
    d = 2.0 ** -10
    # checked before the fiber is sized: s = 3 would size each fiber at
    # round(δ^-3 / 4) = 2^28 values
    for value in (math.nan, math.inf, 0.0, -1.0, 3.0):
        for name in ("s", "tau"):
            with pytest.raises(ValueError, match=f"^exponent {name} must lie in \\(0, 2\\], got {value}$"):
                gen_planted_collinear(base, 1.0, 0.2, 0.0, delta=d, validate=False, **{name: value})
    p = gen_planted_collinear(base, 1.0, 0.2, 0.0, delta=d, s=2.0, tau=2.0, fiber_size=1, validate=False)
    assert (p.s, p.tau) == (2.0, 2.0)


def test_planted_collinear_refuses_a_default_fiber_size_past_float_range():
    # round(δ^-s / 4) raised OverflowError at δ = 1e-200, s = 2
    base = ScalarSet([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=r"^delta\^-2.0 overflows a float at delta 1e-200$"):
        gen_planted_collinear(base, 0.5, 0.1, 0.0, delta=1e-200, s=2.0, validate=False)


def test_planted_collinear_refuses_empty_or_unspaced_fibers():
    base = ScalarSet([0.0, 0.5, 1.0])
    d = 2.0 ** -10
    # fiber_size 0 wrote a product with no rows
    for size in (0, -3):
        with pytest.raises(ValueError, match=f"^fiber_size must be at least 1, got {size}$"):
            gen_planted_collinear(base, 1.0, 0.2, 0.0, delta=d, fiber_size=size, validate=False)
    for step in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match=f"^fiber_step must be positive, got {step}$"):
            gen_planted_collinear(base, 1.0, 0.2, 0.0, delta=d, fiber_step=step, validate=False)
    p = gen_planted_collinear(base, 0.5, 0.2, jitter=d / 2, seed=9, delta=d)
    for b in base:
        planted = 0.2 + 0.5 * b
        nearest = min(abs(v - planted) for v in p.fibers[b])
        assert nearest <= d / 2 + 1e-15
