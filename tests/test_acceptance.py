"""Acceptance suite: one test per shipped criterion, each printing a
PASS line (run with -s to see them inline) and asserting at the stated
tolerance.  Expected values come from the independent oracles in
oracles.py or from exact arithmetic, never from the code under test.
"""

import math
import time
from itertools import combinations

import numpy as np

from projlab.additive import GridSet, PairGraph, bsg_extract, plunnecke_report, sumset
from projlab.cli import main as cli_main
from projlab.delta_core import (
    Direction,
    DirectionSet,
    PointSet2D,
    ScalarSet,
    covering_number,
    project,
    projection_sweep,
)
from projlab.generators import gen_four_corner, gen_planted_collinear, gen_random_frostman
from projlab.incidence import (
    cauchy_schwarz_lower_bound,
    close_pairs,
    close_pairs_bruteforce,
    kaufman_witness,
)
from projlab.product_construction import (
    PairTubeIndex,
    ProductLikeSet,
    product_experiment,
    roughly_horizontal_filter,
    triple_intersections,
    triple_projection,
)
from projlab.scale_blowup import (
    rescaled_projection_identity,
    two_scale_decomposition,
)

import oracles


def report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_covering_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(20000 + seed)
        n = int(rng.integers(1, 501))
        vals = rng.uniform(0, 1, size=n)
        d = float(rng.choice([2.0 ** -k for k in range(3, 10)]))
        grid = covering_number(ScalarSet(vals), d)
        opt = oracles.greedy_interval_cover(vals, d)
        assert opt <= grid <= 2 * opt, f"seed {seed}: grid {grid} vs greedy {opt}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "covering-number oracle equivalence (100 seeds, <1s)")


def test_criterion_2_incidence_exactness():
    for seed in range(100):
        rng = np.random.default_rng(30000 + seed)
        n = int(rng.integers(2, 501))
        p = PointSet2D(rng.uniform(0, 1, size=(n, 2)))
        d = float(rng.choice([2.0 ** -k for k in range(4, 10)]))
        for theta in rng.uniform(0, 2 * math.pi, size=8):
            fast = close_pairs(p, Direction(theta), d)
            slow = close_pairs_bruteforce(p, Direction(theta), d)
            assert fast == slow, f"seed {seed} theta {theta}"
            cs = cauchy_schwarz_lower_bound(p, Direction(theta), d)
            assert cs.actual >= cs.bound - 1e-9
    report(2, "close-pairs sweep == quadratic oracle, Cauchy-Schwarz holds")


def test_criterion_3_kaufman_double_count():
    ratios = []
    for depth in (3, 4, 5):
        d = 4.0 ** -depth
        pts = gen_four_corner(depth)
        e = DirectionSet.net(math.ceil(d ** -0.7))
        lhs = int(projection_sweep(pts, e, d)[1].sum())
        ratios.append(lhs / (d ** -2 * math.log(1.0 / d) ** 2))
        witness = kaufman_witness(pts, e, d, s=0.7)
        sweep = [covering_number(project(pts, e[i]), d) for i in range(len(e))]
        assert witness.n == max(sweep) and witness.index == sweep.index(max(sweep))
    spread = max(ratios) / min(ratios)
    assert spread <= 4.0, f"ratio spread {spread:.3f} across scales"
    report(3, f"Kaufman double-count stable (spread {spread:.2f} <= 4), exact argmax")


def test_criterion_4_plunnecke_exhaustive():
    start = time.perf_counter()
    step = 2.0 ** -8
    count = 0
    for size in range(2, 11):
        for members in combinations(range(10), size):
            a = GridSet(members, step)
            for m in range(5):
                for n in range(5):
                    if not 1 <= m + n <= 4:
                        continue
                    rep = plunnecke_report(a, a, m, n)
                    assert rep.holds, f"counterexample A={members} m={m} n={n}"
                    count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(4, f"Plünnecke exhaustive suite ({count} instances, {elapsed:.1f}s < 10s)")


def test_criterion_5_bsg_validity():
    # complete-AP instance returns the full sets with sumset 2n-1
    n = 12
    ap = GridSet(range(n), 2.0 ** -8)
    complete = PairGraph(ap, ap, [(i, j) for i in range(n) for j in range(n)])
    res = bsg_extract(complete, 2.0)
    assert list(res.a_sub) == list(range(n)) and list(res.b_sub) == list(range(n))
    assert res.achieved_sumset == 2 * n - 1
    # 50 seeded hypothesis-satisfying graphs: reported stats recompute exactly
    for seed in range(50):
        rng = np.random.default_rng(40000 + seed)
        na, nb = int(rng.integers(4, 65)), int(rng.integers(4, 65))
        a = GridSet(range(na), 2.0 ** -8)
        b = GridSet(range(nb), 2.0 ** -8)
        density = float(rng.uniform(0.5, 1.0))
        mask = rng.random((na, nb)) < density
        edges = [(i, j) for i in range(na) for j in range(nb) if mask[i, j]]
        if not edges:
            continue
        k_density = (na * nb) / len(edges)
        k_sums = (na + nb - 1) / math.sqrt(na * nb)
        k = max(1.0, k_density, k_sums) * 1.05
        res = bsg_extract(PairGraph(a, b, edges), k)
        asel, bsel = set(res.a_sub), set(res.b_sub)
        edges_in = sum(1 for i, j in edges if i in asel and j in bsel)
        assert edges_in == res.edges_in_block
        assert res.achieved_edge_fraction == edges_in / (na * nb)
        assert res.achieved_density == edges_in / (len(res.a_sub) * len(res.b_sub))
        assert res.achieved_sumset == len(sumset(res.a_sub, res.b_sub, "+"))
    report(5, "BSG statistics recomputable on 50 seeds; complete-AP exact")


def test_criterion_6_product_identities():
    # triple projection at b = (0, 1/2, 1) is x + y to 1e-12
    rng = np.random.default_rng(50000)
    for x, y in rng.uniform(0, 1, size=(50, 2)):
        assert abs(triple_projection(x, y, 0.0, 0.5, 1.0) - (x + y)) <= 1e-12

    d = 2.0 ** -10
    base = ScalarSet([0.0, 0.5, 1.0])
    line_dir = math.atan2(-0.5, 1.0)

    # planted instance: count identity exact
    clean = gen_planted_collinear(base, 0.5, 0.1, 0.0, delta=d,
                                  fiber_size=8, fiber_step=16 * d, validate=False)
    e = DirectionSet([line_dir, 0.3])
    data = triple_intersections(PairTubeIndex(clean, e, d), 0.0, 0.5, 1.0)
    assert data.count_identity_holds and len(data.pairs) >= 8

    # seeded instances: identity on every scanned triple
    for seed in range(10):
        rng = np.random.default_rng(51000 + seed)
        sq = 2.0 ** -5
        bvals = np.sort(rng.choice(np.arange(0, 32), size=4, replace=False)) * sq
        inst_base = ScalarSet(bvals)
        fibers = {b: ScalarSet(np.sort(rng.choice(np.arange(0, 1024, 4), size=8,
                                                  replace=False)) * d)
                  for b in inst_base}
        inst = ProductLikeSet(inst_base, fibers, d, 0.5, 0.5)
        dirs = DirectionSet(rng.uniform(-0.5, 0.5, size=6))
        filt = roughly_horizontal_filter(inst, dirs)
        idx = PairTubeIndex(filt.product, filt.directions, d)
        bs = list(filt.product.base)
        for b1 in bs:
            for b2 in bs:
                for b3 in bs:
                    if len({b1, b2, b3}) != 3:
                        continue
                    data = triple_intersections(idx, b1, b2, b3)
                    assert data.count_identity_holds, f"seed {seed} triple {(b1, b2, b3)}"

    # planted-collinear compression within +2 cells of jitter-free at 2^-10
    from projlab.product_construction import compression_check

    dirty = gen_planted_collinear(base, 0.5, 0.1, d / 2, seed=3, delta=d,
                                  fiber_size=8, fiber_step=16 * d, validate=False)
    out = {}
    for tag, inst in (("clean", clean), ("dirty", dirty)):
        pairs = list(zip(inst.fibers[0.0].values.tolist(), inst.fibers[1.0].values.tolist()))
        out[tag], _ = compression_check(pairs, 0.0, 0.5, 1.0, d, 0.5)
    assert out["dirty"] <= out["clean"] + 2
    report(6, "product identities exact; compression stable under jitter")


def test_criterion_7_two_scale_pipeline():
    d = 2.0 ** -8
    frost = gen_random_frostman(2 ** 8, 1.0, d, seed=1)
    ts = two_scale_decomposition(frost, d, 1.0)
    assert ts.reports["coarse"].worst_ratio <= 8.0
    assert ts.reports["fine"].worst_ratio <= 8.0

    side = 2 ** 8
    grid = PointSet2D([(ix * d, iy * d) for ix in range(side) for iy in range(side)],
                      separation=d, check=False)
    ts = two_scale_decomposition(grid, d, 1.0)
    assert ts.reports["coarse"].worst_ratio <= 8.0
    assert ts.reports["fine"].worst_ratio <= 8.0

    report(7, "two-scale checks <= 8 on both inputs")


def make_grid_anchored_product(delta, seed):
    rng = np.random.default_rng(seed)
    sq = math.sqrt(delta)
    base = ScalarSet(np.sort(rng.choice(np.arange(1, int(1 / sq) - 1), size=5,
                                        replace=False)) * sq)
    fibers = {}
    for b in base:
        start = int(rng.integers(0, int(1 / delta) - 40))
        fibers[b] = ScalarSet((start + 4 * np.arange(8)) * delta)
    return ProductLikeSet(base, fibers, delta, 0.5, 0.5)


def test_criterion_8_dilation_exactness():
    d = 2.0 ** -8
    sq = math.sqrt(d)
    for seed in range(50):
        f = make_grid_anchored_product(d, 70000 + seed)
        rng = np.random.default_rng(71000 + seed)
        t = float(rng.uniform(0.0, sq))
        lhs, rhs = rescaled_projection_identity(f, t, d)
        assert lhs == rhs, f"seed {seed}: {lhs} != {rhs}"
    report(8, "rescaled projection identity exact on 50 seeds")


def test_criterion_9_product_experiment_lower_bound():
    d = 2.0 ** -8
    for seed in range(20):
        rng = np.random.default_rng(80000 + seed)
        f = make_grid_anchored_product(d, 81000 + seed)
        extra = rng.uniform(0.0, math.pi, size=7).tolist()
        e = DirectionSet([0.0] + extra)  # horizontal always present
        res = product_experiment(f, e, d, s=0.5, epsilon=0.0)
        floor = max(covering_number(fib, d) for fib in f.fibers.values())
        assert res.max_n >= floor, f"seed {seed}"
    report(9, "containment lower bound holds on 100% of seeded runs")


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert cli_main(["verify", "--output", str(out1)]) == 0
    assert cli_main(["verify", "--output", str(out2)]) == 0
    for name in ("verify_report.csv", "summary.txt"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert b1  # nonempty
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(10, f"verify byte-identical twice ({elapsed:.1f}s)")
