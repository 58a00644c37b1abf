import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import additive, delta_core
from projlab.additive import (
    GridSet,
    PairGraph,
    bsg_extract,
    iterated_sumset,
    plunnecke_report,
    snap,
    sumset,
)
from projlab.errors import BsgHypothesisError

import oracles

STEP = 2.0 ** -8


def gs(members):
    return GridSet(members, STEP)


def test_snap_basics():
    d = 2.0 ** -10
    assert snap(0.0, d) == 0
    assert snap(3 * d, d) == 3
    assert snap(3.7 * d, d) == 3
    assert snap(-0.1 * d, d) == -1


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000), st.floats(min_value=0.0, max_value=0.999))
def test_snap_idempotent_on_grid(k, frac):
    d = 2.0 ** -10
    assert snap(k * d + frac * d, d) == k


def test_sumset_ap_and_identity():
    n = 12
    a = gs(range(n))
    assert len(sumset(a, a, "+")) == 2 * n - 1
    assert list(sumset(gs([0]), a, "+")) == list(a)
    assert list(sumset(a, a, "-").members) == list(range(-(n - 1), n))


def test_sumset_matches_bruteforce_seeded():
    rng = np.random.default_rng(42)
    a = gs(rng.choice(201, size=40, replace=False))
    b = gs(rng.choice(201, size=40, replace=False))
    got = list(sumset(a, b, "+").members)
    assert got == oracles.brute_sumset(list(a), list(b), +1)
    got = list(sumset(a, b, "-").members)
    assert got == oracles.brute_sumset(list(a), list(b), -1)


def _route(a, b):
    """The route sumset(a, b, sign) takes, for either sign: 'sorted' when the
    sum's span passes 8|A||B|, else 'indicator' when L (the set with more
    members, B on a tie) spans at most 8|L|, else 'pair bitmap'."""
    def width(g):
        return int(g.members[-1]) - int(g.members[0]) + 1

    if width(a) + width(b) - 1 > 8 * len(a) * len(b):
        return "sorted"
    large = b if len(a) <= len(b) else a
    return "indicator" if width(large) <= 8 * len(large) else "pair bitmap"


def _watch_routes(monkeypatch):
    """Record each _pair_sum_blocks call and each sort in one list; returns
    a function naming the route that the events since the last call show."""
    events = []
    blocks, distinct = additive._pair_sum_blocks, additive._distinct
    monkeypatch.setattr(additive, "_pair_sum_blocks", lambda x, y: events.append("blocks") or blocks(x, y))
    monkeypatch.setattr(additive, "_distinct", lambda v: events.append("sort") or distinct(v))

    def route():
        seen = set(events)
        events.clear()
        if "sort" in seen:
            return "sorted"
        return "pair bitmap" if "blocks" in seen else "indicator"

    return route


@pytest.mark.parametrize("chunk", [1, 7, 2 ** 22])
def test_sumset_both_paths_match_bruteforce(monkeypatch, chunk):
    # chunk 7 splits rows of 3 sums into ragged blocks of 2 rows, and rows
    # of 10 sums into column blocks of 7 and 3
    monkeypatch.setattr(delta_core, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(17)
    dense = [gs(rng.choice(np.arange(-w, w), size=n, replace=False)) for n, w in ((3, 4), (10, 20), (25, 60))]
    sparse = [gs(rng.choice(np.arange(-w, w), size=n, replace=False)) for n, w in ((4, 30), (12, 150), (20, 250))]
    wide = [gs([0, 2 ** 40]), gs([-(2 ** 40), -7, 1, 2]), gs([-5, 0, 3, 2 ** 40, 2 ** 41 + 1])]
    route = _watch_routes(monkeypatch)
    covered = set()
    for a in dense + sparse + wide:
        for b in dense + sparse + wide:
            # every pair sum once, in blocks of at most CHUNK_ELEMENTS
            blocks = list(additive._pair_sum_blocks(a.members, b.members))
            assert max(block.size for block in blocks) <= chunk
            assert sorted(np.concatenate(blocks)) == sorted(np.add.outer(a.members, b.members).ravel())
            want = _route(a, b)
            for sign, sgn in (("+", 1), ("-", -1)):
                route()
                got = sumset(a, b, sign).members.tolist()
                assert got == oracles.brute_sumset(list(a), list(b), sgn)
                # the indicator route forms no pair sums, and only the
                # sorted route sorts
                assert route() == want, (list(a), list(b), sign)
            covered.add((want, np.sign(len(a) - len(b))))
    assert covered == {(r, c) for r in ("sorted", "indicator", "pair bitmap") for c in (-1, 0, 1)}
    for sign in ("+", "-"):
        assert len(sumset(gs([]), dense[0], sign)) == 0
        assert len(sumset(dense[0], gs([]), sign)) == 0
    assert len(iterated_sumset(gs(range(9)), 2, 1)) == oracles.ap_iterated_sumset_size(9, 2, 1)


def test_sumset_route_guards(monkeypatch):
    route = _watch_routes(monkeypatch)
    rng = np.random.default_rng(18)
    # a dense set with {0, 2**40}: the indicator route's bitmap over the
    # sum's span would take about 1 TiB, so the span bound must come first
    dense = gs(rng.choice(400, size=200, replace=False))
    far = gs([0, 2 ** 40])
    for a, b in ((dense, far), (far, dense)):
        for sign, sgn in (("+", 1), ("-", -1)):
            route()
            assert sumset(a, b, sign).members.tolist() == oracles.brute_sumset(list(a), list(b), sgn)
            assert route() == "sorted"
    # L = 40 members over a span of about 2,000 > 8 * 40, with the sum's
    # span inside 8|A||B|: the pair-sum bitmap stays
    spread = gs(rng.choice(2000, size=40, replace=False))
    few = gs(rng.choice(50, size=10, replace=False))
    for a, b in ((spread, few), (few, spread), (spread, spread)):
        assert _route(a, b) == "pair bitmap"
        for sign, sgn in (("+", 1), ("-", -1)):
            route()
            assert sumset(a, b, sign).members.tolist() == oracles.brute_sumset(list(a), list(b), sgn)
            assert route() == "pair bitmap"


def test_gridset_copies_and_freezes_only_its_own_members():
    arr = np.array([5, -3, 5, 0, -3, 9], dtype=np.int64)
    g = gs(arr)
    assert g.members.tolist() == [-3, 0, 5, 9]
    assert arr.tolist() == [5, -3, 5, 0, -3, 9] and arr.flags.writeable
    assert not g.members.flags.writeable
    done = np.array([-3, 0, 5, 9], dtype=np.int64)  # already sorted and distinct
    h = gs(done)
    assert h == g and not np.shares_memory(h.members, done)
    assert done.flags.writeable and not h.members.flags.writeable


def test_sumset_pair_bitmap_peak_memory_is_output_bitmap_and_one_block():
    # 1,800 members in [0, 10^6): 3.24 million pair sums, marked 2^16 at a
    # time in a bitmap of span 2·10^6 bytes, whose members become the
    # result's array without a copy
    rng = np.random.default_rng(0)
    a = gs(rng.choice(10 ** 6, size=1800, replace=False))
    assert _route(a, a) == "pair bitmap"
    want = sumset(a, a)
    got, peak = oracles.traced_peak(lambda: sumset(a, a))
    assert got == want and not got.members.flags.writeable
    span = 2 * (int(a.members[-1]) - int(a.members[0])) + 1
    assert peak <= got.members.nbytes + span + 2 * 2 ** 20, (peak, got.members.nbytes, span)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.1])
def test_gridset_refuses_a_step_that_is_not_finite_and_positive(step):
    # a NaN step built, and its sumset failed with "grid steps differ: nan vs nan"
    with pytest.raises(ValueError, match=f"^grid step must be a finite number > 0, got {step}$"):
        GridSet([1, 2], step)


def test_pair_graph_dedups_edges_in_lexicographic_order():
    rng = np.random.default_rng(5)
    a, b = gs([-4, 0, 7, 11, 30]), gs([2, 3, 50])
    edges = [tuple(e) for e in rng.integers(0, [5, 3], size=(40, 2)).tolist()]
    g = PairGraph(a, b, edges)
    assert [tuple(e) for e in g.edges.tolist()] == sorted(set(edges))
    assert not g.edges.flags.writeable
    want = sorted({a.members[i] + b.members[j] for i, j in edges})
    assert g.restricted_sums().tolist() == want
    with pytest.raises(ValueError, match="b_index"):
        PairGraph(a, b, edges + [(0, 3)])
    with pytest.raises(ValueError, match="a_index"):
        PairGraph(a, b, [(-1, 0)])


def test_sumset_commutes():
    rng = np.random.default_rng(43)
    a = gs(rng.choice(100, size=20, replace=False))
    b = gs(rng.choice(100, size=25, replace=False))
    assert list(sumset(a, b, "+").members) == list(sumset(b, a, "+").members)


def test_sumset_step_mismatch():
    with pytest.raises(ValueError):
        sumset(GridSet([0], 0.1), GridSet([0], 0.2))


def test_sumset_lower_bound_ap_equality_exhaustive():
    # |A+B| >= |A|+|B|-1, equality iff both are APs with the same difference
    universe = range(8)
    for size in range(2, 5):
        for a_m in combinations(universe, size):
            a = gs(a_m)
            s = len(sumset(a, a, "+"))
            assert s >= 2 * len(a) - 1
            diffs = {a_m[i + 1] - a_m[i] for i in range(len(a_m) - 1)}
            if len(diffs) == 1:
                assert s == 2 * len(a) - 1
            else:
                assert s > 2 * len(a) - 1


def test_iterated_sumset_basics():
    b = gs([0, 1])
    assert list(iterated_sumset(b, 2, 0)) == [0, 1, 2]
    assert list(iterated_sumset(b, 1, 1)) == [-1, 0, 1]
    assert list(iterated_sumset(b, 1, 0)) == [0, 1]
    with pytest.raises(ValueError):
        iterated_sumset(b, 0, 0)


def test_iterated_sumset_builds_each_fold_once_and_matches_brute_folds(monkeypatch):
    calls = []
    real = additive.sumset
    monkeypatch.setattr(additive, "sumset", lambda a, b, sign="+": calls.append(sign) or real(a, b, sign))
    rng = np.random.default_rng(16)
    pairs = [(m, n) for m in range(4) for n in range(4) if m + n]
    for _ in range(300):
        members = rng.choice(np.arange(-20, 21), size=rng.integers(0, 7), replace=False).tolist()
        folds = [[0]]
        for _ in range(3):
            folds.append(oracles.brute_sumset(folds[-1], members))
        for m, n in pairs:
            calls.clear()
            got = iterated_sumset(gs(members), m, n)
            assert list(got) == oracles.brute_sumset(folds[m], folds[n], -1) and got.step == STEP
            # one sumset per fold past B itself, then the difference
            assert calls == ["+"] * (max(m, n) - 1) + ["-"]


def test_iterated_sumset_sparse_difference_forms_no_pair_sums(monkeypatch):
    # B sparse in [0, 10**5): B + B marks pair sums, but 2B is dense in its
    # span, so 2B - B ORs 2B's indicator at the members of B
    b = gs(np.random.default_rng(19).choice(10 ** 5, size=240, replace=False))
    events = []
    real_sumset, real_blocks = additive.sumset, additive._pair_sum_blocks
    monkeypatch.setattr(additive, "sumset", lambda a, c, sign="+": events.append(sign) or real_sumset(a, c, sign))
    monkeypatch.setattr(additive, "_pair_sum_blocks", lambda x, y: events.append("blocks") or real_blocks(x, y))
    got = iterated_sumset(b, 2, 1)
    assert events == ["+", "blocks", "-"]
    two_b = oracles.brute_sumset(list(b), list(b))
    assert got.members.tolist() == oracles.brute_sumset(two_b, list(b), -1)


def test_iterated_sumset_ap_closed_form():
    for length in (1, 2, 5, 9):
        b = gs(range(length))
        for m in range(3):
            for n in range(3):
                if m + n == 0:
                    continue
                assert len(iterated_sumset(b, m, n)) == oracles.ap_iterated_sumset_size(length, m, n)


def test_plunnecke_report_examples():
    a = gs(range(10))
    rep = plunnecke_report(a, a, 1, 1)
    assert (rep.c, rep.lhs, rep.rhs, rep.holds) == (2, 19, 40, True)
    single = gs([0])
    rep = plunnecke_report(single, single, 1, 1)
    assert (rep.c, rep.lhs, rep.rhs, rep.holds) == (1, 1, 1, True)
    with pytest.raises(ValueError):
        plunnecke_report(gs([]), a, 1, 1)


def test_plunnecke_exhaustive_small():
    # sanity slice of the acceptance suite: all A = B in {0..6}, m, n <= 2
    for size in range(2, 8):
        for members in combinations(range(7), size):
            a = gs(members)
            for m in range(3):
                for n in range(3):
                    if m + n == 0:
                        continue
                    assert plunnecke_report(a, a, m, n).holds


def _complete_graph(n):
    a = gs(range(n))
    edges = [(i, j) for i in range(n) for j in range(n)]
    return PairGraph(a, a, edges)


def test_bsg_complete_ap():
    n = 8
    res = bsg_extract(_complete_graph(n), 2.0)
    assert list(res.a_sub) == list(range(n))
    assert list(res.b_sub) == list(range(n))
    assert res.achieved_sumset == 2 * n - 1
    assert res.edges_in_block == n * n
    assert res.achieved_edge_fraction == 1.0
    assert res.achieved_density == 1.0


def test_bsg_single_edge():
    a = gs([3])
    b = gs([5])
    res = bsg_extract(PairGraph(a, b, [(0, 0)]), 1.5)
    assert list(res.a_sub) == [3] and list(res.b_sub) == [5]
    assert res.achieved_sumset == 1


def test_bsg_hypothesis_violations():
    n = 8
    a = gs(range(n))
    sparse = PairGraph(a, a, [(0, 0)])
    with pytest.raises(BsgHypothesisError):
        bsg_extract(sparse, 2.0)  # too few edges for K = 2
    # spread sums: A far apart makes the restricted sumset too large
    spread = GridSet([4 ** i for i in range(6)], STEP)
    pg = PairGraph(spread, spread, [(i, j) for i in range(6) for j in range(6)])
    with pytest.raises(BsgHypothesisError):
        bsg_extract(pg, 1.0)
    with pytest.raises(BsgHypothesisError):
        bsg_extract(PairGraph(a, a, []), 2.0)
    with pytest.raises(ValueError):
        bsg_extract(sparse, 0.5)
    # every comparison with NaN is false: K = nan passed every hypothesis
    # check and read measured_exponent=inf; K = inf read 0.0
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^K must be a finite number >= 1, got {k}$"):
            bsg_extract(sparse, k)


def test_bsg_statistics_recomputable_seeded():
    rng = np.random.default_rng(99)
    for trial in range(20):
        n = int(rng.integers(6, 32))
        a = gs(range(n))
        keep = rng.random((n, n)) < 0.7
        edges = [(i, j) for i in range(n) for j in range(n) if keep[i, j]]
        g = PairGraph(a, a, edges)
        k = max(1.5, (n * n) / max(len(edges), 1) * 1.5)
        res = bsg_extract(g, k)
        # recompute all three reported statistics from (a_sub, b_sub, G)
        a_idx = {v: i for i, v in enumerate(a.members.tolist())}
        asel = {a_idx[v] for v in res.a_sub}
        bsel = {a_idx[v] for v in res.b_sub}
        edges_in = sum(1 for i, j in edges if i in asel and j in bsel)
        assert edges_in == res.edges_in_block
        assert res.achieved_edge_fraction == edges_in / (n * n)
        assert res.achieved_density == edges_in / (len(res.a_sub) * len(res.b_sub))
        assert res.achieved_sumset == len(sumset(res.a_sub, res.b_sub, "+"))


def test_bsg_deterministic():
    rng = np.random.default_rng(7)
    n = 16
    a = gs(range(n))
    edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.8]
    g = PairGraph(a, a, edges)
    r1 = bsg_extract(g, 2.0)
    r2 = bsg_extract(PairGraph(a, a, list(edges)), 2.0)
    assert list(r1.a_sub) == list(r2.a_sub)
    assert list(r1.b_sub) == list(r2.b_sub)
    assert r1 == r2


def test_bsg_planted_block_vs_exhaustive_oracle():
    # planted: complete AP block with small sums, plus strays with large
    # distinct sums; the extractor must recover the block's restricted sums
    block = list(range(5))  # indices 0..4 hold AP values 0..4
    stray_a = [40, 170, 391]  # Sidon-ish spread values
    a_vals = block + stray_a
    a = gs(a_vals)
    edges = [(i, j) for i in range(5) for j in range(5)]
    edges += [(5, 5), (6, 6), (7, 7)]
    g = PairGraph(a, a, edges)
    k = (8 * 8) / len(edges) * 1.3
    res = bsg_extract(g, k)
    planted_sums = sorted({x + y for x in block for y in block})
    got_edges = [(i, j) for i, j in edges if a_vals[i] in set(res.a_sub) and a_vals[j] in set(res.b_sub)]
    got_sums = sorted({a_vals[i] + a_vals[j] for i, j in got_edges})
    assert got_sums == planted_sums
    # exhaustive oracle: the planted block is the edge-maximal subset pair
    # among those with restricted sumset no larger than the planted one
    rows = [0] * 8
    for i, j in edges:
        rows[i] |= 1 << j
    best, _ = oracles.max_subgraph_edges_with_sum_bound(rows, a_vals, a_vals, len(planted_sums))
    assert best == 25
    assert len(got_edges) == best


def _spy_link_threshold(monkeypatch):
    """Record every `_median_threshold` result of a bsg_extract run; the
    second is the link threshold, read off the codegree matrix."""
    seen = []
    median = additive._median_threshold

    def spy(values):
        seen.append(median(values))
        return seen[-1]

    monkeypatch.setattr(additive, "_median_threshold", spy)
    return seen


@pytest.mark.parametrize("n_a", [1, 2, 3, 40, 41])
def test_bsg_link_threshold_is_the_upper_triangle_median(monkeypatch, n_a):
    rng = np.random.default_rng(300 + n_a)
    n_b = 24
    keep = rng.random((n_a, n_b)) < 0.4
    keep[0, 0] = True
    g = PairGraph(gs(range(n_a)), gs(range(n_b)), list(zip(*np.nonzero(keep))))
    seen = _spy_link_threshold(monkeypatch)
    bsg_extract(g, float(n_a * n_b))
    # the oracle: codegrees over the popular right vertices, one per pair i < j
    degrees = keep.sum(axis=0)
    popular = keep[:, degrees >= np.median(degrees[degrees > 0])].astype(int)
    upper = [int(popular[i] @ popular[j]) for i in range(n_a) for j in range(i + 1, n_a)]
    positive = [c for c in upper if c > 0]
    assert seen[1] == (float(np.median(positive)) if positive else None)
    assert (seen[1] is None) == (n_a == 1)


def test_bsg_link_threshold_is_none_when_no_left_pair_shares_a_right_vertex(monkeypatch):
    n = 6
    g = PairGraph(gs(range(n)), gs(range(n)), [(i, i) for i in range(n)])
    seen = _spy_link_threshold(monkeypatch)
    res = bsg_extract(g, float(n))
    # no link: every left vertex with an edge into the popular right vertices stays
    assert seen[1] is None
    assert list(res.a_sub) == list(range(n)) and list(res.b_sub) == list(range(n))
