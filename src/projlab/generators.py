"""Deterministic, seeded construction of every test set the experiments
use: arithmetic progressions, Cantor-type sets, self-similar corner sets,
capped random branching sets, and planted collinear product instances.

All randomness flows through numpy SeedSequences keyed by (seed, path):
the branching generator's cell with path (c_1, ..., c_j) in attempt a draws
from exactly PCG64(SeedSequence(entropy=seed, spawn_key=(a, c_1, ..., c_j))),
whose state is derived from its parent's level by level instead of through
a SeedSequence per cell. A cell drawing fewer than 10 replays numpy's
integer urn sampler on arrays, bit for bit; the others call numpy's own
multivariate_hypergeometric. A planted fiber i draws from
SeedSequence(entropy=seed, spawn_key=(i,)).
"""

from __future__ import annotations

import math

import numpy as np

from .delta_core import (PointSet2D, ScalarSet, _check_depth, _dyadic_level, as_delta, as_exponent,
                         check_delta_t, delta_pow_minus)
from .errors import GeneratorError
from .product_construction import ProductLikeSet, build_product_like

RANDOM_FROSTMAN_RATIO_BOUND = 8.0
_MAX_REJECTION_ATTEMPTS = 100
# most points any generator builds: gen_ap (n), gen_cantor_1d (2^depth, so
# depth 22), gen_four_corner (4^depth, so depth 11), gen_random_frostman (n)
# and gen_planted_collinear (|B| · fiber size)
MAX_GENERATED_POINTS = 2 ** 22


def gen_ap(n: int, step: float, origin: float = 0.0) -> ScalarSet:
    """Arithmetic progression {origin + k·step : 0 <= k < n}; refused when
    step is below the float spacing near origin and terms round together."""
    if n < 1:
        raise ValueError("progression needs at least one term")
    _check_points(n, f"n {n}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not math.isfinite(origin):
        raise ValueError(f"origin must be finite, got {origin}")
    if not math.isfinite(origin + step * (n - 1)):
        raise ValueError(f"the last term origin + (n - 1)·step overflows at n {n}, step {step}")
    terms = ScalarSet(origin + step * np.arange(n))
    if len(terms) < n:
        raise ValueError(f"n {n} terms at step {step} from origin {origin} round to "
                         f"fewer distinct floats: {len(terms)}")
    return terms


def _check_points(count, what):
    """Reject `what`, which builds `count` points, before anything is built
    when the count exceeds MAX_GENERATED_POINTS."""
    if count > MAX_GENERATED_POINTS:
        raise ValueError(f"{what} builds {count} points, over the budget of {MAX_GENERATED_POINTS}")


def _check_budget(depth, bits):
    """Reject a depth whose (2^bits)^depth points exceed MAX_GENERATED_POINTS
    before anything is built."""
    if bits * depth > math.log2(MAX_GENERATED_POINTS):
        raise ValueError(f"depth {depth} builds 2^{bits * depth} points, over the "
                         f"budget of {MAX_GENERATED_POINTS}")


def gen_cantor_1d(contraction: float, depth: int) -> ScalarSet:
    """Left endpoints of the depth-th middle-Cantor iterate on [0, 1]."""
    if not 0.0 < contraction < 0.5:
        raise ValueError("contraction must lie in (0, 1/2)")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_budget(depth, 1)
    pts = np.zeros(1)
    for _ in range(depth):
        pts = np.concatenate([contraction * pts, (1.0 - contraction) + contraction * pts])
    return ScalarSet(pts)


def gen_four_corner(depth: int) -> PointSet2D:
    """Corner grid of the depth-th four-corner iterate: the product of two
    contraction-1/4 Cantor sets, 4^depth points, 4^-depth separated."""
    _check_budget(depth, 2)
    c = gen_cantor_1d(0.25, depth).values
    return PointSet2D(np.column_stack([np.repeat(c, c.size), np.tile(c, c.size)]),
                      separation=4.0 ** -depth)


# numpy's SeedSequence pool hash (pool size 4), PCG64 seeding and output,
# and its integer urn sampler, which _branching_points replays on arrays;
# tests/test_generators.py pins them against numpy's own
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# multivariate_hypergeometric's default method needs sum(colors) below this
_SAMPLER_COLOR_LIMIT = 10 ** 9
# numpy's random_hypergeometric takes its ratio-of-uniforms path (HRUA, with
# loggam and libm rounding) only for a sample of at least 10, and runs its
# integer urn sampler below that; a cell drawing fewer is replayed on arrays
_HRUA_MIN_SAMPLE = 10
_CHILDREN = np.arange(4)


def _uint32_words(value) -> int:
    """How many uint32 words SeedSequence splits a nonnegative int into."""
    return max(1, -(-int(value).bit_length() // 32))


def _pool_hash_calls(entropy, spawn_key) -> int:
    """Hash calls behind the pool of SeedSequence(entropy, spawn_key) for a
    nonempty spawn key: 16 to fill and mix the 4-word pool, then 4 per
    assembled entropy word past the fourth (the entropy is padded to 4)."""
    words = max(4, _uint32_words(entropy)) + sum(_uint32_words(w) for w in spawn_key)
    return 16 + 4 * (words - 4)


def _hashmix(value: int, calls: int) -> int:
    """SeedSequence's hash of one word as the pool hash's call `calls`
    (from 0); its constant depends only on how many calls came before."""
    const = _HASH_INIT_A * pow(_HASH_MULT_A, calls, 1 << 32) & _MASK32
    value = (value ^ const) * (const * _HASH_MULT_A & _MASK32) & _MASK32
    return value ^ (value >> 16)


def _child_pools(pools, calls):
    """Pools of the four children of each pool row, (m, 4) -> (m, 4, 4).

    A spawn word past the first four assembled entropy words is hashed once
    per pool word (calls `calls` to `calls + 3`) and mixed into that word,
    so child c's pool is its parent's with the word c mixed in. Values are
    32-bit words held in uint64, masked after every product."""
    hashed = np.array([[_hashmix(c, calls + i) for i in range(4)] for c in range(4)],
                      dtype=np.uint64)
    mixed = (_MIX_MULT_L * pools[:, None, :] - _MIX_MULT_R * hashed) & _MASK32
    return mixed ^ (mixed >> 16)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One step state·mult + inc of PCG64's 128-bit LCG on (hi, lo) uint64
    arrays; lo·mult_lo's high word is summed from 32-bit half products."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG64_MULT_LO & _MASK32, _PCG64_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    prod_lo = mid << 32 | p00 & _MASK32
    prod_hi = (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
               + hi * _PCG64_MULT_LO + lo * _PCG64_MULT_HI)
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _pcg64_states(pools):
    """(state hi, state lo, inc hi, inc lo) uint64 arrays of PCG64(ss) for
    the SeedSequence of each pool row: ss.generate_state(4, np.uint64)
    hashes the pool cycled to 8 words into (seed hi, seed lo, seq hi,
    seq lo), then PCG64 takes inc = 2·seq + 1 and state = (inc + seed)·mult
    + inc."""
    const = _HASH_INIT_B
    words = []
    for i in range(8):
        x = pools[:, i % 4] ^ const
        const = const * _HASH_MULT_B & _MASK32
        x = x * const & _MASK32
        words.append(x ^ (x >> 16))
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg64_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _urn_draws(hi, lo, inc_hi, inc_lo, cap, counts):
    """multivariate_hypergeometric([cap] * 4, count) of each cell, (m, 4),
    for cells whose PCG64 states are the (hi, lo, inc hi, inc lo) arrays,
    replayed bit for bit from numpy's C code. Every cell must draw fewer
    than _HRUA_MIN_SAMPLE after the flip below, so each of its
    random_hypergeometric calls runs the integer urn sampler.

    The marginals method draws min(count, 4·cap − count) (flipping the
    result when it took the second) as colors 0 to 2 in turn, each one
    hypergeometric(good = cap, bad = the colors after it, the draws left).
    The urn sampler draws min(sample, total − sample) balls one at a time,
    each a random_interval(balls left − 1): uint32 words masked to the
    bit length of that bound, rejected while above it. It stops early when
    no good ball is left. Here good ≤ bad and at most half the balls are
    drawn, so the bad balls never run out: numpy's stop on an urn of good
    balls only, and its tail for that urn, never act. A cell's uint32
    words are the low then the high half of each PCG64 output, in order
    across its three calls; the loop below takes one word for every cell
    still drawing.
    """
    hi, lo = hi.copy(), lo.copy()
    total = 4 * cap
    flip = counts > total // 2
    left = np.where(flip, total - counts, counts)
    alloc = np.empty((len(counts), 4), dtype=np.int64)
    buffered = np.zeros(len(counts), dtype=bool)    # numpy's has_uint32
    output = np.zeros(len(counts), dtype=np.uint64)  # each cell's last PCG64 output
    for color in range(3):
        balls = (4 - color) * cap
        urn_flip = left > balls // 2
        todo = np.where(urn_flip, balls - left, left)
        balls_left = np.full(len(counts), balls)
        good_left = np.full(len(counts), cap)
        drawing = np.flatnonzero(todo > 0)
        while drawing.size:
            stepped = ~buffered[drawing]
            fresh = drawing[stepped]
            new_hi, new_lo = _pcg64_step(hi[fresh], lo[fresh], inc_hi[fresh], inc_lo[fresh])
            hi[fresh], lo[fresh] = new_hi, new_lo
            # XSL-RR: hi ^ lo rotated right by the top 6 bits of the state
            x, rot = new_hi ^ new_lo, new_hi >> 58
            output[fresh] = x >> rot | x << ((64 - rot) & 63)
            word = np.where(stepped, output[drawing] & _MASK32, output[drawing] >> 32).astype(np.int64)
            buffered[drawing] = stepped
            # the 4·cap < _SAMPLER_COLOR_LIMIT < 2^32 balls keep random_interval
            # on its uint32 branch, whose mask needs no shift by 32
            bound = balls_left[drawing] - 1
            mask = bound
            for shift in (1, 2, 4, 8, 16):
                mask = mask | mask >> shift
            value = word & mask
            drawn = drawing[value <= bound]
            value = value[value <= bound]
            balls_left[drawn] -= 1
            good_left[drawn] -= value < good_left[drawn]
            todo[drawn] -= 1
            drawing = drawing[(todo[drawing] > 0) & (good_left[drawing] > 0)]
        alloc[:, color] = np.where(urn_flip, good_left, cap - good_left)
        left -= alloc[:, color]
    alloc[:, 3] = left
    return np.where(flip[:, None], cap - alloc, alloc)


def _branching_points(n, exponent, delta, seed, attempt):
    """One attempt of the capped dyadic branching process: every cell holding
    a count splits it among its four children with
    multivariate_hypergeometric([cap] * 4, count), cap = ceil((2^-j/δ)^exponent)
    at the children's level j, down to one point per occupied δ-cell.

    The cell with path (c_1, ..., c_j) draws from exactly
    PCG64(SeedSequence(entropy=seed, spawn_key=(attempt, c_1, ..., c_j))).
    Only the root's SeedSequence is built: the tree is walked one level at a
    time, and each level's pools and PCG64 states are derived on arrays from
    the level above. A cell drawing fewer than _HRUA_MIN_SAMPLE (count, or
    4·cap − count when that is smaller) is replayed on arrays by
    _urn_draws; the few others set one reused PCG64's state and call its
    Generator's multivariate_hypergeometric. Cells stay in lexicographic
    path order, so the points come out in the order of a depth-first walk.
    """
    d = as_delta(delta)
    levels, exact = _dyadic_level(d)
    if not exact:
        raise ValueError("branching generator needs an exactly dyadic delta")
    # the cell counters kx, ky at the last level are floor(x · 2^levels), x in [0, 1)
    _check_depth(levels, np.array([math.nextafter(1.0, 0.0)]))
    root_cap = math.ceil(d ** -exponent)
    if n > root_cap:
        raise ValueError(f"infeasible count: n = {n} exceeds the level-0 cap {root_cap}")
    child_caps = [math.ceil(((2.0 ** -level) / d) ** exponent) for level in range(1, levels + 1)]
    # the caps shrink with depth, so the root's draw has the largest total
    if 4 * child_caps[0] >= _SAMPLER_COLOR_LIMIT:
        raise ValueError(f"level 0 splits among 4 children of cap {child_caps[0]}, a cell total of "
                         f"{4 * child_caps[0]}; the sampler needs a total below {_SAMPLER_COLOR_LIMIT}")

    root = np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
    calls = _pool_hash_calls(root.entropy, root.spawn_key)
    bitgen = np.random.PCG64(root)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    pools = root.pool.astype(np.uint64)[None, :]
    counts = np.array([n], dtype=np.int64)
    kx = ky = np.zeros(1, dtype=np.int64)
    for cap in child_caps:
        pcg = _pcg64_states(pools)
        urn = np.minimum(counts, 4 * cap - counts) < _HRUA_MIN_SAMPLE
        alloc = np.empty((len(counts), 4), dtype=np.int64)
        alloc[urn] = _urn_draws(*(a[urn] for a in pcg), cap, counts[urn])
        for row in np.flatnonzero(~urn).tolist():
            s_hi, s_lo, i_hi, i_lo = (int(a[row]) for a in pcg)
            state["state"] = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
            bitgen.state = state
            alloc[row] = gen.multivariate_hypergeometric([cap] * 4, int(counts[row]))
        alloc = alloc.ravel()
        keep = np.flatnonzero(alloc)
        counts = alloc[keep]
        kx = (2 * kx[:, None] + (_CHILDREN & 1)).ravel()[keep]
        ky = (2 * ky[:, None] + (_CHILDREN >> 1)).ravel()[keep]
        pools = _child_pools(pools, calls).reshape(-1, 4)[keep]
        calls += 4
    return PointSet2D(np.column_stack((kx * d, ky * d)), separation=d, check=False)


def gen_random_frostman(n: int, exponent: float, delta, seed: int = 0) -> PointSet2D:
    """Seeded dyadic branching process respecting the per-cell caps
    ceil((2^-j/δ)^exponent), placing points at δ-cell corners; attempts are
    rejected until the (δ, exponent) scan passes with ratio <= 8."""
    if n < 1:
        raise ValueError("need at least one point")
    _check_points(n, f"n {n}")
    as_exponent(exponent, "exponent")
    d = as_delta(delta)
    for attempt in range(_MAX_REJECTION_ATTEMPTS):
        pts = _branching_points(n, exponent, d, seed, attempt)
        rep = check_delta_t(pts, d, exponent)
        if rep.worst_ratio <= RANDOM_FROSTMAN_RATIO_BOUND:
            return pts
    raise GeneratorError(f"random_frostman: no attempt met the ratio bound {RANDOM_FROSTMAN_RATIO_BOUND:g}")


def gen_planted_collinear(base: ScalarSet, slope: float, intercept: float, jitter: float,
                          seed: int = 0, delta=2.0 ** -10, s: float = 0.5, tau: float = 0.5,
                          fiber_size: int | None = None, fiber_step: float | None = None,
                          validate: bool = True) -> ProductLikeSet:
    """Product-like set whose fibers each contain the planted value
    intercept + slope·(b - b0) (b0 the least base point), shifted by a
    seeded per-fiber jitter of at most `jitter` (in [0, δ/2]).  A fiber
    holds `fiber_size` >= 1 values `fiber_step` > 0 apart.

    Every fiber is the same offset progression around its planted value,
    so entire progressions are collinear across fibers and the triple
    machinery provably fires when the planted line's normal direction is
    swept.
    """
    d = as_delta(delta)
    if not 0.0 <= jitter <= d / 2:
        raise ValueError(f"jitter must lie in [0, delta/2], got {jitter}")
    as_exponent(s, "exponent s")
    as_exponent(tau, "exponent tau")
    if fiber_step is None:
        fiber_step = math.sqrt(d)
    if fiber_size is None:
        fiber_size = max(1, round(delta_pow_minus(d, s) / 4))
    if fiber_size < 1:
        raise ValueError(f"fiber_size must be at least 1, got {fiber_size}")
    _check_points(len(base) * fiber_size,
                  f"fiber size {fiber_size} on {len(base)} base points at delta {d!r}")
    if not fiber_step > 0:
        raise ValueError(f"fiber_step must be positive, got {fiber_step}")
    b0 = base.values[0]
    half = (fiber_size - 1) / 2.0
    offsets = fiber_step * (np.arange(fiber_size) - math.floor(half))
    fibers = {}
    for i, b in enumerate(base):
        planted = intercept + slope * (b - b0)
        shift = 0.0
        if jitter > 0:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            shift = float(rng.uniform(-jitter, jitter))
        fibers[b] = ScalarSet(planted + shift + offsets)
    if validate:
        return build_product_like(base, fibers, d, s, tau)
    return ProductLikeSet(base, fibers, d, s, tau)
