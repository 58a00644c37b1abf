"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written without importing the package's
fast paths: plain loops and exhaustive searches, or a quadratic numpy twin
of a pruned kernel, so the two routes stay independent.
"""

import math

import numpy as np


def greedy_interval_cover(values, delta):
    """Exact minimum number of closed length-delta intervals covering values."""
    vals = sorted(set(float(v) for v in values))
    count = 0
    i = 0
    n = len(vals)
    while i < n:
        count += 1
        limit = vals[i] + delta
        while i < n and vals[i] <= limit:
            i += 1
    return count


def exhaustive_interval_cover(values, delta):
    """Exponential search over covers whose intervals start at set points.

    An optimal cover exists with every interval's left endpoint at a point,
    so this is exact; only usable for tiny inputs.
    """
    vals = sorted(set(float(v) for v in values))
    n = len(vals)
    best = [n]

    def rec(start, used):
        if used >= best[0]:
            return
        if start >= n:
            best[0] = used
            return
        # the next interval must cover vals[start]; any anchor in
        # [vals[start]-delta, vals[start]] that is itself a point works
        for a in range(start, -1, -1):
            if vals[a] < vals[start] - delta:
                break
            limit = vals[a] + delta
            if limit < vals[start]:
                continue
            nxt = start
            while nxt < n and vals[nxt] <= limit:
                nxt += 1
            rec(nxt, used + 1)

    rec(0, 0)
    return best[0]


def brute_close_pairs(points, theta, delta):
    """Ordered pairs p != q with |pi_e(p) - pi_e(q)| <= delta, O(n^2)."""
    c, s = math.cos(theta), math.sin(theta)
    proj = [x * c + y * s for x, y in points]
    n = len(proj)
    count = 0
    for i in range(n):
        for j in range(n):
            if i != j and abs(proj[i] - proj[j]) <= delta:
                count += 1
    return count


def greedy_separated(points, thresh):
    """The points (coordinate lists, in their given order) that a greedy
    pass keeps: a point is kept unless an earlier kept point lies at
    `math.hypot` distance below `thresh`."""
    kept = []
    for p in points:
        if all(math.hypot(*(a - b for a, b in zip(p, q))) >= thresh for q in kept):
            kept.append(p)
    return kept


def brute_sumset(a_members, b_members, sign=1):
    return sorted({a + sign * b for a in a_members for b in b_members})


def brute_nonconcentration(coords, delta, t):
    """Max of |P ∩ B(x,r)| / (r/delta)^t over centers in P, dyadic closed balls,
    and its witness (x, r): the first center, then the smallest radius.
    Squares are products, each rounded once (`** 2` goes through `pow`,
    which can round the other way)."""
    pts = [tuple(p) if hasattr(p, "__len__") else (float(p),) for p in coords]
    radii = []
    r = delta
    while r <= 1.0:
        radii.append(r)
        r *= 2.0
    if radii[-1] < 1.0:
        radii.append(1.0)
    worst = 0.0
    witness = None
    for x in pts:
        for r in radii:
            c = 0
            for p in pts:
                dist = math.sqrt(sum((a - b) * (a - b) for a, b in zip(x, p)))
                if dist <= r:
                    c += 1
            ratio = c / (r / delta) ** t
            if ratio > worst:
                worst = ratio
                witness = (x, r)
    return worst, witness


def quadratic_nonconcentration(coords, delta, t, chunk_elements=2 ** 22):
    """The quadratic twin of `check_delta_t`: (worst_ratio, witness_center,
    witness_radius) from the full distance matrix, in row blocks of at most
    `chunk_elements` distances, each row sorted once.  Same arithmetic as
    the scan (abs in 1-D, einsum and sqrt in 2-D, `<= r` by searchsorted,
    counts / (r/delta)^t), so the reports agree bit for bit; the first
    center in index order attaining the worst ratio, then its smallest
    radius, is the witness."""
    pts = np.asarray(coords, dtype=np.float64)
    pts = pts.reshape(len(pts), -1)
    n = pts.shape[0]
    radii = []
    r = delta
    while r <= 1.0:
        radii.append(r)
        r *= 2.0
    if radii[-1] < 1.0:
        radii.append(1.0)
    radii = np.asarray(radii)
    powers = (radii / delta) ** t
    worst = -1.0
    witness = (0, 0.0)
    chunk = max(1, min(n, chunk_elements // n))
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]
        if pts.shape[1] == 1:
            dists = np.abs(block[:, 0][:, None] - pts[:, 0][None, :])
        else:
            diff = block[:, None, :] - pts[None, :, :]
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dists.sort(axis=1)
        for bi in range(block.shape[0]):
            counts = np.searchsorted(dists[bi], radii, side="right")
            ratios = counts / powers
            k = int(np.argmax(ratios))
            if ratios[k] > worst:
                worst = float(ratios[k])
                witness = (start + bi, float(radii[k]))
    return worst, tuple(pts[witness[0]].tolist()), witness[1]


def cantor_left_endpoints(contraction, depth):
    """4-line recursion for the depth-th middle-Cantor left endpoints."""
    pts = [0.0]
    for _ in range(depth):
        pts = [contraction * x for x in pts] + [1.0 - contraction + contraction * x for x in pts]
    return sorted(pts)


def interval_union_measure(values, delta):
    """Lebesgue measure of the union of [v, v+delta) half-open grid cells
    occupied by values, via explicit merged-interval sweep."""
    cells = sorted({math.floor(v / delta) for v in values})
    return delta * len(cells)


def max_subgraph_edges_with_sum_bound(rows, a_vals, b_vals, sum_bound_size):
    """Exhaustive search: max edges over subset pairs (A', B') whose
    restricted sumset has at most `sum_bound_size` distinct values.

    rows[i] is a bitmask of B-neighbors of a_i.  Exponential; keep |A|,|B|
    at 8 or below.
    """
    n_a, n_b = len(a_vals), len(b_vals)
    best = 0
    best_pair = (0, 0)
    for a_mask in range(1, 1 << n_a):
        arows = [(i, rows[i]) for i in range(n_a) if a_mask >> i & 1]
        for b_mask in range(1, 1 << n_b):
            edges = 0
            sums = set()
            for i, row in arows:
                hits = row & b_mask
                edges += bin(hits).count("1")
                for j in range(n_b):
                    if hits >> j & 1:
                        sums.add(a_vals[i] + b_vals[j])
            if len(sums) <= sum_bound_size and edges > best:
                best = edges
                best_pair = (a_mask, b_mask)
    return best, best_pair


def directions_hitting_pair(thetas, p, q, delta):
    """Enumerate directions with |pi_e(p - q)| <= delta."""
    vx, vy = p[0] - q[0], p[1] - q[1]
    hits = []
    for th in thetas:
        if abs(vx * math.cos(th) + vy * math.sin(th)) <= delta:
            hits.append(th)
    return hits


def brute_dyadic_masses(points, weights, j):
    """Summed weight of each occupied level-j dyadic cell, keyed by
    (floor(x * 2^j), floor(y * 2^j)); weights are added in point order."""
    masses = {}
    for (x, y), w in zip(points, weights):
        key = (math.floor(x * 2 ** j), math.floor(y * 2 ** j))
        masses[key] = masses.get(key, 0.0) + w
    return masses


def brute_tube_family(rows, thetas, delta, b1, b2):
    """Canonical tube (direction index, cell) of every pair of rows (p, q)
    with p on the fiber y = b1 and q on y = b2: the lowest direction index
    whose cell floor(pi_e/delta) holds both points.  O(n^2 |E|)."""
    family = {}
    for p, (xp, yp) in enumerate(rows):
        for q, (xq, yq) in enumerate(rows):
            if yp != b1 or yq != b2:
                continue
            for di, th in enumerate(thetas):
                c, s = math.cos(th), math.sin(th)
                cell = math.floor((xp * c + yp * s) / delta)
                if cell == math.floor((xq * c + yq * s) / delta):
                    family[(p, q)] = (di, cell)
                    break
    return family


def ap_iterated_sumset_size(length, m, n):
    """|mB - nB| for B an arithmetic progression of `length` terms."""
    if length == 0:
        return 0
    return (m + n) * (length - 1) + 1
