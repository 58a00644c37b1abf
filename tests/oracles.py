"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written without importing the package's
fast paths: plain loops and exhaustive searches, a quadratic numpy twin
of a pruned kernel, or a public per-set routine run once per piece where
the package batches the pieces, so the two routes stay independent.
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


def branching_points_recursive(n, exponent, delta, seed, attempt):
    """The branching generator's points as a depth-first recursion that
    builds each cell's Generator from its own SeedSequence, keyed by
    (seed, (attempt, *path)); returns the unsorted (n, 2) array in
    depth-first order."""
    d = float(delta)
    levels = round(math.log2(1.0 / d))
    if 2.0 ** -levels != d:
        raise ValueError("branching generator needs an exactly dyadic delta")
    root_cap = math.ceil(d ** -exponent)
    if n > root_cap:
        raise ValueError(f"infeasible count: n = {n} exceeds the level-0 cap {root_cap}")

    out = []

    def caps_at(level):
        return math.ceil(((2.0 ** -level) / d) ** exponent)

    def distribute(level, kx, ky, count, path):
        if count == 0:
            return
        if level == levels:
            out.append((kx * d, ky * d))
            return
        child_cap = caps_at(level + 1)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(attempt, *path))
        )
        alloc = rng.multivariate_hypergeometric([child_cap] * 4, count)
        for child in range(4):
            cx = 2 * kx + (child & 1)
            cy = 2 * ky + (child >> 1)
            distribute(level + 1, cx, cy, int(alloc[child]), path + (child,))

    distribute(0, 0, 0, n, ())
    return np.array(out, dtype=np.float64).reshape(-1, 2)


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


def thinned_good_cells(points, weights, level, threshold):
    """Two-scale's good balls by a pairwise check: the level-`level` cells
    whose brute mass reaches `threshold`, kept greedily by descending mass
    (ties to the lower cell) unless a kept cell lies at Chebyshev index
    distance below 2; returned in cell order."""
    masses = brute_dyadic_masses(points, weights, level)
    kept = []
    for cell, mass in sorted(masses.items(), key=lambda cm: (-cm[1], cm[0])):
        if mass >= threshold and all(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) >= 2 for c in kept):
            kept.append(cell)
    return sorted(kept)


def top_down_picks(points, delta, s, levels, root):
    """The extraction's dyadic greedy by its top-down definition: every
    occupied level-`root` cell selects recursively; a cell with one
    occupied δ-cell (level `levels`) gives that cell's lexicographically
    least point, and any other cell at level j walks its children by most
    occupied δ-cells, ties in (cx, cy) order, taking each child's picks
    until it holds ceil((2^-j / delta)^s), then keeps that many.  A
    point's level-j cell is (floor(x·2^j), floor(y·2^j)).  Returns the
    picks as coordinate tuples in lexicographic order."""

    def cell(p, j):
        return (math.floor(p[0] * 2.0 ** j), math.floor(p[1] * 2.0 ** j))

    reps = {}
    for p in sorted(tuple(map(float, q)) for q in points):
        reps.setdefault(cell(p, levels), p)

    def select(level, members):  # the δ-cells' points of one level-`level` cell
        if len(members) == 1:
            return list(members)
        children = {}
        for p in members:
            children.setdefault(cell(p, level + 1), []).append(p)
        cap = math.ceil(((2.0 ** -level) / delta) ** s)
        chosen = []
        for c in sorted(children, key=lambda c: (-len(children[c]), c)):
            chosen.extend(select(level + 1, children[c]))
            if len(chosen) >= cap:
                break
        return chosen[:cap]

    roots = {}
    for p in reps.values():
        roots.setdefault(cell(p, root), []).append(p)
    return sorted(p for members in roots.values() for p in select(root, members))


def per_ball_fine_sets(points, level, balls, delta):
    """Two-scale's extraction ball by ball: the public
    `extract_delta_s_subset` at t = 1, on its own tree from level 0 and
    with its own separation sweep, run on the points of each level-`level`
    cell in `balls` (found by flooring points * 2^level).  Returns
    {cell: (m, 2) array in lexicographic order}, in `balls` order."""
    from projlab.delta_core import PointSet2D, extract_delta_s_subset

    pts = np.asarray(points, dtype=np.float64)
    cells = np.floor(pts * 2.0 ** level).astype(np.int64)
    return {cell: extract_delta_s_subset(PointSet2D(pts[(cells == cell).all(axis=1)]), delta, 1.0).points
            for cell in balls}


def brute_tube_family(rows, thetas, delta, b1, b2):
    """Canonical tube (direction index, cell) of every pair of rows (p, q)
    with p on the fiber y = b1 and q on y = b2: the lowest direction index
    whose cell floor(pi_e/delta) holds both points.  O(n^2 |E|)."""
    trig = [(math.cos(th), math.sin(th)) for th in thetas]
    cells = [[math.floor((x * c + y * s) / delta) for c, s in trig] for x, y in rows]
    family = {}
    for p, (_, yp) in enumerate(rows):
        for q, (_, yq) in enumerate(rows):
            if yp != b1 or yq != b2:
                continue
            for di, (cp, cq) in enumerate(zip(cells[p], cells[q])):
                if cp == cq:
                    family[(p, q)] = (di, cp)
                    break
    return family


def triple_scan_loop(rows, thetas, delta, base, separation_min, threshold):
    """The good-triple scan as a loop over ordered triples (b1, b2, b3) of
    distinct base values in base order, skipping any pair closer than
    `separation_min`: each scanned triple adds |fam(b1, b2) ∩ fam(b2, b3)|
    to the total and is kept when that size reaches `threshold`.  Families
    are `brute_tube_family` tube sets, read (b1, b2) then (b2, b3); the
    first family read whose tube holds two pairs raises ValueError naming
    the lowest such tube.  Returns (hits, total)."""
    families = {}

    def fam(bi, bj):
        # a family's tubes depend only on the two fibers' rows, and not on
        # their order, so (bi, bj) and (bj, bi) share one brute-force pass
        key = (min(bi, bj), max(bi, bj))
        if key not in families:
            sub = [r for r in rows if r[1] in key]
            tubes = sorted(brute_tube_family(sub, thetas, delta, bi, bj).values())
            repeated = [t for t, u in zip(tubes, tubes[1:]) if t == u]
            families[key] = (set(tubes), repeated[:1])
        tubes, repeated = families[key]
        if repeated:
            raise ValueError(f"pair-to-tube map not injective at tube {repeated[0]}; "
                             "roughly-horizontal condition violated")
        return tubes

    hits = []
    total = 0
    for b1 in base:
        for b2 in base:
            if b2 == b1:
                continue
            for b3 in base:
                if b3 == b1 or b3 == b2:
                    continue
                if min(abs(b1 - b2), abs(b1 - b3), abs(b2 - b3)) < separation_min:
                    continue
                size = len(fam(b1, b2) & fam(b2, b3))
                total += size
                if size >= threshold:
                    hits.append((b1, b2, b3, size))
    return tuple(hits), total


def ap_iterated_sumset_size(length, m, n):
    """|mB - nB| for B an arithmetic progression of `length` terms."""
    if length == 0:
        return 0
    return (m + n) * (length - 1) + 1
