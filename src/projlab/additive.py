"""δ-grid arithmetic: snapping, sumsets, iterated sumsets, doubling
reports, and a constructive graph extractor for dense pair graphs with
small restricted sumsets.

All set arithmetic happens on integer grid coordinates (k representing
kδ), so sumset cardinalities are exact; reals only appear at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import delta_core
from .errors import BsgHypothesisError


class GridSet:
    """Finite subset of the grid δZ, stored as sorted distinct integers."""

    __slots__ = ("members", "step")

    def __init__(self, members, step):
        step = float(step)
        if not 0.0 < step < math.inf:
            raise ValueError(f"grid step must be a finite number > 0, got {step}")
        # a copy: the caller's array is never aliased or frozen
        members = np.array(members, dtype=np.int64).ravel()
        if np.count_nonzero(members[1:] <= members[:-1]):
            members = _distinct(members)
        members.setflags(write=False)
        self.members = members
        self.step = step

    @classmethod
    def _adopt(cls, members, step) -> "GridSet":
        """A GridSet over `members`, a sorted distinct int64 array that
        `sumset` built itself: the step is checked and the array frozen,
        but not copied."""
        out = cls([], step)
        members.setflags(write=False)
        out.members = members
        return out

    @classmethod
    def from_values(cls, values, step) -> "GridSet":
        return cls([snap(v, step) for v in values], step)

    def __len__(self):
        return int(self.members.size)

    def __iter__(self):
        return iter(self.members.tolist())

    def __repr__(self):
        return f"GridSet(n={len(self)}, step={self.step:.4g})"

    def __eq__(self, other):
        return (
            isinstance(other, GridSet)
            and self.step == other.step
            and np.array_equal(self.members, other.members)
        )

    def __hash__(self):
        return hash((self.step, self.members.tobytes()))


def _distinct(values):
    """Sorted distinct values of an integer array, by one sort and a
    neighbour mask (integer np.unique is many times slower than np.sort)."""
    out = np.sort(values)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def snap(x, delta) -> int:
    """Largest integer k with kδ <= x.  Exact for dyadic δ."""
    return int(math.floor(float(x) / float(delta)))


def _require_same_step(a: GridSet, b: GridSet):
    if a.step != b.step:
        raise ValueError(f"grid steps differ: {a.step} vs {b.step}")


def _pair_sum_blocks(x, y):
    """The sums y[i] + x[j], row-major, in blocks of at most
    delta_core.CHUNK_ELEMENTS values: whole rows of x when one fits, else
    column slices of one row."""
    cols = min(x.size, delta_core.CHUNK_ELEMENTS)
    rows = max(1, delta_core.CHUNK_ELEMENTS // cols)
    for i in range(0, y.size, rows):
        for j in range(0, x.size, cols):
            yield (y[i : i + rows, None] + x[j : j + cols]).ravel()


def sumset(a: GridSet, b: GridSet, sign="+") -> GridSet:
    """Minkowski sum {x ± y}, exact on grid coordinates.

    Three routes, each bounded by the 8|A||B| bytes of the int64 pair sums:

    - the sum's span wider than 8|A||B|: each block of pair sums keeps its
      distinct values and the blocks are merged;
    - otherwise an occupancy bitmap over the span.  With S the set with
      fewer members and L the other (B negated for '-'), a dense L
      (span(L) <= 8|L|) has its 0/1 indicator ORed into the bitmap once
      per member of S, |S| span(L) <= 8|S||L| bytes and no pair sums;
    - a sparse L marks each block of pair sums in the bitmap instead.

    At most CHUNK_ELEMENTS pair sums exist at once.  A bitmap is freed
    before the least sum is added in place to the positions of its marks,
    and the result keeps that array, as it keeps the sorted route's,
    without a copy.
    """
    _require_same_step(a, b)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if len(a) == 0 or len(b) == 0:
        return GridSet([], a.step)
    x = a.members
    y = b.members if sign == "+" else -b.members[::-1]
    x0, y0 = int(x[0]), int(y[0])
    span = (int(x[-1]) - x0) + (int(y[-1]) - y0) + 1
    if span > 8 * x.size * y.size:
        out = _distinct(np.concatenate([_distinct(block) for block in _pair_sum_blocks(x, y)]))
        return GridSet._adopt(out, a.step)
    small, large = (x, y) if x.size <= y.size else (y, x)
    s0, l0 = int(small[0]), int(large[0])
    width = int(large[-1]) - l0 + 1
    mark = np.zeros(span, dtype=bool)
    if width <= 8 * large.size:
        ind = np.zeros(width, dtype=bool)
        ind[large - l0] = True
        for off in (small - s0).tolist():
            window = mark[off : off + width]
            np.logical_or(window, ind, out=window)
    else:
        for idx in _pair_sum_blocks(x - x0, y - y0):
            mark[idx] = True
    out = np.flatnonzero(mark).astype(np.int64, copy=False)
    del mark
    out += x0 + y0
    return GridSet._adopt(out, a.step)


def iterated_sumset(b: GridSet, m: int, n: int) -> GridSet:
    """mB - nB with 0-fold sums equal to {0}; m = n = 0 is rejected."""
    if m < 0 or n < 0:
        raise ValueError("fold counts must be nonnegative")
    if m + n == 0:
        raise ValueError("at least one fold is required")
    folds = [GridSet([0], b.step), b]  # folds[k] = kB
    while len(folds) <= max(m, n):
        folds.append(sumset(folds[-1], b, "+"))
    return sumset(folds[m], folds[n], "-")


@dataclass(frozen=True)
class PlunneckeReport:
    c: int
    lhs: int
    rhs: int
    holds: bool


def plunnecke_report(a: GridSet, b: GridSet, m: int, n: int) -> PlunneckeReport:
    """Doubling constant C = ceil(|A+B|/|A|) and the iterated-sumset check
    |mB - nB| <= C^(m+n) |A|, all in exact integer arithmetic."""
    if len(a) == 0:
        raise ValueError("A must be nonempty")
    c = -((-len(sumset(a, b, "+"))) // len(a))
    lhs = len(iterated_sumset(b, m, n))
    rhs = c ** (m + n) * len(a)
    return PlunneckeReport(c=c, lhs=lhs, rhs=rhs, holds=lhs <= rhs)


class PairGraph:
    """Bipartite edge set G ⊆ A × B over two grid sets."""

    __slots__ = ("a_set", "b_set", "edges")

    def __init__(self, a_set: GridSet, b_set: GridSet, edges):
        self.a_set = a_set
        self.b_set = b_set
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= len(a_set):
                raise ValueError("edge a_index out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= len(b_set):
                raise ValueError("edge b_index out of range")
            # distinct edges in (a, b) order: the packed key sorts the same way
            n_b = len(b_set)
            arr = np.column_stack(np.divmod(_distinct(arr[:, 0] * n_b + arr[:, 1]), n_b))
        self.edges = arr
        self.edges.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def adjacency(self):
        adj = np.zeros((len(self.a_set), len(self.b_set)), dtype=bool)
        if self.edge_count:
            adj[self.edges[:, 0], self.edges[:, 1]] = True
        return adj

    def restricted_sums(self):
        """Distinct values {a + b : (a, b) ∈ G}, exact from the edge list."""
        if self.edge_count == 0:
            return np.empty(0, dtype=np.int64)
        vals = self.a_set.members[self.edges[:, 0]] + self.b_set.members[self.edges[:, 1]]
        return _distinct(vals)


@dataclass(frozen=True)
class BsgResult:
    a_sub: GridSet
    b_sub: GridSet
    achieved_density: float
    achieved_sumset: int
    achieved_edge_fraction: float
    edges_in_block: int
    measured_exponent: float
    k: float


def _median_threshold(values):
    pos = values[values > 0]
    if pos.size == 0:
        return None
    return float(np.median(pos))


def bsg_extract(graph: PairGraph, k: float) -> BsgResult:
    """Extract dense subsets with small full sumset from a pair graph.

    Constructive path-of-length-3 scheme: keep right vertices of at least
    median positive degree, link left-vertex pairs with at least median
    positive codegree over those, keep left vertices with at least median
    many linked partners, then re-select popular right vertices.  All
    thresholds are medians of the positive values, so the extraction is
    deterministic; achieved statistics are recomputed from the output.
    """
    if not 1.0 <= k < math.inf:
        raise ValueError(f"K must be a finite number >= 1, got {k}")
    n_a, n_b = len(graph.a_set), len(graph.b_set)
    m = graph.edge_count
    if m == 0:
        raise BsgHypothesisError("pair graph has no edges")
    if m * k < n_a * n_b * (1.0 - 1e-12):
        raise BsgHypothesisError(
            f"density hypothesis fails: |G| = {m} < |A||B|/K = {n_a * n_b / k:.4g}"
        )
    rs = int(graph.restricted_sums().size)
    if rs > k * math.sqrt(n_a * n_b) * (1.0 + 1e-12):
        raise BsgHypothesisError(
            f"restricted sumset too large: {rs} > K sqrt(|A||B|) = {k * math.sqrt(n_a * n_b):.4g}"
        )

    adj = graph.adjacency()
    deg_b = adj.sum(axis=0)
    thr_b = _median_threshold(deg_b)
    b1 = deg_b >= thr_b

    # float64 so the product runs in BLAS; codegrees are at most |B| < 2**53, so exact
    restricted = adj[:, b1].astype(np.float64)
    codeg = restricted @ restricted.T
    np.fill_diagonal(codeg, 0)
    thr_link = _median_threshold(codeg[np.triu_indices(n_a, 1)]) if n_a > 1 else None
    # a positive thr_link links some pair, so some vertex has partners; every
    # kept left vertex has an edge into b1, so some deg_into_a is positive
    if thr_link is not None:
        partners = (codeg >= thr_link).sum(axis=1)
        a_keep = partners >= _median_threshold(partners)
    else:
        a_keep = restricted.sum(axis=1) > 0

    deg_into_a = adj[a_keep].sum(axis=0) * b1
    b_keep = deg_into_a >= _median_threshold(deg_into_a)

    a_sub = GridSet(graph.a_set.members[a_keep], graph.a_set.step)
    b_sub = GridSet(graph.b_set.members[b_keep], graph.b_set.step)
    block = adj[np.ix_(a_keep, b_keep)]
    edges_in = int(block.sum())
    full_sum = len(sumset(a_sub, b_sub, "+"))
    density = edges_in / (len(a_sub) * len(b_sub)) if len(a_sub) and len(b_sub) else 0.0
    fraction = edges_in / (n_a * n_b)

    ratios = [
        n_a / max(len(a_sub), 1),
        n_b / max(len(b_sub), 1),
        full_sum / math.sqrt(n_a * n_b),
        (n_a * n_b) / max(edges_in, 1),
    ]
    if k > 1.0 + 1e-12:
        exponent = max(math.log(max(r, 1.0)) / math.log(k) for r in ratios)
    else:
        exponent = 0.0 if max(ratios) <= 1.0 + 1e-12 else math.inf

    return BsgResult(
        a_sub=a_sub,
        b_sub=b_sub,
        achieved_density=density,
        achieved_sumset=full_sum,
        achieved_edge_fraction=fraction,
        edges_in_block=edges_in,
        measured_exponent=exponent,
        k=float(k),
    )
