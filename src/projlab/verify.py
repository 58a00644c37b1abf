"""Invariant suite over the shipped fixtures, behind the `verify` CLI
command.  Every check carries both sides of its inequality (or the two
counts of its identity) so failures print a concrete witness; reports are
timestamp-free and therefore byte-stable run to run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

import numpy as np

from . import serialize
from .additive import GridSet, plunnecke_report, snap
from .delta_core import (
    DirectionSet,
    ScalarSet,
    check_delta_t,
    covering_number,
    grid_cells_1d,
    optimal_interval_cover,
    projected_values,
    projection_sweep,
)
from .generators import gen_cantor_1d, gen_four_corner, gen_planted_collinear, gen_random_frostman
from .incidence import cauchy_schwarz_lower_bound, close_pairs_bruteforce
from .product_construction import triple_intersections
from .scale_blowup import rescaled_projection_identity


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    lhs: str
    rhs: str
    witness: str = ""


def fixtures_path() -> str:
    return str(resources.files("projlab") / "fixtures")


def _fixture(name) -> str:
    return os.path.join(fixtures_path(), name)


def check_covering_sandwich() -> CheckResult:
    s = serialize.read_scalars(_fixture("scalars_200.csv"))
    d = 2.0 ** -7
    grid = covering_number(s, d)
    opt = optimal_interval_cover(s, d)
    ok = opt <= grid <= 2 * opt
    return CheckResult("covering-sandwich", ok, f"grid={grid}", f"greedy={opt}",
                       "" if ok else f"violates [{opt}, {2 * opt}]")


def check_close_pairs_oracle() -> CheckResult:
    p = serialize.read_points(_fixture("points_300.csv"))
    e = serialize.read_directions(_fixture("directions_8.csv"))
    d = 2.0 ** -8
    for i, fast in enumerate(projection_sweep(p, e, d)[1].tolist()):
        slow = close_pairs_bruteforce(p, e[i], d)
        if fast != slow:
            return CheckResult("close-pairs-oracle", False, str(fast), str(slow),
                               f"direction index {i}")
        cauchy_schwarz_lower_bound(p, e[i], d)  # raises InvariantError if the bound fails
    return CheckResult("close-pairs-oracle", True, "sweep==quadratic", "8 directions")


def check_tube_partition() -> CheckResult:
    p = serialize.read_points(_fixture("points_300.csv"))
    d = 2.0 ** -6
    dirs = DirectionSet([0.0, 0.7, 2.1])
    counts = projection_sweep(p, dirs, d, pairs=False)[0].tolist()
    for theta, n, v in zip(dirs.thetas.tolist(), counts, projected_values(p.points, dirs.thetas)):
        # a tube is one occupied cell [kδ, (k+1)δ) of the projected values
        offset = grid_cells_1d(v, d) * d
        if offset.size != n:
            return CheckResult("tube-partition", False, str(offset.size), "covering number",
                               f"theta={theta}")
        hits = np.count_nonzero((offset <= v[:, None]) & (v[:, None] < offset + d), axis=1)
        if (bad := np.flatnonzero(hits != 1)).size:
            x, y = p.points[bad[0]]
            return CheckResult("tube-partition", False, str(hits[bad[0]]), "1",
                               f"point ({x}, {y}) at theta={theta}")
    return CheckResult("tube-partition", True, "every point in exactly one tube", "3 directions")


def check_plunnecke_slice() -> CheckResult:
    step = 2.0 ** -8
    for size in range(2, 8):
        for members in combinations(range(7), size):
            a = GridSet(members, step)
            for m in range(3):
                for n in range(3):
                    if m + n == 0:
                        continue
                    rep = plunnecke_report(a, a, m, n)
                    if not rep.holds:
                        return CheckResult("plunnecke-slice", False, str(rep.lhs),
                                           str(rep.rhs), f"A={members} m={m} n={n}")
    return CheckResult("plunnecke-slice", True, "all hold", "A=B in {0..6}, m+n<=3")


def check_snap_idempotence() -> CheckResult:
    d = 2.0 ** -9
    for k in range(-20, 21, 3):
        for frac in (0.0, 0.25, 0.5, 0.999):
            if snap(k * d + frac * d, d) != k:
                return CheckResult("snap-idempotence", False, str(snap(k * d + frac * d, d)),
                                   str(k), f"k={k} frac={frac}")
    return CheckResult("snap-idempotence", True, "floor semantics exact", "dyadic grid")


def check_four_corner_identity() -> CheckResult:
    depth = 3
    c = gen_cantor_1d(0.25, depth)
    pts = gen_four_corner(depth)
    expected = sorted((x, y) for x in c for y in c)
    got = [tuple(p) for p in pts.points]
    if got != expected:
        return CheckResult("four-corner-identity", False, f"{len(got)} pts", f"{len(expected)} pts",
                           "product structure mismatch")
    rep = check_delta_t(pts, 4.0 ** -depth, 1.0)
    ok = rep.worst_ratio <= 4.0
    return CheckResult("four-corner-identity", ok, f"ratio={rep.worst_ratio:.4g}", "<=4",
                       "" if ok else f"ball at {rep.witness_center}")


def check_dilation_identity() -> CheckResult:
    f = serialize.read_product(_fixture("product_8.csv"))
    d = f.delta
    sq = math.sqrt(d)
    for t in (0.0, 0.25 * sq, 0.5 * sq, 0.75 * sq, sq):
        rescaled_projection_identity(f, t, d)  # raises InvariantError if lhs != rhs
    return CheckResult("dilation-identity", True, "exact equality", "5 slopes")


def check_planted_collinear() -> CheckResult:
    d = 2.0 ** -10
    base = ScalarSet([0.0, 0.5, 1.0])
    inst = gen_planted_collinear(base, slope=0.5, intercept=0.1, jitter=0.0,
                                 delta=d, fiber_size=8, fiber_step=16 * d, validate=False)
    e = DirectionSet([math.atan2(-0.5, 1.0)])
    data = triple_intersections(inst, 0.0, 0.5, 1.0, e, d)
    ok = data.count_identity_holds and len(data.pairs) >= 8
    return CheckResult("planted-collinear", ok, f"pairs={len(data.pairs)}",
                       f"tubes={len(data.shared_tubes)}",
                       "" if ok else "count identity failed")


def check_generator_determinism() -> CheckResult:
    a = gen_random_frostman(64, 1.0, 2.0 ** -7, seed=5)
    b = gen_random_frostman(64, 1.0, 2.0 ** -7, seed=5)
    ok = np.array_equal(a.points, b.points)
    return CheckResult("generator-determinism", ok, f"{len(a)} pts", f"{len(b)} pts",
                       "" if ok else "same seed, different output")


ALL_CHECKS = (
    check_covering_sandwich,
    check_close_pairs_oracle,
    check_tube_partition,
    check_plunnecke_slice,
    check_snap_idempotence,
    check_four_corner_identity,
    check_dilation_identity,
    check_planted_collinear,
    check_generator_determinism,
)


def run_verify(output_dir=None):
    """Run every check; write verify_report.csv and summary.txt when an
    output directory is given.  Returns (all_ok, results)."""
    results = [chk() for chk in ALL_CHECKS]
    all_ok = all(r.ok for r in results)
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        serialize._write_csv(os.path.join(output_dir, "verify_report.csv"), "check,status,lhs,rhs,witness",
                             ([r.name, "PASS" if r.ok else "FAIL", r.lhs, r.rhs, r.witness] for r in results))
        with open(os.path.join(output_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write("# projlab verify report\n")
            fh.write(f"# checks={len(results)}\n")
            for r in results:
                fh.write(f"{'PASS' if r.ok else 'FAIL'}  {r.name}  ({r.lhs} vs {r.rhs})\n")
            fh.write(f"overall={'PASS' if all_ok else 'FAIL'}\n")
    return all_ok, results
