"""Deterministic, seeded construction of every test set the experiments
use: arithmetic progressions, Cantor-type sets, self-similar corner sets,
capped random branching sets, and planted collinear product instances.

All randomness flows through numpy SeedSequences keyed by (seed, path),
so parallel subtree generation stays bitwise reproducible.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from .delta_core import PointSet2D, ScalarSet, as_delta, check_delta_t
from .errors import GeneratorError
from .product_construction import ProductLikeSet, build_product_like

RANDOM_FROSTMAN_RATIO_BOUND = 8.0
_MAX_REJECTION_ATTEMPTS = 100


@dataclass(frozen=True)
class GeneratorSpec:
    """Kind + parameters + seed; equal specs build bitwise-equal outputs."""

    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    KINDS = ("ap", "cantor1d", "four_corner", "product", "random_frostman", "planted_collinear")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def to_text(self) -> str:
        lines = [f"kind={self.kind}", f"seed={self.seed}"]
        for key in sorted(self.parameters):
            lines.append(f"param.{key}={self.parameters[key]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GeneratorSpec":
        kind = None
        seed = 0
        params = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "kind":
                kind = value
            elif key == "seed":
                seed = int(value)
            elif key.startswith("param."):
                params[key[6:]] = ast.literal_eval(value)
            else:
                raise ValueError(f"unknown generator key {key!r}")
        if kind is None:
            raise ValueError("generator spec lacks a kind")
        return cls(kind=kind, parameters=params, seed=seed)

    def build(self):
        p = dict(self.parameters)
        if self.kind == "ap":
            return gen_ap(**p)
        if self.kind == "cantor1d":
            return gen_cantor_1d(**p)
        if self.kind == "four_corner":
            return gen_four_corner(**p)
        if self.kind == "random_frostman":
            return gen_random_frostman(seed=self.seed, **p)
        if self.kind == "planted_collinear":
            base = ScalarSet(p.pop("base"))
            return gen_planted_collinear(base, seed=self.seed, **p)
        if self.kind == "product":
            base = ScalarSet(p.pop("base"))
            fibers = {b: ScalarSet(v) for b, v in p.pop("fibers")}
            return build_product_like(base, fibers, **p)
        raise AssertionError("unreachable")


def gen_ap(n: int, step: float, origin: float = 0.0) -> ScalarSet:
    """Arithmetic progression {origin + k·step : 0 <= k < n}."""
    if n < 1:
        raise ValueError("progression needs at least one term")
    if step <= 0:
        raise ValueError("step must be positive")
    return ScalarSet(origin + step * np.arange(n))


def gen_cantor_1d(contraction: float, depth: int) -> ScalarSet:
    """Left endpoints of the depth-th middle-Cantor iterate on [0, 1]."""
    if not 0.0 < contraction < 0.5:
        raise ValueError("contraction must lie in (0, 1/2)")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    pts = [0.0]
    for _ in range(depth):
        pts = [contraction * x for x in pts] + [1.0 - contraction + contraction * x for x in pts]
    return ScalarSet(pts)


def gen_four_corner(depth: int) -> PointSet2D:
    """Corner grid of the depth-th four-corner iterate: the product of two
    contraction-1/4 Cantor sets, 4^depth points, 4^-depth separated."""
    c = gen_cantor_1d(0.25, depth) if depth > 0 else ScalarSet([0.0])
    pts = [(x, y) for x in c for y in c]
    return PointSet2D(pts, separation=4.0 ** -depth)


def _branching_points(n, exponent, delta, seed, attempt):
    d = as_delta(delta)
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
    return PointSet2D(out, separation=d, check=False)


def gen_random_frostman(n: int, exponent: float, delta, seed: int = 0) -> PointSet2D:
    """Seeded dyadic branching process respecting the per-cell caps
    ceil((2^-j/δ)^exponent), placing points at δ-cell corners; attempts are
    rejected until the (δ, exponent) scan passes with ratio <= 8."""
    if n < 1:
        raise ValueError("need at least one point")
    if not 0.0 < exponent <= 2.0:
        raise ValueError("exponent must lie in (0, 2]")
    d = as_delta(delta)
    for attempt in range(_MAX_REJECTION_ATTEMPTS):
        pts = _branching_points(n, exponent, d, seed, attempt)
        rep = check_delta_t(pts, d, exponent, validate_separation=False)
        if rep.worst_ratio <= RANDOM_FROSTMAN_RATIO_BOUND:
            return pts
    raise GeneratorError(f"random_frostman: no attempt met the ratio bound {RANDOM_FROSTMAN_RATIO_BOUND:g}")


def gen_planted_collinear(base: ScalarSet, slope: float, intercept: float, jitter: float,
                          seed: int = 0, delta=2.0 ** -10, s: float = 0.5, tau: float = 0.5,
                          fiber_size: int | None = None, fiber_step: float | None = None,
                          validate: bool = True) -> ProductLikeSet:
    """Product-like set whose fibers each contain the planted value
    intercept + slope·(b - b0) (b0 the least base point), shifted by a
    seeded per-fiber jitter of at most `jitter`.

    Every fiber is the same offset progression around its planted value,
    so entire progressions are collinear across fibers and the triple
    machinery provably fires when the planted line's normal direction is
    swept.
    """
    d = as_delta(delta)
    if jitter > d / 2:
        raise ValueError("jitter must not exceed delta/2")
    if fiber_step is None:
        fiber_step = math.sqrt(d)
    if fiber_size is None:
        fiber_size = max(1, round(d ** -s / 4))
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
