"""Command-line front door: generate test sets, run sweeps and
experiments, verify the invariant suite, and emit CSV plus plain-text
reports.

Exit codes: 0 success, 1 I/O or validation errors, 2 invariant-suite
failure (first failing witness printed) or a failed `InvariantError`.
Reports carry no timestamps, so rerunning an unchanged config reproduces
them byte for byte; every report header echoes the effective configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import serialize
from .additive import PairGraph, bsg_extract, plunnecke_report
from .delta_core import DirectionSet, as_delta, projection_sweep
from .errors import InvariantError, ProjlabError
from .generators import (
    gen_ap,
    gen_cantor_1d,
    gen_four_corner,
    gen_planted_collinear,
    gen_random_frostman,
)
from .incidence import kaufman_witness
from .product_construction import product_experiment
from .scale_blowup import frostman_weights, two_scale_decomposition
from .verify import run_verify


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_config(path):
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{path}:{lineno}: expected key=value")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _merge_config(args, keys):
    """Config-file values fill in flags the user left unset."""
    if getattr(args, "config", None):
        cfg = _read_config(args.config)
        for key, raw in cfg.items():
            if key not in keys:
                continue
            if getattr(args, key, None) is None:
                caster = keys[key]
                setattr(args, key, caster(raw))
    for key, caster in keys.items():
        if getattr(args, key, None) is None and key in _DEFAULTS:
            setattr(args, key, _DEFAULTS[key])


_DEFAULTS = {
    "delta": 2.0 ** -8,
    "s": 0.5,
    "tau": 0.5,
    "eps0": 0.05,
    "seed": 0,
    "threshold_ratio": 8.0,
    "threshold_separation": 0.25,
    "threshold_intersection": 1.0,
    "threshold_good_ball": 0.25,
}


def _header(fh, command, args, keys):
    fh.write("# projlab report\n")
    fh.write(f"# command={command}\n")
    for key in sorted(keys):
        fh.write(f"# {key}={getattr(args, key)}\n")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required parameter --{name.replace('_', '-')}")


def _cmd_generate(args):
    _merge_config(args, {"delta": float, "seed": int, "s": float, "tau": float})
    _require(args, "kind", "output")
    kind = args.kind
    if kind == "ap":
        _require(args, "n", "step")
        out = gen_ap(args.n, args.step, args.origin or 0.0)
        serialize.write_scalars(args.output, out)
    elif kind == "cantor1d":
        _require(args, "contraction", "depth")
        serialize.write_scalars(args.output, gen_cantor_1d(args.contraction, args.depth))
    elif kind == "four_corner":
        _require(args, "depth")
        serialize.write_points(args.output, gen_four_corner(args.depth))
    elif kind == "random_frostman":
        _require(args, "n", "exponent")
        pts = gen_random_frostman(args.n, args.exponent, args.delta, seed=args.seed)
        serialize.write_points(args.output, pts)
    elif kind == "planted_collinear":
        _require(args, "input", "slope", "intercept")
        base = serialize.read_scalars(args.input)
        inst = gen_planted_collinear(
            base, args.slope, args.intercept, args.jitter or 0.0,
            seed=args.seed, delta=args.delta, s=args.s, tau=args.tau,
            fiber_size=args.fiber_size, fiber_step=args.fiber_step,
            validate=not args.no_validate,
        )
        serialize.write_product(args.output, inst)
    else:
        raise CliError(f"unknown generator kind {kind!r}")
    print(f"wrote {args.output}")
    return 0


def _load_directions(args):
    if args.directions:
        return serialize.read_directions(args.directions)
    if args.num_directions:
        return DirectionSet.net(args.num_directions, span=math.pi)
    raise CliError("provide --directions FILE or --num-directions N")


def _sweep_inputs(args, keys):
    """The points, the nonempty direction set and δ of a sweep command."""
    _merge_config(args, keys)
    _require(args, "input", "output")
    pts = serialize.read_points(args.input)
    dirs = _load_directions(args)
    if len(dirs) == 0:
        raise CliError("directions: empty direction set")
    return pts, dirs, as_delta(args.delta)


def _cmd_project_sweep(args):
    pts, dirs, d = _sweep_inputs(args, {"delta": float, "seed": int})
    cells, pairs = projection_sweep(pts, dirs, d)
    serialize.write_sweep(args.output, zip(dirs.thetas.tolist(), cells.tolist(), pairs.tolist()))
    summary = os.path.splitext(args.output)[0] + ".summary.txt"
    with open(summary, "w", encoding="utf-8") as fh:
        _header(fh, "project-sweep", args, ["delta", "input", "output"])
        fh.write(f"directions={len(dirs)}\n")
        fh.write(f"points={len(pts)}\n")
        fh.write(f"max_N={cells.max()}\n")
        fh.write(f"total_close_pairs={pairs.sum()}\n")
    print(f"wrote {args.output} and {summary}")
    return 0


def _cmd_kaufman(args):
    pts, dirs, d = _sweep_inputs(args, {"delta": float, "s": float})
    witness = kaufman_witness(pts, dirs, d, s=args.s)
    serialize.write_profile(args.output, zip(dirs.thetas.tolist(), witness.profile))
    summary = os.path.splitext(args.output)[0] + ".summary.txt"
    with open(summary, "w", encoding="utf-8") as fh:
        _header(fh, "kaufman", args, ["delta", "s", "input", "output"])
        fh.write(f"witness_theta={witness.direction.theta!r}\n")
        fh.write(f"witness_index={witness.index}\n")
        fh.write(f"witness_N={witness.n}\n")
        fh.write(f"benchmark_delta_pow_minus_s={d ** -args.s!r}\n")
    print(f"witness theta={witness.direction.theta:.6g} N={witness.n}")
    return 0


def _cmd_product_experiment(args):
    keys = {"delta": float, "s": float, "eps0": float,
            "threshold_separation": float, "threshold_intersection": float}
    _merge_config(args, keys)
    _require(args, "input", "output")
    inst = serialize.read_product(args.input)
    dirs = _load_directions(args)
    res = product_experiment(inst, dirs, args.delta, s=args.s, epsilon=args.eps0)
    serialize.write_profile(args.output, res.profile)
    if args.triples_output:
        from .product_construction import good_triple_scan

        scan = good_triple_scan(inst, dirs, args.delta,
                                separation_min=args.threshold_separation,
                                threshold=args.threshold_intersection)
        serialize.write_triples(args.triples_output, scan.triples)
    summary = os.path.splitext(args.output)[0] + ".summary.txt"
    with open(summary, "w", encoding="utf-8") as fh:
        _header(fh, "product-experiment", args,
                ["delta", "s", "eps0", "input", "output",
                 "threshold_separation", "threshold_intersection"])
        fh.write(f"max_N={res.max_n}\n")
        fh.write(f"target={res.target!r}\n")
        if res.witness is None:
            fh.write("witness=none\n")
        else:
            fh.write(f"witness_theta={res.witness.theta!r}\n")
    print(f"max_N={res.max_n} witness={'none' if res.witness is None else res.witness.theta}")
    return 0


def _cmd_bsg(args):
    _merge_config(args, {"k": float})
    _require(args, "input_a", "input_b", "edges", "k", "output")
    a = serialize.read_gridset(args.input_a)
    b = serialize.read_gridset(args.input_b)
    graph = PairGraph(a, b, serialize.read_pairgraph_edges(args.edges))
    res = bsg_extract(graph, args.k)
    base = os.path.splitext(args.output)[0]
    serialize.write_gridset(base + ".a_sub.csv", res.a_sub)
    serialize.write_gridset(base + ".b_sub.csv", res.b_sub)
    with open(args.output, "w", encoding="utf-8") as fh:
        _header(fh, "bsg", args, ["k", "input_a", "input_b", "edges", "output"])
        fh.write(f"a_sub={len(res.a_sub)}\n")
        fh.write(f"b_sub={len(res.b_sub)}\n")
        fh.write(f"achieved_density={res.achieved_density!r}\n")
        fh.write(f"achieved_sumset={res.achieved_sumset}\n")
        fh.write(f"achieved_edge_fraction={res.achieved_edge_fraction!r}\n")
        fh.write(f"edges_in_block={res.edges_in_block}\n")
        fh.write(f"measured_exponent={res.measured_exponent!r}\n")
    print(f"extracted |A'|={len(res.a_sub)} |B'|={len(res.b_sub)} "
          f"sumset={res.achieved_sumset}")
    return 0


def _cmd_plunnecke(args):
    _require(args, "input_a", "input_b", "m", "n", "output")
    a = serialize.read_gridset(args.input_a)
    b = serialize.read_gridset(args.input_b)
    rep = plunnecke_report(a, b, args.m, args.n)
    with open(args.output, "w", encoding="utf-8") as fh:
        _header(fh, "plunnecke", args, ["input_a", "input_b", "m", "n", "output"])
        fh.write(f"C={rep.c}\n")
        fh.write(f"lhs={rep.lhs}\n")
        fh.write(f"rhs={rep.rhs}\n")
        fh.write(f"holds={rep.holds}\n")
    print(f"C={rep.c} lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")
    return 0 if rep.holds else 2


def _cmd_two_scale(args):
    keys = {"delta": float, "exponent": float, "threshold_good_ball": float,
            "threshold_ratio": float}
    _merge_config(args, keys)
    if getattr(args, "exponent", None) is None:
        args.exponent = 1.0
    _require(args, "input", "output")
    pts = serialize.read_points(args.input)
    mu = frostman_weights(pts, args.exponent, min_scale=args.delta)
    ts = two_scale_decomposition(
        pts, mu, args.delta,
        good_ball_factor=args.threshold_good_ball,
        max_ratio=args.threshold_ratio,
    )
    serialize.write_two_scale(args.output, ts)
    print(f"wrote {args.output}: {len(ts.balls)} balls, {len(ts.fine)} fine points")
    return 0


def _cmd_verify(args):
    out = args.output or "verify_out"
    ok, results = run_verify(out)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}")
    if not ok:
        first = next(r for r in results if not r.ok)
        print(f"first failure: {first.name}: {first.lhs} vs {first.rhs} ({first.witness})")
        return 2
    print(f"all {len(results)} checks passed; report in {out}/")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="projlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--eps0", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--input", default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--directions", default=None)
        p.add_argument("--num-directions", dest="num_directions", type=int, default=None)
        p.add_argument("--threshold-ratio", dest="threshold_ratio", type=float, default=None)
        p.add_argument("--threshold-separation", dest="threshold_separation", type=float, default=None)
        p.add_argument("--threshold-intersection", dest="threshold_intersection", type=float, default=None)
        p.add_argument("--threshold-good-ball", dest="threshold_good_ball", type=float, default=None)

    g = sub.add_parser("generate", help="build a fixture set")
    common(g)
    g.add_argument("--kind", required=True)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--step", type=float, default=None)
    g.add_argument("--origin", type=float, default=None)
    g.add_argument("--contraction", type=float, default=None)
    g.add_argument("--depth", type=int, default=None)
    g.add_argument("--exponent", type=float, default=None)
    g.add_argument("--slope", type=float, default=None)
    g.add_argument("--intercept", type=float, default=None)
    g.add_argument("--jitter", type=float, default=None)
    g.add_argument("--fiber-size", dest="fiber_size", type=int, default=None)
    g.add_argument("--fiber-step", dest="fiber_step", type=float, default=None)
    g.add_argument("--no-validate", dest="no_validate", action="store_true")
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("project-sweep", help="N and close-pair profile over directions")
    common(p)
    p.set_defaults(func=_cmd_project_sweep)

    k = sub.add_parser("kaufman", help="argmax direction of the projection covering number")
    common(k)
    k.set_defaults(func=_cmd_kaufman)

    pe = sub.add_parser("product-experiment", help="projection-growth sweep of a product-like set")
    common(pe)
    pe.add_argument("--triples-output", dest="triples_output", default=None,
                    help="also write the good-triple scan CSV here")
    pe.set_defaults(func=_cmd_product_experiment)

    bs = sub.add_parser("bsg", help="dense-subgraph extraction from a pair graph")
    common(bs)
    bs.add_argument("--input-a", dest="input_a", default=None)
    bs.add_argument("--input-b", dest="input_b", default=None)
    bs.add_argument("--edges", default=None)
    bs.add_argument("--k", type=float, default=None)
    bs.set_defaults(func=_cmd_bsg)

    pl = sub.add_parser("plunnecke", help="doubling-constant iterated-sumset report")
    common(pl)
    pl.add_argument("--input-a", dest="input_a", default=None)
    pl.add_argument("--input-b", dest="input_b", default=None)
    pl.add_argument("--m", type=int, default=None)
    pl.add_argument("--n", type=int, default=None)
    pl.set_defaults(func=_cmd_plunnecke)

    twos = sub.add_parser("two-scale", help="sqrt(delta)/delta decomposition of a point set")
    common(twos)
    twos.add_argument("--exponent", type=float, default=None)
    twos.set_defaults(func=_cmd_two_scale)

    v = sub.add_parser("verify", help="run the invariant suite on shipped fixtures")
    common(v)
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProjlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvariantError) else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
