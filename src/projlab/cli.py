"""Command-line front door: generate test sets, run sweeps and
experiments, verify the invariant suite, and emit CSV plus plain-text
reports.

Exit codes: 0 success, 1 I/O or validation errors or an input too large
to allocate (`MemoryError`), 2 invariant-suite failure (first failing
witness printed), a failed `InvariantError`, or a `plunnecke` report
whose inequality fails.
Reports carry no timestamps, so rerunning an unchanged config reproduces
them byte for byte; every report header echoes the effective configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import generators, serialize
from .additive import PairGraph, bsg_extract, plunnecke_report
from .delta_core import DirectionSet, as_delta, delta_pow_minus, projection_sweep
from .errors import InvariantError, ProjlabError
from .incidence import kaufman_witness
from .product_construction import good_triple_scan, product_experiment
from .scale_blowup import two_scale_decomposition
from .verify import run_verify


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_config(path):
    """The `key=value` lines of a config file: key -> (line number, value)."""
    cfg = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if bad := serialize._not_utf8(raw):
                raise CliError(f"{path}:{lineno}: {bad}")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{path}:{lineno}: expected key=value")
            cfg[key.strip().replace("-", "_")] = (lineno, value.strip())
    return cfg


def _apply_config(parser, path):
    """Make each config value the default of the subcommand flag it names,
    so a flag given on the command line still wins.  Keys that name no
    value flag of this subcommand are left for the others; switches come
    only from the command line."""
    flags = {a.dest: a for a in parser._actions if a.nargs != 0 and a.dest != "config"}
    for key, (lineno, raw) in _read_config(path).items():
        action = flags.get(key)
        if action is None:
            continue
        try:
            value = action.type(raw)
        except ValueError:
            raise CliError(f"{path}:{lineno}: invalid {action.type.__name__} value "
                           f"for {key}: {raw!r}") from None
        parser.set_defaults(**{key: value})


def _write_summary(args, keys, items):
    """Write the report of a command with a data output next to it, as
    `<output stem>.summary.txt`, echoing `keys` of `args`; returns its path."""
    path = os.path.splitext(args.output)[0] + ".summary.txt"
    serialize.write_report(path, items, args.command, args, keys)
    return path


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required parameter --{name.replace('_', '-')}")


# generator kind -> (`generators` function, required flags, optional flags
# with their defaults, `serialize` writer); the flags are passed on as the
# function's parameters, and any other generate flag is refused.
# Both are looked up by name when called, so one rebound on its module is called.
_GENERATE = {
    "ap": ("gen_ap", ("n", "step"), {"origin": 0.0}, "write_scalars"),
    "cantor1d": ("gen_cantor_1d", ("contraction", "depth"), {}, "write_scalars"),
    "four_corner": ("gen_four_corner", ("depth",), {}, "write_points"),
    "random_frostman": ("gen_random_frostman", ("n", "exponent"), {"delta": 2.0 ** -8, "seed": 0},
                        "write_points"),
    "planted_collinear": ("gen_planted_collinear", ("input", "slope", "intercept"),
                          {"jitter": 0.0, "seed": 0, "delta": 2.0 ** -8, "s": 0.5, "tau": 0.5,
                           "fiber_size": None, "fiber_step": None, "no_validate": False},
                          "write_product"),
}


def _cmd_generate(args):
    _require(args, "kind")
    if args.kind not in _GENERATE:
        raise CliError(f"unknown generator kind {args.kind!r}")
    func, required, optional, writer = _GENERATE[args.kind]
    # every generate flag defaults to None, so a set one was given
    unread = [name for name, value in vars(args).items() if value is not None
              and name not in ("command", "func", "config", "kind", "output", *required, *optional)]
    if unread:
        raise CliError(f"generate --kind {args.kind} does not read "
                       + ", ".join("--" + name.replace("_", "-") for name in unread))
    _require(args, "output", *required)
    params = {name: getattr(args, name) for name in required}
    for name, default in optional.items():
        params[name] = default if getattr(args, name) is None else getattr(args, name)
    if args.kind == "planted_collinear":
        params["base"] = serialize.read_scalars(params.pop("input"))
        params["validate"] = not params.pop("no_validate")
    out = getattr(generators, func)(**params)
    getattr(serialize, writer)(args.output, out)
    print(f"wrote {args.output}")
    return 0


def _load_directions(args):
    if args.directions:
        return serialize.read_directions(args.directions)
    if args.num_directions is not None:
        if args.num_directions < 1:
            raise CliError(f"--num-directions must be at least 1, got {args.num_directions}")
        return DirectionSet.net(args.num_directions, span=math.pi)
    raise CliError("provide --directions FILE or --num-directions N")


def _sweep_inputs(args):
    """The points, the nonempty direction set and δ of a sweep command."""
    _require(args, "input", "output")
    pts = serialize.read_points(args.input)
    dirs = _load_directions(args)
    if len(dirs) == 0:
        raise CliError("directions: empty direction set")
    return pts, dirs, as_delta(args.delta)


def _cmd_project_sweep(args):
    pts, dirs, d = _sweep_inputs(args)
    cells, pairs = projection_sweep(pts, dirs, d)
    serialize.write_sweep(args.output, zip(dirs.thetas.tolist(), cells.tolist(), pairs.tolist()))
    summary = _write_summary(args, ["delta", "input", "output"], {
        "directions": len(dirs), "points": len(pts),
        "max_N": cells.max(), "total_close_pairs": pairs.sum()})
    print(f"wrote {args.output} and {summary}")
    return 0


def _cmd_kaufman(args):
    pts, dirs, d = _sweep_inputs(args)
    witness = kaufman_witness(pts, dirs, d, s=args.s)
    serialize.write_profile(args.output, zip(dirs.thetas.tolist(), witness.profile))
    _write_summary(args, ["delta", "s", "input", "output"], {
        "witness_theta": witness.direction.theta, "witness_index": witness.index,
        "witness_N": witness.n, "benchmark_delta_pow_minus_s": delta_pow_minus(d, args.s)})
    print(f"witness theta={witness.direction.theta:.6g} N={witness.n}")
    return 0


def _cmd_product_experiment(args):
    _require(args, "input", "output")
    inst = serialize.read_product(args.input)
    # δ and s not given default to the product file's own
    args.delta = inst.delta if args.delta is None else args.delta
    args.s = inst.s if args.s is None else args.s
    dirs = _load_directions(args)
    res = product_experiment(inst, dirs, args.delta, s=args.s, epsilon=args.eps0)
    # the scan checks its thresholds, so it runs before any file is written
    if args.triples_output:
        scan = good_triple_scan(inst, dirs, args.delta,
                                separation_min=args.threshold_separation,
                                threshold=args.threshold_intersection)
        serialize.write_triples(args.triples_output, scan.triples)
    serialize.write_profile(args.output, res.profile)
    witness = {"witness": "none"} if res.witness is None else {"witness_theta": res.witness.theta}
    _write_summary(args, ["delta", "s", "eps0", "input", "output",
                          "threshold_separation", "threshold_intersection"],
                   {"max_N": res.max_n, "target": res.target, **witness})
    print(f"max_N={res.max_n} witness={'none' if res.witness is None else res.witness.theta}")
    return 0


def _cmd_bsg(args):
    _require(args, "input_a", "input_b", "edges", "k", "output")
    a = serialize.read_gridset(args.input_a)
    b = serialize.read_gridset(args.input_b)
    graph = PairGraph(a, b, serialize.read_pairgraph_edges(args.edges))
    res = bsg_extract(graph, args.k)
    base = os.path.splitext(args.output)[0]
    serialize.write_gridset(base + ".a_sub.csv", res.a_sub)
    serialize.write_gridset(base + ".b_sub.csv", res.b_sub)
    serialize.write_report(args.output, {
        "a_sub": len(res.a_sub), "b_sub": len(res.b_sub),
        "achieved_density": res.achieved_density, "achieved_sumset": res.achieved_sumset,
        "achieved_edge_fraction": res.achieved_edge_fraction,
        "edges_in_block": res.edges_in_block, "measured_exponent": res.measured_exponent,
    }, args.command, args, ["k", "input_a", "input_b", "edges", "output"])
    print(f"extracted |A'|={len(res.a_sub)} |B'|={len(res.b_sub)} "
          f"sumset={res.achieved_sumset}")
    return 0


def _cmd_plunnecke(args):
    _require(args, "input_a", "input_b", "m", "n", "output")
    a = serialize.read_gridset(args.input_a)
    b = serialize.read_gridset(args.input_b)
    rep = plunnecke_report(a, b, args.m, args.n)
    serialize.write_report(args.output, {"C": rep.c, "lhs": rep.lhs, "rhs": rep.rhs,
                                         "holds": rep.holds},
                           args.command, args, ["input_a", "input_b", "m", "n", "output"])
    print(f"C={rep.c} lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")
    return 0 if rep.holds else 2


def _cmd_two_scale(args):
    _require(args, "input", "output")
    pts = serialize.read_points(args.input)
    ts = two_scale_decomposition(
        pts, args.delta, args.exponent,
        good_ball_factor=args.threshold_good_ball,
        max_ratio=args.threshold_ratio,
    )
    serialize.write_two_scale(args.output, ts)
    print(f"wrote {args.output}: {len(ts.balls)} balls, {len(ts.fine)} fine points")
    return 0


def _cmd_verify(args):
    ok, results = run_verify(args.output)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}")
    if not ok:
        first = next(r for r in results if not r.ok)
        print(f"first failure: {first.name}: {first.lhs} vs {first.rhs} ({first.witness})")
        return 2
    print(f"all {len(results)} checks passed; report in {args.output}/")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="projlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, func, help, **flags):
        """A subcommand with --config and one value flag per keyword, given
        as (type, default); the flag of dest `a_b` is `--a-b`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value file setting any value flag; explicit flags win")
        for dest, (type_, default) in flags.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=type_, default=default)
        p.set_defaults(func=func)
        return p

    text, integer, real = (str, None), (int, None), (float, None)
    delta, s = (float, 2.0 ** -8), (float, 0.5)
    sweep = dict(input=text, output=text, directions=text, num_directions=integer, delta=delta)

    # no generate flag has a parser default: each kind refuses the flags it
    # does not read and fills in its own defaults (`_GENERATE`)
    g = command("generate", _cmd_generate, "build a fixture set",
                kind=text, output=text, input=text, seed=integer, delta=real,
                n=integer, step=real, origin=real, contraction=real, depth=integer,
                exponent=real, slope=real, intercept=real, jitter=real, s=real,
                tau=real, fiber_size=integer, fiber_step=real)
    g.add_argument("--no-validate", dest="no_validate", action="store_true", default=None)
    command("project-sweep", _cmd_project_sweep, "N and close-pair profile over directions",
            **sweep)
    command("kaufman", _cmd_kaufman, "argmax direction of the projection covering number",
            **sweep, s=s)
    command("product-experiment", _cmd_product_experiment,
            "projection-growth sweep of a product-like set",
            **dict(sweep, delta=real), s=real, eps0=(float, 0.05),
            threshold_separation=(float, 0.25), threshold_intersection=(float, 1.0),
            triples_output=text)
    command("bsg", _cmd_bsg, "dense-subgraph extraction from a pair graph",
            input_a=text, input_b=text, edges=text, k=real, output=text)
    command("plunnecke", _cmd_plunnecke, "doubling-constant iterated-sumset report",
            input_a=text, input_b=text, m=integer, n=integer, output=text)
    command("two-scale", _cmd_two_scale, "sqrt(delta)/delta decomposition of a point set",
            input=text, output=text, delta=delta, exponent=(float, 1.0),
            threshold_good_ball=(float, 0.25), threshold_ratio=(float, 8.0))
    command("verify", _cmd_verify, "run the invariant suite on shipped fixtures",
            output=(str, "verify_out"))
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The command line's arguments; a `--config` file's values stand in
    for the flags it names that the command line leaves out."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config(parser.commands[args.command], args.config)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
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
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
