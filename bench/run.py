#!/usr/bin/env python3
"""projlab benchmark.

Runs one workload as a closed loop with one client in this process: each
pass calls ``projlab.cli.main(argv)`` for every step of the workload's CLI
pipeline, on input files built from ``--seed``.  Usage, from the root of a
checkout:

    python3 bench/run.py --workload sweep-additive --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --smoke                   # toy sizes, asserts names
    python3 bench/run.py --workload sweep-additive --seed 0 --record   # expected/

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (spans from ``tracing.py``).  The last line of standard
output is one JSON object: correct, attempted, failed (CLI steps) and
metrics.  Files are written only under ``.bench_work/`` (removed at exit)
and ``.bench_out/`` (one JSON record per run, with the spans of a traced
run) in the checkout.
"""

import os

# Pin the numpy/BLAS pools before anything imports numpy; the children that
# time the import inherit the same pins.
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import CLI, LAYERS, RATIOS, UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, read_keyvalues  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
SETUP_REPEATS = 9
MIN_PASSES = 2
STEP_IDS = [step for wl in WORKLOADS.values() for step in wl.outputs]

# glibc raises its mmap threshold after large frees, so whether a freed
# array goes back to the OS depends on earlier allocations: without a fixed
# threshold the peak RSS of one workload and seed ranged over 290-362 MiB
# between runs; with it, 290-291 MiB.
MMAP_THRESHOLD = 128 * 1024
M_MMAP_THRESHOLD = -3

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import projlab, projlab.cli\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fix_mmap_threshold() -> bool:
    """Set glibc's mmap threshold for this process; False off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def metadata(wl, seed, sz, toy, mmap_fixed) -> dict:
    return {
        "workload": wl.name, "seed": seed, "toy": toy, "sizes": sz,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS, "commit": git_commit(), "machine": platform.machine(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if mmap_fixed else "glibc default",
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# -- set-up -----------------------------------------------------------------


def setup(wl, seed, sz, workdir: Path) -> list:
    """Time SETUP_REPEATS set-ups: a fresh-interpreter import of projlab plus
    building and writing the inputs.  The last set-up's files stay."""
    if not (SRC / "projlab" / "__init__.py").is_file():
        raise BenchError(f"no projlab sources under {SRC}")
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise BenchError(f"importing projlab failed:\n{probe.stderr}")
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        wl.write_inputs(workdir, seed, sz)
        times.append(float(probe.stdout) + perf_counter() - t0)
    return times


def import_cli():
    sys.path.insert(0, str(SRC))
    import projlab.cli

    if Path(projlab.cli.__file__).resolve().parent != SRC / "projlab":
        raise BenchError(f"projlab imported from {projlab.cli.__file__}, not {SRC}")
    return projlab.cli.main


# -- passes -----------------------------------------------------------------


def run_step(main, argv, tracer):
    """One CLI step: (ok, wall seconds, message).  A non-zero exit or an
    exception escaping main counts as a failure."""
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                code = main(argv)
            else:
                code, _ = tracer.call(CLI, main, argv)
    except Exception:  # the step's traceback is the failure report
        return False, perf_counter() - t0, traceback.format_exc()
    wall = perf_counter() - t0
    return code == 0, wall, "" if code == 0 else f"exit {code}: {out.getvalue()[-2000:]}"


def run_pass(main, steps, tracer=None):
    """Run the pipeline once; stops at the first failing step."""
    results = []
    t0, c0 = perf_counter(), process_time()
    for step, argv in steps:
        ok, wall, msg = run_step(main, argv, tracer)
        results.append((step, ok, wall, msg))
        if not ok:
            break
    return perf_counter() - t0, process_time() - c0, results


def output_state(wl, workdir: Path, steps_done) -> dict:
    """sha256 of every data file and key/values of every summary the
    completed steps wrote (None for a file that is missing)."""
    state = {}
    for step in steps_done:
        outs = wl.outputs[step]
        for kind in ("data", "summaries"):
            for rel in outs.get(kind, ()):
                try:
                    state[rel] = (hashlib.sha256((workdir / rel).read_bytes()).hexdigest()
                                  if kind == "data" else read_keyvalues(workdir / rel))
                except OSError:
                    state[rel] = None
    return state


def owners(wl) -> dict:
    """Output file -> the step that writes it."""
    return {rel: step for step, outs in wl.outputs.items()
            for kind in ("data", "summaries") for rel in outs.get(kind, ())}


def load_record(part):
    path = EXPECTED / f"{part.name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def compare_record(wl, seed, sz, state):
    """Problems against the recorded outputs: data byte for byte, summaries
    key by key (extra keys in a summary are not a failure)."""
    expected = {}
    for part in wl.parts:
        rec = load_record(part)
        if rec is not None and rec["sizes"] == sz[part.name]:
            expected.update(rec["any"])
            expected.update(rec["seeds"].get(str(seed), {}))
    owner = owners(wl)
    problems = []
    for rel, want in expected.items():
        if rel not in state:  # its step failed, which is already counted
            continue
        got = state[rel]
        if isinstance(want, dict):
            bad = sorted(k for k, v in want.items() if (got or {}).get(k) != v)
            if bad:
                problems.append((owner[rel], f"{rel}: keys {bad} differ from the record"))
        elif got != want:
            problems.append((owner[rel], f"{rel}: bytes differ from the record"))
    return problems


class Loop:
    """The passes of one run and the checks on their outputs."""

    def __init__(self, wl, seed, sz, workdir, main):
        self.wl, self.seed, self.sz, self.workdir, self.main = wl, seed, sz, workdir, main
        self.steps = wl.steps(seed, sz)
        self.attempted = 0
        self.failures = {}  # (pass, step) -> message
        self.reference = None  # output state of the first pass
        self.reference_complete = False

    def _fail(self, index, problems):
        for step, msg in problems:
            self.failures.setdefault((index, step), msg)

    def one(self, index, tracer=None):
        """Run and time one pass; every pass after the first must reproduce
        the first pass's outputs exactly."""
        wall, cpu, results = run_pass(self.main, self.steps, tracer)
        self.attempted += len(results)
        self._fail(index, [(step, msg) for step, ok, _, msg in results if not ok])
        state = output_state(self.wl, self.workdir, [step for step, ok, _, _ in results if ok])
        if self.reference is None:
            self.reference = state
            self.reference_complete = all(ok for _, ok, _, _ in results)
        else:
            owner = owners(self.wl)
            self._fail(index, [(owner[rel], f"{rel}: differs from the first pass")
                               for rel in state if state[rel] != self.reference.get(rel)])
        return wall, cpu, {step: w for step, _, w, _ in results}

    def check(self):
        """Check the first pass's outputs against the record and, on the
        files in the work directory, for self-consistency.  Run after the
        timing and the memory reading, so the checks cost neither."""
        self._fail(0, compare_record(self.wl, self.seed, self.sz, self.reference))
        if self.reference_complete:
            try:
                problems = self.wl.check(self.workdir, self.seed, self.sz)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [(self.steps[-1][0], f"outputs unreadable: {exc!r}")]
            self._fail(0, problems)


def timed_loop(loop, seconds, traced: bool):
    """A warm-up pass (untimed; its outputs are the reference), then timed
    passes while the next one is expected to end within ``seconds`` of the
    start, and at least MIN_PASSES.  Traced runs alternate untraced and
    traced passes."""
    start = perf_counter()
    loop.one(0)
    untraced, traced_walls, cpus = [], [], []
    tracer = Tracer() if traced else None
    step_walls = {}
    k = 0
    while True:
        k += 1
        use_trace = traced and k % 2 == 0
        if use_trace:
            tracer.pass_id = k
            tracer.install()
            try:
                wall, cpu, walls = loop.one(k, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            for step, w in walls.items():
                step_walls[step] = step_walls.get(step, 0.0) + w
        else:
            wall, cpu, _ = loop.one(k)
            untraced.append(wall)
            cpus.append(cpu)
        elapsed = perf_counter() - start
        if k >= MIN_PASSES and elapsed + elapsed / (k + 1) > seconds:
            break
    return untraced, cpus, tracer, traced_walls, step_walls


def per_layer_metrics(tracer, traced_walls, untraced, step_walls) -> dict:
    """Per-pass means over the traced passes; trace.overhead_s is the traced
    minus the untraced mean pass time of the same run."""
    n = len(traced_walls)
    layers = tracer.layers(n)
    m = {}
    for span, suffixes in LAYERS.items():
        for suffix in suffixes:
            if suffix in RATIOS:
                num, den = (layers.get(f"{span}.{c}", 0.0) for c in RATIOS[suffix])
                value = num / den if den else 0.0
            else:
                value = layers.get(f"{span}.{suffix}", 0.0)
            m[f"{span}.{suffix}"] = (value, UNITS[suffix])
    for step in STEP_IDS:
        m[f"cli.{step}.wall_s"] = (step_walls.get(step, 0.0) / n, "s")
    pass_s = sum(traced_walls) / n
    unspanned = pass_s - tracer.top_level_s() / n
    spanned = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    if abs(spanned + unspanned - pass_s) > 1e-6 * max(1.0, pass_s):
        raise BenchError(f"self times {spanned} + unspanned {unspanned} != pass {pass_s}")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.unspanned_s"] = (unspanned, "s")
    m["trace.overhead_s"] = (pass_s - sum(untraced) / len(untraced), "s")
    return m


# -- one workload -----------------------------------------------------------


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    sz = wl.sizes(args.toy)
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    home = os.getcwd()
    mmap_fixed = fix_mmap_threshold()
    try:
        setups = setup(wl, args.seed, sz, workdir)
        main = import_cli()
        os.chdir(workdir)
        loop = Loop(wl, args.seed, sz, workdir, main)
        if args.record:
            loop.one(0)
            loop.check()
            return record(wl, args.seed, sz, loop)
        untraced, cpus, tracer, traced_walls, step_walls = timed_loop(
            loop, args.seconds, bool(args.trace))
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.check()
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    meta = metadata(wl, args.seed, sz, args.toy, mmap_fixed)
    q1, q3 = quartiles(untraced)
    c1, c3 = quartiles(cpus)
    failed = len(loop.failures)
    detail = {
        "passes": len(untraced), "traced_passes": len(traced_walls),
        "pass_s_all": untraced, "traced_pass_s_all": traced_walls,
        "pass_s_q1": q1, "pass_s_q3": q3, "cpu_s_q1": c1, "cpu_s_q3": c3,
        "setup_s_runs": setups, "fail_rate": failed / loop.attempted,
        "failures": [f"pass {i} step {s}: {m}" for (i, s), m in sorted(loop.failures.items())[:10]],
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, traced_walls, untraced, step_walls)
    else:
        metrics = {
            "pass_s": (statistics.median(untraced), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mib, "MiB"),
        }
    result = {
        "correct": failed == 0, "attempted": loop.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "detail": detail, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{wl.name} seed={args.seed} trace={args.trace} passes={len(untraced)} untraced"
          f" + {len(traced_walls)} traced (+1 warm-up) pass_s q1={q1:.4f} q3={q3:.4f}"
          f" cpu_s q1={c1:.4f} q3={c3:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    print(f"  {'fail_rate':<58} {detail['fail_rate']:>14.6g} ratio"
          f"  ({failed} failed of {loop.attempted} CLI steps)")
    for line in detail["failures"]:
        print("  FAIL " + line.splitlines()[0])
    print(json.dumps(result))
    return 0


def record(wl, seed, sz, loop) -> int:
    """Store the outputs of one checked pass as each part's expectation for
    this seed (and, for seed-independent outputs, for every seed)."""
    if loop.failures:
        for (i, step), msg in loop.failures.items():
            print(f"FAIL pass {i} step {step}: {msg}", file=sys.stderr)
        return 1
    owner = owners(wl)
    EXPECTED.mkdir(exist_ok=True)
    for part in wl.parts:
        rec = load_record(part)
        if rec is None or rec["sizes"] != sz[part.name]:
            rec = {"sizes": sz[part.name], "any": {}, "seeds": {}}
        mine = {rel: v for rel, v in loop.reference.items() if owner[rel] in part.outputs}
        rec["any"].update({rel: mine[rel] for rel in part.fixed})
        rec["seeds"][str(seed)] = {rel: v for rel, v in mine.items() if rel not in part.fixed}
        path = EXPECTED / f"{part.name}.json"
        path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
        print(f"recorded {part.name} seed {seed} in {path.relative_to(ROOT)}")
    return 0


# -- every workload ---------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is its own), then
    one table of the end-to-end metrics.  --smoke: toy sizes, both trace
    modes, and every metric name of BENCHMARK.json must be printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = (0, 1) if args.smoke else (args.trace,)
    rows = []
    problems = []
    for name in WORKLOADS:
        for trace in modes:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.toy or args.smoke:
                cmd.append("--toy")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(lines[-1])
            fail_rate = res["failed"] / res["attempted"]
            want = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in want if m["name"] not in res["metrics"]]
            if missing:
                problems.append(f"{name} trace={trace}: missing metrics {missing}")
            if fail_rate != 0 or not res["correct"]:
                problems.append(f"{name} trace={trace}: fail_rate {fail_rate}")
            if trace == 0:
                rows.append((name, res, fail_rate))
    print(f"\n{'workload':<16}" + "".join(f"{m['name'] + ' (' + m['unit'] + ')':>20}"
                                          for m in spec["end_to_end"]) + f"{'fail_rate (ratio)':>20}")
    for name, res, fail_rate in rows:
        print(f"{name:<16}" + "".join(f"{res['metrics'][m['name']]['value']:>20.4f}"
                                      for m in spec["end_to_end"]) + f"{fail_rate:>20.4g}")
    for p in problems:
        print("PROBLEM " + p, file=sys.stderr)
    if args.smoke:
        print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes (no recorded outputs)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload once at toy size; assert names and fail_rate 0")
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs in expected/ (only at a trusted commit)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.smoke:
        args.workload, args.seconds = "all", 0.0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
