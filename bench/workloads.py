"""The benchmark workloads and the four parts they are made of.

Each part builds its input files from the seed, names the CLI steps of its
pipeline (argv lists run from the work directory, so report headers carry
relative paths and stay byte-stable), lists the outputs each step writes,
and checks those outputs for self-consistency.  A workload runs two parts
one after the other in every pass.  Recorded expectations for fixed seeds
live in ``expected/<part>.json`` and are compared in ``run.py``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    # Same shortest round-trip form as projlab.serialize, so inputs are exact.
    return repr(float(x))


def _write_lines(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(lines)


def write_points(path: Path, pts) -> None:
    _write_lines(path, "x,y\n", (f"{_fmt(x)},{_fmt(y)}\n" for x, y in pts))


def write_scalars(path: Path, values) -> None:
    _write_lines(path, "v\n", (f"{_fmt(v)}\n" for v in values))


def write_directions(path: Path, thetas) -> None:
    _write_lines(path, "theta\n", (f"{_fmt(t)}\n" for t in thetas))


def write_gridset(path: Path, members, step: float) -> None:
    _write_lines(path, f"# delta={_fmt(step)}\nk\n", (f"{int(k)}\n" for k in members))


def write_edges(path: Path, edges) -> None:
    _write_lines(path, "a_index,b_index\n", (f"{a},{b}\n" for a, b in edges))


def read_csv(path: Path):
    """Data rows of a projlab CSV as lists of strings (comments and the
    header dropped)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    for line in lines[1:]:
        rows.append(line.split(","))
    return rows


def read_keyvalues(path: Path) -> dict:
    """``key=value`` lines of a summary file, header comments included
    (``# key=value``); lines without ``=`` are skipped."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip().lstrip("#").strip()
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def pow2(exp: int) -> str:
    """A dyadic delta as a CLI argument, exact in its decimal form."""
    return repr(2.0 ** exp)


class Part:
    """name, sizes (full and toy), inputs, steps, outputs and checks.

    ``outputs`` maps a step id to the files it writes: ``data`` files are
    compared byte for byte against the record, ``summaries`` key by key.
    ``fixed`` names outputs that do not depend on the seed.
    """

    name = ""
    full: dict = {}
    toy: dict = {}
    outputs: dict = {}
    fixed: tuple = ()

    def sizes(self, toy: bool) -> dict:
        return dict(self.toy if toy else self.full)

    def write_inputs(self, workdir: Path, seed: int, sz: dict) -> None:
        raise NotImplementedError

    def steps(self, seed: int, sz: dict):
        raise NotImplementedError

    def check(self, workdir: Path, seed: int, sz: dict):
        """Self-consistency problems as (step id, message) pairs."""
        raise NotImplementedError


class Sweep(Part):
    name = "sweep"
    full = {"depth": 6, "directions": 1024, "delta_exp": -11, "s": 0.75, "spot_checks": 16}
    toy = {"depth": 3, "directions": 32, "delta_exp": -8, "s": 0.5, "spot_checks": 4}
    outputs = {
        "project-sweep": {"data": ("sweep.csv",), "summaries": ("sweep.summary.txt",)},
        "kaufman": {"data": ("profile.csv",), "summaries": ("profile.summary.txt",)},
    }

    @staticmethod
    def four_corner(depth):
        c = [0.0]
        for _ in range(depth):
            c = [0.25 * x for x in c] + [0.75 + 0.25 * x for x in c]
        return [(x, y) for x in c for y in c]

    @staticmethod
    def thetas(seed, count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        return np.sort(rng.uniform(0.0, math.pi, size=count))

    def write_inputs(self, workdir, seed, sz):
        write_points(workdir / "fc.csv", self.four_corner(sz["depth"]))
        write_directions(workdir / "dirs.csv", self.thetas(seed, sz["directions"]))

    def steps(self, seed, sz):
        common = ["--input", "fc.csv", "--directions", "dirs.csv", "--delta", pow2(sz["delta_exp"])]
        return [
            ("project-sweep", ["project-sweep", *common, "--output", "sweep.csv"]),
            ("kaufman", ["kaufman", *common, "--s", repr(sz["s"]), "--output", "profile.csv"]),
        ]

    def check(self, workdir, seed, sz):
        problems = []
        n_points = 4 ** sz["depth"]
        delta = 2.0 ** sz["delta_exp"]
        sweep = read_csv(workdir / "sweep.csv")
        profile = read_csv(workdir / "profile.csv")
        summary = read_keyvalues(workdir / "profile.summary.txt")
        thetas = [float(r[0]) for r in read_csv(workdir / "dirs.csv")]
        if [float(r[0]) for r in sweep] != thetas or [float(r[0]) for r in profile] != thetas:
            problems.append(("project-sweep", "theta column differs from the input directions"))
            return problems
        sweep_n = [int(r[1]) for r in sweep]
        if any(not 1 <= n <= n_points for n in sweep_n):
            problems.append(("project-sweep", f"some N lies outside [1, |P| = {n_points}]"))
        if [int(r[1]) for r in profile] != sweep_n:
            problems.append(("kaufman", "profile N differs from the project-sweep N"))
        if int(summary.get("witness_N", -1)) != max(sweep_n):
            problems.append(("kaufman", f"witness_N={summary.get('witness_N')} != max N {max(sweep_n)}"))
        if int(summary.get("witness_index", -1)) != sweep_n.index(max(sweep_n)):
            problems.append(("kaufman", "witness_index is not the first argmax of the profile"))
        # independent recounts from the definitions: N on evenly spaced rows,
        # close pairs by the quadratic count on a few of them
        pts = np.asarray(self.four_corner(sz["depth"]))
        rows = np.linspace(0, len(thetas) - 1, sz["spot_checks"]).astype(int)
        for i in rows:
            proj = pts[:, 0] * math.cos(thetas[i]) + pts[:, 1] * math.sin(thetas[i])
            n = np.unique(np.floor(proj / delta)).size
            if n != sweep_n[i]:
                problems.append(("project-sweep", f"row {i}: N = {sweep_n[i]}, recount gives {n}"))
        for i in rows[:: max(1, len(rows) // 4)]:
            proj = pts @ np.array([math.cos(thetas[i]), math.sin(thetas[i])])
            pairs = sum(int((np.abs(proj[j:j + 512, None] - proj[None, :]) <= delta).sum())
                        for j in range(0, proj.size, 512)) - proj.size
            if pairs != int(sweep[i][2]):
                problems.append(("project-sweep", f"row {i}: close_pairs = {sweep[i][2]}, "
                                 f"quadratic count gives {pairs}"))
        return problems


class TwoScale(Part):
    name = "two-scale"
    full = {"n": 4096, "exponent": 1.5, "delta_exp": -10, "lattice": 256, "lattice_delta_exp": -8}
    toy = {"n": 256, "exponent": 1.5, "delta_exp": -6, "lattice": 64, "lattice_delta_exp": -6}
    outputs = {
        "generate-frostman": {"data": ("rf.csv",)},
        "two-scale-frostman": {"data": ("ts_rf/anchors.csv", "ts_rf/fine.csv", "ts_rf/balls.csv"),
                               "summaries": ("ts_rf/manifest",)},
        "two-scale-lattice": {"data": ("ts_lat/anchors.csv", "ts_lat/fine.csv", "ts_lat/balls.csv"),
                              "summaries": ("ts_lat/manifest",)},
    }
    fixed = ("ts_lat/anchors.csv", "ts_lat/fine.csv", "ts_lat/balls.csv", "ts_lat/manifest")

    def write_inputs(self, workdir, seed, sz):
        m = sz["lattice"]
        ticks = np.arange(m) / m
        write_points(workdir / "lattice.csv", ((x, y) for x in ticks for y in ticks))

    def steps(self, seed, sz):
        d = pow2(sz["delta_exp"])
        e = repr(sz["exponent"])
        return [
            ("generate-frostman", ["generate", "--kind", "random_frostman", "--n", str(sz["n"]),
                                   "--exponent", e, "--delta", d, "--seed", str(seed),
                                   "--output", "rf.csv"]),
            ("two-scale-frostman", ["two-scale", "--input", "rf.csv", "--exponent", e,
                                    "--delta", d, "--output", "ts_rf"]),
            ("two-scale-lattice", ["two-scale", "--input", "lattice.csv", "--exponent", "1.0",
                                   "--delta", pow2(sz["lattice_delta_exp"]), "--output", "ts_lat"]),
        ]

    def check(self, workdir, seed, sz):
        problems = []
        if len(read_csv(workdir / "rf.csv")) != sz["n"]:
            problems.append(("generate-frostman", f"generated set does not hold n={sz['n']} points"))
        for step, out, inp in (("two-scale-frostman", "ts_rf", "rf.csv"),
                               ("two-scale-lattice", "ts_lat", "lattice.csv")):
            man = read_keyvalues(workdir / out / "manifest")
            balls = read_csv(workdir / out / "balls.csv")
            anchors = read_csv(workdir / out / "anchors.csv")
            fine = read_csv(workdir / out / "fine.csv")
            if int(man["balls"]) != len(balls) or len(anchors) != len(balls):
                problems.append((step, "manifest ball count differs from balls.csv or anchors.csv"))
            if int(man["fine_points"]) != len(fine):
                problems.append((step, "manifest fine_points differs from fine.csv"))
            # anchors one per ball, fine points inside the balls and drawn
            # from the input, balls pairwise non-adjacent
            level = int(balls[0][0]) if balls else 0
            cells = {(int(kx), int(ky)) for _, kx, ky in balls}

            def cell(row):
                return tuple(int(v) for v in np.floor(np.asarray(row, float) * 2.0 ** level))

            if sorted(cell(r) for r in anchors) != sorted(cells):
                problems.append((step, "anchors are not one per ball"))
            if any(cell(r) not in cells for r in fine):
                problems.append((step, "a fine point lies outside every ball"))
            if not {tuple(r) for r in fine} <= {tuple(r) for r in read_csv(workdir / inp)}:
                problems.append((step, "a fine point is not an input point"))
            if any(max(abs(a[0] - b[0]), abs(a[1] - b[1])) < 2
                   for a in cells for b in cells if a < b):
                problems.append((step, "two balls are adjacent"))
            for key in ("coarse_ratio", "fine_ratio"):
                if not float(man[key]) <= 8.0:
                    problems.append((step, f"{key}={man[key]} exceeds the ratio bound 8"))
        return problems


class ProductTriples(Part):
    name = "product-triples"
    full = {"base": 24, "fiber": 32, "directions": 64, "delta_exp": -12, "s": 0.5, "tau": 0.5,
            "slope": 0.5, "intercept": 0.1, "window": 0.6}
    toy = {"base": 8, "fiber": 8, "directions": 8, "delta_exp": -10, "s": 0.5, "tau": 0.5,
           "slope": 0.5, "intercept": 0.1, "window": 0.6}
    outputs = {
        "generate-planted": {"data": ("prod.csv",)},
        "product-experiment": {"data": ("prof.csv", "triples.csv"),
                               "summaries": ("prof.summary.txt",)},
    }

    def write_inputs(self, workdir, seed, sz):
        # The seed reaches this workload through the generator's per-fiber
        # jitter.  The directions are a fixed net over the window plus the
        # planted line's normal (so the triple scan has hits): the number of
        # indexed pairs, which sets the cost of every family() call, swings
        # by +-25% between random direction sets but by +-2% between seeds
        # on this net.
        write_scalars(workdir / "base.csv", np.arange(sz["base"]) / sz["base"])
        w = sz["window"]
        thetas = np.linspace(-w, w, sz["directions"] - 1)
        planted = math.atan2(-sz["slope"], 1.0)
        write_directions(workdir / "dirs.csv", np.sort(np.append(thetas, planted)))

    def steps(self, seed, sz):
        d = 2.0 ** sz["delta_exp"]
        return [
            ("generate-planted", ["generate", "--kind", "planted_collinear", "--input", "base.csv",
                                  "--slope", repr(sz["slope"]), "--intercept", repr(sz["intercept"]),
                                  "--jitter", repr(d / 4), "--delta", repr(d), "--seed", str(seed),
                                  "--s", repr(sz["s"]), "--tau", repr(sz["tau"]),
                                  "--fiber-size", str(sz["fiber"]), "--output", "prod.csv"]),
            ("product-experiment", ["product-experiment", "--input", "prod.csv",
                                    "--directions", "dirs.csv", "--delta", repr(d),
                                    "--s", repr(sz["s"]), "--eps0", "0",
                                    "--output", "prof.csv", "--triples-output", "triples.csv"]),
        ]

    def check(self, workdir, seed, sz):
        problems = []
        if len(read_csv(workdir / "prod.csv")) != sz["base"] * sz["fiber"]:
            problems.append(("generate-planted", "product set has the wrong number of points"))
        prof = read_csv(workdir / "prof.csv")
        summary = read_keyvalues(workdir / "prof.summary.txt")
        if len(prof) != sz["directions"] or int(summary["max_N"]) != max(int(r[1]) for r in prof):
            problems.append(("product-experiment", "max_N differs from the profile maximum"))
        threshold = float(summary["threshold_intersection"])
        triples = read_csv(workdir / "triples.csv")
        if not triples:
            problems.append(("product-experiment", "no good triple found for the planted line"))
        if any(int(r[3]) < threshold for r in triples):
            problems.append(("product-experiment", "a triples row is below the threshold"))
        base = {float(r[0]) for r in read_csv(workdir / "base.csv")}
        sep = float(summary["threshold_separation"])
        for r in triples:
            b = [float(v) for v in r[:3]]
            if not set(b) <= base or min(abs(b[0] - b[1]), abs(b[0] - b[2]), abs(b[1] - b[2])) < sep:
                problems.append(("product-experiment", f"triple {r[:3]} is not a separated base triple"))
                break
        return problems


def _indicator(members) -> np.ndarray:
    ind = np.zeros(int(members.max()) + 1)
    ind[members] = 1.0
    return ind


def _convolve_support(a, b) -> np.ndarray:
    """Indicator of the sumset of two indicator vectors (FFT convolution;
    the counts are integers far below 2^52, so > 0.5 is exact)."""
    n = a.size + b.size - 1
    size = 1 << (n - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]
    return (conv > 0.5).astype(float)


def plunnecke_expected(a, b, m, n) -> dict:
    """C, lhs, rhs and holds of ``plunnecke`` for non-negative grid sets,
    computed from indicator convolutions instead of sorted pair sums."""
    ia, ib = _indicator(a), _indicator(b)
    c = -(-int(_convolve_support(ia, ib).sum()) // len(a))

    def fold(k):
        acc = np.ones(1)
        for _ in range(k):
            acc = _convolve_support(acc, ib)
        return acc

    lhs = int(_convolve_support(fold(m), fold(n)[::-1]).sum())
    rhs = c ** (m + n) * len(a)
    return {"C": str(c), "lhs": str(lhs), "rhs": str(rhs), "holds": str(lhs <= rhs)}


def read_members(path: Path) -> np.ndarray:
    return np.asarray([int(r[0]) for r in read_csv(path)], dtype=np.int64)


class Additive(Part):
    name = "additive"
    full = {"sparse": 1800, "sparse_range": 10 ** 6, "dense": 2000, "dense_range": 4000,
            "graph": 600, "graph_range": 900, "band": 131, "k": 4.0}
    toy = {"sparse": 100, "sparse_range": 10 ** 4, "dense": 100, "dense_range": 200,
           "graph": 60, "graph_range": 90, "band": 13, "k": 4.0}
    step_size = 2.0 ** -20
    outputs = {
        "plunnecke-sparse": {"summaries": ("pl_sparse.txt",)},
        "plunnecke-dense": {"summaries": ("pl_dense.txt",)},
        "bsg": {"data": ("bsg.a_sub.csv", "bsg.b_sub.csv"), "summaries": ("bsg.txt",)},
        "verify": {"data": ("verify_out/verify_report.csv",),
                   "summaries": ("verify_out/summary.txt",)},
    }
    fixed = ("verify_out/verify_report.csv", "verify_out/summary.txt")

    def write_inputs(self, workdir, seed, sz):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
        h = self.step_size
        write_gridset(workdir / "sparse.csv", rng.choice(sz["sparse_range"], sz["sparse"], replace=False), h)
        write_gridset(workdir / "dense.csv", rng.choice(sz["dense_range"], sz["dense"], replace=False), h)
        # band graph |i - j| <= band over seeded subsets of [0, graph_range):
        # every restricted sum lies below 2 * graph_range, so the sumset
        # hypothesis holds for every seed, and the edge count is fixed
        n = sz["graph"]
        write_gridset(workdir / "ga.csv", np.sort(rng.choice(sz["graph_range"], n, replace=False)), h)
        write_gridset(workdir / "gb.csv", np.sort(rng.choice(sz["graph_range"], n, replace=False)), h)
        w = sz["band"]
        write_edges(workdir / "edges.csv",
                    ((i, j) for i in range(n) for j in range(max(0, i - w), min(n, i + w + 1))))

    def steps(self, seed, sz):
        return [
            ("plunnecke-sparse", ["plunnecke", "--input-a", "sparse.csv", "--input-b", "sparse.csv",
                                  "--m", "1", "--n", "0", "--output", "pl_sparse.txt"]),
            ("plunnecke-dense", ["plunnecke", "--input-a", "dense.csv", "--input-b", "dense.csv",
                                 "--m", "2", "--n", "1", "--output", "pl_dense.txt"]),
            ("bsg", ["bsg", "--input-a", "ga.csv", "--input-b", "gb.csv", "--edges", "edges.csv",
                     "--k", repr(sz["k"]), "--output", "bsg.txt"]),
            ("verify", ["verify", "--output", "verify_out"]),
        ]

    def check(self, workdir, seed, sz):
        problems = []
        for step, out, inp, m, n in (("plunnecke-sparse", "pl_sparse.txt", "sparse.csv", 1, 0),
                                     ("plunnecke-dense", "pl_dense.txt", "dense.csv", 2, 1)):
            rep = read_keyvalues(workdir / out)
            members = read_members(workdir / inp)
            want = plunnecke_expected(members, members, m, n)
            got = {k: rep.get(k) for k in want}
            if got != want or want["holds"] != "True":
                problems.append((step, f"report {got}, recomputed {want}"))
        bsg = read_keyvalues(workdir / "bsg.txt")
        a_sub = read_members(workdir / "bsg.a_sub.csv")
        b_sub = read_members(workdir / "bsg.b_sub.csv")
        if (int(bsg["a_sub"]), int(bsg["b_sub"])) != (a_sub.size, b_sub.size) \
                or not 0 < a_sub.size <= sz["graph"]:
            problems.append(("bsg", "extracted subset sizes differ from the written subsets"))
        elif int(bsg["achieved_sumset"]) != int(_convolve_support(_indicator(a_sub), _indicator(b_sub)).sum()):
            problems.append(("bsg", f"achieved_sumset={bsg['achieved_sumset']} is not |A' + B'|"))
        if read_keyvalues(workdir / "verify_out" / "summary.txt").get("overall") != "PASS":
            problems.append(("verify", "invariant suite did not pass"))
        return problems


class Workload:
    """Parts whose pipelines run one after the other in every pass, in one
    work directory (their file names do not overlap)."""

    def __init__(self, name, why, *parts):
        self.name, self.why, self.parts = name, why, parts
        self.outputs = {step: outs for part in parts for step, outs in part.outputs.items()}

    def sizes(self, toy: bool) -> dict:
        return {part.name: part.sizes(toy) for part in self.parts}

    def write_inputs(self, workdir, seed, sz):
        for part in self.parts:
            part.write_inputs(workdir, seed, sz[part.name])

    def steps(self, seed, sz):
        return [step for part in self.parts for step in part.steps(seed, sz[part.name])]

    def check(self, workdir, seed, sz):
        return [p for part in self.parts for p in part.check(workdir, seed, sz[part.name])]


# Two workloads, each stressing layers the other bypasses: the many-point
# projection sweep and the sumsets in one, the dyadic-cell passes and the
# pair-tube index (with product_experiment's few-point sweep) in the other.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-additive",
             "many-point projection sweep (covering_number, project, close_pairs, kaufman), then "
             "sparse vs dense and huge vs tiny sumsets (plunnecke, bsg, verify); no dyadic cells "
             "or pair-tube index",
             Sweep(), Additive()),
    Workload("twoscale-products",
             "dyadic-cell passes and non-concentration scans (generator, frostman_weights, "
             "two-scale), then the pair-tube index and product-experiment's few-point sweep; "
             "no incidence or additive",
             TwoScale(), ProductTriples()),
)}
