import math
import os
import shlex
from pathlib import Path

import pytest

from projlab import serialize
from projlab.cli import build_parser, main, parse_args
from projlab.additive import GridSet, PairGraph
from projlab.delta_core import DirectionSet
from projlab.product_construction import ProductLikeSet, product_experiment


def run(*argv):
    return main(list(argv))


def test_generate_four_corner_and_sweep_consistency(tmp_path):
    pts_file = tmp_path / "fc.csv"
    assert run("generate", "--kind", "four_corner", "--depth", "4",
               "--output", str(pts_file)) == 0
    sweep_file = tmp_path / "sweep.csv"
    d = 4.0 ** -4
    assert run("project-sweep", "--input", str(pts_file), "--num-directions", "64",
               "--delta", repr(d), "--output", str(sweep_file)) == 0
    rows = (sweep_file.read_text().strip().splitlines())[1:]
    assert len(rows) == 64
    max_n = max(int(r.split(",")[1]) for r in rows)
    prof_file = tmp_path / "prof.csv"
    assert run("kaufman", "--input", str(pts_file), "--num-directions", "64",
               "--delta", repr(d), "--s", "0.7", "--output", str(prof_file)) == 0
    summary = (tmp_path / "prof.summary.txt").read_text()
    witness_n = int(next(l for l in summary.splitlines() if l.startswith("witness_N=")).split("=")[1])
    assert witness_n == max_n


def test_kaufman_empty_directions_exit_1(tmp_path):
    pts_file = tmp_path / "p.csv"
    run("generate", "--kind", "four_corner", "--depth", "2", "--output", str(pts_file))
    empty = tmp_path / "empty.csv"
    empty.write_text("theta\n")
    out = tmp_path / "out.csv"
    assert run("kaufman", "--input", str(pts_file), "--directions", str(empty),
               "--output", str(out)) == 1


def test_missing_parameter_exit_1(tmp_path):
    assert run("generate", "--kind", "ap", "--output", str(tmp_path / "x.csv")) == 1
    assert run("project-sweep", "--output", str(tmp_path / "y.csv")) == 1


def test_malformed_csv_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0.1,oops\n")
    assert run("project-sweep", "--input", str(bad), "--num-directions", "4",
               "--output", str(tmp_path / "s.csv")) == 1


def test_non_finite_point_exit_1_with_line(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("x,y\n0.1,0.2\nnan,0.3\n")
    assert run("project-sweep", "--input", str(bad), "--num-directions", "4",
               "--output", str(tmp_path / "s.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:3: ")
    assert "Traceback" not in err


def test_plunnecke_command(tmp_path):
    a = tmp_path / "a.csv"
    serialize.write_gridset(a, GridSet(range(10), 2.0 ** -8))
    rep = tmp_path / "rep.txt"
    assert run("plunnecke", "--input-a", str(a), "--input-b", str(a),
               "--m", "1", "--n", "1", "--output", str(rep)) == 0
    text = rep.read_text()
    assert "C=2" in text and "holds=True" in text


def test_bsg_command(tmp_path):
    n = 8
    g = GridSet(range(n), 2.0 ** -8)
    a = tmp_path / "a.csv"
    serialize.write_gridset(a, g)
    edges_file = tmp_path / "g.csv"
    serialize.write_pairgraph(edges_file, PairGraph(g, g, [(i, j) for i in range(n) for j in range(n)]))
    rep = tmp_path / "bsg.txt"
    assert run("bsg", "--input-a", str(a), "--input-b", str(a), "--edges", str(edges_file),
               "--k", "2.0", "--output", str(rep)) == 0
    assert f"achieved_sumset={2 * n - 1}" in rep.read_text()
    assert (tmp_path / "bsg.a_sub.csv").exists()


def test_two_scale_command(tmp_path):
    pts_file = tmp_path / "fr.csv"
    assert run("generate", "--kind", "random_frostman", "--n", "256", "--exponent", "1.0",
               "--delta", repr(2.0 ** -8), "--seed", "7", "--output", str(pts_file)) == 0
    out_dir = tmp_path / "ts"
    assert run("two-scale", "--input", str(pts_file), "--delta", repr(2.0 ** -8),
               "--output", str(out_dir)) == 0
    assert (out_dir / "anchors.csv").exists()
    assert (out_dir / "manifest").exists()


def test_random_frostman_rejection_exit_1(tmp_path, monkeypatch, capsys):
    import projlab.generators as generators_mod

    # every scan ratio is >= 1 (a ball of radius δ holds its center)
    monkeypatch.setattr(generators_mod, "RANDOM_FROSTMAN_RATIO_BOUND", 0.5)
    assert run("generate", "--kind", "random_frostman", "--n", "16", "--exponent", "1.0",
               "--delta", repr(2.0 ** -6), "--output", str(tmp_path / "fr.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: random_frostman: no attempt met the ratio bound 0.5")
    assert "Traceback" not in err
    assert not (tmp_path / "fr.csv").exists()


def test_product_experiment_command_with_triples(tmp_path):
    base = tmp_path / "base.csv"
    run("generate", "--kind", "ap", "--n", "3", "--step", "0.5", "--output", str(base))
    prod = tmp_path / "prod.csv"
    d = 2.0 ** -10
    assert run("generate", "--kind", "planted_collinear", "--input", str(base),
               "--slope", "0.5", "--intercept", "0.1", "--jitter", "0",
               "--delta", repr(d), "--fiber-size", "8", "--fiber-step", repr(16 * d),
               "--no-validate", "--output", str(prod)) == 0
    prof = tmp_path / "prof.csv"
    trip = tmp_path / "trip.csv"
    theta = math.atan2(-0.5, 1.0)
    dirs = tmp_path / "dirs.csv"
    dirs.write_text(f"theta\n{theta % (2 * math.pi)!r}\n")
    assert run("product-experiment", "--input", str(prod), "--directions", str(dirs),
               "--delta", repr(d), "--s", "0.5", "--eps0", "0",
               "--threshold-intersection", "8",
               "--output", str(prof), "--triples-output", str(trip)) == 0
    lines = trip.read_text().strip().splitlines()
    assert lines[0] == "b1,b2,b3,intersection_size"
    assert len(lines) > 1  # the planted family fires the scan


def test_product_experiment_reads_delta_and_s_from_its_file(tmp_path):
    d = 2.0 ** -10
    fibers = {b: [0.0, 3 * d, 0.25 + b / 8, 0.5] for b in (0.0, 0.25, 0.5)}
    prod = ProductLikeSet(list(fibers), fibers, d, 0.75, 0.5)
    serialize.write_product(tmp_path / "prod.csv", prod)
    dirs = DirectionSet([0.0, 0.4, 1.1])
    serialize.write_directions(tmp_path / "dirs.csv", dirs)

    def summary(*flags):
        out = str(tmp_path / "prof.csv")
        assert run("product-experiment", "--input", str(tmp_path / "prod.csv"),
                   "--directions", str(tmp_path / "dirs.csv"), "--eps0", "0", *flags,
                   "--output", out) == 0
        lines = (tmp_path / "prof.summary.txt").read_text().splitlines()
        return dict(line.lstrip("# ").split("=", 1) for line in lines if "=" in line)

    res = product_experiment(prod, dirs, epsilon=0.0)
    got = summary()
    assert (got["delta"], got["s"]) == ("0.0009765625", "0.75")
    assert (int(got["max_N"]), float(got["target"])) == (res.max_n, res.target)
    assert (tmp_path / "prof.csv").read_text().splitlines()[1:] == \
        [f"{theta!r},{n}" for theta, n in res.profile]
    res = product_experiment(prod, dirs, 2.0 ** -8, epsilon=0.0)
    got = summary("--delta", repr(2.0 ** -8))
    assert (got["delta"], got["s"]) == ("0.00390625", "0.75")
    assert (int(got["max_N"]), float(got["target"])) == (res.max_n, res.target)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n=9\norigin=0.5\n")
    out = tmp_path / "ap.csv"
    # config supplies origin, and the flag's n wins over the config's
    assert run("generate", "--config", str(cfg), "--kind", "ap", "--n", "4",
               "--step", "0.125", "--output", str(out)) == 0
    assert list(serialize.read_scalars(out)) == [0.5, 0.625, 0.75, 0.875]


@pytest.mark.parametrize("kind, flags, config, unread", [
    ("ap", ["--n", "3", "--step", "0.5", "--seed", "9"], "", "--seed"),
    ("ap", ["--n", "3", "--step", "0.5", "--seed", "9", "--delta", "0.25", "--jitter", "0.1"], "",
     "--seed, --delta, --jitter"),
    ("random_frostman", ["--n", "4", "--exponent", "1", "--no-validate"], "", "--no-validate"),
    ("four_corner", ["--depth", "2"], "jitter=0.1\n", "--jitter"),
], ids=("ap-seed", "ap-three", "random_frostman-no-validate", "four_corner-config-jitter"))
def test_generate_refuses_flags_its_kind_does_not_read(tmp_path, capsys, kind, flags, config, unread):
    out = tmp_path / "x.csv"
    (tmp_path / "run.cfg").write_text(config)
    assert run("generate", "--config", str(tmp_path / "run.cfg"), "--kind", kind, *flags,
               "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: generate --kind {kind} does not read {unread}\n"
    assert not out.exists()


def test_verify_byte_identical(tmp_path):
    out1 = tmp_path / "v1"
    out2 = tmp_path / "v2"
    assert run("verify", "--output", str(out1)) == 0
    assert run("verify", "--output", str(out2)) == 0
    for name in ("verify_report.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_failure_exit_2(tmp_path, monkeypatch, capsys):
    import projlab.verify as verify_mod
    from projlab.verify import CheckResult

    def failing():
        return CheckResult("synthetic", False, "1", "2", "planted failure")

    monkeypatch.setattr(verify_mod, "ALL_CHECKS", (failing,))
    assert run("verify", "--output", str(tmp_path / "v")) == 2
    out = capsys.readouterr().out
    assert "first failure: synthetic" in out


def test_failed_invariant_exit_2(tmp_path, monkeypatch, capsys):
    from projlab import scale_blowup

    pts_file = tmp_path / "fc.csv"
    run("generate", "--kind", "four_corner", "--depth", "4", "--output", str(pts_file))
    monkeypatch.setattr(scale_blowup, "_max_cap_ratio", lambda tree, w, e: (2.0, (0, (0, 0))))
    out = tmp_path / "ts"
    assert run("two-scale", "--input", str(pts_file), "--delta", repr(2.0 ** -8),
               "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cap certificate failed: lhs 2.0, rhs 1.000000001")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_sweep_idempotent_reports(tmp_path):
    pts_file = tmp_path / "fc.csv"
    run("generate", "--kind", "four_corner", "--depth", "3", "--output", str(pts_file))
    d = 4.0 ** -3
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    run("project-sweep", "--input", str(pts_file), "--num-directions", "16",
        "--delta", repr(d), "--output", str(out1))
    run("project-sweep", "--input", str(pts_file), "--num-directions", "16",
        "--delta", repr(d), "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


# a product-like set of three one-point fibers
PRODUCT_3 = "# delta=0.00390625\n# s=0.5\n# tau=0.5\nb,a\n0.125,0.1\n0.5,0.2\n0.875,0.3\n"
BASE_3 = "v\n0.0\n0.5\n1.0\n"
# one malformed or missing input per subcommand, plus an out-of-int64 grid
# index: (argv, files to write)
BAD_INPUTS = {
    "generate": (["generate", "--kind", "planted_collinear", "--input", "{d}/missing.csv",
                  "--slope", "0.5", "--intercept", "0", "--output", "{d}/out.csv"], {}),
    "project-sweep": (["project-sweep", "--input", "{d}/p.csv", "--num-directions", "4",
                       "--output", "{d}/out.csv"], {"p.csv": "x,y\n0.1,oops\n"}),
    "kaufman": (["kaufman", "--input", "{d}/missing.csv", "--num-directions", "4",
                 "--output", "{d}/out.csv"], {}),
    "product-experiment": (["product-experiment", "--input", "{d}/prod.csv", "--num-directions", "4",
                            "--output", "{d}/out.csv"], {"prod.csv": "x,y\n0.1,0.2\n"}),
    "bsg": (["bsg", "--input-a", "{d}/a.csv", "--input-b", "{d}/a.csv", "--edges", "{d}/e.csv",
             "--k", "2", "--output", "{d}/out.txt"],
            {"a.csv": "# delta=0.25\nk\n0\n1\n", "e.csv": "a_index,b_index\n0,0.5\n"}),
    "plunnecke": (["plunnecke", "--input-a", "{d}/a.csv", "--input-b", "{d}/a.csv",
                   "--m", "1", "--n", "1", "--output", "{d}/out.txt"], {"a.csv": "k\n0\n1\n"}),
    "plunnecke-int64": (["plunnecke", "--input-a", "{d}/a.csv", "--input-b", "{d}/a.csv",
                         "--m", "1", "--n", "1", "--output", "{d}/out.txt"],
                        {"a.csv": "# delta=0.25\nk\n0\n1e20\n"}),
    "two-scale": (["two-scale", "--input", "{d}/p.csv", "--output", "{d}/ts"],
                  {"p.csv": "x,y\n0.1,0.2\ninf,0.3\n"}),
    "verify": (["verify", "--output", "{d}/file/out"], {"file": "not a directory\n"}),
    # non-finite thresholds, on inputs that pass with the defaults: a NaN
    # ratio bound would skip both invariant checks, a NaN separation or
    # intersection threshold would keep no triple
    "two-scale-nan-ratio": (["two-scale", "--input", "{d}/p.csv", "--delta", "0.015625",
                             "--threshold-ratio", "nan", "--output", "{d}/ts"],
                            {"p.csv": "x,y\n0.1,0.1\n0.9,0.9\n"}),
    "product-experiment-nan-separation": (["product-experiment", "--input", "{d}/prod.csv",
                                           "--num-directions", "4", "--threshold-separation", "nan",
                                           "--output", "{d}/out.csv", "--triples-output", "{d}/t.csv"],
                                          {"prod.csv": PRODUCT_3}),
    "product-experiment-nan-intersection": (["product-experiment", "--input", "{d}/prod.csv",
                                             "--num-directions", "4", "--threshold-intersection", "nan",
                                             "--output", "{d}/out.csv", "--triples-output", "{d}/t.csv"],
                                            {"prod.csv": PRODUCT_3}),
    # δ = 2^-70: the dyadic cells' floor(x · 2^70) leaves int64
    "two-scale-depth": (["two-scale", "--input", "{d}/p.csv", "--delta", "8.470329472543003e-22",
                         "--output", "{d}/ts"], {"p.csv": "x,y\n0.1,0.1\n0.9,0.9\n"}),
    # a subnormal δ: 1/δ overflowed to inf in log2(1/δ) (a traceback), and
    # v/δ to inf in the sweep, whose count read N=1
    "two-scale-subnormal-delta": (["two-scale", "--input", "{d}/p.csv", "--delta", "1e-310",
                                   "--output", "{d}/ts"], {"p.csv": "x,y\n0.1,0.1\n0.9,0.9\n"}),
    "generate-frostman-subnormal-delta": (["generate", "--kind", "random_frostman", "--n", "3",
                                           "--exponent", "0.1", "--delta", "1e-310",
                                           "--output", "{d}/out.csv"], {}),
    "kaufman-subnormal-delta": (["kaufman", "--input", "{d}/p.csv", "--num-directions", "4",
                                 "--delta", "1e-310", "--output", "{d}/out.csv"],
                                {"p.csv": "x,y\n0.1,0.2\n0.3,0.4\n"}),
    # δ = 2^-70: the generator's int64 cell counters wrapped past level 63
    "generate-frostman-depth": (["generate", "--kind", "random_frostman", "--n", "3", "--exponent", "0.1",
                                 "--delta", "8.470329472543003e-22", "--output", "{d}/out.csv"], {}),
    # a byte that is not UTF-8: in a data row, in a row past the first 8 KiB
    # (text-mode reads decode ahead in chunks of that size), in a grid set's
    # `# delta=` comment, and in a config file
    "project-sweep-utf8": (["project-sweep", "--input", "{d}/p.csv", "--num-directions", "4",
                            "--output", "{d}/out.csv"], {"p.csv": b"x,y\n0.1,0.2\n0.3,\xff0.4\n"}),
    "project-sweep-utf8-past-8k": (["project-sweep", "--input", "{d}/p.csv", "--num-directions", "4",
                                    "--output", "{d}/out.csv"],
                                   {"p.csv": b"x,y\n" + b"".join(b"0.%06d,0.5\n" % i if i != 1499
                                                                  else b"0.1,0.\xff5\n"
                                                                  for i in range(1, 2000))}),
    "plunnecke-utf8-comment": (["plunnecke", "--input-a", "{d}/a.csv", "--input-b", "{d}/a.csv",
                                "--m", "1", "--n", "1", "--output", "{d}/out.txt"],
                               {"a.csv": b"k\n0\n# delta=0.25\xff\n1\n"}),
    "generate-utf8-config": (["generate", "--config", "{d}/run.cfg", "--output", "{d}/out.csv"],
                             {"run.cfg": b"kind=ap\nn=4\xff\nstep=0.5\n"}),
    # the root cell's draw totals 4 * 2^30, past the sampler's limit of 10^9
    "generate-sampler-limit": (["generate", "--kind", "random_frostman", "--n", "10",
                                "--exponent", "2", "--delta", "1.52587890625e-05",
                                "--output", "{d}/out.csv"], {}),
    # an array of 71 PiB, refused by the point budget before numpy's
    # allocation fails
    "generate-out-of-memory": (["generate", "--kind", "ap", "--n", "10000000000000000",
                                "--step", "0.1", "--output", "{d}/out.csv"], {}),
    # past the point budget of 2^22: numpy failed to allocate 745 GiB, or
    # warned and then refused the set without naming --step
    "generate-ap-budget": (["generate", "--kind", "ap", "--n", "100000000000", "--step", "1e-12",
                            "--output", "{d}/out.csv"], {}),
    "generate-ap-step-inf": (["generate", "--kind", "ap", "--n", "3", "--step", "inf",
                              "--output", "{d}/out.csv"], {}),
    # a step below the float spacing at origin wrote the single row 1.7e+308
    "generate-ap-collapse": (["generate", "--kind", "ap", "--n", "3", "--step", "0.5",
                              "--origin", "1.7e308", "--output", "{d}/out.csv"], {}),
    # default fiber sizes round(δ^-s / 4) of 2.5·10^19 and 2.5·10^9: numpy
    # refused the first without naming the size and failed to allocate the
    # 18.6 GiB of the second
    "generate-planted-budget-s1": (["generate", "--kind", "planted_collinear", "--input", "{d}/base.csv",
                                    "--slope", "0.5", "--intercept", "0.1", "--delta", "1e-20", "--s", "1",
                                    "--no-validate", "--output", "{d}/out.csv"], {"base.csv": BASE_3}),
    "generate-planted-budget-s2": (["generate", "--kind", "planted_collinear", "--input", "{d}/base.csv",
                                    "--slope", "0.5", "--intercept", "0.1", "--delta", "1e-5", "--s", "2",
                                    "--no-validate", "--output", "{d}/out.csv"], {"base.csv": BASE_3}),
    # δ^-s past float range: an OverflowError traceback in product_experiment's
    # δ^-(s + ε), the planted generator's default fiber size and kaufman's
    # check of the direction count
    "product-experiment-eps0-overflow": (["product-experiment", "--input", "{d}/prod.csv",
                                          "--num-directions", "4", "--eps0", "200",
                                          "--output", "{d}/out.csv"], {"prod.csv": PRODUCT_3}),
    "generate-planted-fiber-size-overflow": (["generate", "--kind", "planted_collinear",
                                              "--input", "{d}/base.csv", "--slope", "0.5",
                                              "--intercept", "0.1", "--delta", "1e-200", "--s", "2",
                                              "--output", "{d}/out.csv"], {"base.csv": BASE_3}),
    "kaufman-delta-pow-minus-s-overflow": (["kaufman", "--input", "{d}/p.csv", "--num-directions", "4",
                                            "--delta", "1e-200", "--s", "2", "--output", "{d}/out.csv"],
                                           {"p.csv": "x,y\n0.0,0.0\n"}),
    # the planted product's assembled scan at δ below 2^-510
    "generate-planted-planar-floor": (["generate", "--kind", "planted_collinear", "--input", "{d}/base.csv",
                                       "--slope", "0.5", "--intercept", "0.1", "--delta", "1e-200",
                                       "--fiber-size", "2", "--fiber-step", "0.1",
                                       "--output", "{d}/out.csv"], {"base.csv": BASE_3}),
    # 4^40 and 2^60 points, past the generators' point budget of 2^22
    "generate-four-corner-depth": (["generate", "--kind", "four_corner", "--depth", "40",
                                    "--output", "{d}/out.csv"], {}),
    "generate-cantor1d-depth": (["generate", "--kind", "cantor1d", "--contraction", "0.25",
                                 "--depth", "60", "--output", "{d}/out.csv"], {}),
}
# the cases whose whole error is fixed: case -> (file, line, message)
BAD_INPUT_ERRORS = {
    "project-sweep-utf8": ("p.csv", 3, "byte 0xff is not UTF-8"),
    "project-sweep-utf8-past-8k": ("p.csv", 1500, "byte 0xff is not UTF-8"),
    "plunnecke-utf8-comment": ("a.csv", 3, "byte 0xff is not UTF-8"),
    "generate-utf8-config": ("run.cfg", 2, "byte 0xff is not UTF-8"),
}


@pytest.mark.parametrize("command", sorted(BAD_INPUTS))
def test_bad_input_one_error_line_no_traceback(tmp_path, capsys, command):
    argv, files = BAD_INPUTS[command]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    assert run(*(a.format(d=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if command in BAD_INPUT_ERRORS:
        name, line, message = BAD_INPUT_ERRORS[command]
        assert err == f"error: {tmp_path / name}:{line}: {message}\n"


@pytest.mark.parametrize("command", sorted(BAD_INPUTS))
def test_bad_input_fails_alike_through_the_line_loop(tmp_path, capsys, monkeypatch, command):
    argv, files = BAD_INPUTS[command]
    errors = []
    for line_loop in (False, True):
        if line_loop:  # every data line read by the CSV reader's line loop
            monkeypatch.setattr(serialize, "_plain_rows", lambda rest, n_fields: None)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
        assert run(*(a.format(d=tmp_path) for a in argv)) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    from projlab import generators

    def gen_ap(n, step, origin):
        raise MemoryError("Unable to allocate 71.1 PiB")

    monkeypatch.setattr(generators, "gen_ap", gen_ap)
    assert run("generate", "--kind", "ap", "--n", "3", "--step", "0.1",
               "--output", str(tmp_path / "out.csv")) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 71.1 PiB\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["product-experiment-nan-separation",
                                     "product-experiment-nan-intersection"])
def test_failed_threshold_writes_no_file(tmp_path, command):
    argv, files = BAD_INPUTS[command]
    (tmp_path / "prod.csv").write_text(files["prod.csv"])
    assert run(*(a.format(d=tmp_path) for a in argv)) == 1
    for name in ("out.csv", "out.summary.txt", "t.csv"):
        assert not (tmp_path / name).exists()


_PLANTED = ("generate --kind planted_collinear --input {d}/base_7.csv --slope 0.5 --intercept 0.1 "
            "--delta 0.0009765625 --output {d}/out.csv ")
_TWO_SCALE = "two-scale --input {f}/points_300.csv --delta 0.015625 --output {d}/ts "
_EXPERIMENT = ("product-experiment --input {f}/product_8.csv --num-directions 4 "
               "--output {d}/out.csv --triples-output {d}/t.csv ")
# a parameter each command's library function refuses before any file is
# written: case -> (command line, the whole error); {d} holds TOY_GRIDS,
# {f} the shipped fixtures
REFUSED_PARAMETERS = {
    "bsg-k-nan": ("bsg --input-a {d}/a.csv --input-b {d}/b.csv --edges {d}/g.csv "
                  "--output {d}/out.txt --k nan", "K must be a finite number >= 1, got nan"),
    "bsg-k-inf": ("bsg --input-a {d}/a.csv --input-b {d}/b.csv --edges {d}/g.csv "
                  "--output {d}/out.txt --k inf", "K must be a finite number >= 1, got inf"),
    "kaufman-s-nan": ("kaufman --input {f}/points_300.csv --num-directions 8 --output {d}/out.csv "
                      "--s nan", "exponent s must lie in (0, 2], got nan"),
    "product-experiment-eps0-nan": (_EXPERIMENT + "--eps0 nan",
                                    "epsilon must be a finite number >= 0, got nan"),
    "product-experiment-eps0-negative": (_EXPERIMENT + "--eps0 -0.5",
                                         "epsilon must be a finite number >= 0, got -0.5"),
    "product-experiment-s-inf": (_EXPERIMENT + "--s inf", "exponent s must lie in (0, 2], got inf"),
    "generate-jitter-nan": (_PLANTED + "--jitter nan", "jitter must lie in [0, delta/2], got nan"),
    "generate-jitter-negative": (_PLANTED + "--jitter -1", "jitter must lie in [0, delta/2], got -1.0"),
    "generate-fiber-size-0": (_PLANTED + "--fiber-size 0", "fiber_size must be at least 1, got 0"),
    "generate-fiber-step-0": (_PLANTED + "--fiber-step 0", "fiber_step must be positive, got 0.0"),
    # --no-validate wrote `# tau=nan`, which product-experiment refuses to
    # read, and died on round(nan) for --s nan
    "generate-tau-nan": (_PLANTED + "--no-validate --tau nan", "exponent tau must lie in (0, 2], got nan"),
    "generate-s-nan": (_PLANTED + "--no-validate --s nan", "exponent s must lie in (0, 2], got nan"),
    # a negative factor passed every occupied cell as a good ball
    "two-scale-good-ball-negative": (_TWO_SCALE + "--threshold-good-ball -1",
                                     "good_ball_factor must be a finite number >= 0, got -1.0"),
    "two-scale-good-ball-nan": (_TWO_SCALE + "--threshold-good-ball nan",
                                "good_ball_factor must be a finite number >= 0, got nan"),
    # refused before the points are weighed
    "two-scale-delta-not-dyadic": ("two-scale --input {f}/points_300.csv --delta 0.1 --output {d}/ts",
                                   "delta must be dyadic with an even exponent (2^-2j)"),
    # past the point budget, refused before numpy is asked for the array
    "generate-ap-budget": ("generate --kind ap --n 100000000000 --step 1e-12 --output {d}/out.csv",
                           "n 100000000000 builds 100000000000 points, over the budget of 4194304"),
    "generate-ap-step-inf": ("generate --kind ap --n 3 --step inf --output {d}/out.csv",
                             "step must be positive and finite, got inf"),
    "generate-ap-collapse": ("generate --kind ap --n 3 --step 0.5 --origin 1.7e308 --output {d}/out.csv",
                             "n 3 terms at step 0.5 from origin 1.7e+308 round to fewer distinct floats: 1"),
    "generate-planted-budget": ("generate --kind planted_collinear --input {d}/base_7.csv --slope 0.5 "
                                "--intercept 0.1 --delta 1e-5 --s 2 --no-validate --output {d}/out.csv",
                                "fiber size 2500000000 on 7 base points at delta 1e-05 builds 17500000000 "
                                "points, over the budget of 4194304"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_PARAMETERS))
def test_refused_parameter_exits_1_and_writes_nothing(tmp_path, capsys, case):
    from projlab.verify import fixtures_path

    line, message = REFUSED_PARAMETERS[case]
    for name, text in TOY_GRIDS.items():
        (tmp_path / name).write_text(text)
    before = sorted(tmp_path.iterdir())
    assert run(*line.format(d=tmp_path, f=fixtures_path()).split()) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_scan_names_the_first_non_injective_family_it_reads(tmp_path, capsys):
    # at separation 0 the scan reads a family two of whose pairs share tube
    # (37, 38); at 0.25 it never reads that family, so the run succeeds
    from projlab.verify import fixtures_path

    argv = ["product-experiment", "--input", str(Path(fixtures_path()) / "product_8.csv"),
            "--num-directions", "64", "--output", str(tmp_path / "out.csv"),
            "--triples-output", str(tmp_path / "t.csv")]
    assert run(*argv, "--threshold-separation", "0") == 1
    assert capsys.readouterr().err == ("error: pair-to-tube map not injective at tube (37, 38); "
                                       "roughly-horizontal condition violated\n")
    for name in ("out.csv", "out.summary.txt", "t.csv"):
        assert not (tmp_path / name).exists()
    assert run(*argv, "--threshold-separation", "0.25") == 0
    assert (tmp_path / "t.csv").read_text() == "b1,b2,b3,intersection_size\n"


@pytest.mark.parametrize("command, start, end", [
    ("two-scale-subnormal-delta", "error: delta must be dyadic with an even exponent (2^-2j)\n", ""),
    ("generate-frostman-subnormal-delta", "error: branching generator needs an exactly dyadic delta\n", ""),
    ("kaufman-subnormal-delta", "error: delta 1e-310 takes floor(v / delta) out of int64 for |v| up to "
     "0.4949747468305833;", " the smallest usable delta is 5.36652695839181e-20\n"),
    ("generate-frostman-depth", "error: dyadic depth 70 takes floor(x * 2^70) out of int64 ",
     " the largest usable depth is 63\n"),
    ("product-experiment-eps0-overflow", "error: delta^-200.5 overflows a float at delta 0.00390625\n", ""),
    ("generate-planted-fiber-size-overflow", "error: delta^-2.0 overflows a float at delta 1e-200\n", ""),
    ("kaufman-delta-pow-minus-s-overflow", "error: delta^-2.0 overflows a float at delta 1e-200\n", ""),
    ("generate-planted-planar-floor", "error: a planar scan needs delta >= 2^-510, where squared "
     "distances stay normal floats; got 1e-200\n", ""),
])
def test_delta_past_float_or_int64_names_the_limit(tmp_path, capsys, command, start, end):
    argv, files = BAD_INPUTS[command]
    for name, data in files.items():
        (tmp_path / name).write_text(data)
    assert run(*(a.format(d=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and err.endswith(end)
    assert not any(p.name.startswith(("out", "ts")) for p in tmp_path.iterdir())


def test_two_scale_depth_past_int64_names_the_largest_depth(tmp_path, capsys):
    from projlab.verify import fixtures_path

    argv = ["two-scale", "--input", os.path.join(fixtures_path(), "points_300.csv"),
            "--delta", repr(2.0 ** -70), "--output", str(tmp_path / "ts")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dyadic depth 70 ") and err.endswith(" the largest usable depth is 63\n")
    assert not (tmp_path / "ts").exists()


D6, D10 = repr(2.0 ** -6), repr(2.0 ** -10)
PLANTED = {"kind": "planted_collinear", "input": "base.csv", "slope": "0.5", "intercept": "0.1",
           "delta": D10, "fiber-size": "8", "fiber-step": repr(16 * 2.0 ** -10)}

# one toy run per case: (command, value flags, switches); every value flag of
# every subcommand appears in at least one case
CONFIG_CASES = {
    "generate-ap": ("generate", {"kind": "ap", "n": "5", "step": "0.125", "origin": "0.25",
                                 "output": "ap.csv"}, []),
    "generate-cantor1d": ("generate", {"kind": "cantor1d", "contraction": "0.3", "depth": "3",
                                       "output": "c.csv"}, []),
    "generate-random_frostman": ("generate", {"kind": "random_frostman", "n": "32", "exponent": "1.0",
                                              "delta": D6, "seed": "5", "output": "rf2.csv"}, []),
    "generate-planted_collinear": ("generate", {**PLANTED, "jitter": repr(2.0 ** -12), "seed": "4",
                                                "s": "0.4", "tau": "0.6", "output": "p2.csv"},
                                   ["--no-validate"]),
    "project-sweep": ("project-sweep", {"input": "fc.csv", "num-directions": "16", "delta": "0.015625",
                                        "output": "sweep.csv"}, []),
    "project-sweep-directions": ("project-sweep", {"input": "fc.csv", "directions": "dirs.csv",
                                                   "output": "sweep.csv"}, []),
    "kaufman": ("kaufman", {"input": "fc.csv", "num-directions": "32", "delta": "0.015625", "s": "0.7",
                            "output": "profile.csv"}, []),
    "kaufman-directions": ("kaufman", {"input": "fc.csv", "directions": "dirs.csv", "s": "0.1",
                                       "output": "profile.csv"}, []),
    "product-experiment": ("product-experiment",
                           {"input": "prod.csv", "directions": "dirs.csv", "delta": D10, "s": "0.5",
                            "eps0": "0", "threshold-separation": "0.125",
                            "threshold-intersection": "8", "output": "prof.csv",
                            "triples-output": "triples.csv"}, []),
    "product-experiment-net": ("product-experiment", {"input": "prod.csv", "num-directions": "8",
                                                      "output": "prof.csv"}, []),
    "bsg": ("bsg", {"input-a": "a.csv", "input-b": "a.csv", "edges": "g.csv", "k": "2",
                    "output": "bsg.txt"}, []),
    "plunnecke": ("plunnecke", {"input-a": "a.csv", "input-b": "a.csv", "m": "2", "n": "1",
                                "output": "pr.txt"}, []),
    "two-scale": ("two-scale", {"input": "rf.csv", "delta": D6, "exponent": "0.9",
                                "threshold-good-ball": "0.5", "threshold-ratio": "16",
                                "output": "ts"}, []),
    "verify": ("verify", {"output": "v"}, []),
}


@pytest.fixture(scope="module")
def toy_inputs(tmp_path_factory):
    """The input files of CONFIG_CASES, as {name: bytes}."""
    d = tmp_path_factory.mktemp("inputs")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        assert run("generate", "--kind", "four_corner", "--depth", "3", "--output", "fc.csv") == 0
        assert run("generate", "--kind", "ap", "--n", "3", "--step", "0.5", "--output", "base.csv") == 0
        argv = [f"--{k}={v}" for k, v in PLANTED.items()]
        assert run("generate", *argv, "--no-validate", "--output", "prod.csv") == 0
        assert run("generate", "--kind", "random_frostman", "--n", "64", "--exponent", "1.0",
                   "--delta", D6, "--seed", "2", "--output", "rf.csv") == 0
    finally:
        os.chdir(cwd)
    (d / "dirs.csv").write_text(f"theta\n{math.atan2(-0.5, 1.0) % (2 * math.pi)!r}\n0.3\n")
    g = GridSet(range(8), 2.0 ** -8)
    serialize.write_gridset(d / "a.csv", g)
    serialize.write_pairgraph(d / "g.csv", PairGraph(g, g, [(i, j) for i in range(8) for j in range(8)]))
    return {p.name: p.read_bytes() for p in d.iterdir()}


def _value_flags(command):
    parser = build_parser().commands[command]
    return {a.dest for a in parser._actions if a.nargs != 0 and a.dest != "config"}


def test_config_cases_cover_every_value_flag():
    covered = {}
    for command, values, _ in CONFIG_CASES.values():
        covered.setdefault(command, set()).update(k.replace("-", "_") for k in values)
    assert covered == {command: _value_flags(command) for command in build_parser().commands}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_and_flags_write_the_same_bytes(tmp_path, monkeypatch, toy_inputs, case):
    command, values, switches = CONFIG_CASES[case]
    parsed, written = [], []
    for mode in ("flags", "config"):
        d = tmp_path / mode
        d.mkdir()
        for name, data in toy_inputs.items():
            (d / name).write_bytes(data)
        monkeypatch.chdir(d)
        if mode == "flags":
            argv = [command, *(a for k, v in values.items() for a in (f"--{k}", v)), *switches]
        else:
            (tmp_path / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            argv = [command, "--config", str(tmp_path / "run.cfg"), *switches]
        parsed.append({k: v for k, v in vars(parse_args(argv)).items() if k != "config"})
        assert run(*argv) == 0
        written.append({p.relative_to(d): p.read_bytes() for p in d.rglob("*")
                        if p.is_file() and p.name not in toy_inputs})
    assert parsed[0] == parsed[1]
    assert written[0] and written[0] == written[1]


def test_flag_beats_config_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    # threshold_ratio is not a generate flag and no-validate is a switch: both ignored
    cfg.write_text("kind=ap\nn=4\nstep=0.5\nthreshold_ratio=3\nno-validate=true\n"
                   f"output={tmp_path / 'cfg.csv'}\n")
    out = tmp_path / "flag.csv"
    assert run("generate", "--config", str(cfg), "--n", "3", "--output", str(out)) == 0
    assert len(serialize.read_scalars(out)) == 3
    assert not (tmp_path / "cfg.csv").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--delta", "0.1"],
    ["plunnecke", "--seed", "9"],
    ["project-sweep", "--s", "0.5"],
    ["bsg", "--input", "a.csv"],
], ids=lambda argv: " ".join(argv))
def test_unread_flags_are_rejected(capsys, argv):
    assert run(*argv) == 1
    err = capsys.readouterr().err
    # bsg's --input is an ambiguous prefix of --input-a and --input-b
    assert err.startswith(("error: unrecognized arguments: ", "error: ambiguous option: "))
    assert err.count("\n") == 1


def test_bad_config_value_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a toy progression\nkind=ap\n\nn=four\n")
    assert run("generate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:4: invalid int value for n: 'four'\n"
    cfg.write_text("delta\n")
    assert run("kaufman", "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: expected key=value\n"


def test_generate_kind_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for argv, message in ((["--output", out], "missing required parameter --kind"),
                          (["--kind", "ap", "--step", "1", "--output", out],
                           "missing required parameter --n"),
                          (["--kind", "x", "--output", out], "unknown generator kind 'x'"),
                          (["--kind", "product", "--output", out],
                           "unknown generator kind 'product'")):
        assert run("generate", *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def _readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_commands_parse():
    commands = _readme_cli_commands()
    assert {argv[1] for argv in commands} == set(build_parser().commands)
    for argv in commands:
        assert argv[0] == "projlab"
        build_parser().parse_args(argv[1:])


GOLDEN = Path(__file__).resolve().parent / "golden"
# toy grid sets for bsg and plunnecke, a 7-point base for the planted product
# (some of its gaps equal the default separation 0.25) and that product's
# directions (0.3, 1.0 and the normal of slope 0.5), as text so that no writer
# under test builds its own input
TOY_GRIDS = {
    "a.csv": "# delta=0.00390625\nk\n" + "".join(f"{k}\n" for k in range(10)),
    "b.csv": "# delta=0.00390625\nk\n0\n2\n3\n7\n11\n",
    "g.csv": "a_index,b_index\n" + "".join(f"{i},{j}\n" for i in range(10) for j in range(5)
                                           if (i + j) % 3),
    "base_7.csv": "v\n0.0\n0.125\n0.25\n0.5\n0.625\n0.875\n1.0\n",
    "planted_dirs.csv": "theta\n0.3\n1.0\n5.81953769817878\n",
}
# run from one directory with relative paths, because report headers echo them
GOLDEN_RUNS = (
    "project-sweep --input points_300.csv --directions directions_8.csv --output sweep.csv",
    "kaufman --input points_300.csv --num-directions 64 --s 0.7 --output profile.csv",
    "product-experiment --input product_8.csv --directions directions_8.csv --output witness.csv",
    "product-experiment --input product_8.csv --num-directions 4 --s 0.9 --eps0 0.1 "
    "--output none.csv",
    "bsg --input-a a.csv --input-b b.csv --edges g.csv --k 4 --output bsg.txt",
    "plunnecke --input-a a.csv --input-b a.csv --m 2 --n 1 --output plunnecke.txt",
    "two-scale --input points_300.csv --delta 0.015625 --output ts",
    "verify --output verify",
    "generate --kind random_frostman --n 256 --exponent 1.0 --delta 0.00390625 --seed 1 "
    "--output random_frostman.csv",
    "generate --kind four_corner --depth 3 --output four_corner.csv",
    "generate --kind cantor1d --contraction 0.3 --depth 4 --output cantor1d.csv",
    "generate --kind planted_collinear --input base_7.csv --slope 0.5 --intercept 0.1 "
    "--jitter 0.0002 --delta 0.0009765625 --fiber-size 8 --fiber-step 0.015625 --seed 3 "
    "--output planted.csv",
    "product-experiment --input planted.csv --directions planted_dirs.csv "
    "--output planted_profile.csv --triples-output triples.csv",
)
GOLDEN_FILES = ("sweep.csv", "sweep.summary.txt", "profile.csv", "profile.summary.txt",
                "witness.csv", "witness.summary.txt", "none.summary.txt", "bsg.txt", "plunnecke.txt",
                "ts/manifest", "ts/balls.csv", "ts/anchors.csv", "ts/fine.csv",
                "verify/verify_report.csv", "verify/summary.txt",
                "random_frostman.csv", "four_corner.csv", "cantor1d.csv", "triples.csv")


def golden_outputs(directory):
    """Run GOLDEN_RUNS in `directory` on the shipped fixtures and the toy
    grid sets; returns {name in GOLDEN_FILES: bytes written}."""
    from projlab.verify import fixtures_path

    for p in Path(fixtures_path()).glob("*.csv"):
        (directory / p.name).write_bytes(p.read_bytes())
    for name, text in TOY_GRIDS.items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for line in GOLDEN_RUNS:
            assert run(*line.split()) == 0, line
    finally:
        os.chdir(cwd)
    return {name: (directory / name).read_bytes() for name in GOLDEN_FILES}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_reports_match_golden_bytes(golden_run, name):
    assert golden_run[name] == (GOLDEN / name).read_bytes()
