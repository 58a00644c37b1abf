import math

from projlab import serialize
from projlab.cli import main
from projlab.additive import GridSet, PairGraph


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


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("delta=0.25\nseed=3\n")
    out = tmp_path / "ap.csv"
    # config supplies delta (unused by ap), flags supply the rest
    assert run("generate", "--config", str(cfg), "--kind", "ap", "--n", "4",
               "--step", "0.125", "--output", str(out)) == 0
    assert len(serialize.read_scalars(out)) == 4


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
