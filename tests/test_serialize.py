import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import serialize
from projlab.additive import GridSet, PairGraph
from projlab.delta_core import DirectionSet, PointSet2D, ScalarSet
from projlab.errors import CsvFormatError
from projlab.product_construction import ProductLikeSet

import oracles


def test_scalar_roundtrip_17_digits(tmp_path):
    rng = np.random.default_rng(1)
    s = ScalarSet(rng.uniform(0, 1, 50))
    path = tmp_path / "s.csv"
    serialize.write_scalars(path, s)
    back = serialize.read_scalars(path)
    assert np.array_equal(back.values, s.values)
    # byte stability: write(read(x)) == write(x)
    path2 = tmp_path / "s2.csv"
    serialize.write_scalars(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_points_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    p = PointSet2D(rng.uniform(0, 1, (40, 2)))
    path = tmp_path / "p.csv"
    serialize.write_points(path, p)
    back = serialize.read_points(path)
    assert np.array_equal(back.points, p.points)


def test_directions_roundtrip(tmp_path):
    e = DirectionSet.net(16)
    path = tmp_path / "e.csv"
    serialize.write_directions(path, e)
    assert np.array_equal(serialize.read_directions(path).thetas, e.thetas)


def test_gridset_roundtrip_and_header(tmp_path):
    g = GridSet([3, 1, 8], 2.0 ** -6)
    path = tmp_path / "g.csv"
    serialize.write_gridset(path, g)
    back = serialize.read_gridset(path)
    assert back == g
    text = path.read_text()
    assert text.startswith("# delta=")


def test_product_roundtrip(tmp_path):
    d = 2.0 ** -8
    base = ScalarSet([0.125, 0.5])
    fibers = {0.125: ScalarSet([0.0, 4 * d]), 0.5: ScalarSet([8 * d])}
    p = ProductLikeSet(base, fibers, d, 0.5, 0.5)
    path = tmp_path / "prod.csv"
    serialize.write_product(path, p)
    back = serialize.read_product(path)
    assert back.delta == p.delta and back.s == p.s and back.tau == p.tau
    assert list(back.base) == list(p.base)
    for b in base:
        assert list(back.fibers[b]) == list(p.fibers[b])


def test_pairgraph_roundtrip(tmp_path):
    g = GridSet(range(5), 0.25)
    pg = PairGraph(g, g, [(0, 1), (2, 3)])
    path = tmp_path / "pg.csv"
    serialize.write_pairgraph(path, pg)
    edges = serialize.read_pairgraph_edges(path)
    assert edges.dtype == np.int64
    assert edges.tolist() == [[0, 1], [2, 3]]


def test_report_writers(tmp_path):
    sweep = tmp_path / "sweep.csv"
    serialize.write_sweep(sweep, [(0.0, 5, 12), (0.5, 3, 4)])
    assert sweep.read_text().splitlines()[0] == "theta,N_projection,close_pairs"
    prof = tmp_path / "prof.csv"
    serialize.write_profile(prof, [(0.0, 7)])
    assert "theta,N" in prof.read_text()
    trip = tmp_path / "trip.csv"
    serialize.write_triples(trip, [(0.0, 0.5, 1.0, 9)])
    assert trip.read_text().splitlines()[0] == "b1,b2,b3,intersection_size"


def test_two_scale_directory(tmp_path):
    from projlab.generators import gen_random_frostman
    from projlab.scale_blowup import two_scale_decomposition

    d = 2.0 ** -6
    pts = gen_random_frostman(64, 1.0, d, seed=4)
    ts = two_scale_decomposition(pts, d, 1.0)
    out = tmp_path / "ts"
    serialize.write_two_scale(out, ts)
    assert (out / "anchors.csv").exists()
    assert (out / "fine.csv").exists()
    assert (out / "balls.csv").exists()
    manifest = (out / "manifest").read_text()
    assert f"balls={len(ts.balls)}" in manifest


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("v\n0.5\nnot-a-number\n")
    with pytest.raises(CsvFormatError) as err:
        serialize.read_scalars(bad)
    assert err.value.line == 3
    missing = tmp_path / "missing.csv"
    missing.write_text("wrong_header\n1.0\n")
    with pytest.raises(CsvFormatError):
        serialize.read_scalars(missing)
    short = tmp_path / "short.csv"
    short.write_text("x,y\n0.5\n")
    with pytest.raises(CsvFormatError) as err:
        serialize.read_points(short)
    assert err.value.line == 2
    nodelta = tmp_path / "nodelta.csv"
    nodelta.write_text("k\n1\n")
    with pytest.raises(CsvFormatError):
        serialize.read_gridset(nodelta)
    for value in ("nan", "inf", "-Infinity"):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(f"x,y\n0.1,0.2\n{value},0.3\n")
        with pytest.raises(CsvFormatError) as err:
            serialize.read_points(nonfinite)
        assert err.value.line == 3


def test_gridset_non_integer_index_line_number(tmp_path):
    g = tmp_path / "g.csv"
    g.write_text("# delta=0.5\nk\n1\n2\n3.5\n")
    with pytest.raises(CsvFormatError) as err:
        serialize.read_gridset(g)
    assert err.value.line == 5
    assert str(err.value) == f"{g}:5: grid index 3.5 is not an integer"


def test_pairgraph_non_integer_index_line_number(tmp_path):
    edges = tmp_path / "e.csv"
    edges.write_text("a_index,b_index\n0,1\n\n1,2.5\n")
    with pytest.raises(CsvFormatError) as err:
        serialize.read_pairgraph_edges(edges)
    assert err.value.line == 4


# file layouts for `_read_rows` with header "x,y": (bytes, whether the
# np.loadtxt fast path reads its data lines; the line loop reads the rest)
READER_LAYOUTS = {
    "comments-before-header": (b"# delta=0.25\n#s=1\n# note\n\nx,y\n0.5,1\n2,3\n", True),
    "comment-after-header": (b"x,y\n# delta=0.5\n0.5,1\n", False),
    "comment-between-rows": (b"x,y\n0.5,1\n# tau=2\n2,3\n", False),
    "blank-lines": (b"\n \nx,y\n\n0.5,1\n  \t\n2,3\n", False),
    "blank-line-at-end": (b"x,y\n0.5,1\n\n", False),
    "crlf": (b"# delta=0.5\r\nx,y\r\n0.5,1\r\n2,3\r\n", True),
    "cr": (b"x,y\r0.5,1\r2,3", True),
    "spaces-around-fields": (b"x,y\n 0.5 , 1\t\n\t2 ,3 \n", True),
    "underscore": (b"x,y\n1_0,2\n", False),
    "plus-sign": (b"x,y\n+1,-2\n", True),
    "leading-dot": (b"x,y\n.5,-.25\n", True),
    "exponent": (b"x,y\n1E3,2e-3\n", True),
    "past-2**53": (b"x,y\n9007199254740993,-9223372036854775809\n", True),
    "no-final-newline": (b"x,y\n0.5,1", True),
    "empty-data": (b"x,y\n", True),
    "empty-data-blank-lines": (b"x,y\n\n \n", True),
    "header-only-no-newline": (b"x,y", True),
    "hash-in-row": (b"x,y\n0.5,1#x\n", False),
    "trailing-comma": (b"x,y\n1,2,\n", False),
    "short-row": (b"x,y\n1,2\n3\n", False),
    "empty-field": (b"x,y\n1,\n", False),
    "nan": (b"x,y\n1,2\nnan,1\n", False),
    "overflow": (b"x,y\n1,1e400\n", False),
    "hex": (b"x,y\n0x1p3,1\n", False),
    # control characters: loadtxt strips \x1c around a number, float() does not
    "file-separator": (b"x,y\n1,2\x1c\n", False),
    "nul": (b"x,y\n1,2\x00\n", False),
    "vertical-tab": (b"x,y\n1,2\x0b\n", False),
    "form-feed-in-row": (b"x,y\n1,2\x0c3,4\n", False),
    "non-ascii-digit": ("x,y\n\u0661,2\n".encode(), False),
    "no-break-space": ("x,y\n1,\u00a02\n".encode(), False),
    "not-utf8": (b"x,y\n1,2\n1,\xff2\n", False),
    "byte-order-mark": (b"\xef\xbb\xbfx,y\n1,2\n", False),
    "missing-header": (b"# delta=1\n\n", False),
    "wrong-header": (b"x;y\n1,2\n", False),
}


def _read_outcome(read, path):
    """What reading `path` as an "x,y" CSV gives: the rows' bits and shape,
    the comments and the row lines, or the error's line and message."""
    try:
        rows, comments, linenos = read(path, "x,y", 2)
    except CsvFormatError as exc:
        return "error", exc.line, str(exc).removeprefix(f"{path}:{exc.line}: ")
    except ValueError as exc:  # the oracle's
        return ("error", *exc.args)
    return rows.shape, _bits(rows), comments, list(linenos)


@pytest.fixture
def plain_reads(monkeypatch):
    """What each `_plain_rows` call returns (None: the line loop reads on)."""
    reads = []
    plain_rows = serialize._plain_rows

    def spy(rest, n_fields):
        reads.append(plain_rows(rest, n_fields))
        return reads[-1]

    monkeypatch.setattr(serialize, "_plain_rows", spy)
    return reads


def _line_loop_only(monkeypatch):
    monkeypatch.setattr(serialize, "_plain_rows", lambda rest, n_fields: None)


@pytest.mark.parametrize("layout", sorted(READER_LAYOUTS))
def test_reader_matches_line_loop_oracle(tmp_path, monkeypatch, plain_reads, layout):
    data, fast = READER_LAYOUTS[layout]
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    want = _read_outcome(oracles.read_rows_loop, path)
    assert _read_outcome(serialize._read_rows, path) == want
    assert (plain_reads != [] and plain_reads[-1] is not None) == fast
    _line_loop_only(monkeypatch)
    assert _read_outcome(serialize._read_rows, path) == want


# rows of number-like fields, some with the characters that loadtxt, float()
# and the line splitting read differently, among comments and blank lines
READER_FIELD = st.one_of(st.floats().map(repr), st.integers(-2 ** 70, 2 ** 70).map(str),
                         st.text(alphabet="0123456789+-.eE _\t\x0b\x0c\x1c\x00\u00a0\u0661",
                                 max_size=6))
READER_ROW = st.lists(READER_FIELD, min_size=1, max_size=3).map(",".join)
READER_LINE = st.one_of(READER_ROW, READER_ROW, st.sampled_from(["", " ", "# a=b", "#", "\r"]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(READER_LINE, max_size=8), end=st.sampled_from(["\n", "\r\n", "\r"]),
       final_end=st.booleans())
def test_property_reader_matches_line_loop_oracle(tmp_path_factory, lines, end, final_end):
    path = tmp_path_factory.mktemp("rd") / "p.csv"
    path.write_bytes(("x,y" + end + end.join(lines) + (end if final_end else "")).encode())
    assert _read_outcome(serialize._read_rows, path) == _read_outcome(oracles.read_rows_loop, path)


def test_edges_past_2_53_are_exact_on_the_fast_path(tmp_path, plain_reads):
    path = tmp_path / "e.csv"
    path.write_bytes(b"a_index,b_index\r\n9007199254740993,0\r\n"
                     b" -9223372036854775808 ,9223372036854775807\r\n4.0,5\r\n")
    edges = serialize.read_pairgraph_edges(path)
    assert plain_reads[0] is not None
    assert edges.dtype == np.int64
    assert edges.tolist() == [[2 ** 53 + 1, 0], [-2 ** 63, 2 ** 63 - 1], [4, 5]]


# out-of-int64 indices and non-numeric or out-of-range comment values:
# (reader, file text, line the error must name)
BAD_VALUES = {
    "grid-index-overflow": (serialize.read_gridset, "# delta=0.5\nk\n1\n1e20\n", 4),
    "edge-index-overflow": (serialize.read_pairgraph_edges, "a_index,b_index\n0,1\n0,1e20\n", 3),
    "grid-delta-not-a-number": (serialize.read_gridset, "k\n1\n# delta=abc\n2\n", 3),
    "product-tau-not-a-number": (serialize.read_product,
                                 "# delta=0.25\n# s=0.5\n# tau=abc\nb,a\n0.0,0.5\n", 3),
    "grid-delta-infinite": (serialize.read_gridset, "# delta=inf\nk\n1\n", 1),
    # finite but outside the range the constructors and scans accept
    "grid-delta-negative": (serialize.read_gridset, "k\n1\n# delta=-1\n", 3),
    "grid-delta-zero": (serialize.read_gridset, "# delta=0\nk\n1\n", 1),
    "product-delta-above-half": (serialize.read_product,
                                 "# delta=0.75\n# s=0.5\n# tau=0.5\nb,a\n0.0,0.5\n", 1),
    "product-s-negative": (serialize.read_product,
                           "# delta=0.25\n# s=-0.5\n# tau=0.5\nb,a\n0.0,0.5\n", 2),
    "product-tau-above-two": (serialize.read_product,
                              "b,a\n0.0,0.5\n# delta=0.25\n# s=0.5\n# tau=2.5\n", 5),
    "product-s-zero": (serialize.read_product,
                       "# delta=0.25\n# s=0\n# tau=0.5\nb,a\n0.0,0.5\n", 2),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_index_or_comment_value_names_its_line(tmp_path, case):
    reader, text, line = BAD_VALUES[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as err:
        reader(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_index_or_comment_value_fails_alike_through_the_line_loop(tmp_path, monkeypatch, case):
    reader, text, _ = BAD_VALUES[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as as_read:
        reader(path)
    _line_loop_only(monkeypatch)
    with pytest.raises(CsvFormatError) as line_loop:
        reader(path)
    assert (as_read.value.line, str(as_read.value)) == (line_loop.value.line, str(line_loop.value))


def test_int64_bounds_of_grid_indices(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(f"# delta=0.5\nk\n{-2 ** 63}\n{2 ** 62}\n")
    assert list(serialize.read_gridset(path).members) == [-2 ** 63, 2 ** 62]
    path.write_text(f"# delta=0.5\nk\n{2 ** 63}\n")
    with pytest.raises(CsvFormatError) as err:
        serialize.read_gridset(path)
    assert err.value.line == 3
    # float64 rounds these; they are read exactly from their text
    path.write_text(f"# delta=0.5\nk\n{2 ** 53 + 1}\n{2 ** 63 - 1}\n")
    assert list(serialize.read_gridset(path).members) == [2 ** 53 + 1, 2 ** 63 - 1]
    path.write_text(f"a_index,b_index\n{2 ** 53 + 1}.0,0\n")
    edges = serialize.read_pairgraph_edges(path)
    assert edges.dtype == np.int64
    assert edges.tolist() == [[2 ** 53 + 1, 0]]
    path.write_text(f"# delta=0.5\nk\n{2 ** 53 + 1}.5\n")
    with pytest.raises(CsvFormatError, match=f":3: grid index {2 ** 53 + 1}.5 is not an integer"):
        serialize.read_gridset(path)


# adversarial floats: anything finite (subnormals included), signed zeros and
# the extremes, values one ulp either side of a cell edge kδ, and magnitudes
# near 1e300
CELL_EDGE_ULP = st.builds(lambda k, j, side: math.nextafter(k * 2.0 ** -j, side),
                          st.integers(-2 ** 20, 2 ** 20), st.integers(0, 40),
                          st.sampled_from([-math.inf, math.inf]))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                     1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=1e299, max_value=1e301).flatmap(lambda x: st.sampled_from([x, -x])),
    CELL_EDGE_ULP,
)
POSITIVE = FLOATS.map(abs).filter(lambda x: x > 0)
# a product's delta must lie in (0, 1/2], its s and tau in (0, 2]
HALF = st.one_of(POSITIVE.filter(lambda x: x <= 0.5), st.just(0.5), st.just(math.nextafter(0.5, 0)))
TWO = st.one_of(POSITIVE.filter(lambda x: x <= 2.0), st.just(2.0), st.just(math.nextafter(2.0, 0)))
ROUNDTRIP = settings(max_examples=60, deadline=None)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _roundtrip(directory, write, read, args, rewrite=lambda back: (back,)):
    """What `read` returns for the file `write(path, *args)` wrote; asserts
    that writing that again (`rewrite` makes it write's args) gives the same
    bytes."""
    first, second = directory / "first.csv", directory / "second.csv"
    write(first, *args)
    back = read(first)
    write(second, *rewrite(back))
    assert second.read_bytes() == first.read_bytes()
    return back


@ROUNDTRIP
@given(values=st.lists(FLOATS, max_size=20))
def test_property_scalar_roundtrip(tmp_path_factory, values):
    s = ScalarSet(values)
    back = _roundtrip(tmp_path_factory.mktemp("rt"), serialize.write_scalars, serialize.read_scalars,
                      (s,))
    assert _bits(back.values) == _bits(s.values)


@ROUNDTRIP
@given(points=st.lists(st.tuples(FLOATS, FLOATS), max_size=20))
def test_property_points_roundtrip(tmp_path_factory, points):
    p = PointSet2D(np.array(points).reshape(-1, 2))
    back = _roundtrip(tmp_path_factory.mktemp("rt"), serialize.write_points, serialize.read_points,
                      (p,))
    assert _bits(back.points) == _bits(p.points)


@ROUNDTRIP
@given(thetas=st.lists(FLOATS, max_size=20))
def test_property_directions_roundtrip(tmp_path_factory, thetas):
    e = DirectionSet(thetas)
    back = _roundtrip(tmp_path_factory.mktemp("rt"), serialize.write_directions,
                      serialize.read_directions, (e,))
    assert _bits(back.thetas) == _bits(e.thetas)


INDICES = st.integers(-2 ** 63, 2 ** 63 - 1)


@ROUNDTRIP
@given(members=st.lists(INDICES, max_size=20), step=POSITIVE)
def test_property_gridset_roundtrip(tmp_path_factory, members, step):
    g = GridSet(members, step)
    back = _roundtrip(tmp_path_factory.mktemp("rt"), serialize.write_gridset, serialize.read_gridset,
                      (g,))
    assert back.members.tolist() == g.members.tolist()
    assert _bits(back.step) == _bits(g.step)


@ROUNDTRIP
@given(data=st.data(), n_a=st.integers(1, 6), n_b=st.integers(1, 6))
def test_property_pairgraph_roundtrip(tmp_path_factory, data, n_a, n_b):
    a = GridSet(data.draw(st.lists(INDICES, min_size=n_a, max_size=n_a, unique=True)), 0.25)
    b = GridSet(data.draw(st.lists(INDICES, min_size=n_b, max_size=n_b, unique=True)), 0.5)
    edges = data.draw(st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_b - 1))))
    g = PairGraph(a, b, edges)
    back = _roundtrip(tmp_path_factory.mktemp("rt"), serialize.write_pairgraph,
                      serialize.read_pairgraph_edges, (g,), lambda edges: (PairGraph(a, b, edges),))
    assert back.dtype == np.int64
    assert back.tolist() == g.edges.tolist()


@ROUNDTRIP
@given(fibers=st.dictionaries(FLOATS, st.lists(FLOATS, min_size=1, max_size=5), min_size=1,
                              max_size=5),
       delta=HALF, s=TWO, tau=TWO)
def test_property_product_roundtrip(tmp_path_factory, fibers, delta, s, tau):
    base = ScalarSet(list(fibers))
    p = ProductLikeSet(base, {b: ScalarSet(fibers[b]) for b in base}, delta, s, tau)
    back = _roundtrip(tmp_path_factory.mktemp("rt"), serialize.write_product, serialize.read_product,
                      (p,))
    assert _bits([back.delta, back.s, back.tau]) == _bits([p.delta, p.s, p.tau])
    assert _bits(back.base.values) == _bits(p.base.values)
    assert [_bits(f.values) for f in back.fibers.values()] == \
        [_bits(f.values) for f in p.fibers.values()]
