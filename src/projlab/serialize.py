"""CSV formats for every domain type.

Floats are written with repr (shortest round-trip form, 17 significant
digits when needed), so write → read → write is byte-stable.  Parse
failures raise CsvFormatError with the 1-based line number.
"""

from __future__ import annotations

import math

import numpy as np

from .delta_core import DirectionSet, PointSet2D, ScalarSet
from .additive import GridSet, PairGraph
from .errors import CsvFormatError
from .product_construction import ProductLikeSet


def _fmt(x) -> str:
    return repr(float(x))


def _read_rows(path, expected_header, n_fields):
    """Data rows as float tuples, the `# key=value` comments as
    key -> (line number, value), and the 1-based line number of each row.
    Non-finite values are rejected."""
    rows = []
    linenos = []
    comments = {}
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    comments[key.strip()] = (lineno, value.strip())
                continue
            if not header_seen:
                if line.strip() != expected_header:
                    raise CsvFormatError(path, lineno, f"expected header {expected_header!r}, got {line.strip()!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise CsvFormatError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
            try:
                row = tuple(map(float, parts))
            except ValueError as exc:
                raise CsvFormatError(path, lineno, str(exc)) from None
            if not all(map(math.isfinite, row)):
                raise CsvFormatError(path, lineno, f"non-finite value in {line.strip()!r}")
            rows.append(row)
            linenos.append(lineno)
        if not header_seen:
            raise CsvFormatError(path, 1, f"missing header {expected_header!r}")
    return rows, comments, linenos


def _comment_float(path, comments, key, upper=math.inf) -> float:
    """The `# key=` comment's value, which must lie in (0, upper]."""
    if key not in comments:
        raise CsvFormatError(path, 1, f"missing '# {key}=' comment header")
    lineno, value = comments[key]
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise CsvFormatError(path, lineno, f"'# {key}=' value {value!r} is not a finite number")
    if not 0.0 < x <= upper:
        bounds = "be positive" if upper == math.inf else f"lie in (0, {upper:g}]"
        raise CsvFormatError(path, lineno, f"'# {key}=' value {value!r} must {bounds}")
    return x


def _int64_rows(path, rows, linenos, n_fields, what) -> np.ndarray:
    """The rows as an int64 array; the first value that is not an integer
    inside int64 fails with its row's line."""
    arr = np.array(rows, dtype=np.float64).reshape(len(rows), n_fields)
    ok = (arr == np.trunc(arr)) & (arr >= -2.0 ** 63) & (arr < 2.0 ** 63)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        v = rows[i][j]
        reason = "is not an integer" if v != int(v) else "is outside int64"
        raise CsvFormatError(path, linenos[i], f"{what} {v} {reason}")
    return arr.astype(np.int64)


def write_scalars(path, s: ScalarSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v\n")
        for v in s:
            fh.write(_fmt(v) + "\n")


def read_scalars(path) -> ScalarSet:
    rows, _, _ = _read_rows(path, "v", 1)
    return ScalarSet([r[0] for r in rows])


def write_points(path, p: PointSet2D):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in p.points:
            fh.write(f"{_fmt(x)},{_fmt(y)}\n")


def read_points(path, separation=None) -> PointSet2D:
    rows, _, _ = _read_rows(path, "x,y", 2)
    return PointSet2D(rows, separation=separation)


def write_directions(path, e: DirectionSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta\n")
        for t in e.thetas:
            fh.write(_fmt(t) + "\n")


def read_directions(path) -> DirectionSet:
    rows, _, _ = _read_rows(path, "theta", 1)
    return DirectionSet([r[0] for r in rows])


def write_gridset(path, g: GridSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# delta={_fmt(g.step)}\n")
        fh.write("k\n")
        for k in g.members:
            fh.write(f"{int(k)}\n")


def read_gridset(path) -> GridSet:
    rows, comments, linenos = _read_rows(path, "k", 1)
    step = _comment_float(path, comments, "delta")
    return GridSet(_int64_rows(path, rows, linenos, 1, "grid index"), step)


def write_pairgraph(path, g: PairGraph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a_index,b_index\n")
        for a, b in g.edges:
            fh.write(f"{int(a)},{int(b)}\n")


def read_pairgraph_edges(path):
    rows, _, linenos = _read_rows(path, "a_index,b_index", 2)
    edges = _int64_rows(path, rows, linenos, 2, "edge index")
    return list(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))


def write_product(path, p: ProductLikeSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# delta={_fmt(p.delta)}\n")
        fh.write(f"# s={_fmt(p.s)}\n")
        fh.write(f"# tau={_fmt(p.tau)}\n")
        fh.write("b,a\n")
        for a, b in p.point_rows():
            fh.write(f"{_fmt(b)},{_fmt(a)}\n")


def read_product(path) -> ProductLikeSet:
    rows, comments, _ = _read_rows(path, "b,a", 2)
    # the ranges ProductLikeSet and check_delta_t accept
    delta = _comment_float(path, comments, "delta", 0.5)
    s, tau = (_comment_float(path, comments, key, 2.0) for key in ("s", "tau"))
    fibers: dict = {}
    for b, a in rows:
        fibers.setdefault(b, []).append(a)
    base = ScalarSet(sorted(fibers))
    return ProductLikeSet(
        base,
        {b: ScalarSet(v) for b, v in fibers.items()},
        delta, s, tau,
    )


def write_weighted(path, points: PointSet2D, weights):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,w\n")
        for (x, y), w in zip(points.points, weights):
            fh.write(f"{_fmt(x)},{_fmt(y)},{_fmt(w)}\n")


def read_weighted(path):
    rows, _, _ = _read_rows(path, "x,y,w", 3)
    pts = PointSet2D([(x, y) for x, y, _ in rows])
    # realign weights with the sorted point order
    order = sorted(range(len(rows)), key=lambda i: (rows[i][0], rows[i][1]))
    weights = [rows[i][2] for i in order]
    return pts, np.asarray(weights)


def write_sweep(path, rows):
    """Rows of (theta, n_projection, close_pairs)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,N_projection,close_pairs\n")
        for theta, n, cp in rows:
            fh.write(f"{_fmt(theta)},{int(n)},{int(cp)}\n")


def write_profile(path, rows):
    """Rows of (theta, N)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,N\n")
        for theta, n in rows:
            fh.write(f"{_fmt(theta)},{int(n)}\n")


def write_triples(path, rows):
    """Rows of (b1, b2, b3, intersection_size)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("b1,b2,b3,intersection_size\n")
        for b1, b2, b3, size in rows:
            fh.write(f"{_fmt(b1)},{_fmt(b2)},{_fmt(b3)},{int(size)}\n")


def write_two_scale(dirpath, ts):
    """TwoScaleStructure as a directory: anchors.csv, fine.csv, balls.csv,
    and a plain-text manifest with the scales and check ratios."""
    import os

    os.makedirs(dirpath, exist_ok=True)
    write_points(os.path.join(dirpath, "anchors.csv"), ts.anchors)
    write_points(os.path.join(dirpath, "fine.csv"), ts.fine)
    with open(os.path.join(dirpath, "balls.csv"), "w", encoding="utf-8") as fh:
        fh.write("level,kx,ky\n")
        for kx, ky in ts.balls:
            fh.write(f"{ts.level},{kx},{ky}\n")
    with open(os.path.join(dirpath, "manifest"), "w", encoding="utf-8") as fh:
        fh.write(f"delta={_fmt(ts.delta)}\n")
        fh.write(f"sqrt_delta={_fmt(ts.sqrt_delta)}\n")
        fh.write(f"balls={len(ts.balls)}\n")
        fh.write(f"fine_points={len(ts.fine)}\n")
        fh.write(f"coarse_ratio={_fmt(ts.reports['coarse'].worst_ratio)}\n")
        fh.write(f"fine_ratio={_fmt(ts.reports['fine'].worst_ratio)}\n")
