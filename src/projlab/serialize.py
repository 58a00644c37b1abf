"""The on-disk formats: a CSV for every domain type, and plain-text
reports.  Every CSV is written by `_write_csv` and every report by
`write_report`.

Floats are written with repr (shortest round-trip form, 17 significant
digits when needed), so write → read → write is byte-stable.  Parse
failures, a byte that is not UTF-8 included, raise CsvFormatError with the
1-based line number.
"""

from __future__ import annotations

import io
import math
import os
from decimal import Decimal
from itertools import chain
from pathlib import Path

import numpy as np

from .delta_core import DirectionSet, PointSet2D, ScalarSet
from .additive import GridSet, PairGraph
from .errors import CsvFormatError
from .product_construction import ProductLikeSet


def _fmt(x) -> str:
    return repr(float(x))


def _not_utf8(line):
    """The first byte of a line read with errors="surrogateescape" that is
    not UTF-8 (it reads as a lone surrogate), as a message; None if none."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"byte {ord(line[exc.start]) - 0xDC00:#04x} is not UTF-8"
    return None


# the characters of a data section that np.loadtxt and float() read alike:
# decimal numbers, commas, spaces, tabs and line ends
_PLAIN = b"0123456789+-.eE, \t\n"


def _plain_rows(rest, n_fields):
    """The data lines `rest`, as an (n, n_fields) float64 array read by
    np.loadtxt, when each line is one row of finite plain decimals; None for
    anything else (a comment, a blank line, a parse error, a non-finite
    value), which the line loop of `_read_rows` reads instead."""
    if not rest.strip():
        return np.empty((0, n_fields))  # loadtxt warns on an empty input
    if not rest.isascii():
        return None
    data = rest.encode("ascii")
    if data.translate(None, _PLAIN):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips empty lines, so a row count short of the lines means one
    lines = rest.count("\n") + (not rest.endswith("\n"))
    if rows.shape != (lines, n_fields) or not np.isfinite(rows).all():
        return None
    return rows


def _read_rows(path, expected_header, n_fields):
    """Data rows as an (n, n_fields) float64 array, the `# key=value`
    comments as key -> (line number, value), and the 1-based line number of
    each row as a sequence.  Non-finite values are rejected.  The lines
    after the header go to `_plain_rows` in one piece; only when it cannot
    read them does the line loop go on, and it names the line of any
    error."""
    rows = []
    linenos = []
    comments = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines, lineno, header_seen = fh, 0, False
        while raw := lines.readline():
            lineno += 1
            if not raw.isascii() and (bad := _not_utf8(raw)):  # ASCII first, for speed
                raise CsvFormatError(path, lineno, bad)
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
                rest = fh.read()
                plain = _plain_rows(rest, n_fields)
                if plain is not None:
                    return plain, comments, range(lineno + 1, lineno + 1 + len(plain))
                # the text layer has already turned "\r\n" and "\r" into "\n"
                lines = io.StringIO(rest, newline="\n")
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
    arr = np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * n_fields)
    return arr.reshape(-1, n_fields), comments, linenos


def _write_csv(path, header, rows, comments=()):
    """`# key=value` lines for the (key, value) comments, the header, then
    each row's pre-formatted fields joined by commas, with no quoting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in comments)
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_report(path, items, command=None, args=None, keys=()):
    """A plain-text report.  Given a command, it opens with the
    `# projlab report` header: the command, then `# key=value` for each of
    `keys` (sorted) read from the namespace `args`.  Then one `key=value`
    line per entry of the dict `items`, in its order."""
    with open(path, "w", encoding="utf-8") as fh:
        if command is not None:
            fh.write(f"# projlab report\n# command={command}\n")
            fh.writelines(f"# {key}={getattr(args, key)}\n" for key in sorted(keys))
        fh.writelines(f"{key}={value}\n" for key, value in items.items())


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


def _int64_rows(path, arr, linenos, what) -> np.ndarray:
    """The rows as an int64 array; the first value that is not an integer
    inside int64 fails with its row's line.  float64 rounds integers past
    2**53, so those, like the bad values, are parsed again from their text."""
    ok = (arr == np.trunc(arr)) & (np.abs(arr) < 2.0 ** 53)
    out = (arr * ok).astype(np.int64)  # zero where not ok: those are set below
    lines = None
    for i, j in np.argwhere(~ok).tolist():
        lines = lines or Path(path).read_text(encoding="utf-8").split("\n")
        text = lines[linenos[i] - 1].split(",")[j].strip()
        v = Decimal(text)
        if v != v.to_integral_value():
            raise CsvFormatError(path, linenos[i], f"{what} {text} is not an integer")
        if not -2 ** 63 <= v < 2 ** 63:
            raise CsvFormatError(path, linenos[i], f"{what} {text} is outside int64")
        out[i, j] = int(v)
    return out


def write_scalars(path, s: ScalarSet):
    _write_csv(path, "v", ([_fmt(v)] for v in s))


def read_scalars(path) -> ScalarSet:
    rows, _, _ = _read_rows(path, "v", 1)
    return ScalarSet(rows[:, 0])


def write_points(path, p: PointSet2D):
    _write_csv(path, "x,y", ([_fmt(x), _fmt(y)] for x, y in p.points.tolist()))


def read_points(path) -> PointSet2D:
    rows, _, _ = _read_rows(path, "x,y", 2)
    return PointSet2D(rows)


def write_directions(path, e: DirectionSet):
    _write_csv(path, "theta", ([_fmt(t)] for t in e.thetas.tolist()))


def read_directions(path) -> DirectionSet:
    rows, _, _ = _read_rows(path, "theta", 1)
    return DirectionSet(rows[:, 0])


def write_gridset(path, g: GridSet):
    _write_csv(path, "k", ([str(k)] for k in g), comments=[("delta", _fmt(g.step))])


def read_gridset(path) -> GridSet:
    rows, comments, linenos = _read_rows(path, "k", 1)
    step = _comment_float(path, comments, "delta")
    return GridSet(_int64_rows(path, rows, linenos, "grid index"), step)


def write_pairgraph(path, g: PairGraph):
    _write_csv(path, "a_index,b_index", ([str(a), str(b)] for a, b in g.edges.tolist()))


def read_pairgraph_edges(path) -> np.ndarray:
    """The edges as an (n, 2) int64 array of (a_index, b_index) rows."""
    rows, _, linenos = _read_rows(path, "a_index,b_index", 2)
    return _int64_rows(path, rows, linenos, "edge index")


def write_product(path, p: ProductLikeSet):
    _write_csv(path, "b,a", ([_fmt(b), _fmt(a)] for a, b in p.point_rows().tolist()),
               comments=[(key, _fmt(getattr(p, key))) for key in ("delta", "s", "tau")])


def read_product(path) -> ProductLikeSet:
    rows, comments, _ = _read_rows(path, "b,a", 2)
    # the ranges ProductLikeSet and check_delta_t accept
    delta = _comment_float(path, comments, "delta", 0.5)
    s, tau = (_comment_float(path, comments, key, 2.0) for key in ("s", "tau"))
    fibers: dict = {}
    for b, a in rows.tolist():
        fibers.setdefault(b, []).append(a)
    base = ScalarSet(sorted(fibers))
    return ProductLikeSet(
        base,
        {b: ScalarSet(v) for b, v in fibers.items()},
        delta, s, tau,
    )


def write_sweep(path, rows):
    """Rows of (theta, n_projection, close_pairs)."""
    _write_csv(path, "theta,N_projection,close_pairs",
               ([_fmt(theta), str(int(n)), str(int(cp))] for theta, n, cp in rows))


def write_profile(path, rows):
    """Rows of (theta, N)."""
    _write_csv(path, "theta,N", ([_fmt(theta), str(int(n))] for theta, n in rows))


def write_triples(path, rows):
    """Rows of (b1, b2, b3, intersection_size)."""
    _write_csv(path, "b1,b2,b3,intersection_size",
               ([_fmt(b1), _fmt(b2), _fmt(b3), str(int(size))] for b1, b2, b3, size in rows))


def write_two_scale(dirpath, ts):
    """TwoScaleStructure as a directory: anchors.csv, fine.csv, balls.csv,
    and a plain-text manifest with the scales and check ratios."""
    os.makedirs(dirpath, exist_ok=True)
    write_points(os.path.join(dirpath, "anchors.csv"), ts.anchors)
    write_points(os.path.join(dirpath, "fine.csv"), ts.fine)
    _write_csv(os.path.join(dirpath, "balls.csv"), "level,kx,ky",
               ([str(ts.level), str(kx), str(ky)] for kx, ky in ts.balls))
    write_report(os.path.join(dirpath, "manifest"), {
        "delta": _fmt(ts.delta),
        "sqrt_delta": _fmt(ts.sqrt_delta),
        "balls": len(ts.balls),
        "fine_points": len(ts.fine),
        "coarse_ratio": _fmt(ts.reports["coarse"].worst_ratio),
        "fine_ratio": _fmt(ts.reports["fine"].worst_ratio),
    })
