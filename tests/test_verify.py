import numpy as np
import pytest

from projlab import serialize, verify
from projlab.delta_core import Direction, PointSet2D, grid_cells_1d, project, projected_values


def _contains_loop(points, cells, theta, d):
    """The first point that lies in other than one of the tubes
    offset <= x·ex + y·ey < offset + δ, offset = kδ for k in `cells`, as
    (hits, witness); None when every point is in exactly one."""
    e = Direction(theta)
    for x, y in points:
        v = x * e.ex + y * e.ey
        hits = sum(1 for k in cells if float(k) * d <= v < float(k) * d + d)
        if hits != 1:
            return str(hits), f"point ({x}, {y}) at theta={theta}"
    return None


@pytest.mark.parametrize("theta", [0.7, 2.1])
@pytest.mark.parametrize("source", [4, 6])
def test_tube_partition_names_the_first_point_the_contains_loop_finds(monkeypatch, theta, source):
    # cell 5 of one direction's cells replaced by cell `source`: its points
    # lie in no tube, and the points of cell `source` in two
    points = serialize.read_points(verify._fixture("points_300.csv")).points
    values = projected_values(points, [theta])[0]
    broken = {}

    def cells(v, delta):
        k = grid_cells_1d(v, delta)
        if np.array_equal(v, values):
            k[5] = k[source]
            broken["cells"], broken["delta"] = k, delta
        return k

    monkeypatch.setattr(verify, "grid_cells_1d", cells)
    result = verify.check_tube_partition()
    hits, witness = _contains_loop(points, broken["cells"], theta, broken["delta"])
    assert (result.name, result.ok, result.lhs, result.rhs, result.witness) == \
        ("tube-partition", False, hits, "1", witness)


def test_tube_partition_is_half_open_on_cell_edges(monkeypatch):
    # at θ = 0 the point (kδ, y) lies on the edge of cells k - 1 and k, and
    # only in cell k
    d = 2.0 ** -6
    pts = PointSet2D([(k * d, 0.5) for k in range(10)])
    monkeypatch.setattr(verify.serialize, "read_points", lambda path: pts)
    assert _contains_loop(pts.points, grid_cells_1d(project(pts, Direction(0.0)), d), 0.0, d) is None
    assert verify.check_tube_partition().ok
