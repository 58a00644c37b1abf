import pytest

from projlab import verify
from projlab.delta_core import Direction, PointSet2D
from projlab.incidence import TubeFamily, tube_cover


def _contains_loop(points, fam, theta):
    """The first point that `Tube.contains` puts in other than one tube of
    `fam`, as (hits, witness); None when every point is in exactly one."""
    for x, y in points:
        hits = sum(1 for t in fam.tubes if t.contains(x, y))
        if hits != 1:
            return str(hits), f"point ({x}, {y}) at theta={theta}"
    return None


@pytest.mark.parametrize("theta", [0.7, 2.1])
@pytest.mark.parametrize("source", [4, 6])
def test_tube_partition_names_the_first_point_the_contains_loop_finds(monkeypatch, theta, source):
    # tube 5 of one direction's cover replaced by tube `source`: its points
    # lie in no tube, and the points of tube `source` in two
    tube_cover = verify.tube_cover
    broken = {}

    def cover(P, e, delta):
        fam = tube_cover(P, e, delta)
        if e.theta == theta:
            tubes = list(fam.tubes)
            tubes[5] = tubes[source]
            fam = broken["fam"] = TubeFamily(fam.direction, tuple(tubes), fam.covered)
            broken["points"] = P.points
        return fam

    monkeypatch.setattr(verify, "tube_cover", cover)
    result = verify.check_tube_partition()
    hits, witness = _contains_loop(broken["points"], broken["fam"], theta)
    assert (result.name, result.ok, result.lhs, result.rhs, result.witness) == \
        ("tube-partition", False, hits, "1", witness)


def test_tube_partition_is_half_open_on_cell_edges(monkeypatch):
    # at θ = 0 the point (kδ, y) lies on the edge of tubes k - 1 and k, and
    # only in tube k
    d = 2.0 ** -6
    pts = PointSet2D([(k * d, 0.5) for k in range(10)])
    monkeypatch.setattr(verify.serialize, "read_points", lambda path: pts)
    assert _contains_loop(pts.points, tube_cover(pts, Direction(0.0), d), 0.0) is None
    assert verify.check_tube_partition().ok
