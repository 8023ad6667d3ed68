import math

import numpy as np
import pytest

from microloc import (
    BudgetExceeded,
    Cone,
    SingularBasis,
    classify_pair,
    make_lattice,
    parallelepiped_containing,
    points_in_ball,
    scaled_integer_lattice,
)
from microloc.lattice import LatticeBall


def points_in_cone_shell(lat, cone, r_min, r_max):
    pts, _ = points_in_ball(lat, r_max)
    return pts[(np.linalg.norm(pts, axis=1) > r_min) & cone.contains(pts)]


def test_make_lattice_examples():
    z2 = make_lattice([[1.0, 0.0], [0.0, 1.0]])
    assert z2.cell_volume == pytest.approx(1.0)
    scaled = make_lattice([[0.7, 0.0], [0.0, 0.7]])
    assert scaled.cell_volume == pytest.approx(0.49)
    with pytest.raises(SingularBasis):
        make_lattice([[1.0, 0.0], [2.0, 0.0]])


def test_lattice_points_and_coords():
    lat = make_lattice([[2.0, 0.0], [0.0, 2.0]], offset=[0.5, -0.5])
    p = lat.point([3, -1])
    assert np.allclose(p, [6.5, -2.5])
    assert np.allclose(lat.to_lattice_coords(p), [3.0, -1.0])


def test_classify_pair_examples():
    d = 2
    weak = classify_pair(scaled_integer_lattice(1.0, d), scaled_integer_lattice(2 * np.pi, d))
    assert weak.kind == "weak" and weak.coupling == pytest.approx(2 * np.pi)
    bad = classify_pair(
        scaled_integer_lattice(1.0, 2),
        make_lattice([[1.0, 1.0], [0.0, 1.0]]),
    )
    assert bad.kind == "inadmissible" and bad.coupling is None


def test_classify_pair_random_couplings(rng):
    for _ in range(100):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        pair = classify_pair(scaled_integer_lattice(a, 3), scaled_integer_lattice(b, 3))
        expect = "strong" if a * b < 2 * np.pi else ("weak" if a * b == 2 * np.pi else "inadmissible")
        assert pair.kind == expect
        if pair.kind != "inadmissible":
            assert pair.coupling == pytest.approx(a * b, rel=1e-12)


def test_points_in_cone_shell_examples(z2):
    cone = Cone.from_degrees([1.0, 0.0], 30.0)
    pts = points_in_cone_shell(z2, cone, 0.0, 2.0)
    assert pts.tolist() == [[1.0, 0.0], [2.0, 0.0]]

    tiny = Cone.from_degrees([1.0, 0.0], 1.0)
    pts = points_in_cone_shell(z2, tiny, 0.0, 1.5)
    assert pts.tolist() == [[1.0, 0.0]]

    # any cone excludes the origin: a shell below the minimal spacing is empty
    pts = points_in_cone_shell(z2, cone, 0.0, 0.5)
    assert pts.shape == (0, 2)


def _brute_force_shell(lat, cone, r_min, r_max):
    reach = int(np.ceil(r_max / lat.min_spacing)) + 2
    axes = [np.arange(-reach, reach + 1)] * lat.d
    mesh = np.meshgrid(*axes, indexing="ij")
    ts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = lat.points(ts)
    r = np.linalg.norm(pts, axis=1)
    mask = (r > r_min) & (r <= r_max) & cone.contains(pts)
    got = pts[mask]
    return set(map(tuple, np.round(got, 9)))


@pytest.mark.parametrize(
    "d,r_top,aperture",
    [(1, 50.0, 45.0), (2, 20.0, 33.0), (3, 8.0, 40.0)],
)
def test_shell_partition_matches_brute_force(d, r_top, aperture, rng):
    basis = np.eye(d) * rng.uniform(0.6, 1.4) + rng.normal(scale=0.05, size=(d, d))
    lat = make_lattice(basis, offset=rng.normal(scale=0.2, size=d))
    axis = rng.normal(size=d)
    cone = Cone.from_degrees(axis, aperture)
    edges = [0.0, r_top / 4, r_top / 2, r_top]
    union = set()
    for lo, hi in zip(edges[:-1], edges[1:]):
        shell = points_in_cone_shell(lat, cone, lo, hi)
        shell_set = set(map(tuple, np.round(shell, 9)))
        assert not (union & shell_set), "shells must be disjoint"
        union |= shell_set
    assert union == _brute_force_shell(lat, cone, 0.0, r_top)


def test_points_in_cone_shell_validation(z2):
    with pytest.raises(BudgetExceeded):
        points_in_ball(z2, 1e6)  # 4e12 candidate cells


def test_points_in_ball_includes_origin(z2):
    pts, ints = points_in_ball(z2, 1.2)
    as_set = set(map(tuple, ints.tolist()))
    assert (0, 0) in as_set
    assert len(as_set) == 5  # origin plus the four unit neighbours


def test_lattice_ball_halves_mirror_through_the_origin():
    ball = LatticeBall.of(make_lattice([[1.0, 0.3], [0.2, 0.9]]), 6.0)
    n = ball.points.shape[0]
    computed, mirrored = ball.split(real=True)
    assert np.array_equal(ball.points[n - 1 - mirrored], -ball.points[mirrored])
    assert np.all(ball.ks[computed, -1] >= 0) and np.all(ball.ks[mirrored, -1] < 0)
    assert computed.size + mirrored.size == n
    assert ball.split(real=False)[0] == slice(None) and ball.split(real=False)[1].size == 0
    # integer coordinates symmetric about 0 on an offset lattice: no mirror
    shifted = LatticeBall.of(scaled_integer_lattice(1.0, 1, [0.1]), 5.5)
    assert np.array_equal(shifted.ks[::-1], -shifted.ks)
    assert shifted.split(real=True)[1].size == 0


def test_parallelepiped_containing_examples(z2):
    cell = parallelepiped_containing(z2, [0.3, 0.7])
    assert cell.anchor_coords.tolist() == [0, 0]
    # the face tie-break picks the smaller anchor
    cell = parallelepiped_containing(z2, [1.0, 0.5])
    assert cell.anchor_coords.tolist() == [0, 0]
    lat2 = scaled_integer_lattice(2.0, 2)
    cell = parallelepiped_containing(lat2, [3.1, -0.2])
    assert lat2.point(cell.anchor_coords).tolist() == [2.0, -2.0]


def _cell_contains(cell, x, tol=1e-12):
    """x in the closed cell: lattice coordinates within [0, 1] of the anchor's."""
    t = cell.lattice.to_lattice_coords(np.asarray(x, dtype=float)) - cell.anchor_coords
    return bool(np.all(t >= -tol) and np.all(t <= 1.0 + tol))


def test_parallelepiped_contains_and_volume(z2):
    a = parallelepiped_containing(z2, [0.25, 0.25])
    b = parallelepiped_containing(z2, [40.5, -3.5])
    assert _cell_contains(a, [0.25, 0.25])
    volume_a, volume_b = a.lattice.cell_volume, b.lattice.cell_volume
    assert abs(volume_a - volume_b) <= 1e-12 * volume_a
    lo, hi = a.bounding_box()
    assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [1.0, 1.0])


def test_lattice_json_round_trip():
    lat = make_lattice([[1.5, 0.1], [0.0, 0.9]], offset=[0.2, -0.3])
    back = make_lattice(**lat.to_json())
    assert np.allclose(back.basis, lat.basis)
    assert np.allclose(back.offset, lat.offset)


def test_enumeration_order_is_lexicographic(z2):
    cone = Cone.from_degrees([1.0, 1.0], 60.0)
    pts = points_in_cone_shell(z2, cone, 0.0, 3.0)
    ints = [tuple(int(round(v)) for v in p) for p in pts]
    assert ints == sorted(ints)


@pytest.mark.parametrize("r_max,says", [
    (math.inf, "r_max must be a finite number, got inf"),
    (-math.inf, "r_max must be a finite number, got -inf"),
    (math.nan, "r_max must be a finite number, got nan"),
    ("5", "r_max must be a number, got '5'"),
    (True, "r_max must be a number, got True"),
])
def test_points_in_ball_refuses_a_radius_that_is_not_a_finite_number(z2, r_max, says):
    with pytest.raises(ValueError) as refused:
        points_in_ball(z2, r_max)
    assert str(refused.value) == says


def test_points_in_ball_of_a_negative_radius_is_empty(z2):
    # however negative: the bracketing box is empty, not a budget refusal
    for r_max in (-0.5, -5.0, -1e5):
        pts, ks = points_in_ball(z2, r_max)
        assert pts.shape == ks.shape == (0, 2)


def test_enumeration_refuses_oversized_box_before_allocating():
    import tracemalloc

    # 8001^2 = 6.4e7 candidate cells pass the cell budget, but enumerating
    # them would hold about 4 GB: refused before any of it is allocated
    fine = scaled_integer_lattice(1e-3, 2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="GiB"):
            points_in_ball(fine, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    # the largest default question, the 2D ball at r_max = 180, stays far under
    pts, _ = points_in_ball(scaled_integer_lattice(1.0, 2), 180.0)
    assert 100_000 < pts.shape[0] < 110_000
