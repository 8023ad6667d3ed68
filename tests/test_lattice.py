import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from microloc import (
    BudgetExceeded,
    Cone,
    SingularBasis,
    classify_pair,
    make_lattice,
    points_in_ball,
    scaled_integer_lattice,
)
from microloc.geometry import row_norms
from microloc.lattice import LatticeBall


def points_in_cone_shell(lat, cone, r_min, r_max):
    pts, _ = points_in_ball(lat, r_max)
    return pts[(np.linalg.norm(pts, axis=1) > r_min) & cone.contains(pts)]


def test_make_lattice_examples():
    z2 = make_lattice([[1.0, 0.0], [0.0, 1.0]])
    assert z2.d == 2 and z2.is_diagonal
    scaled = make_lattice([[0.7, 0.0], [0.0, 0.7]])
    assert scaled.min_spacing == pytest.approx(0.7)
    with pytest.raises(SingularBasis):
        make_lattice([[1.0, 0.0], [2.0, 0.0]])


def test_lattice_points_and_coords():
    lat = make_lattice([[2.0, 0.0], [0.0, 2.0]], offset=[0.5, -0.5])
    p = lat.points([3, -1])
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
    # on a skew lattice the half is xi_d >= 0, not k_d >= 0
    assert np.all(ball.points[computed, -1] >= 0) and np.all(ball.points[mirrored, -1] < 0)
    assert not np.array_equal(ball.points[:, -1] >= 0, ball.ks[:, -1] >= 0)
    assert computed.size + mirrored.size == n
    assert ball.split(real=False)[0] == slice(None) and ball.split(real=False)[1].size == 0
    # integer coordinates symmetric about 0 on an offset lattice: no mirror
    shifted = LatticeBall.of(scaled_integer_lattice(1.0, 1, [0.1]), 5.5)
    assert np.array_equal(shifted.ks[::-1], -shifted.ks)
    assert shifted.split(real=True)[1].size == 0
    # an offset lattice whose points are symmetric, the midpoint lattice
    # (Z + 1/2) / 4: mirrored through the origin, which is not a point
    midpoints = LatticeBall.of(scaled_integer_lattice(0.25, 1, [0.125]), 10.0)
    computed, mirrored = midpoints.split(real=True)
    n = midpoints.points.shape[0]
    assert n == 80 and mirrored.size == computed.size == n // 2
    assert np.array_equal(midpoints.points[n - 1 - mirrored], -midpoints.points[mirrored])


def _box_enumeration(lat, r_max):
    """points_in_ball as the box enumeration with a fancy-indexed gather."""
    center = lat.to_lattice_coords(np.zeros(lat.d))
    semi = r_max * np.linalg.norm(np.linalg.inv(lat.basis), axis=0)
    lo = np.ceil(center - semi - 1e-9).astype(int)
    hi = np.floor(center + semi + 1e-9).astype(int)
    mesh = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
    ts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = lat.points(ts)
    keep = np.flatnonzero(row_norms(pts) <= r_max)
    return pts[keep], ts[keep]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    entries=st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9),
    offset=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    corner=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    on_a_point=st.booleans(),
    r_max=st.floats(0.0, 6.0),
)
def test_property_points_in_ball_matches_the_box_enumeration(
    d, entries, offset, corner, on_a_point, r_max
):
    basis = np.eye(d) + 0.5 * np.array(entries[: d * d]).reshape(d, d)  # skewed, near I
    assume(abs(np.linalg.det(basis)) > 0.2)
    lat = make_lattice(basis, offset[:d])
    if on_a_point:  # a radius equal to a point's norm, the edge of the filter
        r_max = float(row_norms(lat.points(np.array([corner[:d]])))[0])
    pts, ks = points_in_ball(lat, r_max)
    want_pts, want_ks = _box_enumeration(lat, r_max)
    assert np.array_equal(pts, want_pts) and np.array_equal(ks, want_ks)
    assert pts.dtype == want_pts.dtype and ks.dtype == want_ks.dtype


def test_unfold_reads_the_width_of_its_values():
    ball = LatticeBall.of(scaled_integer_lattice(1.0, 2), 3.0)
    n = ball.points.shape[0]
    computed, mirrored = ball.split(real=True)
    values = np.arange(n) * (1 + 1j)
    assert ball.unfold(values) is values
    whole = ball.unfold(values[computed][None])
    assert whole.shape == (1, n)
    assert np.array_equal(whole[0, computed], values[computed])
    assert np.array_equal(whole[0, mirrored], np.conj(values[n - 1 - mirrored]))
    for width in (0, computed.size - 1, computed.size + 1, n + 1):
        with pytest.raises(ValueError, match=f"{width} values fit neither"):
            ball.unfold(values[:width] if width <= n else np.ones(width))


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
