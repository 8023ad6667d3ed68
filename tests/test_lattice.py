import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from microloc.lattice import LatticeBall, _axis_points


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


def test_points_in_ball_refuses_a_cone_of_another_dimension(z2):
    with pytest.raises(ValueError) as refused:
        points_in_ball(z2, 3.0, cone=Cone.from_degrees([1.0, 0.0, 0.0], 20.0))
    assert str(refused.value) == "a 3-d cone for a 2-d lattice"


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


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    entries=st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9),
    offset=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    along=st.sampled_from(["basis vector", "coordinate axis", "any"]),
    which=st.integers(0, 2),
    sign=st.sampled_from([1.0, -1.0]),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    aperture=st.floats(0.1, 89.9),
    corner=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    on_a_point=st.booleans(),
    r_max=st.floats(0.0, 6.0),
)
def test_property_points_in_a_cone_match_the_filtered_box_enumeration(
    d, entries, offset, along, which, sign, direction, aperture, corner, on_a_point, r_max
):
    # a cone's enumeration keeps exactly the points of the whole ball's box
    # enumeration that the radius and cone filters keep, in the same order
    basis = np.eye(d) + 0.5 * np.array(entries[: d * d]).reshape(d, d)  # skewed, near I
    assume(abs(np.linalg.det(basis)) > 0.2)
    lat = make_lattice(basis, offset[:d])
    if along == "basis vector":
        axis = sign * basis[which % d]
    elif along == "coordinate axis":
        axis = sign * np.eye(d)[which % d]
    else:
        axis = np.array(direction[:d])
        assume(np.linalg.norm(axis) > 0.1)
    cone = Cone.from_degrees(axis, aperture)
    if on_a_point:  # a radius equal to a point's norm, the edge of the filter
        r_max = float(row_norms(lat.points(np.array([corner[:d]])))[0])
    pts, ks = points_in_ball(lat, r_max, cone=cone)
    ball_pts, ball_ks = _box_enumeration(lat, r_max)
    inside = cone.contains(ball_pts)
    assert np.array_equal(pts, ball_pts[inside]) and np.array_equal(ks, ball_ks[inside])
    assert pts.dtype == ball_pts.dtype and ks.dtype == ball_ks.dtype


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("r_max", [1e19, 1e20, 1e300])
def test_points_in_ball_refuses_a_box_past_the_int64_range(d, r_max):
    # the box is counted and refused before its bounds are cast to integers,
    # so a huge radius gives neither bogus points nor a cast warning
    lat = scaled_integer_lattice(1.0, d)
    cells = (2 * int(r_max) + 1) ** d
    for cone in (None, Cone.from_degrees(np.ones(d), 20.0)):
        with pytest.raises(BudgetExceeded) as refused:
            points_in_ball(lat, r_max, cone=cone)
        if cone is None:
            assert str(refused.value) == (
                f"bounding box holds {cells} candidate cells, budget is 100000000")
    # a box of few cells whose coordinates pass the int64 range
    far = scaled_integer_lattice(1.0, d, np.full(d, r_max))
    with pytest.raises(BudgetExceeded, match="past the int64 range"):
        points_in_ball(far, 2.0)


@st.composite
def _axis_ball(draw):
    """An axis-aligned lattice, steps of either sign, and a radius exactly
    at, 1e-12 below or 1e-12 above the norm |o_a + k s_a| of a lattice
    coordinate, k = 0 included (a tiny or empty ball)."""
    d = draw(st.integers(1, 3))
    steps = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0)) for _ in range(d)]
    fractions = st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)
    offset = [draw(fractions) * abs(step) for step in steps]
    axis, k = draw(st.integers(0, d - 1)), draw(st.integers(0, 4))
    r_max = abs(offset[axis] + k * steps[axis]) + draw(st.sampled_from([0.0, -1e-12, 1e-12]))
    return make_lattice(np.diag(steps), offset), r_max


@settings(max_examples=150, deadline=None)
@given(_axis_ball())
# o_2 = 1.5 s_2 to round-off, and r_max the norm of (1, o_2 - s_2): np.round
# takes -o_2 / s_2 = -1.5 to -2, whose |xi_2| is one ulp larger, so that
# point misses the ball and slab k_1 = 1 would look empty
@example((make_lattice(np.diag([1.0, -2.339742627483026]), [0.0, -3.509613941224539]),
          1.5390253054174559))
def test_property_axis_points_give_the_whole_balls_largest_coordinates(case):
    # the ball's points nearest the axes are ball points, and their largest
    # |xi_i| per axis is the whole ball's, or both sets are empty
    lat, r_max = case
    whole, _ = points_in_ball(lat, r_max)
    got = _axis_points(lat, r_max)
    assert got.shape[1] == lat.d and (got.shape[0] == 0) == (whole.shape[0] == 0)
    assert set(map(tuple, got.tolist())) <= set(map(tuple, whole.tolist()))
    if whole.shape[0]:
        assert np.array_equal(np.max(np.abs(got), axis=0), np.max(np.abs(whole), axis=0))
