import math

import numpy as np
import pytest

from microloc import Cone, Weight
from microloc.geometry import row_norms, squared_norms


def compactly_contained(inner, outer):
    # closure(inner) minus 0 lies in the open outer cone: for circular cones,
    # angle(axis_in, axis_out) + aperture_in < aperture_out
    cosang = float(np.clip(inner.axis @ outer.axis, -1.0, 1.0))
    return math.acos(cosang) + inner.aperture < outer.aperture


def check_moderate(omega, v, box, n, seed=0):
    # largest omega(xi + eta) / (omega(xi) v(eta)) over n^2 seeded pairs from
    # the box, anchored at the origin where the ratio is exactly 1
    lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    rng = np.random.default_rng(seed)
    xi, eta = rng.uniform(lo, hi, size=(2, n, lo.size))
    xi[0] = eta[0] = 0.0
    num = omega((xi[:, None, :] + eta[None, :, :]).reshape(-1, lo.size)).reshape(n, n)
    return float(np.max(num / (omega(xi)[:, None] * v(eta)[None, :])))


def test_cone_membership_examples():
    cone = Cone.from_degrees([1.0, 0.0], 30.0)
    assert cone.contains([5.0, 0.0])
    assert not cone.contains([1.0, 1.0])  # 45 degrees off axis
    assert not cone.contains([0.0, 0.0])


def test_cone_membership_vectorized():
    cone = Cone.from_degrees([0.0, 1.0], 10.0)
    pts = np.array([[0.0, 3.0], [3.0, 0.0], [0.05, 1.0], [0.0, 0.0]])
    assert cone.contains(pts).tolist() == [True, False, True, False]


def test_cone_scaling_invariance(rng):
    cone = Cone.from_degrees(rng.normal(size=3), 25.0)
    for _ in range(200):
        xi = rng.normal(size=3)
        t = float(rng.uniform(0.01, 100.0))
        assert cone.contains(xi) == cone.contains(t * xi)


def test_compactly_contained_examples():
    axis = [1.0, 0.0]
    assert compactly_contained(Cone.from_degrees(axis, 20), Cone.from_degrees(axis, 30))
    assert not compactly_contained(Cone.from_degrees(axis, 30), Cone.from_degrees(axis, 30))
    tilted = [math.cos(math.radians(15)), math.sin(math.radians(15))]
    assert compactly_contained(Cone.from_degrees(tilted, 10), Cone.from_degrees(axis, 30))


def test_compact_containment_implies_membership(rng):
    inner = Cone.from_degrees([1.0, 0.5], 12.0)
    outer = Cone.from_degrees([1.0, 0.3], 35.0)
    assert compactly_contained(inner, outer)
    pts = rng.normal(size=(10_000, 2))
    inside = inner.contains(pts)
    assert np.all(outer.contains(pts)[inside])


def test_weight_eval_examples():
    assert Weight.bracket_power(0.0)([3.0, 7.0]) == 1.0
    assert Weight.bracket_power(2.0)([1.0, 1.0, 1.0]) == pytest.approx(4.0)
    assert Weight.bracket_power(-1.0)([3.0, 4.0]) == pytest.approx(26.0**-0.5, rel=1e-14)


def test_weight_inverse_product(rng):
    w_plus = Weight.bracket_power(1.7)
    w_minus = Weight.bracket_power(-1.7)
    xi = rng.normal(size=(500, 2)) * 20
    prod = w_plus(xi) * w_minus(xi)
    assert np.max(np.abs(prod - 1.0)) < 1e-12


def test_check_moderate_peetre_bounds():
    # the moderating partner of <.>^s is <.>^|s|
    box = ([-40.0, -40.0], [40.0, 40.0])
    w0 = Weight.bracket_power(0.0)
    assert check_moderate(w0, Weight.bracket_power(abs(w0.s)), box, 40) == pytest.approx(1.0)
    w1 = Weight.bracket_power(1.0)
    c1 = check_moderate(w1, Weight.bracket_power(abs(w1.s)), box, 60)
    assert 1.0 <= c1 <= math.sqrt(2.0) + 1e-12
    w2 = Weight.bracket_power(-2.0)
    c2 = check_moderate(w2, Weight.bracket_power(2.0), box, 60)
    assert c2 <= 2.0 + 1e-12


def test_cone_json_round_trip():
    cone = Cone.from_degrees([3.0, 4.0], 22.5)
    back = Cone.from_degrees(**cone.to_json())
    assert np.allclose(back.axis, cone.axis)
    assert back.aperture == pytest.approx(cone.aperture)


def test_weight_json_round_trip():
    w = Weight.bracket_power(-0.75)
    assert w.to_json() == {"kind": "bracket_power", "s": -0.75}
    assert Weight(w.to_json()["s"]) == w


def test_row_norms_equal_linalg_norm(rng):
    for d in (1, 2):
        pts = rng.normal(size=(5000, d)) * rng.uniform(1e-3, 1e3, size=(5000, 1))
        assert np.array_equal(row_norms(pts), np.linalg.norm(pts, axis=1))
        assert np.array_equal(squared_norms(pts), np.sum(pts * pts, axis=1))


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone.from_degrees([0.0, 0.0], 20.0)
    with pytest.raises(ValueError):
        Cone.from_degrees([1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        Cone.from_degrees([1.0, 0.0], 180.0)
