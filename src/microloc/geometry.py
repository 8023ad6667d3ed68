"""Open circular cones and polynomially moderate radial weights.

A cone is the set {xi != 0 : angle(xi, axis) < aperture}; it never contains
the origin and is invariant under positive scaling.  Weights are radial
bracket powers <xi>^s with <xi> = sqrt(1 + |xi|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validation import as_points, check_finite, check_in_open, unit_direction


def squared_norms(pts: np.ndarray) -> np.ndarray:
    """|x|^2 of every row of an (n, d) array.

    The squared columns are summed in axis order, as
    np.sum(pts * pts, axis=1) sums them, but one column at a time: a
    reduction along short rows is several times slower on tall arrays.
    """
    out = pts[:, 0] * pts[:, 0]
    for i in range(1, pts.shape[1]):
        out += pts[:, i] * pts[:, i]
    return out


def row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (n, d) array; equal to
    np.linalg.norm(pts, axis=1), which sums the same squares in the same order."""
    return np.sqrt(squared_norms(pts))


@dataclass(frozen=True)
class Cone:
    """Open circular cone given by a unit axis and a half-angle in (0, pi)."""

    axis: np.ndarray
    aperture: float

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_direction(self.axis, "cone axis"))
        object.__setattr__(
            self, "aperture", check_in_open(self.aperture, 0.0, math.pi, "aperture")
        )

    @classmethod
    def from_degrees(cls, axis, aperture_deg: float) -> "Cone":
        return cls(axis, math.radians(float(aperture_deg)))

    @property
    def d(self) -> int:
        return self.axis.size

    @property
    def aperture_deg(self) -> float:
        return math.degrees(self.aperture)

    def contains(self, xi) -> np.ndarray | bool:
        """Strict membership test; vectorized over rows of an (n, d) array."""
        pts = np.asarray(xi, dtype=float)
        scalar = pts.ndim == 1
        pts = as_points(pts, self.d, "xi")
        r = row_norms(pts)
        inside = (r > 0.0) & (pts @ self.axis > r * math.cos(self.aperture))
        return bool(inside[0]) if scalar else inside

    def box(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), the smallest box holding the cone's points with
        |xi| <= radius.  Along e_i, at angle phi_i from the axis, the cone's
        cap reaches radius * cos(max(phi_i - aperture, 0)), or the box stops
        at the apex where that is negative; along -e_i the angle is
        pi - phi_i."""
        # math on the d axis entries: a few numpy calls on d-vectors cost more
        phis = [math.acos(min(max(a, -1.0), 1.0)) for a in self.axis.tolist()]

        def reach(angle):
            return radius * max(math.cos(max(angle - self.aperture, 0.0)), 0.0)

        return (np.array([-reach(math.pi - phi) for phi in phis]),
                np.array([reach(phi) for phi in phis]))

    def to_json(self) -> dict:
        return {"axis": self.axis.tolist(), "aperture_deg": self.aperture_deg}


@dataclass(frozen=True)
class Weight:
    """Radial bracket power <xi>^s, <xi> = sqrt(1 + |xi|^2), on frequency space."""

    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", check_finite(self.s, "s"))

    @classmethod
    def bracket_power(cls, s: float) -> "Weight":
        return cls(s)

    def __call__(self, xi) -> np.ndarray | float:
        pts = np.asarray(xi, dtype=float)
        scalar = pts.ndim <= 1
        if pts.ndim <= 1:
            pts = np.atleast_1d(pts)[None, :]  # one d-dimensional point
        vals = np.sqrt(1.0 + squared_norms(pts)) ** self.s
        return float(vals[0]) if scalar else vals

    def to_json(self) -> dict:
        return {"kind": "bracket_power", "s": self.s}
