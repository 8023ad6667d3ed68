"""Full-rank lattices, admissible lattice pairs, and ball enumeration.

A lattice is offset + {t1 e1 + ... + td ed : t integer}; the basis vectors
are the rows of `basis`.  Enumeration inside a ball brackets it by an
integer box in lattice coordinates and filters, so no point is missed and
the cost is proportional to the bounding-box volume.  A `LatticeBall` keeps
the enumerated points with their integer coordinates and, when the ball is
centrally symmetric, its Hermitian half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, SingularBasis
from .geometry import row_norms
from .validation import as_float_array, as_point, check_finite

DEFAULT_CELL_BUDGET = 10**8
# Bytes an enumeration may hold at once.  The integer mesh, its stacked
# coordinates and the points with their temporaries take about 32 d bytes
# per candidate cell, so 1 GiB allows a 4096^2 box in 2D.
_ENUMERATION_BYTES = 2**30

_PAIR_TOL = 1e-10


@dataclass(frozen=True)
class Lattice:
    basis: np.ndarray  # (d, d), rows are the basis vectors e_1 .. e_d
    offset: np.ndarray  # (d,)

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _inv_basis(self) -> np.ndarray:
        return np.linalg.inv(self.basis)

    @cached_property
    def min_spacing(self) -> float:
        """Shortest basis-vector norm (used to scale shell radii)."""
        return float(np.min(np.linalg.norm(self.basis, axis=1)))

    def points(self, ts: np.ndarray) -> np.ndarray:
        return self.offset + np.asarray(ts, dtype=float) @ self.basis

    def to_lattice_coords(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.offset) @ self._inv_basis

    @property
    def is_diagonal(self) -> bool:
        return bool(np.all(self.basis == np.diag(np.diagonal(self.basis))))

    def to_json(self) -> dict:
        return {"basis": self.basis.tolist(), "offset": self.offset.tolist()}


def make_lattice(basis, offset=None) -> Lattice:
    """Build a lattice from d basis vectors and an optional offset.

    Raises SingularBasis when |det| <= 1e-12 * (max vector norm)^d, i.e.
    when the vectors are linearly dependent at working precision.
    """
    b = as_float_array(basis, "basis")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"basis must be a square (d, d) array, got shape {b.shape}")
    d = b.shape[0]
    scale = float(np.max(np.linalg.norm(b, axis=1)))
    det = abs(float(np.linalg.det(b)))
    if scale == 0.0 or det <= 1e-12 * scale**d:
        raise SingularBasis(f"basis vectors are linearly dependent (|det| = {det:g})")
    off = np.zeros(d) if offset is None else as_point(offset, d, "offset")
    b = b.copy()
    b.setflags(write=False)
    off.setflags(write=False)
    return Lattice(b, off)


def scaled_integer_lattice(step: float, d: int, offset=None) -> Lattice:
    """Convenience constructor for step * Z^d."""
    return make_lattice(np.eye(d) * float(step), offset)


@dataclass(frozen=True)
class LatticePair:
    """Spatial/frequency lattice pair with its admissibility class.

    strong: <e_j, eps_j> = c for all j with 0 < c < 2*pi and zero cross terms;
    weak: the same with c = 2*pi exactly; anything else is inadmissible.
    """

    lambda1: Lattice
    lambda2: Lattice
    coupling: float | None
    kind: str  # "strong" | "weak" | "inadmissible"

    @property
    def is_strong(self) -> bool:
        return self.kind == "strong"


def classify_pair(lambda1: Lattice, lambda2: Lattice) -> LatticePair:
    """Classify a lattice pair from the Gram matrix <e_j, eps_k>, to _PAIR_TOL."""
    if lambda1.d != lambda2.d:
        raise ValueError("lattices must share a dimension")
    gram = lambda1.basis @ lambda2.basis.T
    diag = np.diagonal(gram)
    off = gram - np.diag(diag)
    c = float(np.mean(diag))
    biorthogonal = (
        float(np.max(np.abs(off), initial=0.0)) <= _PAIR_TOL
        and float(np.max(np.abs(diag - c))) <= _PAIR_TOL
    )
    if not biorthogonal or c <= _PAIR_TOL:
        return LatticePair(lambda1, lambda2, None, "inadmissible")
    if abs(c - 2.0 * math.pi) <= _PAIR_TOL:
        return LatticePair(lambda1, lambda2, c, "weak")
    if c < 2.0 * math.pi:
        return LatticePair(lambda1, lambda2, c, "strong")
    return LatticePair(lambda1, lambda2, None, "inadmissible")


def _integer_box_for_ball(lat: Lattice, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinate ranges bracketing the ball |x| <= r_max."""
    center = lat.to_lattice_coords(np.zeros(lat.d))
    semi = r_max * np.linalg.norm(lat._inv_basis, axis=0)
    lo = np.ceil(center - semi - 1e-9).astype(int)
    hi = np.floor(center + semi + 1e-9).astype(int)
    return lo, hi


def _enumerate_box(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    counts = np.maximum(hi - lo + 1, 0)  # a negative radius brackets no cell
    total = int(np.prod(counts.astype(object)))
    if total > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(
            f"bounding box holds {total} candidate cells, budget is {DEFAULT_CELL_BUDGET}"
        )
    if 32 * lo.size * total > _ENUMERATION_BYTES:
        raise BudgetExceeded(
            f"enumerating {total} candidate cells would take about "
            f"{32 * lo.size * total / 2**30:.1f} GiB, over {_ENUMERATION_BYTES / 2**30:g} GiB"
        )
    axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def points_in_ball(lat: Lattice, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """All lattice points with |xi| <= r_max plus integer coordinates.

    The origin is among them when the lattice contains it.  Deterministic
    lexicographic order on the integer coordinates: the box is enumerated
    in that order and the radius filter keeps it.  Raises BudgetExceeded
    when the bounding box exceeds DEFAULT_CELL_BUDGET candidate cells or
    its enumeration would take more than _ENUMERATION_BYTES, and ValueError
    when r_max is not a finite number; a negative r_max gives no point.
    """
    r_max = check_finite(r_max, "r_max")
    lo, hi = _integer_box_for_ball(lat, r_max)
    ts = _enumerate_box(lo, hi)
    pts = lat.points(ts)
    keep = np.flatnonzero(row_norms(pts) <= r_max)
    # np.take gathers rows of a tall (n, d) array several times faster than
    # pts[keep], with the same result
    return np.take(pts, keep, axis=0), np.take(ts, keep, axis=0)


_NO_INDEX = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class LatticeBall:
    """Every point of `lattice` with |xi| <= radius and its integer
    coordinates ks, in the lexicographic order of `points_in_ball`, or a
    subset of them in the same order (the points a verdict's series bin,
    see `seminorm.ShellGeometry.on_cone`).

    The ball is centrally symmetric when every -xi_i is the point at index
    n - 1 - i, as on a lattice through the origin or delta (Z^d + 1/2) at a
    dyadic delta; so is its subset inside a radius, a scan's.  There a real
    signal's transform, F f(-xi) = conj(F f(xi)), is computed on the half
    xi_d >= 0 only (see `split`) and `unfold` mirrors it onto the whole
    ball.  A cone's subset is never symmetric, so every point of it is
    computed.
    """

    lattice: Lattice
    radius: float
    points: np.ndarray  # (n, d)
    ks: np.ndarray  # (n, d) integers

    def __post_init__(self):
        d = self.lattice.d
        if self.points.ndim != 2 or self.points.shape[1] != d or self.ks.shape != self.points.shape:
            raise ValueError(
                f"ball arrays of shapes {self.points.shape} and {self.ks.shape} "
                f"do not hold points of a {d}-d lattice"
            )

    @classmethod
    def of(cls, lat: Lattice, r_max: float) -> "LatticeBall":
        """Enumerate the ball by `points_in_ball`."""
        pts, ks = points_in_ball(lat, r_max)
        return cls(lat, float(r_max), pts, ks)

    @cached_property
    def radii(self) -> np.ndarray:
        return row_norms(self.points)

    def is_of(self, lat: Lattice, r_max: float) -> bool:
        """True when this is the ball of radius r_max on lat."""
        return (
            self.radius == float(r_max)
            and np.array_equal(self.lattice.basis, lat.basis)
            and np.array_equal(self.lattice.offset, lat.offset)
        )

    @cached_property
    def _halves(self) -> tuple[np.ndarray | slice, np.ndarray]:
        if not np.array_equal(self.points[::-1], -self.points):
            return slice(None), _NO_INDEX
        last = self.points[:, -1]
        return np.flatnonzero(last >= 0), np.flatnonzero(last < 0)

    def split(self, real: bool) -> tuple[np.ndarray | slice, np.ndarray]:
        """(computed, mirrored): the indices on which to compute a spectrum and
        those to fill from it, index i by conj(value at n - 1 - i).  For a
        real signal on a centrally symmetric ball they are xi_d >= 0 and
        xi_d < 0; otherwise every point is computed and none is mirrored."""
        return self._halves if real else (slice(None), _NO_INDEX)

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """Values on every point of the ball, read by the width of the last
        axis of `values`: one per ball point is whole and returned as it is;
        one per computed point of `split(True)` is mirrored, -xi taking the
        conjugate of the value at xi (the value itself, for magnitudes)."""
        n = self.points.shape[0]
        if values.shape[-1] == n:
            return values
        computed, mirrored = self._halves
        if values.shape[-1] != n - mirrored.size:
            raise ValueError(f"{values.shape[-1]} values fit neither the {n} points of "
                             f"the ball nor its {n - mirrored.size} computed points")
        out = np.empty(values.shape[:-1] + (n,), dtype=values.dtype)
        out[..., computed] = values
        mirror = out[..., n - 1 - mirrored]
        if np.iscomplexobj(mirror):
            np.conjugate(mirror, out=mirror)
        out[..., mirrored] = mirror
        return out

