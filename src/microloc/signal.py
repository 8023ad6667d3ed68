"""Uniformly sampled, compactly supported signals and their transforms.

Fourier convention (unitary, angular frequency):

    F f(xi) = (2*pi)^(-d/2) * integral f(x) exp(-i<x, xi>) dx

discretized by the rectangle rule on the sample grid,

    F f(xi) ~= (2*pi)^(-d/2) * h^d * sum_n f(x_n) exp(-i<x_n, xi>).

For smooth compactly supported integrands the rectangle rule is spectrally
accurate; the dominant error is aliasing, controlled by refusing frequencies
beyond DEFAULT_NYQUIST_SAFETY * pi / h per axis (FrequencyOutOfRange).

Every frequency set transformed in batch is a `lattice.LatticeBall` of an
axis-aligned lattice (the beta Z^d balls of both routes, the midpoint
quadrature nodes), so its coordinates lie on one arithmetic progression per
axis, taken exact from the ball's integer coordinates
(`_lattice_progressions`), never recovered from floats.  One analysis
core, `_analysis`, sums f times a window's translates over grid patches
onto them: `fourier_batch` is its one unwindowed row and Gabor analysis
(`gabor.coefficients`) its psi^eps rows.  The core owns the guards of
both: it refuses a ball of another dimension or past the band, and gives
0 for every row of an empty signal, an empty ball or no translate.  Its
plan (`_plan`: progressions, chirp-z kernels, index, row batches) serves
Gabor synthesis (`gabor.reconstruct`) too, with the adjoint kernel.  The
kernel is Bluestein's algorithm on `numpy.fft`, axis by axis in any
dimension.  Direct summation (`_direct`) serves a single frequency (`fourier_at`) and
is the reference the kernel is tested against.

A real signal (`GridSignal.is_real`, checked once per signal) has a
Hermitian transform, F f(-xi) = conj(F f(xi)), so its spectrum on a
centrally symmetric lattice ball is computed on the half ball xi_d >= 0 and
mirrored (`LatticeBall.split`, `LatticeBall.unfold`); the last axis's
progression, which the kernel transforms first, is then half as long.

Windows are separable: one profile per axis plus a placement (shift,
scale) that `scaled`/`translated` move.  A batch of translates is sampled
axis by axis on the stacked grid offsets, each patch being the outer product
of its axis samples (O(sum L) evaluations, not O(prod L)).  `multiply`
returns a signal sized to the nonzero bounding box of the product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateBoxes, FrequencyOutOfRange
from .lattice import Lattice, LatticeBall
from .validation import as_box, as_integers, as_point

DEFAULT_NYQUIST_SAFETY = 0.9

# Default grids: 1D gives Nyquist pi/h ~ 3.2e3, three decades of shells.
DEFAULT_GRID_1D = (2**14, -8.0, 8.0)
DEFAULT_GRID_2D = (1024, -4.0, 4.0)

_TWO_PI = 2.0 * math.pi
# Round-off floor of an n-term quadrature: _EPS_FLOOR * sqrt(n) * absolute mass.
_EPS_FLOOR = np.finfo(float).eps * 64.0

# Entry budget for the arrays a batch transform builds at once.
_CHUNK_ENTRIES = 2**18


def _support_from_nonzero(samples: np.ndarray) -> np.ndarray:
    """[first, last + 1) per axis of the nonzero entries of `samples` as a
    (d, 2) array; all zero without one.  Taken from per-axis `any`
    reductions."""
    nz = samples != 0
    out = np.zeros((nz.ndim, 2), dtype=int)
    for i in range(nz.ndim):
        m = np.any(nz, axis=tuple(k for k in range(nz.ndim) if k != i))
        if np.any(m):
            out[i] = np.argmax(m), m.size - np.argmax(m[::-1])
    return out


@dataclass(frozen=True)
class GridSignal:
    """Complex samples on a uniform grid with a compact support box.

    Samples outside the support box are exactly zero (enforced on
    construction) and the sample array is frozen, so values are safe to
    share across threads.
    """

    origin: np.ndarray
    spacing: np.ndarray
    samples: np.ndarray
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        origin = as_point(self.origin, name="origin")
        spacing = as_point(self.spacing, origin.size, "spacing")
        if np.any(spacing <= 0):
            raise ValueError("grid spacing must be positive")
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if samples.ndim != origin.size:
            raise ValueError(
                f"samples have {samples.ndim} axes but origin has dimension {origin.size}"
            )
        if not np.all(np.isfinite(samples)):
            bad = np.argwhere(~np.isfinite(samples))[0].tolist()
            raise ValueError(f"samples must be finite; index {bad} holds {samples[tuple(bad)]}")
        support = np.atleast_1d(np.asarray(self.support, dtype=object))
        if support.shape != (samples.ndim, 2):
            raise ValueError(f"support must give one (start, stop) range per axis of the "
                             f"{samples.ndim}-d samples, got {len(support)} entries in "
                             f"{self.support!r}")
        support = tuple(map(tuple, as_integers(support, "support").tolist()))
        for (a, b), n in zip(support, samples.shape):
            if not (0 <= a <= b <= n):
                raise ValueError(f"support range {(a, b)} outside shape {samples.shape}")
        inside = tuple(slice(a, b) for a, b in support)
        kept = np.zeros_like(samples)
        kept[inside] = samples[inside]
        kept.setflags(write=False)
        origin.setflags(write=False)
        spacing.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "samples", kept)
        object.__setattr__(self, "support", support)

    # -- construction -------------------------------------------------

    @classmethod
    def from_samples(cls, samples, origin, spacing, support=None) -> "GridSignal":
        samples = np.asarray(samples, dtype=np.complex128)
        origin = as_point(origin, samples.ndim, "origin")
        spacing = np.broadcast_to(
            as_point(spacing, name="spacing"), (samples.ndim,)
        ).astype(float)
        if support is None:
            support = _support_from_nonzero(samples)
        return cls(origin, spacing, samples, support)

    # -- geometry ------------------------------------------------------

    @property
    def d(self) -> int:
        return self.samples.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.samples.shape

    def axes(self) -> list[np.ndarray]:
        return [
            self.origin[i] + self.spacing[i] * np.arange(self.shape[i])
            for i in range(self.d)
        ]

    @property
    def domain_box(self) -> tuple[np.ndarray, np.ndarray]:
        hi = self.origin + self.spacing * (np.array(self.shape) - 1)
        return self.origin.copy(), hi

    def nyquist_limit(self) -> np.ndarray:
        return DEFAULT_NYQUIST_SAFETY * math.pi / self.spacing

    @property
    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.origin + self.spacing * np.array([a for a, _ in self.support])
        hi = self.origin + self.spacing * np.array([max(b - 1, 0) for _, b in self.support])
        return lo, hi

    def is_empty(self) -> bool:
        return any(a >= b for a, b in self.support)

    def trimmed(self) -> "GridSignal":
        """Copy restricted to the support box (fast path for transforms)."""
        if self.is_empty():
            return GridSignal.from_samples(
                np.zeros((0,) * self.d, dtype=np.complex128), self.origin, self.spacing
            )
        sl = tuple(slice(a, b) for a, b in self.support)
        new_origin = self.origin + self.spacing * np.array([a for a, _ in self.support])
        return GridSignal.from_samples(self.samples[sl], new_origin, self.spacing)

    # -- measures ------------------------------------------------------

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def is_real(self) -> bool:
        """True when every sample is real, so that F f(-xi) = conj(F f(xi))."""
        return not np.any(self.samples.imag)

    def quad_l1(self) -> float:
        """Upper bound for |F f| under the quadrature convention."""
        return (
            (_TWO_PI) ** (-self.d / 2)
            * self.cell_volume
            * float(np.sum(np.abs(self.samples)))
        )

    def noise_floor(self) -> float:
        """Estimated round-off floor of computed spectrum values.

        Rounding in an n-term quadrature accumulates like eps * sqrt(n)
        times the absolute mass; the factor 64 adds headroom for the
        kernel evaluation itself.
        """
        n = max(int(np.prod([b - a for a, b in self.support])), 1)
        return _EPS_FLOOR * math.sqrt(n) * self.quad_l1()


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


def smoothstep(t) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly rising between."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    tm = t[mid]
    with np.errstate(over="ignore", under="ignore"):
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def _bump(u) -> np.ndarray:
    """Peak-1 C-infinity bump exp(1 - 1 / (1 - u^2)) on |u| < 1, zero elsewhere."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    with np.errstate(over="ignore", under="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@dataclass(frozen=True)
class BumpWindow:
    """Separable window w(x) = prod_i factors[i]((x_i - shift_i) / scale) on
    the box [lo, hi], exactly zero outside.  Each factor is a vectorized
    one-axis profile; `scaled` dilates the placement (shift, scale) and the
    box (no amplitude renormalization), `translated` shifts them.  Windows
    built here are real.
    """

    lo: np.ndarray
    hi: np.ndarray
    factors: tuple[Callable[[np.ndarray], np.ndarray], ...] = field(compare=False)
    shift: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        lo, hi = as_box((self.lo, self.hi), name="window box")
        if len(self.factors) != lo.size:
            raise ValueError(f"{len(self.factors)} factors for a {lo.size}-d window box")
        shift = np.zeros(lo.size) if self.shift is None else as_point(self.shift, lo.size, "shift")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "shift", shift)

    @property
    def d(self) -> int:
        return self.lo.size

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim <= 1 and self.d == pts.size
        p = pts.reshape(-1, self.d)
        inside = np.all((p >= self.lo) & (p <= self.hi), axis=1)
        vals = np.zeros(p.shape[0])
        if np.any(inside):
            t = (p[inside] - self.shift) / self.scale
            prod = self.factors[0](t[:, 0])
            for i in range(1, self.d):
                prod = prod * self.factors[i](t[:, i])
            vals[inside] = prod
        if scalar:
            return float(vals[0])
        return vals.reshape(pts.shape[:-1])

    def scaled(self, eps: float) -> "BumpWindow":
        if eps <= 0:
            raise ValueError("scale factor must be positive")
        return BumpWindow(
            self.lo * eps, self.hi * eps, self.factors, self.shift * eps, self.scale * eps
        )

    def translated(self, c) -> "BumpWindow":
        c = as_point(c, self.d, "translation")
        return BumpWindow(self.lo + c, self.hi + c, self.factors, self.shift + c, self.scale)


def make_cutoff(inner, outer) -> BumpWindow:
    """Smooth cutoff equal to 1 on the inner box and 0 outside the outer box.

    Per axis the factor is a rising exp(-1/t) step times a falling one, so
    values stay in [0, 1].
    """
    lo_in, hi_in = as_box(inner, name="inner box")
    lo_out, hi_out = as_box(outer, lo_in.size, name="outer box")
    if not (np.all(lo_out < lo_in) and np.all(hi_in < hi_out)):
        raise DegenerateBoxes(
            f"inner box {lo_in}..{hi_in} must be strictly inside outer {lo_out}..{hi_out}"
        )

    def factor(i: int):
        lo, hi = lo_out[i], hi_out[i]
        rise, fall = lo_in[i] - lo, hi - hi_in[i]
        return lambda x: smoothstep((x - lo) / rise) * smoothstep((hi - x) / fall)

    return BumpWindow(lo_out, hi_out, tuple(factor(i) for i in range(lo_in.size)))


def smooth_bump_window(center, radius) -> BumpWindow:
    """Separable C-infinity bump with peak value 1 at the center."""
    center = as_point(center, name="center")
    radius = np.broadcast_to(as_point(radius, name="radius"), center.shape).astype(float)
    if np.any(radius <= 0):
        raise ValueError("bump radius must be positive")

    def factor(c: float, r: float):
        return lambda x: _bump((x - c) / r)

    return BumpWindow(center - radius, center + radius, tuple(map(factor, center, radius)))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def _check_band(f: GridSignal, freqs: np.ndarray) -> None:
    limit = f.nyquist_limit()
    if freqs.size == 0:
        return
    worst = np.array([np.max(np.abs(u)) for u in freqs.T])  # faster than axis=0 on (n, d)
    if np.any(worst > limit):
        raise FrequencyOutOfRange(
            f"requested |xi| up to {worst} exceeds the guarded band {limit} "
            f"(safety {DEFAULT_NYQUIST_SAFETY} x pi/h); the sample grid cannot resolve it"
        )


def _smooth_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): an FFT length pocketfft
    transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _linear_phase(c, n: int, c0=0.0) -> np.ndarray:
    """exp(i (c0 + c t)) for t = 0..n-1, with c and c0 scalars or one value
    per row (broadcasting against a[..., :1]).  Splitting t = B q + r with
    B = ceil(sqrt(n)) makes it the outer product of a (rows, n/B) and a
    (rows, B) table: O(rows sqrt(n)) exponentials, each phase formed from
    an exact integer before scaling."""
    block = math.isqrt(n - 1) + 1
    t = np.arange(block, dtype=np.int64)
    coarse = np.exp(1j * (c0 + c * (block * t[: -(-n // block)])))
    fine = np.exp(1j * (c * t))
    table = coarse[..., :, None] * fine[..., None, :]
    return table.reshape(table.shape[:-2] + (-1,))[..., :n]


class _ChirpZ:
    """Bluestein's chirp-z transform along the last axis of an array:

        out[..., k] = sum_{m < length} a[..., m] exp(sign i (x0 + m dx)(u0 + du k))

    for k = 0..n-1: samples at x0 + m dx against frequencies u0 + du k, or,
    with the roles read the other way round, coefficients on a frequency
    progression against sample points.  With w = sign dx du, the identity
    m k = (m^2 + k^2 - (k - m)^2) / 2 turns the sum into a convolution with
    the chirp exp(-i w j^2 / 2), 1 - length <= j < n, taken by FFTs of the
    smallest 5-smooth size that holds it (Rabiner, Schafer & Rader 1969).
    The chirp is even in j, so it is formed once per kernel on j >= 0, each
    phase from an exact integer square before scaling; the pre-chirp
    exp(i w m^2 / 2) and the post-chirp exp(i w k^2 / 2) are its conjugate
    slices, and its transform serves every row.  Shorter rows count as
    zero-padded.

    x0 and u0 are scalars or one value per row (broadcasting against
    a[..., :1]).  They enter as the per-row scalar exp(sign i x0 u0) and the
    linear phases exp(sign i dx u0 m) and exp(sign i du x0 k) (see
    `_linear_phase`), so a call forms O(rows sqrt(length + n)) complex
    exponentials besides its FFTs.
    """

    def __init__(self, length: int, dx: float, du: float, n: int, sign: int):
        length, n = int(length), int(n)
        self.length, self.n = length, n
        self.dx, self.du, self.sign = dx, du, sign
        self.size = _smooth_size(length + n - 1)
        j = np.arange(max(length, n), dtype=np.int64)
        half = np.exp(-0.5j * sign * dx * du * (j * j))  # the chirp on j >= 0
        self.pre, self.post = np.conj(half[:length]), np.conj(half[:n])
        chirp = np.concatenate((half[length - 1 : 0 : -1], half[:n]))
        self.chirp_ft = np.fft.fft(chirp, self.size)

    def __call__(self, a: np.ndarray, x0=0.0, u0=0.0) -> np.ndarray:
        m = a.shape[-1]
        b = a * (self.pre[:m] * _linear_phase(self.sign * self.dx * u0, m))
        lead = b.shape[:-1]
        b = b.reshape(-1, m)
        out = np.empty((b.shape[0], self.n), dtype=np.complex128)
        rows = max(1, _CHUNK_ENTRIES // self.size)
        for r in range(0, b.shape[0], rows):
            conv = np.fft.fft(b[r : r + rows], self.size)
            conv *= self.chirp_ft
            conv = np.fft.ifft(conv)
            out[r : r + rows] = conv[:, self.length - 1 : self.length - 1 + self.n]
        out = out.reshape(lead + (self.n,))
        out *= self.post * _linear_phase(self.sign * self.du * x0, self.n, self.sign * (x0 * u0))
        return out


class _Progression(NamedTuple):
    """Frequencies start + step * index on one axis, 0 <= index < size."""

    start: float
    step: float
    size: int
    index: np.ndarray


def _lattice_progressions(lat: Lattice, ks: np.ndarray) -> list[_Progression]:
    """Per axis, the progression holding the points of an axis-aligned
    lattice with integer coordinates ks, exact from the integers: it starts
    at offset + step * min(k) and point k has index k - min(k)."""
    if not lat.is_diagonal:
        raise ValueError("a lattice-ball transform needs an axis-aligned frequency lattice")
    progs = []
    for step, offset, k in zip(np.diagonal(lat.basis), lat.offset, ks.T):
        k_min = int(np.min(k))
        size = int(np.max(k)) - k_min + 1
        progs.append(_Progression(float(offset + step * k_min), float(step), size, k - k_min))
    return progs


def _plan(lat: Lattice, ks: np.ndarray, spacing, a, b, adjoint: bool = False):
    """The progressions of ks on lat, the patch lengths (widest index box
    [a, b) per axis), the kernels (patches onto progressions or, adjoint,
    back), the index of ks in the progression box, and the row batches."""
    progs = _lattice_progressions(lat, ks)
    lengths = np.max(b - a, axis=0).clip(1)
    kernels = [
        _ChirpZ(p.size, p.step, h, n, 1) if adjoint else _ChirpZ(n, h, p.step, p.size, -1)
        for p, h, n in zip(progs, spacing, lengths)
    ]
    index = (slice(None),) + tuple(p.index for p in progs)
    step = max(1, _CHUNK_ENTRIES // math.prod(k.size for k in kernels))
    batches = [slice(r, min(r + step, a.shape[0])) for r in range(0, a.shape[0], step)]
    return progs, lengths, kernels, index, batches


def _along_axes(a: np.ndarray, kernels, x0s, u0s) -> np.ndarray:
    """Apply kernels[i] along axis i + 1 of a batch whose axis 0 indexes
    rows; x0s[i] and u0s[i] are scalars or one value per row."""
    for i in reversed(range(len(kernels))):
        moved = np.moveaxis(a, i + 1, -1)
        per_row = (-1,) + (1,) * (moved.ndim - 1)
        x0, u0 = np.reshape(x0s[i], per_row), np.reshape(u0s[i], per_row)
        a = np.moveaxis(kernels[i](moved, x0, u0), -1, i + 1)
    return a


def _direct(g: GridSignal, freqs: np.ndarray) -> np.ndarray:
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    flat = g.samples.ravel()
    nz = np.nonzero(flat)[0]
    coords, flat = coords[nz], flat[nz]
    out = np.empty(freqs.shape[0], dtype=np.complex128)
    block = max(1, _CHUNK_ENTRIES // max(coords.shape[0], 1))
    for start in range(0, freqs.shape[0], block):
        stop = min(start + block, freqs.shape[0])
        phase = coords @ freqs[start:stop].T
        out[start:stop] = flat @ np.exp(-1j * phase)
    return _TWO_PI ** (-g.d / 2) * g.cell_volume * out


def fourier_batch(f: GridSignal, ball: LatticeBall) -> np.ndarray:
    """F f at every point of a lattice ball, in ball order; pointwise equal
    to fourier_at.

    The one unwindowed row of `_analysis`, mirrored onto the whole ball
    (`LatticeBall.unfold`): the quadrature sum over f's support box, taken
    with the chirp-z kernel axis by axis over the product of the ball's
    progressions and read off at its points.  For a real f on a centrally
    symmetric ball only the half ball xi_d >= 0 is transformed and the rest
    is mirrored (`LatticeBall.split`).  The core's guards are its own: a
    ball of another dimension (ValueError) or past the band
    (FrequencyOutOfRange) is refused, and an empty f or ball gives zeros.
    """
    values, _ = _analysis(f, ball, _TWO_PI ** (-f.d / 2))
    return ball.unfold(values[0])


def fourier_at(f: GridSignal, xi) -> complex:
    """Quadrature value of F f at one frequency, summed directly (see
    module docstring)."""
    xi = as_point(xi, f.d, "xi")[None, :]
    _check_band(f, xi)
    return complex(_direct(f.trimmed(), xi)[0])


def _index_box(lo, hi, origin, spacing, a_min, b_max) -> tuple[np.ndarray, np.ndarray]:
    """Index range [a, b) per axis of the grid points inside the box
    [lo, hi] (or one box per row), clipped to [a_min, b_max)."""
    a = np.maximum(np.ceil((lo - origin) / spacing - 1e-12).astype(int), a_min)
    b = np.minimum(np.floor((hi - origin) / spacing + 1e-12).astype(int) + 1, b_max)
    return a, b


def _window_batch(w: BumpWindow, shifts, origin, spacing, a, b, lengths) -> np.ndarray:
    """w translated by each row of `shifts`, sampled on grid indices a + m,
    0 <= m < lengths: an (rows, *lengths) array, zero past b and outside
    each translate's box.  Each axis factor is evaluated once per batch on
    the stacked (rows, lengths[i]) offsets, and each row's patch is the
    outer product of its per-axis samples."""
    out = np.ones((a.shape[0],) + (1,) * w.d)
    for i, (factor, n) in enumerate(zip(w.factors, lengths)):
        idx = a[:, i, None] + np.arange(n)
        x = origin[i] + spacing[i] * idx
        c = shifts[:, i, None]
        inside = (idx < b[:, i, None]) & (x >= w.lo[i] + c) & (x <= w.hi[i] + c)
        vals = np.zeros(x.shape)
        vals[inside] = factor(((x - (w.shift[i] + c)) / w.scale)[inside])
        out = out * vals.reshape((-1,) + (1,) * i + (n,) + (1,) * (w.d - 1 - i))
    return out


def _gather(samples: np.ndarray, a, lengths) -> np.ndarray:
    """samples on grid indices a + m, 0 <= m < lengths, per row of a;
    indices past the grid read its last sample."""
    d = samples.ndim
    idx = [
        np.minimum(a[:, i, None] + np.arange(n), samples.shape[i] - 1).reshape(
            (-1,) + (1,) * i + (n,) + (1,) * (d - 1 - i)
        )
        for i, n in enumerate(lengths)
    ]
    return samples[tuple(idx)]


def _analysis(f: GridSignal, ball: LatticeBall, scale: float, window=None, shifts=None):
    """scale * h^d * sum_n f(x_n) w(x_n - c) exp(-i<x_n, xi>) on the ball's
    computed points, one row per translate c of the window (one row, w = 1,
    without it), and each row's noise floor.  A row sums over f's support
    box or its window box clipped to it; its floor counts that box's samples
    (_EPS_FLOOR * sqrt(count) * scaled absolute mass).  A row whose box is
    empty (b <= a on some axis, so every row of an empty f), and every row
    on an empty ball, is 0 with floor 0 and is not transformed: the batches
    run over the others.  First, the guards of every caller: ValueError for
    a ball of another dimension than f, then FrequencyOutOfRange for one
    past the band (`_check_band`)."""
    if ball.lattice.d != f.d:
        raise ValueError(f"a {ball.lattice.d}-d frequency ball for a {f.d}-d signal")
    _check_band(f, ball.points)
    a, b = np.array(f.support).T[:, None]
    if window is not None:
        a, b = _index_box(window.lo + shifts, window.hi + shifts, f.origin, f.spacing, a, b)
    # one column per computed point; their ks are gathered inline, so the row
    # loop does not hold them
    computed = ball.split(f.is_real)[0]
    n = ball.points.shape[0] if isinstance(computed, slice) else computed.size
    values = np.empty((a.shape[0], n), dtype=np.complex128)
    floors = np.empty(a.shape[0])
    empty = np.any(b <= a, axis=1) | (n == 0)
    values[empty], floors[empty] = 0.0, 0.0
    if empty.all():
        return values, floors
    live = np.flatnonzero(~empty)
    a, b = a[live], b[live]
    progs, lengths, kernels, index, batches = _plan(
        ball.lattice,
        ball.ks if isinstance(computed, slice) else np.take(ball.ks, computed, axis=0),
        f.spacing, a, b)
    norm = scale * f.cell_volume
    for rows in batches:
        at, lo, hi = live[rows], a[rows], b[rows]
        patches = _gather(f.samples, lo, lengths)
        if window is not None:
            patches *= _window_batch(window, shifts[at], f.origin, f.spacing, lo, hi, lengths)
        mass = np.sum(np.abs(patches), axis=tuple(range(1, patches.ndim)))
        floors[at] = _EPS_FLOOR * np.sqrt(np.prod(hi - lo, axis=1)) * norm * mass
        corners = f.origin + f.spacing * lo
        sums = _along_axes(patches, kernels, corners.T, [p.start for p in progs])
        values[at] = norm * sums[index]
    return values, floors


def multiply(f: GridSignal, w: BumpWindow) -> GridSignal:
    """Pointwise product f * w sampled on f's grid.

    The result covers only the nonzero bounding box of the product (inside
    the intersection of supports), with its origin placed exactly as
    `trimmed()` places it; an empty product is the zero-size signal.
    """
    if w.d != f.d:
        raise ValueError("window dimension does not match the signal")
    a, b = _index_box(w.lo, w.hi, f.origin, f.spacing, *zip(*f.support))
    if np.all(b > a):
        region = tuple(slice(i, j) for i, j in zip(a, b))
        win = _window_batch(w, np.zeros((1, f.d)), f.origin, f.spacing, a[None], b[None], b - a)
        g = f.samples[region] * win[0]
        box = _support_from_nonzero(g)
        if np.all(box[:, 1] > box[:, 0]):
            inner = g[tuple(slice(lo, hi) for lo, hi in box)]
            origin = f.origin + f.spacing * (a + box[:, 0])
            return GridSignal(origin, f.spacing, inner, tuple((0, n) for n in inner.shape))
    return GridSignal.from_samples(np.zeros((0,) * f.d), f.origin, f.spacing)


def _stft(f: GridSignal, window: BumpWindow, x, xi) -> complex:
    """Short-time Fourier transform V_w f(x, xi) = F(f * conj(w(.-x)))(xi).

    Windows built in this module are real, so no conjugation is applied;
    quadrature and guard behavior match fourier_at.
    """
    x = as_point(x, f.d, "x")
    g = multiply(f, window.translated(x))
    return fourier_at(g, xi)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _stem(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".bin", ".csv"):
        return p.with_suffix("")
    return p


def save_signal(f: GridSignal, path) -> tuple[Path, Path]:
    """Write `<stem>.json` header plus `<stem>.bin` little-endian complex128."""
    stem = _stem(path)
    header = {
        "d": f.d,
        "origin": f.origin.tolist(),
        "spacing": f.spacing.tolist(),
        "shape": list(f.shape),
        "dtype": "c128-le",
    }
    jpath = stem.with_suffix(".json")
    bpath = stem.with_suffix(".bin")
    jpath.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    bpath.write_bytes(f.samples.astype("<c16").tobytes(order="C"))
    return jpath, bpath


def _load_csv(path: Path) -> GridSignal:
    origin, spacing = 0.0, 1.0
    rows = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("origin="):
                        origin = float(tok.split("=", 1)[1])
                    elif tok.startswith("spacing="):
                        spacing = float(tok.split("=", 1)[1])
                continue
            if line.lower().startswith("index"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"bad CSV row {line!r}; expected index,re,im")
            rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
    if not rows:
        raise ValueError(f"{path} holds no samples")
    rows.sort()
    idx = np.array([r[0] for r in rows])
    if not np.array_equal(idx, np.arange(idx.size)):
        raise ValueError(f"{path} must list every index 0..n-1 exactly once")
    vals = np.array([complex(r[1], r[2]) for r in rows])
    return GridSignal.from_samples(vals, [origin], [spacing])


def load_signal(path) -> GridSignal:
    """Load a signal written by save_signal (or the 1D CSV convenience form)."""
    p = Path(path)
    if p.suffix == ".csv":
        return _load_csv(p)
    stem = _stem(p)
    jpath = stem.with_suffix(".json")
    bpath = stem.with_suffix(".bin")
    if not jpath.exists():
        raise ValueError(f"missing signal header {jpath}")
    try:
        header = json.loads(jpath.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed signal header {jpath}: {exc}") from exc
    for key in ("d", "origin", "spacing", "shape", "dtype"):
        if key not in header:
            raise ValueError(f"signal header {jpath} lacks field {key!r}")
    if header["dtype"] != "c128-le":
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    shape = tuple(int(n) for n in header["shape"])
    raw = np.frombuffer(bpath.read_bytes(), dtype="<c16")
    if raw.size != int(np.prod(shape)):
        raise ValueError(
            f"{bpath} holds {raw.size} samples but the header promises {np.prod(shape)}"
        )
    samples = raw.reshape(shape)
    if len(shape) != int(header["d"]):
        raise ValueError("header d does not match shape")
    return GridSignal.from_samples(samples, header["origin"], header["spacing"])
