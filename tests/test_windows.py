"""Separable windows: factor sampling, batched Gabor analysis and synthesis,
and the support-sized `multiply`, each against a per-point reference."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microloc import (
    BumpWindow,
    GridSignal,
    build_agp,
    coefficients,
    fourier_batch,
    make_cutoff,
    multiply,
    reconstruct,
    smooth_bump_window,
)
from microloc.gabor import _overlapping_js
from microloc.lattice import LatticeBall, points_in_ball, scaled_integer_lattice
from microloc.signal import (
    _along_axes,
    _batch_rows,
    _index_box,
    _kernels,
    _lattice_progressions,
    _window_batch,
)

TWO_PI = 2 * math.pi


def _translate(sys, window, j):
    """window (sys.psi or sys.phi) dilated by eps and moved to eps x_j."""
    return window.scaled(sys.epsilon).translated(sys.epsilon * sys.x_point(j))


def _pointwise(w, origin, spacing, a, b):
    """w called on the grid points with indices in [a, b) (per-point reference)."""
    axes = [origin[i] + spacing[i] * np.arange(a[i], b[i]) for i in range(w.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return w(pts).reshape(tuple(b - a))


def _full_grid_product(f, w):
    """f * w on f's whole grid, support from its nonzero samples."""
    a, b = _index_box(w.lo, w.hi, f.origin, f.spacing, *zip(*f.support))
    out = np.zeros_like(f.samples)
    if np.all(b > a):
        region = tuple(slice(i, j) for i, j in zip(a, b))
        out[region] = f.samples[region] * _pointwise(w, f.origin, f.spacing, a, b)
    return GridSignal.from_samples(out, f.origin, f.spacing)


def _per_translate_coefficients(f, sys, radius):
    """Analysis with one pointwise-sampled window per translate."""
    js = _overlapping_js(f, sys)
    xi, ks = points_in_ball(sys.lambda2, radius)
    windows = [_translate(sys, sys.psi, j) for j in js]
    boxes = [_index_box(w.lo, w.hi, f.origin, f.spacing, *zip(*f.support)) for w in windows]
    progs = _lattice_progressions(sys.lambda2, ks)
    lengths = np.max([hi - lo for lo, hi in boxes], axis=0).clip(1)
    kernels = _kernels(progs, f.spacing, lengths)
    index = (slice(None),) + tuple(p.index for p in progs)
    values = np.zeros((js.shape[0], xi.shape[0]), dtype=complex)
    for rows in _batch_rows(js.shape[0], kernels):
        patches = np.zeros((rows.stop - rows.start,) + tuple(lengths), dtype=complex)
        for r, (lo, hi) in enumerate(boxes[rows]):
            if np.all(hi > lo):
                region = tuple(slice(a, e) for a, e in zip(lo, hi))
                w = windows[rows.start + r]
                g = f.samples[region] * _pointwise(w, f.origin, f.spacing, lo, hi)
                patches[(r,) + tuple(slice(0, e - a) for a, e in zip(lo, hi))] = g
        corners = f.origin + f.spacing * np.array([lo for lo, _ in boxes[rows]])
        sums = _along_axes(patches, kernels, corners.T, [p.start for p in progs])
        values[rows] = f.cell_volume * sums[index]
    return values


def _per_translate_reconstruct(table, sys, f):
    """Synthesis with one pointwise-sampled window per translate."""
    windows = [_translate(sys, sys.phi, j) for j in table.js]
    boxes = [_index_box(w.lo, w.hi, f.origin, f.spacing, 0, f.shape) for w in windows]
    progs = _lattice_progressions(table.ball.lattice, table.ball.ks)
    lengths = np.max([hi - lo for lo, hi in boxes], axis=0).clip(1)
    kernels = _kernels(progs, f.spacing, lengths, adjoint=True)
    index = (slice(None),) + tuple(p.index for p in progs)
    out = np.zeros(f.shape, dtype=complex)
    for rows in _batch_rows(table.js.shape[0], kernels):
        coeffs = np.zeros((rows.stop - rows.start,) + tuple(p.size for p in progs), dtype=complex)
        coeffs[index] = table.whole()[rows]
        corners = f.origin + f.spacing * np.array([lo for lo, _ in boxes[rows]])
        inner = _along_axes(coeffs, kernels, [p.start for p in progs], corners.T)
        for r, (lo, hi) in enumerate(boxes[rows]):
            if np.all(hi > lo):
                region = tuple(slice(a, e) for a, e in zip(lo, hi))
                patch = inner[(r,) + tuple(slice(0, e - a) for a, e in zip(lo, hi))]
                w = windows[rows.start + r]
                out[region] += _pointwise(w, f.origin, f.spacing, lo, hi) * patch
    return out


@st.composite
def _gabor_system(draw, d):
    alpha = draw(st.floats(0.5, 2.0))
    beta = draw(st.floats(0.5, 0.95 * TWO_PI / alpha))
    eps = draw(st.sampled_from([1.0, 0.5, 0.25]) | st.floats(0.1, 1.0))
    return build_agp(alpha, beta, d=d).with_epsilon(eps)


@st.composite
def _grid(draw, d, n_max):
    """Grid origin and spacing covering roughly [-3, 3] per axis."""
    spacing = np.array([draw(st.floats(6.0 / n_max, 6.0 / (n_max // 2))) for _ in range(d)])
    origin = np.array([draw(st.floats(-3.5, -2.5)) for _ in range(d)])
    return origin, spacing


@st.composite
def _window(draw, d):
    """A psi or phi translate of a drawn system, a cutoff or a bump."""
    kind = draw(st.sampled_from(["psi", "phi", "cutoff", "bump"]))
    if kind in ("psi", "phi"):
        sys0 = draw(_gabor_system(d))
        j = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        return _translate(sys0, getattr(sys0, kind), j)
    center = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(d)])
    if kind == "bump":
        return smooth_bump_window(center, [draw(st.floats(0.2, 2.0)) for _ in range(d)])
    inner = np.array([draw(st.floats(0.1, 1.0)) for _ in range(d)])
    outer = inner + np.array([draw(st.floats(0.1, 1.5)) for _ in range(d)])
    return make_cutoff((center - inner, center + inner), (center - outer, center + outer))


def _signal(origin, spacing, n, gap=None):
    """Compactly supported complex signal on the grid, smooth unless `gap`
    (lo, hi) zeroes the band lo < x_0 < hi inside its support."""
    axes = [o + h * np.arange(n) for o, h in zip(origin, spacing)]
    env = make_cutoff((-np.full(len(axes), 1.2), np.full(len(axes), 1.2)),
                      (-np.full(len(axes), 2.2), np.full(len(axes), 2.2)))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    wave = np.exp(1j * (pts @ np.arange(1.0, len(axes) + 1.0))) + np.cos(3.0 * pts[:, 0])
    if gap is not None:
        wave[(pts[:, 0] > gap[0]) & (pts[:, 0] < gap[1])] = 0.0
    return GridSignal.from_samples((env(pts) * wave).reshape((n,) * len(axes)), origin, spacing)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(_window(d), _grid(d, 256))))
def test_property_factor_sampling_equals_pointwise(case):
    # the per-axis factors times their outer product reproduce __call__ on
    # the same points; shifted boxes and rows shorter than the batch pad to 0
    w, (origin, spacing) = case
    a, b = _index_box(w.lo, w.hi, origin, spacing, -10**6, 10**6)
    want = _pointwise(w, origin, spacing, a, b)
    got = _window_batch(w, np.zeros((1, w.d)), origin, spacing, a[None], b[None], b - a)[0]
    assert np.array_equal(got, want)
    shift = np.full(w.d, 0.37)
    moved = w.translated(shift)
    a2, b2 = _index_box(moved.lo, moved.hi, origin, spacing, -10**6, 10**6)
    rows = _window_batch(
        w, np.stack([np.zeros(w.d), shift]), origin, spacing,
        np.stack([a, a2]), np.stack([b, b2]), np.maximum(b - a, b2 - a2) + 2,
    )
    assert np.array_equal(rows[(0,) + tuple(slice(0, n) for n in b - a)], want)
    assert np.array_equal(rows[(1,) + tuple(slice(0, n) for n in b2 - a2)],
                          _pointwise(moved, origin, spacing, a2, b2))
    assert np.count_nonzero(rows[0]) == np.count_nonzero(want)


@settings(max_examples=25, deadline=None)
@given(_gabor_system(1), _grid(1, 2048))
def test_property_coefficients_and_reconstruct_match_per_translate_1d(sys0, grid):
    origin, spacing = grid
    f = _signal(origin, spacing, int(6.0 / spacing[0]))
    radius = min(30.0, 0.5 * math.pi / spacing[0])
    table = coefficients(f, sys0, radius)
    assert np.array_equal(table.whole(), _per_translate_coefficients(f, sys0, radius))
    assert np.array_equal(reconstruct(table, sys0, f).samples,
                          _per_translate_reconstruct(table, sys0, f))


@settings(max_examples=8, deadline=None)
@given(_gabor_system(2), _grid(2, 96))
def test_property_coefficients_and_reconstruct_match_per_translate_2d(sys0, grid):
    origin, spacing = grid
    f = _signal(origin, spacing, int(6.0 / np.max(spacing)))
    radius = min(6.0, 0.5 * math.pi / np.max(spacing))
    table = coefficients(f, sys0, radius)
    want = _per_translate_coefficients(f, sys0, radius)
    assert np.max(np.abs(table.whole() - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    rec = reconstruct(table, sys0, f).samples
    want = _per_translate_reconstruct(table, sys0, f)
    assert np.max(np.abs(rec - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


def test_factor_sampling_is_zero_outside_the_box():
    # grid points within the index box's 1e-12 slack but past the window box
    # read 0, as in __call__, even where the factor itself is not 0 there
    w = BumpWindow([0.0], [1.0], (np.ones_like,))
    origin, spacing = np.array([1e-15]), np.array([0.1])
    a, b = _index_box(w.lo, w.hi, origin, spacing, -100, 100)
    assert origin[0] + spacing[0] * (b[0] - 1) > w.hi[0]
    got = _window_batch(w, np.zeros((1, 1)), origin, spacing, a[None], b[None], b - a)[0]
    assert np.array_equal(got, _pointwise(w, origin, spacing, a, b)) and got[-1] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2).flatmap(lambda d: st.tuples(_window(d), _grid(d, 128))),
    st.none() | st.floats(-1.5, 1.0).map(lambda lo: (lo, lo + 0.5)),
)
@example(
    case=(make_cutoff(([-0.2], [0.2]), ([-0.7], [0.7])), (np.array([-3.0]), np.array([0.05]))),
    gap=(-1.0, -0.5),
)
def test_property_multiply_is_support_sized(case, gap):
    # a gap in the signal inside the window's box makes the product's
    # nonzero box start past the window's first grid point
    w, (origin, spacing) = case
    f = _signal(origin, spacing, 128 if w.d == 1 else 48, gap)
    old = _full_grid_product(f, w)
    new = multiply(f, w)
    assert new.shape == tuple(b - a for a, b in old.support)
    assert all(b - a == n for (a, b), n in zip(new.support, new.shape))
    # the origin is placed as trimmed() places it, so the box's far corner
    # is origin + spacing (n - 1) from there: equal up to that rounding
    for got, want, same in zip(new.support_box, old.support_box, old.trimmed().support_box):
        assert np.array_equal(got, same)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    assert np.array_equal(new.origin, old.trimmed().origin)
    assert np.array_equal(new.samples, old.trimmed().samples)
    assert new.noise_floor() == old.noise_floor() or abs(
        new.noise_floor() - old.noise_floor()) <= 1e-14 * old.noise_floor()
    if not old.is_empty():
        ball = LatticeBall.of(scaled_integer_lattice(1.5, w.d), 3.0)
        assert np.array_equal(fourier_batch(new, ball), fourier_batch(old, ball))
