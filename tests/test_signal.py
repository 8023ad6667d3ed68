import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import microloc.signal as signal_mod
from microloc import (
    DegenerateBoxes,
    DomainClipped,
    FrequencyOutOfRange,
    GridSignal,
    ScanConfig,
    fourier_at,
    fourier_batch,
    load_signal,
    make_cutoff,
    multiply,
    save_signal,
    smooth_bump_window,
)
from microloc.fixtures import (
    jump_1d,
    line_singularity_2d,
    smooth_bump_1d,
    triangle_1d,
    truncated_gaussian_1d,
)
from microloc.lattice import LatticeBall, make_lattice, scaled_integer_lattice
from microloc.signal import DEFAULT_NYQUIST_SAFETY, _direct, _stft as stft
from microloc.wavefront import cutoff_for

TWO_PI = 2 * math.pi


def _triangle_hat(xi):
    return TWO_PI**-0.5 * np.sinc(xi / TWO_PI) ** 2


def test_triangle_matches_closed_form():
    tri = triangle_1d()
    assert abs(fourier_at(tri, [2.0]) - _triangle_hat(2.0)) < 1e-6
    for xi in np.linspace(-250, 250, 23):
        xi = xi if abs(xi) > 0.3 else 0.5
        assert abs(fourier_at(tri, [xi]) - _triangle_hat(xi)) < 1e-6


def test_gaussian_fixed_point():
    g = truncated_gaussian_1d()
    assert abs(fourier_at(g, [1.0]) - math.exp(-0.5)) < 1e-8


def test_zero_signal_transforms_to_zero():
    z = GridSignal.from_samples(np.zeros(64, complex), [0.0], [0.1])
    assert fourier_at(z, [3.0]) == 0.0


def test_fourier_batch_fft_path_matches_direct():
    # a real signal: the half ball is transformed and mirrored
    f = smooth_bump_1d(n=4096)
    delta = TWO_PI / (f.spacing[0] * 8192)
    ball = LatticeBall.of(scaled_integer_lattice(delta, 1), 400 * delta)
    assert ball.points.shape[0] == 801 and ball.split(f.is_real)[1].size == 400
    fast = fourier_batch(f, ball)
    slow = _direct(f.trimmed(), ball.points)
    single = np.array([fourier_at(f, xi) for xi in ball.points[::7]])
    assert np.max(np.abs(fast - slow)) < 1e-10
    assert np.max(np.abs(fast[::7] - single)) < 1e-10


def test_fourier_batch_edge_cases():
    f = smooth_bump_1d(n=1024)
    offset = scaled_integer_lattice(10.0, 1, [1.5])
    assert fourier_batch(f, LatticeBall.of(offset, 1.0)).shape == (0,)
    one = fourier_batch(f, LatticeBall.of(offset, 2.0))
    assert one.shape == (1,) and one[0] == pytest.approx(fourier_at(f, [1.5]))
    with pytest.raises(ValueError, match="2-d frequency ball for a 1-d signal"):
        fourier_batch(f, LatticeBall.of(scaled_integer_lattice(1.0, 2), 3.0))
    skew = LatticeBall.of(make_lattice([[1.0, 0.3], [0.0, 1.0]]), 3.0)
    with pytest.raises(ValueError, match="axis-aligned"):
        fourier_batch(line_singularity_2d(n=64), skew)


def test_fourier_batch_2d_product_vs_direct():
    rng = np.random.default_rng(0)
    samples = np.zeros((64, 64), complex)
    samples[20:40, 25:45] = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    f = GridSignal.from_samples(samples, [-2.0, -2.0], [0.0625, 0.0625])
    ball = LatticeBall.of(make_lattice(np.diag([2.0, 1.5])), 8.0)
    a = fourier_batch(f, ball)
    b = _direct(f.trimmed(), ball.points)
    assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def _assert_matches_direct_on_subsample(g, ball, stride):
    fast = fourier_batch(g, ball)
    sub = slice(None, None, stride)
    slow = _direct(g.trimmed(), ball.points[sub])
    assert np.max(np.abs(fast[sub] - slow)) < 1e-10 * np.max(np.abs(slow))


def test_fourier_batch_largest_1d_grid_matches_direct(jump, unit_pair):
    # the 2^14 jump windowed at x0 = 0, out to r_max = 0.7 / h: the largest
    # chirp phases any default 1D question meets
    g = multiply(jump, cutoff_for(jump, unit_pair.lambda1, np.array([0.0])))
    ball = LatticeBall.of(unit_pair.lambda2, 0.7 / jump.spacing[0])
    assert jump.samples.size == 2**14 and ball.points.shape[0] > 1400
    _assert_matches_direct_on_subsample(g, ball, 7)


def test_fourier_batch_largest_2d_grid_matches_direct():
    line = line_singularity_2d()
    pair = ScanConfig(alpha=2.5, beta=1.0).lattice_pair(2)
    g = multiply(line, cutoff_for(line, pair.lambda1, np.zeros(2)))
    ball = LatticeBall.of(pair.lambda2, 180.0)
    assert line.shape == (1024, 1024) and ball.points.shape[0] > 100_000
    _assert_matches_direct_on_subsample(g, ball, 499)


def test_chirp_kernel_matches_scipy_czt():
    czt = pytest.importorskip("scipy.signal").czt
    rng = np.random.default_rng(11)
    for length, n, dx, du, sign in ((1, 1, 0.1, 0.0, -1), (37, 200, 0.05, 0.7, -1),
                                    (300, 41, 0.02, 1.3, 1), (256, 256, 1 / 64, 1.0, -1)):
        a = rng.normal(size=(3, length)) + 1j * rng.normal(size=(3, length))
        x0, u0 = -1.75, 2.5
        got = signal_mod._ChirpZ(length, dx, du, n, sign)(a, x0, u0)
        k = np.arange(n)
        want = czt(a, n, np.exp(1j * sign * dx * du), np.exp(-1j * sign * dx * u0))
        want = want * np.exp(1j * sign * x0 * (u0 + du * k))
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(a).sum(axis=-1))


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(1, 300),
    n=st.integers(1, 300),
    rows=st.integers(1, 6),
    dx=st.floats(0.01, 0.5),
    du=st.floats(0.01, 2.0),
    sign=st.sampled_from([-1, 1]),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=1, n=1, rows=3, dx=0.1, du=0.7, sign=-1, seed=0)
@example(length=2, n=2, rows=2, dx=0.3, du=1.1, sign=1, seed=1)
# ragged last blocks: 17 = 4 x 5 - 3 and 10 = 3 x 4 - 2; 131 = 11 x 12 - 1 and 3 = 2 x 2 - 1
@example(length=17, n=10, rows=4, dx=0.05, du=0.9, sign=-1, seed=2)
@example(length=131, n=3, rows=5, dx=0.02, du=1.9, sign=1, seed=3)
def test_property_chirp_kernel_per_row_equals_row_by_row(length, n, rows, dx, du, sign, seed):
    """A per-row x0, a per-row u0 and both give what row-by-row scalar calls
    give, and every row is the direct sum."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, length)) + 1j * rng.normal(size=(rows, length))
    x0, u0 = rng.uniform(-10.0, 10.0, rows), rng.uniform(-50.0, 50.0, rows)
    kernel = signal_mod._ChirpZ(length, dx, du, n, sign)
    tol = 1e-10 * np.max(np.abs(a).sum(axis=-1))
    norm = TWO_PI**-0.5 * dx
    per_row = (
        (x0[:, None], u0[0], x0, np.full(rows, u0[0])),
        (x0[0], u0[:, None], np.full(rows, x0[0]), u0),
        (x0[:, None], u0[:, None], x0, u0),
    )
    for x_arg, u_arg, xs, us in per_row:
        batch = kernel(a, x_arg, u_arg)
        assert batch.shape == (rows, n)
        for r in range(rows):
            assert np.max(np.abs(batch[r] - kernel(a[r], xs[r], us[r]))) <= tol
            freqs = (us[r] + du * np.arange(n))[:, None]
            g = GridSignal.from_samples(a[r] if sign < 0 else np.conj(a[r]), [xs[r]], [dx])
            want = _direct(g, freqs) / norm
            assert np.max(np.abs(batch[r] - (want if sign < 0 else np.conj(want)))) <= tol


def test_smooth_size_is_the_smallest_5_smooth_length():
    def smooth(v):
        for p in (2, 3, 5):
            while v % p == 0:
                v //= p
        return v == 1

    lengths = np.array([v for v in range(1, 6000) if smooth(v)])
    want = lengths[np.searchsorted(lengths, np.arange(1, 5000))]
    assert [signal_mod._smooth_size(n) for n in range(1, 5000)] == want.tolist()


@st.composite
def _signal_and_ball(draw, d):
    """A real or complex signal and a lattice ball inside its guarded band,
    on a diagonal lattice with per-axis steps and an offset that may be
    zero (then a real signal's ball is mirrored)."""
    h = draw(st.floats(0.01, 0.5))
    origin = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    shape = draw(st.lists(st.integers(1, 300 if d == 1 else 24), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.normal(size=shape)
    if draw(st.booleans()):
        samples = samples + 1j * rng.normal(size=shape)
    limit = 0.99 * DEFAULT_NYQUIST_SAFETY * math.pi / h
    steps = [limit * draw(st.floats(0.01, 1.0)) / draw(st.integers(1, 150 if d == 1 else 12))
             for _ in range(d)]
    offset = [draw(st.sampled_from([0.0]) | st.floats(-0.5, 0.5)) * step for step in steps]
    radius = limit * draw(st.floats(0.0, 1.0))
    ball = LatticeBall.of(make_lattice(np.diag(steps), offset), radius)
    return GridSignal.from_samples(samples, origin, h), ball


def _assert_ball_transform_is_direct(g, ball):
    fast = fourier_batch(g, ball)
    slow = _direct(g.trimmed(), ball.points)
    assert fast.shape == (ball.points.shape[0],)
    assert np.max(np.abs(fast - slow), initial=0.0) <= 1e-10 * g.quad_l1()


@settings(max_examples=60, deadline=None)
@given(_signal_and_ball(1))
def test_property_fourier_batch_equals_direct_1d(case):
    _assert_ball_transform_is_direct(*case)


@settings(max_examples=30, deadline=None)
@given(_signal_and_ball(2))
def test_property_fourier_batch_equals_direct_2d(case):
    _assert_ball_transform_is_direct(*case)


def test_fourier_batch_sums_over_an_explicit_support_wider_than_the_nonzero_box():
    # the unwindowed row sums over f's support box, zeros inside it included
    rng = np.random.default_rng(3)
    cases = (
        ((64,), ((5, 60),), np.s_[20:40], 1.0),
        ((32, 40), ((2, 30), (0, 40)), np.s_[10:20, 15:25], 1 + 0.5j),
    )
    for shape, support, inner, phase in cases:
        samples = np.zeros(shape, complex)
        samples[inner] = phase * rng.normal(size=samples[inner].shape)
        d = len(shape)
        f = GridSignal(np.full(d, -1.0), np.full(d, 0.05), samples, support)
        assert f.support == support and f.is_real == (phase == 1.0)
        ball = LatticeBall.of(scaled_integer_lattice(1.0, d), 20.0)
        got, want = fourier_batch(f, ball), _direct(f, ball.points)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_grid_signal_refuses_a_support_of_another_length_than_its_axes():
    # one range on an 8 x 8 signal would leave axis 2 unbounded in the
    # support box and the noise floor, and three would index past its axes
    samples = np.ones((8, 8))
    for support in (((0, 3),), ((0, 3), (0, 8), (0, 2)), ()):
        with pytest.raises(ValueError, match=r"support must give one \(start, stop\) range "
                                             r"per axis of the 2-d samples, got \d"):
            GridSignal(np.zeros(2), np.full(2, 0.25), samples, support)
    f = GridSignal(np.zeros(2), np.full(2, 0.25), samples, ((0, 3), (0, 8)))
    assert np.array_equal(f.support_box[1], [0.5, 1.75])


@pytest.mark.parametrize("support,says", [
    (((0.5, 3), (0, 8)), "support must hold integers only, got 0.5"),
    (((True, 3), (0, 8)), "support must hold integers only, got True"),
    ((("0", 3), (0, 8)), "support must hold integers only, got '0'"),
    ((3, 8), "support must give one (start, stop) range per axis of the 2-d samples, "
             "got 2 entries in (3, 8)"),
    (((0, 3, 5), (0, 8, 2)), "support must give one (start, stop) range per axis of the 2-d "
                             "samples, got 2 entries in ((0, 3, 5), (0, 8, 2))"),
], ids=["fraction", "bool", "text", "flat-pair", "triples"])
def test_grid_signal_refuses_support_entries_that_are_not_integer_ranges(support, says):
    # read as (int(a), int(b)), 0.5 became 0, True 1 and "0" 0, and a flat
    # pair or a triple failed to unpack without naming `support`
    samples = np.ones((8, 8))
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        GridSignal(np.zeros(2), np.full(2, 0.25), samples, support)
    f = GridSignal(np.zeros(2), np.full(2, 0.25), samples, np.array([[1, 3], [0, 8]]))
    assert f.support == ((1, 3), (0, 8)) and all(type(v) is int for r in f.support for v in r)


@lru_cache(maxsize=None)
def _fl_fixture(d, real):
    """The 1D jump or the 2D line, or either times exp(i x_d)."""
    f = jump_1d() if d == 1 else line_singularity_2d()
    if real:
        return f
    return GridSignal.from_samples(f.samples * np.exp(1j * f.axes()[-1]), f.origin, f.spacing)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.booleans(), st.data())
def test_property_the_core_with_the_cutoff_is_the_fl_spectrum(d, real, data):
    """The analysis core with the FL cutoff chi as a one-row window at offset
    0 is the transform of the materialised chi * f on the computed points.
    Its floor counts chi's box clipped to the support, which holds the
    nonzero box of chi * f that the FL floor counts."""
    f = _fl_fixture(d, real)
    lo, hi = f.support_box  # inside the domain, which reaches 2 past it or more
    x0 = np.array([data.draw(st.floats(a - 1.0, b + 1.0)) for a, b in zip(lo, hi)])
    pair = ScanConfig(alpha=1.0 if d == 1 else 2.5, beta=1.0).lattice_pair(d)
    try:
        chi = cutoff_for(f, pair.lambda1, x0)
    except DomainClipped:
        reject()
    ball = LatticeBall.of(pair.lambda2, 716.0 if d == 1 else 60.0)
    values, floor = signal_mod._analysis(f, ball, TWO_PI ** (-d / 2), chi, np.zeros((1, d)))
    g = multiply(f, chi)
    want = fourier_batch(g, ball)[ball.split(f.is_real)[0]]
    assert values.shape == (1, want.shape[0])
    assert np.max(np.abs(values[0] - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)
    assert floor >= (1 - 1e-12) * g.noise_floor()


def test_linearity():
    a = smooth_bump_1d(n=2048, radius=1.0)
    b = jump_1d(n=2048)
    xi = [7.0]
    combo = GridSignal.from_samples(
        2.0 * a.samples + (1 - 2j) * b.samples, a.origin, a.spacing
    )
    lhs = fourier_at(combo, xi)
    rhs = 2.0 * fourier_at(a, xi) + (1 - 2j) * fourier_at(b, xi)
    assert abs(lhs - rhs) < 1e-12


def test_modulation_law():
    f = smooth_bump_1d(n=4096, radius=1.5)
    eta, xi = 3.0, 11.0
    x = f.axes()[0]
    modulated = GridSignal.from_samples(f.samples * np.exp(1j * eta * x), f.origin, f.spacing)
    lhs = fourier_at(modulated, [xi])
    rhs = fourier_at(f, [xi - eta])
    assert abs(lhs - rhs) < 1e-10


def test_nyquist_guard():
    f = smooth_bump_1d(n=512)  # h = 1/32, guarded band ~ 90.5
    with pytest.raises(FrequencyOutOfRange):
        fourier_at(f, [120.0])


def test_stft_basics(bump):
    w = smooth_bump_window([0.0], [0.5])
    z = GridSignal.from_samples(np.zeros(256, complex), [-4.0], [1 / 32])
    assert stft(z, w, [0.0], [3.0]) == 0.0
    v = stft(bump, w, [0.5], [0.0])
    assert abs(v.imag) < 1e-12 and v.real > 0.0


def test_stft_equals_windowed_fourier(bump):
    w = smooth_bump_window([0.0], [0.7])
    x, xi = [0.3], [5.0]
    lhs = stft(bump, w, x, xi)
    rhs = fourier_at(multiply(bump, w.translated(x)), xi)
    assert abs(lhs - rhs) < 1e-12


def test_make_cutoff_profile():
    chi = make_cutoff(([-1.0], [1.0]), ([-2.0], [2.0]))
    assert chi([0.0]) == 1.0
    assert chi([0.999]) == 1.0
    assert chi([2.5]) == 0.0
    mid = chi([1.5])
    assert 0.0 < mid < 1.0
    ray = np.linspace(-1.9, -1.0, 40)[:, None]
    vals = chi(ray)
    assert np.all(np.diff(vals) >= -1e-15)  # monotone along the rising edge


def test_make_cutoff_degenerate():
    with pytest.raises(DegenerateBoxes):
        make_cutoff(([-1.0], [2.0]), ([-2.0], [2.0]))


def test_multiply_support_and_identity(bump):
    one = make_cutoff(([-3.0], [3.0]), ([-7.5], [7.5]))
    prod = multiply(bump, one)
    # cutoff is 1 on the support; the product covers the support box only
    ref = bump.trimmed()
    assert prod.shape == ref.shape and np.array_equal(prod.origin, ref.origin)
    assert np.allclose(prod.samples, ref.samples)
    zero = smooth_bump_window([100.0], [0.5])
    assert multiply(bump, zero).is_empty()
    narrow = smooth_bump_window([0.0], [0.5])
    prod = multiply(bump, narrow)
    lo, hi = prod.support_box
    assert lo[0] >= -0.5 - 1e-9 and hi[0] <= 0.5 + 1e-9


def test_cutoff_fourier_decay():
    # |chi_hat| must beat <xi>^-N for N up to 6 over the guarded band:
    # compare log-log chord slopes of shell maxima above the round-off floor.
    chi = make_cutoff(([-0.25], [0.25]), ([-1.75], [1.75]))
    n, lo, hi = 2**13, -8.0, 8.0
    h = (hi - lo) / n
    x = lo + h * np.arange(n)
    f = GridSignal.from_samples(chi(x[:, None]).astype(complex), [lo], [h])
    edges = 8.0 * 2.0 ** np.arange(0, 8)
    maxima = []
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        # 33 equispaced points from lo_e to hi_e, k = 32..64 on (lo_e / 32) Z
        ball = LatticeBall.of(scaled_integer_lattice(lo_e / 32, 1), hi_e)
        vals = np.abs(fourier_batch(f, ball))[ball.ks[:, 0] >= 32]
        assert vals.size == 33
        maxima.append(vals.max())
    maxima = np.array(maxima)
    keep = maxima > f.noise_floor()
    r = edges[1:][keep]
    m = maxima[keep]
    assert keep.sum() >= 4
    slope = np.polyfit(np.log(r), np.log(m), 1)[0]
    assert slope <= -6.0


def test_signal_io_round_trip(tmp_path, bump):
    stem = tmp_path / "sig"
    save_signal(bump, stem)
    back = load_signal(stem.with_suffix(".json"))
    assert np.array_equal(back.samples, bump.samples)
    assert np.allclose(back.origin, bump.origin)
    assert np.allclose(back.spacing, bump.spacing)
    assert back.support == bump.support


def test_signal_csv_round_trip(tmp_path):
    f = smooth_bump_1d(n=128)
    path = tmp_path / "sig.csv"
    rows = [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(f.samples)]
    head = f"# origin={float(f.origin[0])!r} spacing={float(f.spacing[0])!r}\nindex,re,im\n"
    path.write_text(head + "\n".join(rows) + "\n")
    back = load_signal(path)
    assert np.allclose(back.samples, f.samples)
    assert back.spacing[0] == pytest.approx(f.spacing[0])


def test_load_signal_rejects_malformed(tmp_path):
    stem = tmp_path / "bad"
    stem.with_suffix(".json").write_text("{not json")
    stem.with_suffix(".bin").write_bytes(b"")
    with pytest.raises(ValueError):
        load_signal(stem.with_suffix(".json"))
    stem2 = tmp_path / "short"
    stem2.with_suffix(".json").write_text(
        '{"d": 1, "origin": [0], "spacing": [1], "shape": [10], "dtype": "c128-le"}'
    )
    stem2.with_suffix(".bin").write_bytes(b"\x00" * 16)
    with pytest.raises(ValueError):
        load_signal(stem2.with_suffix(".json"))


def test_grid_signal_invariants():
    samples = np.ones(16, complex)
    f = GridSignal.from_samples(samples, [0.0], [0.5], support=((4, 8),))
    assert np.all(f.samples[:4] == 0) and np.all(f.samples[8:] == 0)
    with pytest.raises(ValueError):
        f.samples[0] = 1.0  # frozen
    with pytest.raises(ValueError):
        GridSignal.from_samples(samples, [0.0], [-0.5])
