import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import microloc.signal as signal_mod
from microloc import (
    DegenerateBoxes,
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
from microloc.lattice import points_in_ball
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


def _via_chirp(g, freqs):
    """fourier_batch with the direct fallback made to fail, so that the
    chirp-z path is the one that runs."""

    def refuse(*args):
        raise AssertionError("fourier_batch fell back to direct summation")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(signal_mod, "_direct", refuse)
        return fourier_batch(g, freqs)


def test_fourier_batch_fft_path_matches_direct():
    f = smooth_bump_1d(n=4096)
    h = f.spacing[0]
    delta = TWO_PI / (h * 8192)
    ks = np.concatenate([np.arange(-400, 400, 7), [3, -3, 0]])
    freqs = (ks * delta)[:, None]
    fast = _via_chirp(f, freqs)
    single = np.array([fourier_at(f, [float(x)]) for x in freqs[:, 0]])
    slow = _direct(f.trimmed(), freqs)
    assert np.max(np.abs(fast - slow)) < 1e-10
    assert np.max(np.abs(fast - single)) < 1e-10


def test_fourier_batch_edge_cases():
    f = smooth_bump_1d(n=1024)
    assert fourier_batch(f, np.zeros((0, 1))).shape == (0,)
    one = fourier_batch(f, [[1.5]])
    assert one[0] == pytest.approx(fourier_at(f, [1.5]))


def test_fourier_batch_2d_product_vs_direct():
    rng = np.random.default_rng(0)
    samples = np.zeros((64, 64), complex)
    samples[20:40, 25:45] = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    f = GridSignal.from_samples(samples, [-2.0, -2.0], [0.0625, 0.0625])
    u = np.linspace(-8, 8, 9)
    mesh = np.meshgrid(u, u, indexing="ij")
    freqs = np.stack([m.ravel() for m in mesh], axis=1)
    a = _via_chirp(f, freqs)
    b = _direct(f.trimmed(), freqs)
    assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def _assert_matches_direct_on_subsample(g, freqs, stride):
    fast = _via_chirp(g, freqs)
    sub = slice(None, None, stride)
    slow = _direct(g.trimmed(), freqs[sub])
    assert np.max(np.abs(fast[sub] - slow)) < 1e-10 * np.max(np.abs(slow))


def test_fourier_batch_largest_1d_grid_matches_direct(jump, unit_pair):
    # the 2^14 jump windowed at x0 = 0, out to r_max = 0.7 / h: the largest
    # chirp phases any default 1D question meets
    g = multiply(jump, cutoff_for(jump, unit_pair.lambda1, np.array([0.0])))
    freqs, _ = points_in_ball(unit_pair.lambda2, 0.7 / jump.spacing[0])
    assert jump.samples.size == 2**14 and freqs.shape[0] > 1400
    _assert_matches_direct_on_subsample(g, freqs, 7)


def test_fourier_batch_largest_2d_grid_matches_direct():
    line = line_singularity_2d()
    pair = ScanConfig(alpha=2.5, beta=1.0).lattice_pair(2)
    g = multiply(line, cutoff_for(line, pair.lambda1, np.zeros(2)))
    freqs, _ = points_in_ball(pair.lambda2, 180.0)
    assert line.shape == (1024, 1024) and freqs.shape[0] > 100_000
    _assert_matches_direct_on_subsample(g, freqs, 499)


def test_fourier_batch_off_progression_falls_back_to_direct():
    f = smooth_bump_1d(n=1024)
    rng = np.random.default_rng(5)
    for freqs in (
        np.array([[0.0], [1.5], [2.5], [7.25]]),  # no common step
        np.array([[1.0], [2.0], [150.0]]),  # too many holes
        rng.uniform(-50, 50, size=(40, 1)),
    ):
        assert signal_mod._progressions(freqs) is None
        assert np.max(np.abs(fourier_batch(f, freqs) - _direct(f.trimmed(), freqs))) < 1e-13
    # one axis on a progression, the other not
    g = GridSignal.from_samples(
        rng.normal(size=(24, 20)) + 1j * rng.normal(size=(24, 20)), [-1.0, 0.5], [0.1, 0.12]
    )
    freqs = np.stack([np.repeat(np.arange(-3.0, 4.0), 5), rng.uniform(-9, 9, 35)], axis=1)
    assert signal_mod._progressions(freqs) is None
    assert np.max(np.abs(fourier_batch(g, freqs) - _direct(g.trimmed(), freqs))) < 1e-13


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
    give, and every row is the direct sum (through `fourier_batch` too, where
    the sign and the band let it serve)."""
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
            if sign < 0 and np.max(np.abs(freqs)) <= g.nyquist_limit()[0]:
                assert np.max(np.abs(batch[r] - _via_chirp(g, freqs) / norm)) <= tol


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
def _signal_and_progression(draw, d):
    h = draw(st.floats(0.01, 0.5))
    origin = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    shape = draw(st.lists(st.integers(1, 300 if d == 1 else 24), min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**32 - 1))
    limit = 0.99 * DEFAULT_NYQUIST_SAFETY * math.pi / h  # rounding stays inside the band
    axes = []
    for _ in range(d):
        n = draw(st.integers(1, 300 if d == 1 else 20))
        step = draw(st.floats(1e-3, 1.0)) * 2.0 * limit / max(n - 1, 1)
        start = -limit + draw(st.floats(0.0, 1.0)) * (2.0 * limit - step * (n - 1))
        axis = start + step * np.arange(n)
        hole = draw(st.integers(0, n))  # n: no hole
        axes.append(np.delete(axis, hole) if 0 < hole < n - 1 else axis)
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mesh = np.meshgrid(*axes, indexing="ij")
    freqs = np.stack([m.ravel() for m in mesh], axis=1)
    return GridSignal.from_samples(samples, origin, h), freqs


@settings(max_examples=60, deadline=None)
@given(_signal_and_progression(1))
def test_property_fourier_batch_equals_direct_1d(case):
    g, freqs = case
    fast = _via_chirp(g, freqs)
    slow = _direct(g.trimmed(), freqs)
    assert np.max(np.abs(fast - slow)) <= 1e-10 * g.quad_l1()


@settings(max_examples=30, deadline=None)
@given(_signal_and_progression(2))
def test_property_fourier_batch_equals_direct_2d(case):
    g, freqs = case
    fast = _via_chirp(g, freqs)
    slow = _direct(g.trimmed(), freqs)
    assert np.max(np.abs(fast - slow)) <= 1e-10 * g.quad_l1()


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
        grid = np.linspace(lo_e, hi_e, 33)[:, None]
        vals = np.abs(fourier_batch(f, grid))
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
