import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microloc import (
    BudgetExceeded,
    FrequencyOutOfRange,
    GridSignal,
    InadmissibleParameters,
    Weight,
    build_agp,
    check_partition,
    coefficients,
    discrete_mod_norm,
    fourier_batch,
    multiply,
    reconstruct,
    scaled_integer_lattice,
    smooth_bump_window,
    support_index_set,
)
from microloc.fixtures import jump_1d, random_band_limited, smooth_bump_1d
from microloc.lattice import LatticeBall
from microloc.signal import _stft as stft

TWO_PI = 2 * math.pi


def test_build_agp_partition_constant_1d():
    sys0 = build_agp(1.0, math.pi, d=1)
    assert sys0.partition_constant == pytest.approx(0.5)
    assert check_partition(sys0, n=512) <= 1e-10


def test_build_agp_rejects_inadmissible():
    with pytest.raises(InadmissibleParameters):
        build_agp(1.0, TWO_PI)
    with pytest.raises(InadmissibleParameters):
        build_agp(2.0, math.pi)  # product exactly 2*pi
    with pytest.raises(InadmissibleParameters):
        build_agp(1.0, 1.0, alpha1=0.5)  # window side below alpha


def test_build_agp_partition_constant_2d():
    sys0 = build_agp(0.5, math.pi, d=2)
    # (beta / 2 pi)^d with beta = pi, d = 2
    assert sys0.partition_constant == pytest.approx(0.25)
    assert check_partition(sys0, n=48) <= 1e-10


def test_check_partition_detects_broken_systems():
    import dataclasses

    sys0 = build_agp(1.0, math.pi, d=1)
    theta = sys0.partition_constant

    (phi_factor,) = sys0.phi.factors
    doubled = dataclasses.replace(
        sys0,
        phi=dataclasses.replace(sys0.phi, factors=(lambda t: 2.0 * phi_factor(t),)),
    )
    assert check_partition(doubled, n=128) == pytest.approx(theta, rel=1e-9)

    killed = dataclasses.replace(
        sys0, psi=dataclasses.replace(sys0.psi, factors=(lambda t: np.zeros(np.shape(t)),))
    )
    assert check_partition(killed, n=128) == pytest.approx(theta, rel=1e-12)


def test_partition_identity_100_random_systems(rng):
    worst = 0.0
    for _ in range(100):
        while True:
            alpha = float(rng.uniform(0.3, 2.5))
            beta = float(rng.uniform(0.3, 2.5))
            if alpha * beta < 0.95 * TWO_PI:
                break
        sys0 = build_agp(alpha, beta, d=1)
        worst = max(worst, check_partition(sys0, n=128))
    assert worst <= 1e-10


def test_partition_holds_across_epsilon():
    sys0 = build_agp(0.9, 1.7, d=1)
    for eps in (1.0, 0.5, 0.25, 0.125):
        assert check_partition(sys0.with_epsilon(eps), n=256) <= 1e-10


def test_coefficients_zero_signal():
    sys0 = build_agp(1.0, 1.0, d=1)
    z = GridSignal.from_samples(np.zeros(2048, complex), [-8.0], [16 / 2048])
    table = coefficients(z, sys0, 20.0)
    assert table.values.shape[0] == 0 or np.all(table.values == 0)


def test_coefficient_of_isolated_window_is_its_energy():
    # with translates far apart, (psi_{0,0}, psi_{0,0}) = ||psi||^2 and
    # non-overlapping j give exactly zero
    sys0 = build_agp(4.0, 0.5, d=1)
    n, lo = 2**12, -16.0
    h = -2 * lo / n
    x = lo + h * np.arange(n)
    f = GridSignal.from_samples(sys0.psi(x[:, None]).astype(complex), [lo], [h])
    table = coefficients(f, sys0, 5.0)
    (row0,) = np.flatnonzero(table.js[:, 0] == 0)
    k0 = int(np.nonzero((table.ball.ks == 0).all(axis=1))[0][0])
    energy = h * float(np.sum(np.abs(f.samples) ** 2))
    assert table.whole()[row0, k0] == pytest.approx(energy, rel=1e-10)
    for row, j in enumerate(table.js):
        if j[0] != 0 and abs(j[0]) > 1:
            assert np.max(np.abs(table.values[row])) < 1e-14


def test_coefficient_modulation_index_shift():
    sys0 = build_agp(1.0, 1.0, d=1)
    f = random_band_limited(n=4096, bandwidth=5.0, seed=5)
    m = 3
    table0 = coefficients(f, sys0, 12.0)
    modulated = f.samples * np.exp(1j * m * sys0.beta * f.axes()[0])
    table1 = coefficients(GridSignal.from_samples(modulated, f.origin, f.spacing), sys0, 12.0)
    ks = table0.ball.ks[:, 0]
    for k in range(-5, 6):
        a = table1.whole()[:, ks == k]
        b = table0.whole()[:, ks == k - m]
        assert np.max(np.abs(a - b)) < 1e-10


def test_coefficients_match_stft_convention():
    sys0 = build_agp(1.0, 1.5, d=1).with_epsilon(0.5)
    f = random_band_limited(n=4096, bandwidth=4.0, seed=9)
    table = coefficients(f, sys0, 6.0)
    scale = TWO_PI**0.5
    w = sys0.psi.scaled(sys0.epsilon)
    for j in (-1, 0, 2):
        (row,) = np.flatnonzero(table.js[:, 0] == j)
        for idx in (0, len(table.ball.ks) // 2, len(table.ball.ks) - 1):
            xi = table.ball.points[idx]
            x = sys0.epsilon * sys0.x_point([j])
            expected = scale * stft(f, w, x, xi)
            assert abs(table.whole()[row, idx] - expected) < 1e-10


@st.composite
def _system_and_entry(draw, d):
    alpha = draw(st.floats(0.5, 2.0))
    beta = draw(st.floats(0.5, 0.95 * TWO_PI / alpha))
    sys0 = build_agp(alpha, beta, d=d).with_epsilon(draw(st.sampled_from([1.0, 0.5, 0.25])))
    j = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return sys0, j, draw(st.floats(0.0, 1.0))


def _assert_coefficient_is_scaled_stft(f, sys0, j, where, radius):
    table = coefficients(f, sys0, radius, js=np.array([j]))
    xi = table.ball.points
    idx = min(int(where * len(xi)), len(xi) - 1)
    x = sys0.epsilon * sys0.x_point(j)
    expected = TWO_PI ** (sys0.d / 2) * stft(f, sys0.psi.scaled(sys0.epsilon), x, xi[idx])
    assert abs(table.whole()[0, idx] - expected) < 1e-10


@settings(max_examples=25, deadline=None)
@given(_system_and_entry(1))
def test_property_coefficients_match_stft_1d(case):
    sys0, j, where = case
    f = random_band_limited(n=2048, bandwidth=4.0, seed=9)
    _assert_coefficient_is_scaled_stft(f, sys0, j, where, 30.0)


@settings(max_examples=10, deadline=None)
@given(_system_and_entry(2))
def test_property_coefficients_match_stft_2d(case):
    sys0, j, where = case
    n, lo = 128, -4.0
    x = lo + (-2 * lo / n) * np.arange(n)
    env = np.exp(-((x / 2.0) ** 2))
    samples = np.outer(env * np.cos(2.0 * x), env * np.exp(1j * x))
    f = GridSignal.from_samples(samples, [lo, lo], [-2 * lo / n] * 2)
    _assert_coefficient_is_scaled_stft(f, sys0, j, where, 8.0)


def test_coefficient_noise_floor_rule():
    # a 1D row is floored by its window's sample count on the grid, other
    # rows by the nonzero bounding box of the windowed signal; the signals
    # have compact supports with gaps, so the counts differ from the patch
    n, lo = 256, -4.0
    h = -2 * lo / n
    x = lo + h * np.arange(n)
    blob = smooth_bump_window([-1.5, -1.5], [1.0, 1.0]), smooth_bump_window([1.5, 1.5], [1.0, 1.0])
    mesh = np.stack([m.ravel() for m in np.meshgrid(x, x, indexing="ij")], axis=1)
    f2 = GridSignal.from_samples((blob[0](mesh) + 2j * blob[1](mesh)).reshape(n, n), [lo, lo], h)
    cases = (
        (smooth_bump_1d(n=1024, radius=1.0), build_agp(1.0, 1.5).with_epsilon(0.5)),
        (f2, build_agp(1.0, 1.3, d=2)),
    )
    for f, sys0 in cases:
        for j in coefficients(f, sys0, 8.0).js:
            w = sys0.psi.scaled(sys0.epsilon).translated(sys0.epsilon * sys0.x_point(j))
            g = multiply(f, w)
            if f.d == 1:
                x1 = f.axes()[0]
                count = np.count_nonzero((x1 >= w.lo[0]) & (x1 <= w.hi[0]))
                floor = np.finfo(float).eps * 64 * math.sqrt(max(count, 1)) * g.quad_l1()
            else:
                floor = g.noise_floor()
            got = coefficients(f, sys0, 8.0, js=np.array([j])).noise_floor
            assert got == pytest.approx(TWO_PI ** (f.d / 2) * floor, rel=1e-12, abs=0.0)


def test_coefficients_refuse_frequencies_past_the_band():
    """The Gabor route refuses a radius past 0.9 pi / h as the transform
    does, with the message fourier_batch gives for the ball."""
    f = smooth_bump_1d(n=512)  # h = 1/32, guarded band ~ 90.5
    sys0 = build_agp(1.0, 1.0, d=1)
    coefficients(f, sys0, 90.0)
    with pytest.raises(FrequencyOutOfRange) as refused:
        coefficients(f, sys0, 91.0)
    with pytest.raises(FrequencyOutOfRange) as transform:
        fourier_batch(f, LatticeBall.of(sys0.lambda2, 91.0))
    assert str(refused.value) == str(transform.value)


def test_reconstruct_zero_table_and_round_trip():
    sys0 = build_agp(1.0, math.pi, d=1)
    f = random_band_limited(n=4096, bandwidth=6.0, seed=2)
    table = coefficients(f, sys0, 180.0)
    zeroed = table.__class__(table.js, table.ball, np.zeros_like(table.values))
    assert np.all(reconstruct(zeroed, sys0, f).samples == 0)
    for eps in (1.0, 0.5):
        se = sys0.with_epsilon(eps)
        t = coefficients(f, se, 6.0 + 320.0 / (eps * se.alpha1))
        rec = reconstruct(t, se, f)
        rel = np.linalg.norm(rec.samples - f.samples) / np.linalg.norm(f.samples)
        assert rel <= 1e-6


def test_round_trip_2d_small():
    sys0 = build_agp(1.0, 1.3, d=2)
    rng = np.random.default_rng(3)
    n, lo = 256, -3.0
    h = -2 * lo / n
    x = lo + h * np.arange(n)
    env = np.exp(-((x / 1.1) ** 6))
    field = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    # keep only low frequencies, then window to compact support
    spec = np.fft.fft2(field)
    keep = 4
    mask = np.zeros((n, n))
    mask[:keep, :keep] = mask[-keep:, :keep] = mask[:keep, -keep:] = mask[-keep:, -keep:] = 1
    smooth = np.fft.ifft2(spec * mask)
    samples = smooth * np.outer(env, env)
    f = GridSignal.from_samples(samples, [lo, lo], [h, h])
    table = coefficients(f, sys0, 90.0)
    rec = reconstruct(table, sys0, f)
    rel = np.linalg.norm(rec.samples - f.samples) / np.linalg.norm(f.samples)
    assert rel <= 1e-6


def test_support_index_set_examples():
    sys0 = build_agp(1.0, 1.0, d=1)  # phi side 2*pi
    js = support_index_set(sys0, [0.0])
    assert js[:, 0].tolist() == [-3, -2, -1, 0, 1, 2, 3]
    with pytest.raises(BudgetExceeded):  # its translates lie past the index budget
        support_index_set(sys0, [1e9])
    counts = {
        eps: support_index_set(sys0.with_epsilon(eps), [0.0]).shape[0]
        for eps in (1.0, 0.5, 0.25)
    }
    assert len(set(counts.values())) == 1  # both supports and spacing scale
    shifted = {
        eps: support_index_set(sys0.with_epsilon(eps), [0.3]).shape[0]
        for eps in (1.0, 0.5, 0.25)
    }
    assert max(shifted.values()) - min(shifted.values()) <= 1


def test_support_index_set_2d_shape():
    sys0 = build_agp(2.0, 1.0, d=2).with_epsilon(0.25)
    js = support_index_set(sys0, [0.1, -0.2])
    assert js.shape[1] == 2
    assert js.shape[0] >= 9
    lex = [tuple(j) for j in js.tolist()]
    assert lex == sorted(lex)


def test_discrete_mod_norm_examples():
    sys0 = build_agp(1.0, 1.0, d=1)
    f = random_band_limited(n=4096, bandwidth=5.0, seed=1)
    table = coefficients(f, sys0, 15.0)
    w0 = Weight.bracket_power(0.0)

    zeroed = table.__class__(table.js, table.ball, np.zeros_like(table.values))
    assert discrete_mod_norm(zeroed, w0, 1, 1) == 0.0

    single = np.zeros_like(table.values)
    single[2, 5] = 3 - 4j
    one_entry = table.__class__(table.js, table.ball, single)
    for p, q in ((1, 1), (2, math.inf), (math.inf, 3), (2, 2)):
        assert discrete_mod_norm(one_entry, w0, p, q) == pytest.approx(5.0)

    direct = float(np.sqrt(np.sum(np.abs(table.whole()) ** 2)))
    assert discrete_mod_norm(table, w0, 2, 2) == pytest.approx(direct, rel=1e-12)


def test_index_budget_refuses_clipped_translates():
    # The index budget |j| <= 4096 holds J_4000 = 3997..4003 whole, but
    # neither J_5000 = 4997..5003 nor the translates of a signal at x = 5000:
    # refuse rather than clip them to j = 4096 and drop the windows past it
    sys0 = build_agp(1.0, 1.0, 1)
    assert support_index_set(sys0, [4000.0])[:, 0].tolist() == list(range(3997, 4004))
    with pytest.raises(BudgetExceeded, match="hold x0"):
        support_index_set(sys0, [5000.0])
    far = GridSignal.from_samples(np.ones(16), [5000.0], [1 / 16])
    with pytest.raises(BudgetExceeded, match="meet the signal support"):
        coefficients(far, sys0, 4.0)


def test_coefficients_on_a_given_ball_share_it_and_refuse_another():
    sys0 = build_agp(1.0, 1.0, 1)
    f = jump_1d()
    ball = LatticeBall.of(sys0.lambda2, 12.0)
    table = coefficients(f, sys0, 12.0, ball=ball)
    assert table.ball is ball
    assert np.array_equal(table.values, coefficients(f, sys0, 12.0).values)
    others = (
        LatticeBall.of(sys0.lambda2, 13.0),  # another radius
        LatticeBall.of(scaled_integer_lattice(0.5, 1), 12.0),  # another lattice
        LatticeBall.of(scaled_integer_lattice(1.0, 1, [0.25]), 12.0),  # offset
        LatticeBall.of(scaled_integer_lattice(1.0, 2), 12.0),  # another dimension
    )
    for other in others:
        with pytest.raises(ValueError, match="frequency ball"):
            coefficients(f, sys0, 12.0, ball=other)
    with pytest.raises(ValueError, match="do not hold points"):
        LatticeBall(sys0.lambda2, 12.0, ball.points[:, :0], ball.ks)
