import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microloc import (
    Cone,
    ConeSumSeries,
    GridSignal,
    TooFewShells,
    Weight,
    build_agp,
    classify,
    classify_pair,
    coefficients,
    discrete_mod_norm,
    discrete_mod_series,
    make_cutoff,
    make_lattice,
    multiply,
    reconstruct,
    scaled_integer_lattice,
    support_index_set,
)
from microloc.fixtures import jump_1d, jump_1d_in_cell, line_singularity_2d
from microloc.gabor import CoefficientTable, _overlapping_js
from microloc.lattice import LatticeBall
from microloc.seminorm import (
    ShellGeometry,
    SpectralSamples,
    _weighted_fit,
    j_aggregate,
    lattice_samples,
    quadrature_spectrum,
    series_from_spectrum,
    shell_boundaries,
)
from microloc.signal import _direct
from conftest import whole_ball

TWO_PI = 2 * math.pi


def _fl_series(f, omega, q, cone, lambda2, r_max):
    """Lattice cone series of f, shells from 4 x the lattice spacing."""
    spec = lattice_samples(f, whole_ball(lambda2, r_max))
    return series_from_spectrum(spec, omega, q, cone)


def _psi_translate(sys, j):
    """The dual window psi^eps(. - eps x_j) of translate j."""
    return sys.psi.scaled(sys.epsilon).translated(sys.epsilon * sys.x_point(j))


def _series_csv(series, path):
    """The shell edges R_m, aggregates a_m and running totals S_m as CSV."""
    rows = zip(series.boundaries[1:], series.a, series.S)
    path.write_text("R_m,a_m,S_m\n" + "".join(f"{r!r},{a!r},{t!r}\n" for r, a, t in rows))
    return path


def _synthetic(sigma, q=1.0, d=1, n_shells=8, r0=4.0):
    """Series whose width-normalized shell density follows R^sigma exactly."""
    bounds = r0 * 2.0 ** np.arange(n_shells + 1)
    upper = bounds[1:]
    widths = np.diff(bounds)
    a = upper**sigma * widths
    if math.isinf(q):
        a = upper**sigma
        s = np.maximum.accumulate(a)
    else:
        s = np.cumsum(a)
    counts = np.maximum((upper**d).astype(int), 1)
    absmax = np.ones(n_shells)
    return ConeSumSeries(
        bounds, a, s, counts, absmax, q, d, 0.0, noise_floor=0.0
    )


def test_shell_boundaries():
    b = shell_boundaries(4.0, 700.0)
    assert b.tolist() == [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    with pytest.raises(ValueError):
        shell_boundaries(4.0, 7.9)


def test_classify_recovers_exact_exponent():
    for q in (1.0, 2.0):
        for tau in (-2.0, -0.7, 0.4):
            sigma = q * tau + (1 - 1)  # d = 1
            v = classify(_synthetic(sigma, q=q))
            assert v.tau == pytest.approx(tau, abs=1e-9)
    v = classify(_synthetic(0.5, q=math.inf))
    assert v.tau == pytest.approx(0.5, abs=1e-9)


def test_classify_thresholds_and_margin():
    # for d = 1 the synthetic slope sigma maps to tau = sigma / q
    d, q = 1, 2.0
    thr = -d / q
    assert classify(_synthetic(q * (thr - 0.3), q=q)).kind == "finite"
    assert classify(_synthetic(q * (thr + 0.3), q=q)).kind == "divergent"
    assert classify(_synthetic(q * (thr + 0.05), q=q)).kind == "inconclusive"
    assert classify(_synthetic(q * (thr - 0.05), q=q)).kind == "inconclusive"


def _power_law_series(d, beta, n_shells, tau, q, cone):
    """Lattice cone series of the magnitudes |xi|^tau: a per-point decay
    exponent tau that `classify` should recover."""
    r0 = 4.0 * beta
    r_max = r0 * 2.0**n_shells
    ball = LatticeBall.of(scaled_integer_lattice(beta, d), r_max)
    mags = np.where(ball.radii > 0, ball.radii, 1.0) ** tau
    spec = SpectralSamples(ShellGeometry(ball, r0), mags, 1.0, 0.0)
    return series_from_spectrum(spec, Weight.bracket_power(0.0), q, cone)


@st.composite
def _power_law_cone_series(draw):
    d = draw(st.sampled_from([1, 2]))
    beta = draw(st.floats(0.5, 2.0))
    n_shells = draw(st.integers(6, 10 if d == 1 else 7))
    tau = draw(st.floats(-3.0, 1.0))
    q = draw(st.sampled_from([1.0, 2.0, math.inf]))
    axis = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).filter(
        lambda v: np.linalg.norm(v) > 0.1))
    cone = Cone.from_degrees(axis, draw(st.floats(10.0, 60.0)))
    return _power_law_series(d, beta, n_shells, tau, q, cone), tau


@settings(max_examples=40, deadline=None)
@given(_power_law_cone_series())
def test_property_classify_recovers_tau_within_margin(case):
    series, tau = case
    v = classify(series)
    assert v.tau is not None and abs(v.tau - tau) <= v.margin


@pytest.mark.xfail(strict=True, reason="the unweighted q = inf fit misses a steep exact power "
                   "law: the shell maximum sits at R_(m-1) + beta, whose ratio to R_m drifts")
def test_classify_recovers_steep_tau_at_q_inf():
    # The shrunk case that makes the property above fail now and then:
    # classify gives tau = -2.590, off by 0.160 against the 0.15 margin.
    series = _power_law_series(1, 1.0, 6, -2.75, math.inf, Cone.from_degrees([1.0], 10.0))
    v = classify(series)
    assert abs(v.tau + 2.75) <= v.margin


def test_classify_zero_series_is_finite_zero():
    ser = _synthetic(-1.0)
    zero = ConeSumSeries(
        ser.boundaries, 0 * ser.a, 0 * ser.S, ser.counts, 0 * ser.shell_absmax,
        1.0, 1, 0.0, noise_floor=0.0,
    )
    v = classify(zero)
    assert v.kind == "finite" and v.value == 0.0


def test_classify_too_few_shells():
    ser = _synthetic(-1.0, n_shells=3)
    with pytest.raises(TooFewShells):
        classify(ser)
    with pytest.raises(ValueError):
        classify(_synthetic(-1.0), k_last=3)


def test_classify_floor_rule():
    ser = _synthetic(1.0)  # divergent-looking slope
    floored = ConeSumSeries(
        ser.boundaries, ser.a, ser.S, ser.counts, 1e-18 * np.ones(ser.a.size),
        1.0, 1, 0.0, noise_floor=1e-12,
    )
    v = classify(floored)
    assert v.kind == "finite"
    assert v.diagnostics["reason"] == "tail below quadrature noise floor"


def test_classify_cauchy_downgrade():
    # huge settled mass, then a tiny growing tail: the slope says divergent
    # but the partial sums are flat, so the verdict degrades to inconclusive
    bounds = 4.0 * 2.0 ** np.arange(9)
    upper = bounds[1:]
    widths = np.diff(bounds)
    a = 1e-9 * upper**2 * widths
    a[0] = 1e6
    s = np.cumsum(a)
    ser = ConeSumSeries(
        bounds, a, s, np.ones(8, int) * 100, np.ones(8), 1.0, 1, 0.0,
        noise_floor=0.0,
    )
    v = classify(ser)
    assert v.kind == "inconclusive"
    assert "stabilized" in v.diagnostics["reason"]


def test_jump_series_examples(jump, unit_pair):
    cone = Cone.from_degrees([1.0], 20.0)
    lam2 = unit_pair.lambda2
    chi = make_cutoff(([-0.1], [0.1]), ([-0.4], [0.4]))
    g = multiply(jump, chi)

    v = classify(_fl_series(g, Weight.bracket_power(0.0), 2.0, cone, lam2, 716.0))
    assert v.kind == "finite"
    assert v.tau == pytest.approx(-1.0, abs=0.1)

    v = classify(_fl_series(g, Weight.bracket_power(1.0), 1.0, cone, lam2, 716.0))
    assert v.kind == "divergent"
    assert v.tau == pytest.approx(0.0, abs=0.1)


def test_smooth_bump_series_rapid_decay(bump, unit_pair):
    cone = Cone.from_degrees([1.0], 20.0)
    ser = _fl_series(
        bump, Weight.bracket_power(0.0), 2.0, cone, unit_pair.lambda2, 716.0
    )
    v = classify(ser)
    assert v.kind == "finite"
    assert v.tau is None or v.tau < -3.0


def test_series_monotone_in_aperture(jump, unit_pair):
    lam2 = unit_pair.lambda2
    w = Weight.bracket_power(0.0)
    small = _fl_series(jump, w, 1.0, Cone.from_degrees([1.0], 10.0), lam2, 200.0)
    large = _fl_series(jump, w, 1.0, Cone.from_degrees([1.0], 40.0), lam2, 200.0)
    assert np.all(large.S >= small.S - 1e-15)
    assert np.all(np.diff(small.S) >= -1e-15)  # partial sums nondecreasing


def test_weight_shift_moves_tau(jump, unit_pair):
    cone = Cone.from_degrees([1.0], 20.0)
    chi = make_cutoff(([-0.12], [0.12]), ([-0.45], [0.45]))
    g = multiply(jump, chi)
    for q in (1.0, 2.0):
        base = classify(
            _fl_series(g, Weight.bracket_power(0.0), q, cone, unit_pair.lambda2, 716.0)
        ).tau
        for t in (1.0, 2.0):
            shifted = classify(
                _fl_series(g, Weight.bracket_power(t), q, cone, unit_pair.lambda2, 716.0)
            ).tau
            assert shifted - base == pytest.approx(t, abs=0.05)


def test_continuous_matches_discrete_classification(unit_pair):
    f = jump_1d_in_cell()
    cone = Cone.from_degrees([1.0], 20.0)
    for q, s, expected in [(1.0, 1.0, "divergent"), (2.0, 0.0, "finite")]:
        w = Weight.bracket_power(s)
        vd = classify(_fl_series(f, w, q, cone, unit_pair.lambda2, 716.0))
        spec_c = quadrature_spectrum(f, 4.0, 716.0, 4.0)  # the continuous oracle
        vc = classify(series_from_spectrum(spec_c, w, q, cone))
        assert vd.kind == expected and vc.kind == expected


def _meshgrid_midpoints(density, d, r_max):
    """The quadrature nodes as a midpoint meshgrid filtered to the ball
    0 < |xi| <= r_max, the way quadrature_spectrum built them before they
    were a LatticeBall."""
    delta = 1.0 / density
    half = int(math.ceil(r_max / delta)) + 1
    axis = delta * (np.arange(-half, half) + 0.5)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    radii = np.linalg.norm(pts, axis=1)
    return pts[(radii > 0) & (radii <= r_max)]


@pytest.mark.parametrize("d,r_max", [(1, 716.0), (2, 60.0)])
def test_quadrature_nodes_are_the_midpoint_lattice_ball(d, r_max):
    # The ball of delta (Z^d + 1/2) holds the meshgrid's nodes in its order.
    # delta (k + 1/2) and delta/2 + delta k round alike when delta is a power
    # of two, as at the crosscheck's densities 4 and 2, and within an ulp or
    # two otherwise.  The zero signal skips the transform.
    zero = GridSignal.from_samples(np.zeros((16,) * d), -0.5 * np.ones(d), 1 / 512)
    for density in (4.0, 2.0, 3.0, 0.7):
        got = quadrature_spectrum(zero, density, r_max, 4.0).geometry.ball.points
        want = _meshgrid_midpoints(density, d, r_max)
        if density in (4.0, 2.0):
            assert np.array_equal(got, want)
        else:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("d,density,r_max", [(1, 4.0, 716.0), (2, 2.0, 20.0)])
def test_quadrature_spectrum_mirrors_the_symmetric_midpoint_ball(d, density, r_max):
    # At a dyadic delta the midpoint nodes are exactly symmetric, so a real
    # signal is transformed on half of them and mirrored; every magnitude
    # must still equal the direct sum at its node.
    f = jump_1d_in_cell(n=4096) if d == 1 else line_singularity_2d(n=64)
    spec = quadrature_spectrum(f, density, r_max, 4.0)
    ball = spec.geometry.ball
    assert f.is_real and 2 * ball.split(True)[1].size == ball.points.shape[0]
    want = np.abs(_direct(f.trimmed(), ball.points))
    assert np.max(np.abs(spec.magnitudes - want)) <= 1e-10 * f.quad_l1()


def test_discrete_mod_series_reductions():
    sys0 = build_agp(1.0, 1.0, d=1).with_epsilon(0.125)
    f = jump_1d()
    x0 = np.array([0.0])
    jset = support_index_set(sys0, x0)
    table = coefficients(f, sys0, 716.0, js=jset)
    cone = Cone.from_degrees([1.0], 20.0)
    w = Weight.bracket_power(1.0)
    lam2 = sys0.lambda2

    # the series reduces every row of its table, and a table of none is 0
    no_rows = coefficients(f, sys0, 716.0, js=np.zeros((0, 1), int), ball=table.ball)
    empty = discrete_mod_series(no_rows, w, 1.0, 1.0, cone)
    assert classify(empty).kind == "finite" and classify(empty).value == 0.0

    # a single j reduces to the windowed scalar series, up to (2 pi)^(d/2)
    j0 = jset[len(jset) // 2][None, :]
    single = discrete_mod_series(coefficients(f, sys0, 716.0, js=j0), w, 1.0, 1.0, cone)
    g = multiply(f, _psi_translate(sys0, j0[0]))
    scalar = _fl_series(g, w, 1.0, cone, lam2, 716.0)
    scale = (2 * math.pi) ** 0.5
    assert np.allclose(single.a, scale * scalar.a, rtol=1e-9)

    # p = q collapses to a plain double sum over the covered shells
    both = discrete_mod_series(table, w, 2.0, 2.0, cone)
    xi = table.ball.points
    mask = cone.contains(xi)
    direct = np.abs(table.whole()[:, mask]) * w(xi[mask])[None, :]
    radii = np.linalg.norm(xi[mask], axis=1)
    in_shells = (radii > both.boundaries[0]) & (radii <= both.boundaries[-1])
    expected_total = float(np.sum(direct[:, in_shells] ** 2))
    assert both.S[-1] - both.core == pytest.approx(expected_total, rel=1e-9)


def test_j_aggregate_equals_the_block_reduction():
    # Rows are aggregated one at a time; the sums run in the same order as a
    # reduction over axis 0 of the whole |c| block, so the results are equal.
    # The floor grows as the p-norm of the rows' floors, nj^(1/p) of one.
    ball = LatticeBall.of(scaled_integer_lattice(1.0, 2), 12.0)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(5, ball.points.shape[0])) * np.exp(1j * rng.uniform(0, 7, (5, 1)))
    js = np.arange(10).reshape(5, 2)
    for rows in ([0, 1, 2, 3, 4], [3, 1], [2]):
        table = CoefficientTable(js[rows], ball, values[rows], 1e-15)
        block = np.abs(values[rows])
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            agg = j_aggregate(table, p)
            want = block.max(axis=0) if math.isinf(p) else np.sum(block**p, axis=0) ** (1.0 / p)
            assert np.array_equal(agg.magnitudes, want)
            assert agg.noise_floor == 1e-15 * (1 if math.isinf(p) else len(rows) ** (1.0 / p))
            assert agg.geometry.ball is ball


def test_series_csv_export(tmp_path, jump, unit_pair):
    cone = Cone.from_degrees([1.0], 20.0)
    ser = _fl_series(
        jump, Weight.bracket_power(0.0), 2.0, cone, unit_pair.lambda2, 200.0
    )
    path = _series_csv(ser, tmp_path / "series.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "R_m,a_m,S_m"
    assert len(lines) == 1 + ser.a.size


def test_verdict_json(jump, unit_pair):
    cone = Cone.from_degrees([1.0], 20.0)
    v = classify(
        _fl_series(jump, Weight.bracket_power(0.0), 2.0, cone, unit_pair.lambda2, 716.0)
    )
    blob = v.to_json()
    assert blob["kind"] == v.kind and blob["code"] in (-1, 0, 1)
    assert "sigma" in blob["diagnostics"]


def _reference_series(spec, s, q, cone, r0, r_max):
    """Per-call binning as it was before shell geometries were shared:
    cone test, weight and shell index computed afresh on the cone's points."""
    bounds = shell_boundaries(r0, r_max)
    n_shell = bounds.size - 1
    pts = spec.geometry.ball.points
    r = np.linalg.norm(pts, axis=1)
    mask = (r > 0.0) & (pts @ cone.axis > r * math.cos(cone.aperture))
    r, mags = spec.geometry.ball.radii[mask], spec.magnitudes[mask]
    weighted = mags * np.sqrt(1.0 + np.sum(pts[mask] * pts[mask], axis=1)) ** s
    idx = np.searchsorted(bounds, r, side="left")
    in_range = idx <= n_shell
    idx, mags, weighted = idx[in_range], mags[in_range], weighted[in_range]
    counts = np.bincount(idx, minlength=n_shell + 1)[1:]
    absmax = np.zeros(n_shell + 1)
    np.maximum.at(absmax, idx, mags)
    if math.isinf(q):
        a = np.zeros(n_shell + 1)
        np.maximum.at(a, idx, weighted)
        core, a = float(a[0]), a[1:]
        total = np.maximum.accumulate(np.concatenate(([core], a)))[1:]
    else:
        sums = np.bincount(idx, weights=weighted**q * spec.cell_weight, minlength=n_shell + 1)
        core, a = float(sums[0]), sums[1:]
        total = core + np.cumsum(a)
    return a, total, counts, absmax[1:], core


@st.composite
def _spectrum_and_questions(draw):
    d = draw(st.sampled_from([1, 2]))
    beta = draw(st.floats(0.5, 2.0))
    r_max = draw(st.floats(20.0, 60.0)) * beta
    ball = LatticeBall.of(scaled_integer_lattice(beta, d), r_max)
    n = ball.points.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mags = rng.pareto(1.5, size=n) * (rng.uniform(size=n) > 0.1)
    cell = draw(st.sampled_from([1.0, 0.25]))
    geometry = ShellGeometry(ball, 4.0 * beta)
    spec = SpectralSamples(geometry, mags, cell, 0.0)
    questions = draw(st.lists(
        st.tuples(
            st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).filter(
                lambda v: np.linalg.norm(v) > 0.1),
            st.floats(5.0, 80.0),
            st.sampled_from([1.0, 2.0, math.inf]),
            st.sampled_from([-1.0, 0.0, 1.0]),
        ),
        min_size=1, max_size=6,
    ))
    return spec, 4.0 * beta, r_max, questions


@settings(max_examples=40, deadline=None)
@given(_spectrum_and_questions())
def test_property_shared_geometry_bins_as_per_call(case):
    # every question bins on the spectrum's one geometry and its cached cones
    spec, r0, r_max, questions = case
    for axis, aperture, q, s in questions:
        cone = Cone.from_degrees(axis, aperture)
        got = series_from_spectrum(spec, Weight.bracket_power(s), q, cone)
        a, total, counts, absmax, core = _reference_series(spec, s, q, cone, r0, r_max)
        assert np.array_equal(got.a, a)
        assert np.array_equal(got.S, total)
        assert np.array_equal(got.counts, counts)
        assert np.array_equal(got.shell_absmax, absmax)
        assert got.core == core


@st.composite
def _hermitian_case(draw):
    """A real or complex signal with random samples on a random support, a
    frequency lattice (through the origin or offset; a dyadic step with the
    offset beta / 2 gives exactly symmetric points) and a radius inside the
    guarded band."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(64, 512)) if d == 1 else draw(st.integers(24, 48))
    h = 8.0 / n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n,) * d
    samples = rng.normal(size=shape)
    if draw(st.booleans()):
        samples = samples + 1j * rng.normal(size=shape)
    lo = [draw(st.integers(0, n // 3)) for _ in range(d)]
    hi = [draw(st.integers(2 * n // 3, n)) for _ in range(d)]
    f = GridSignal(-4.0 * np.ones(d), h * np.ones(d), samples, tuple(zip(lo, hi)))
    beta = draw(st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.5, 2.0))
    offset = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.1, 0.9)) * beta
    radius = draw(st.floats(0.3, 0.8)) * math.pi / h
    return f, beta, offset, radius


@settings(max_examples=40, deadline=None)
@given(_hermitian_case())
def test_property_half_ball_and_mirror_equal_the_whole_ball(case):
    # A real signal on a centrally symmetric ball, offset or not, is
    # transformed on the half ball xi_d >= 0 and mirrored; every value must
    # equal the whole-ball transform, summed directly at each point
    # (windowed per translate for the coefficients).
    # Its coefficient table holds only the computed columns, and whatever
    # reads the table must answer as on the same table held whole.
    f, beta, offset, radius = case
    lat = scaled_integer_lattice(beta, f.d, offset * np.ones(f.d))
    geometry = whole_ball(lat, radius)
    computed, mirrored = geometry.ball.split(f.is_real)
    points = geometry.ball.points
    assert (mirrored.size > 0) == (f.is_real and np.array_equal(points[::-1], -points))
    if offset == 0.0:
        assert (mirrored.size > 0) == f.is_real
    got = lattice_samples(f, geometry).magnitudes
    want = np.abs(_direct(f.trimmed(), geometry.ball.points))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    # the Gabor system's frequency lattice is lat, offset or not
    sys0 = build_agp(4.0 / beta, beta, d=f.d).with_epsilon(0.5)
    sys0 = dataclasses.replace(sys0, pair=classify_pair(sys0.pair.lambda1, lat))
    js = _overlapping_js(f, sys0)[:: 1 + f.d]
    table = coefficients(f, sys0, radius, js=js, ball=geometry.ball)
    n = geometry.ball.points.shape[0]
    assert table.values.shape == (js.shape[0], n - mirrored.size)
    whole = table.whole()
    assert np.array_equal(whole[:, computed], table.values)
    assert np.array_equal(whole[:, mirrored], np.conj(whole[:, n - 1 - mirrored]))
    want = np.array([
        _direct(multiply(f, _psi_translate(sys0, j)).trimmed(), table.ball.points)
        for j in table.js
    ]) * TWO_PI ** (f.d / 2)
    assert np.max(np.abs(whole - want)) <= 1e-12 * np.max(np.abs(want))

    held_whole = dataclasses.replace(table, values=whole)
    for p in (1.0, 2.0, math.inf):
        got, ref = j_aggregate(table, p), j_aggregate(held_whole, p)
        assert np.array_equal(got.magnitudes, ref.magnitudes)
        assert got.noise_floor == ref.noise_floor
        for q, s in ((1.0, 1.0), (2.0, 0.0), (math.inf, -1.0)):
            w = Weight.bracket_power(s)
            assert discrete_mod_norm(table, w, p, q) == discrete_mod_norm(held_whole, w, p, q)
    assert np.array_equal(reconstruct(table, sys0, f).samples,
                          reconstruct(held_whole, sys0, f).samples)


@st.composite
def _fit_data(draw):
    """4-10 shells at log radii log(r0 2^m), any values, and weights as
    classify uses them: all ones (q = inf) or sqrt(counts) in [1, 100]."""
    m = draw(st.integers(4, 10))
    shells = sorted(draw(st.sets(st.integers(1, 14), min_size=m, max_size=m)))
    x = np.log(draw(st.floats(0.5, 40.0)) * 2.0 ** np.array(shells))
    y = np.array(draw(st.lists(st.floats(-60.0, 60.0), min_size=m, max_size=m)))
    weights = st.just(1.0) if draw(st.booleans()) else st.floats(1.0, 100.0)
    w = np.array(draw(st.lists(weights, min_size=m, max_size=m)))
    return x, y, w


@settings(max_examples=300, deadline=None)
@given(_fit_data())
def test_property_closed_form_fit_matches_polyfit(data):
    # Relative to the larger of the value and the data's own scale: polyfit's
    # round-off is of the order eps * max|y| (over the x span for the slope).
    x, y, w = data
    slope, rms = _weighted_fit(x, y, w)
    coef = np.polyfit(x, y, 1, w=w)
    want = float(np.sqrt(np.sum((w * (y - np.polyval(coef, x))) ** 2) / np.sum(w**2)))
    y_max = float(np.max(np.abs(y)))
    assert abs(slope - coef[0]) <= 1e-12 * max(abs(coef[0]), y_max / np.ptp(x))
    assert abs(rms - want) <= 1e-12 * max(want, y_max)
