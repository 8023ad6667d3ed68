import cmath
import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from microloc import (
    BudgetExceeded,
    Cone,
    DomainClipped,
    EpsilonTooLarge,
    FrequencyOutOfRange,
    GridSignal,
    MicrolocError,
    ScanConfig,
    WavefrontDetector,
    WavefrontQuery,
    Weight,
    aperture_sweep,
    build_agp,
    check_equivalence,
    classify,
    df_fl_point,
    df_mod_point,
    make_cutoff,
    make_lattice,
    multiply,
    scaled_integer_lattice,
    scan,
)
from microloc import gabor, lattice, seminorm, signal, wavefront
from microloc.fixtures import line_singularity_2d
from microloc.lattice import LatticeBall
from microloc.seminorm import Verdict, lattice_samples, series_from_spectrum
from microloc.wavefront import WavefrontEstimate, WavefrontRecord, cutoff_for, default_r_max
from conftest import whole_ball
from test_golden import _mismatch


@pytest.fixture(scope="module")
def line2d():
    return line_singularity_2d()


def test_smooth_bump_finite_everywhere(bump, unit_pair):
    for x0 in ([0.0], [1.2]):
        for q, s in ((2.0, 0.0), (1.0, 1.0)):
            v = df_fl_point(bump, WavefrontQuery(x0, [1.0], q=q, weight=s), unit_pair)
            assert v.kind == "finite"


def test_jump_point_verdicts(jump, unit_pair):
    v = df_fl_point(jump, WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0), unit_pair)
    assert v.kind == "divergent"
    v = df_fl_point(jump, WavefrontQuery([0.0], [-1.0], q=1.0, weight=1.0), unit_pair)
    assert v.kind == "divergent"
    v = df_fl_point(jump, WavefrontQuery([3.0], [1.0], q=1.0, weight=1.0), unit_pair)
    assert v.kind == "finite"
    # localization within the cell: a point near (but off) the jump is clean
    v = df_fl_point(jump, WavefrontQuery([0.25], [1.0], q=1.0, weight=1.0), unit_pair)
    assert v.kind == "finite"


def test_df_mod_matches_fl_on_jump(jump, unit_pair):
    sys0 = build_agp(1.0, 1.0, d=1)
    for x0, expect in (([0.0], "divergent"), ([1.0], "finite")):
        q = WavefrontQuery(x0, [1.0], p=2.0, q=1.0, weight=1.0)
        assert df_mod_point(jump, q, sys0).kind == expect
        assert df_fl_point(jump, q, unit_pair).kind == expect


@pytest.mark.parametrize("route", ["fl", "mod"])
def test_nan_at_the_jump_is_refused_not_a_verdict(jump, unit_pair, route):
    # a single NaN sample used to come back as a conclusive 'finite'
    samples = jump.samples.copy()
    samples[int(round(-jump.origin[0] / jump.spacing[0]))] = np.nan
    query = WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0)
    ask, arg = (df_fl_point, unit_pair) if route == "fl" else (df_mod_point, build_agp(1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ask(GridSignal.from_samples(samples, jump.origin, jump.spacing), query, arg)


def test_line_singularity_directional(line2d):
    pair = ScanConfig(alpha=2.5, beta=1.0).lattice_pair(2)
    q = dict(q=1.0, weight=1.0, r_max=180.0)
    assert df_fl_point(line2d, WavefrontQuery([0, 0], [1, 0], **q), pair).kind == "divergent"
    assert df_fl_point(line2d, WavefrontQuery([0, 0], [0, 1], **q), pair).kind == "finite"
    assert df_fl_point(line2d, WavefrontQuery([2, 0], [1, 0], **q), pair).kind == "finite"


def test_the_fl_route_never_trims_a_signal(jump, line2d, unit_pair, monkeypatch):
    # fourier_batch sums chi * f over its support box as it stands
    def refuse(self):
        raise AssertionError("GridSignal.trimmed was called")

    monkeypatch.setattr(GridSignal, "trimmed", refuse)
    query = WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0)
    assert df_fl_point(jump, query, unit_pair).kind == "divergent"
    pair = ScanConfig(alpha=2.5, beta=1.0).lattice_pair(2)
    query = WavefrontQuery([0, 0], [1, 0], q=1.0, weight=1.0, r_max=180.0)
    assert df_fl_point(line2d, query, pair).kind == "divergent"


def _fl_kind_with_cutoff(f, pair, x0, inner, outer):
    # the FL verdict (q = s = 1, 20 degrees) with chi = 1 on |x - x0| <= inner, 0 beyond outer
    chi = make_cutoff(([x0 - inner], [x0 + inner]), ([x0 - outer], [x0 + outer]))
    r_max, cone = default_r_max(f), Cone.from_degrees([1.0], 20.0)
    spec = lattice_samples(multiply(f, chi), whole_ball(pair.lambda2, r_max))
    return classify(series_from_spectrum(spec, Weight(1.0), 1.0, cone)).kind


def test_cutoff_independence(jump, unit_pair):
    # x0 is a cell centre, 0.5 from its faces: narrow and wide smooth cutoffs
    # inside the cell agree with each other and with cutoff_for's
    for x0 in (0.0, 1.0, 3.0):
        a = _fl_kind_with_cutoff(jump, unit_pair, x0, 0.15 * 0.3, 0.3)
        b = _fl_kind_with_cutoff(jump, unit_pair, x0, 0.4 * 0.45, 0.45)
        default = df_fl_point(jump, WavefrontQuery([x0], [1.0], q=1.0, weight=1.0), unit_pair)
        assert a == b == default.kind


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.integers(-6, 6), st.sampled_from([0.0, 3.0]))
def test_property_power_of_two_scaling_keeps_verdicts(jump, unit_pair, sign, k, x0):
    # c = +-2^k scales every sample exactly, so both routes' shell series
    # scale by |c|^q and the fitted exponent must not move
    scaled = GridSignal.from_samples(sign * 2.0**k * jump.samples, jump.origin, jump.spacing)
    query = WavefrontQuery([x0], [1.0], q=1.0, weight=1.0)
    for route, arg in ((df_fl_point, unit_pair), (df_mod_point, build_agp(1.0, 1.0, d=1))):
        a, b = route(jump, query, arg), route(scaled, query, arg)
        assert a.kind == b.kind and abs(a.tau - b.tau) <= 1e-9


_DIAG = 0.5**0.5
_STANDARD_PQS = (
    (1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (2.0, 1.0, 0.0), (1.0, 2.0, 1.0), (2.0, 2.0, 0.0),
)
# The x_grid of each of the standard matrix's 1D scans.
_STANDARD_1D = {
    "jump": [[0.0], [1.0], [-1.0], [2.0], [-2.0], [3.0]],
    "bump": [[0.0], [1.2], [-1.2]],
}


def _scan_kinds(f, x_grid):
    cfg = ScanConfig(pqs=_STANDARD_PQS, alpha=1.0, beta=1.0)
    return [
        [v.kind if v is not None else err
         for v, err in ((r.verdict_fl, r.error_fl), (r.verdict_mod, r.error_mod))]
        for r in scan(f, x_grid, [[1.0], [-1.0]], cfg).records
    ]


@pytest.fixture(scope="module")
def standard_1d_kinds(jump, bump):
    """Each standard 1D scan's signal and its records' kinds per route."""
    return {name: (f, _scan_kinds(f, _STANDARD_1D[name]))
            for name, f in (("jump", jump), ("bump", bump))}


@settings(max_examples=20, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(0.0, 2 * math.pi))
@example(0.0, math.pi / 2)
@example(4.0, math.pi / 2)
@example(-3.0, 2.1)
def test_property_complex_scaling_keeps_scan_kinds(standard_1d_kinds, log_modulus, phase):
    # c = 10^u e^{i phase} != 0 scales every coefficient and spectrum value
    # by |c| and the noise floor with them; a phase off the real axis makes
    # the signal complex, so both routes transform the whole ball.  Both
    # routes keep every kind of the standard jump and bump scans.
    c = 10.0**log_modulus * cmath.exp(1j * phase)
    for name, (f, kinds) in standard_1d_kinds.items():
        scaled = GridSignal.from_samples(c * f.samples, f.origin, f.spacing)
        assert _scan_kinds(scaled, _STANDARD_1D[name]) == kinds, (name, c)


def test_aperture_monotonicity(jump, unit_pair):
    # finite at 20 degrees must stay finite at every smaller aperture
    sweep = aperture_sweep(
        jump, WavefrontQuery([1.0], [1.0], q=1.0, weight=1.0), unit_pair, (20.0, 10.0, 5.0)
    )
    assert sweep[20.0].kind == "finite"
    assert all(v.kind == "finite" for v in sweep.values())


_LINE_PAIR = ScanConfig(alpha=2.5, beta=1.0).lattice_pair(2)
_SWEEP_POINTS = {
    "jump": ([[0.0], [1.0], [-1.0], [0.25], [3.0]], [[1.0], [-1.0]]),
    "line": ([[0.0, 0.0], [0.0, 0.5], [0.0, -0.5], [2.0, 0.0]],
             [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [_DIAG, _DIAG]]),
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "line x0 = (0, 0.5), theta = e1, (p, q, s) = (2, 1, 0) is divergent at 5 and 10 "
    "degrees and finite at 80 and 85"))
@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from(sorted(_SWEEP_POINTS)),
    point=st.integers(0, 3),
    direction=st.integers(0, 3),
    pqs=st.sampled_from(_STANDARD_PQS),
    apertures=st.lists(st.floats(1.0, 89.0), min_size=2, max_size=4, unique=True),
)
@example(case="line", point=1, direction=0, pqs=(2.0, 1.0, 0.0), apertures=[5.0, 10.0, 80.0, 85.0])
def test_property_enlarging_the_aperture_never_turns_divergent_into_finite(
    jump, line2d, unit_pair, case, point, direction, pqs, apertures
):
    # A wider cone holds the narrower one, so its seminorm is no smaller:
    # once a narrow cone is divergent, no wider cone about the same axis
    # may be finite.
    x_grid, thetas = _SWEEP_POINTS[case]
    f, pair, r_max = (jump, unit_pair, None) if case == "jump" else (line2d, _LINE_PAIR, 180.0)
    p, q, s = pqs
    query = WavefrontQuery(x_grid[point % len(x_grid)], thetas[direction % len(thetas)],
                           p=p, q=q, weight=s, r_max=r_max)
    sweep = aperture_sweep(f, query, pair, sorted(apertures))
    kinds = [sweep[a].kind for a in sorted(apertures)]
    first = kinds.index("divergent") if "divergent" in kinds else len(kinds)
    assert "finite" not in kinds[first:], dict(zip(sorted(apertures), kinds))


@pytest.mark.parametrize("aperture", [120.0, 179.0, "20", True, 0.0, 90.0, math.nan])
def test_aperture_sweep_refuses_apertures_a_query_refuses(jump, unit_pair, aperture):
    # a sweep takes the apertures a query takes, real numbers in (0, 90),
    # not True as a 1 degree cone; the check comes before any work, so it
    # wins over x0 = 9 lying outside the domain
    with pytest.raises(ValueError, match="aperture_deg"):
        WavefrontQuery([3.0], [1.0], aperture_deg=aperture)
    for x0 in (3.0, 9.0):
        with pytest.raises(ValueError, match="aperture_deg"):
            aperture_sweep(jump, WavefrontQuery([x0], [1.0]), unit_pair, (20.0, aperture))
    sweep = aperture_sweep(jump, WavefrontQuery([3.0], [1.0]), unit_pair, (20, 10))
    assert [type(a) for a in sweep] == [float, float] and list(sweep) == [20.0, 10.0]


def test_aperture_sweep_refuses_an_empty_aperture_list(jump, unit_pair):
    # refused before any work: x0 = 9 outside the domain would raise
    # DomainClipped, x0 = 3 would compute a spectrum for no verdict
    for x0 in (3.0, 9.0):
        with pytest.raises(ValueError, match="apertures must list at least one aperture"):
            aperture_sweep(jump, WavefrontQuery([x0], [1.0]), unit_pair, ())


def test_direction_scale_invariance(jump, unit_pair):
    a = df_fl_point(jump, WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0), unit_pair)
    b = df_fl_point(jump, WavefrontQuery([0.0], [2.0], q=1.0, weight=1.0), unit_pair)
    assert a.kind == b.kind and a.tau == b.tau


def test_cutoff_for_validation(jump, unit_pair):
    on_face = "sits on the boundary of its cell/domain intersection"
    too_small = "under 10 grid steps"
    outside = "not interior to the signal domain"
    lambda1_08 = ScanConfig(alpha=0.8).lattice_pair(1).lambda1
    # faces of Z - 1/2 at the half-integers and of 0.8 Z - 0.4 at 0.4 + 0.8 k:
    # within the face tolerance x0 belongs to the lower cell, on its upper face
    for lambda1, x0, text in [
        (unit_pair.lambda1, 0.5, on_face),
        (unit_pair.lambda1, 0.5 + 1e-13, on_face),
        (unit_pair.lambda1, 0.5 - 1e-13, too_small),
        (unit_pair.lambda1, -0.5, on_face),
        (lambda1_08, 0.4, on_face),
        (unit_pair.lambda1, 8.0, outside),  # past the last sample, 8 - h
        (unit_pair.lambda1, -8.0, outside),  # on the first sample
    ]:
        with pytest.raises(DomainClipped, match=text):
            cutoff_for(jump, lambda1, np.array([x0]))
    with pytest.raises(DomainClipped):
        df_fl_point(jump, WavefrontQuery([7.999], [1.0]), unit_pair)
    with pytest.raises(DomainClipped):
        df_fl_point(jump, WavefrontQuery([9.0], [1.0]), unit_pair)


def test_epsilon_too_large(jump):
    sys0 = build_agp(1.0, 1.0, d=1)
    with pytest.raises(EpsilonTooLarge):
        df_mod_point(jump, WavefrontQuery([7.0], [1.0], epsilon=1.0), sys0)
    # one ulp inside the first sample every dyadic reach sticks out, however small
    x0 = math.nextafter(-8.0, 0.0)
    says = ("no dyadic epsilon keeps window supports near x0 = [-7.999999999999999] "
            "inside the domain")
    cfg = ScanConfig()
    with pytest.raises(EpsilonTooLarge) as refused:
        df_mod_point(jump, WavefrontQuery([x0], [1.0]), cfg.gabor_system(1))
    assert str(refused.value) == says
    (rec,) = scan(jump, [[x0]], [[1.0]], cfg).records
    assert rec.error_mod == f"EpsilonTooLarge: {says}"


def test_aperture_sweep_refuses_a_weak_pair(jump):
    weak = lattice.classify_pair(lattice.scaled_integer_lattice(1.0, 1),
                                 lattice.scaled_integer_lattice(2 * math.pi, 1))
    with pytest.raises(ValueError) as refused:
        aperture_sweep(jump, WavefrontQuery([0.0], [1.0]), weak)
    assert str(refused.value) == "lattice pair must be strongly admissible, got weak"


def test_cutoff_for_refuses_a_rotated_spatial_lattice(line2d):
    rotated = lattice.make_lattice([[1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError) as refused:
        cutoff_for(line2d, rotated, np.array([0.0, 0.5]))
    assert str(refused.value) == "cutoff construction requires an axis-aligned spatial lattice"


def test_scan_empty_and_singleton(jump, unit_pair):
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0),), alpha=1.0, beta=1.0)
    empty = scan(jump, [[0.0]], [], cfg)
    assert empty.records == []

    est = scan(jump, [[0.0]], [[1.0]], cfg)
    assert len(est.records) == 1
    rec = est.records[0]
    point = df_fl_point(jump, WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0), unit_pair)
    assert rec.verdict_fl.kind == point.kind
    assert rec.verdict_fl.tau == pytest.approx(point.tau)


def test_scan_records_errors_without_aborting(jump):
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0),), alpha=1.0, beta=1.0)
    est = scan(jump, [[0.5], [0.0]], [[1.0]], cfg)  # first point is on a face
    assert len(est.records) == 2
    assert est.records[0].verdict_fl is None
    assert "DomainClipped" in est.records[0].error_fl
    assert est.records[1].verdict_fl is not None


def test_check_equivalence_report(jump):
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0), (2.0, 2.0, 1.0)), alpha=1.0, beta=1.0)
    est = scan(jump, [[0.0], [1.0]], [[1.0], [-1.0]], cfg)
    rep = check_equivalence(est)
    assert rep.n_records == 8
    assert rep.n_disagreements == 0
    assert rep.holds
    blob = rep.to_json()
    assert blob["n_compared"] == rep.n_compared


def test_check_equivalence_flags_all_inconclusive():
    inc = Verdict("inconclusive", None, 0.0, -1.0, 0.15, {})
    fin = Verdict("finite", 1.0, -2.0, -1.0, 0.15, {})
    records = [
        WavefrontRecord([0.0], [1.0], 1.0, 1.0, 1.0, 20.0, verdict_fl=inc, verdict_mod=fin)
    ]
    rep = check_equivalence(WavefrontEstimate(records))
    assert rep.all_inconclusive_fl and not rep.all_inconclusive_mod
    assert rep.n_compared == 0 and not rep.holds


def test_heatmap_csv(tmp_path, jump):
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0),), alpha=1.0, beta=1.0)
    est = scan(jump, [[0.0], [1.0]], [[1.0], [-1.0]], cfg)
    path = est.heatmap_csv(tmp_path / "heat.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0_0,theta_deg,p,q,s,tau_fl,tau_mod,fl_code,mod_code"
    assert len(lines) == 5
    codes = {int(l.split(",")[-2]) for l in lines[1:]}
    assert codes <= {-1, 0, 1}
    empty = WavefrontEstimate([]).heatmap_csv(tmp_path / "empty.csv")
    assert empty.read_text() == lines[0] + "\n"


def test_heatmap_csv_leaves_the_angle_blank_for_d_3(tmp_path):
    # one angle names no direction in 3D: (1, 0, 0) and (0, 0, 1) must not
    # both read 0.0, so the cell stays blank, as a missing value does
    fin = Verdict("finite", 1.0, -2.0, -1.0, 0.15, {})
    records = [
        WavefrontRecord([0.0, 0.5, 0.0], theta, 1.0, 1.0, 1.0, 20.0, verdict_fl=fin)
        for theta in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    ]
    path = WavefrontEstimate(records).heatmap_csv(tmp_path / "heat3.csv")
    assert path.read_text().splitlines() == [
        "x0_0,x0_1,x0_2,theta_deg,p,q,s,tau_fl,tau_mod,fl_code,mod_code",
        "0.0,0.5,0.0,,1.0,1.0,1.0,-2.0,,0,",
        "0.0,0.5,0.0,,1.0,1.0,1.0,-2.0,,0,",
    ]


def test_query_validation(jump, unit_pair):
    with pytest.raises(ValueError):
        WavefrontQuery([0.0], [0.0])  # zero direction
    with pytest.raises(ValueError):
        WavefrontQuery([0.0], [1.0], aperture_deg=95.0)
    with pytest.raises(ValueError):
        WavefrontQuery([0.0], [1.0], q=0.5)
    with pytest.raises(ValueError):
        WavefrontQuery([0.0], [1.0], epsilon=1.5)
    # a direction of another dimension than the signal's is refused up front
    wrong = WavefrontQuery([0.0], [1.0, 2.0])
    for route, arg in ((df_fl_point, unit_pair), (df_mod_point, build_agp(1.0, 1.0, 1))):
        with pytest.raises(ValueError, match="direction must have dimension 1, got 2"):
            route(jump, wrong, arg)
    # so is a lattice pair or Gabor system of another dimension, by name
    query = WavefrontQuery([0.0], [1.0])
    pair_2d = ScanConfig(alpha=1.0, beta=1.0).lattice_pair(2)
    for route, arg, kind in ((df_fl_point, pair_2d, "lattice pair"),
                             (df_mod_point, build_agp(1.0, 1.0, 2), "Gabor system")):
        with pytest.raises(ValueError, match=f"a 2-d {kind} for a 1-d signal"):
            route(jump, query, arg)


@pytest.mark.parametrize("s,says", [
    (True, "s must be a number, got True"),
    ("2", "s must be a number, got '2'"),
    (math.nan, "s must be a finite number, got nan"),
    (math.inf, "s must be a finite number, got inf"),
    (-math.inf, "s must be a finite number, got -inf"),
])
def test_s_must_be_a_finite_number(s, says):
    for build in (
        lambda: Weight(s),
        lambda: WavefrontQuery([0.0], [1.0], weight=s),
        lambda: ScanConfig(pqs=((1.0, 1.0, s),)),
        lambda: ScanConfig.from_settings(1.0, 1.0, s),
    ):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == says


_ROUTE_PQS = _STANDARD_PQS + ((math.inf, math.inf, 1.0),)
# (x_grid, directions, scan config); the jump's Gabor step is twice its
# cutoff lattice step, so both entry points must pick epsilon against the
# same cell edge, and x0 = -2 sits on a cutoff cell face.
_ROUTE_SCANS = {
    "jump_1d": (
        [[0.0], [1.0], [-2.0], [3.0]], [[1.0], [-1.0]],
        ScanConfig(pqs=_ROUTE_PQS, alpha=0.8, beta=1.0, gabor_alpha=1.6),
    ),
    "line_2d": (
        [[0.0, 0.5], [2.0, 0.0]],
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [_DIAG, _DIAG], [-_DIAG, _DIAG]],
        ScanConfig(pqs=_ROUTE_PQS, alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0,
                   r_max=90.0),
    ),
}


def _outcome(call, *args):
    """call(*args), or the text of the MicrolocError it raises."""
    try:
        return call(*args)
    except MicrolocError as exc:
        return f"{type(exc).__name__}: {exc}"


def _point_answer(route, f, query, arg):
    return _outcome(lambda: route(f, query, arg).to_json())


# A point verdict transforms the cone's points of the ball inside the last
# full shell where `scan` transforms every point there (or their half), so
# their spectra differ by round-off: kinds, codes, error texts and integer
# diagnostics must be equal, float fields equal within the golden files'
# 1e-9 relative.
def _same_answer(point, recorded, where: str) -> None:
    why = _mismatch(point, recorded, where)
    assert why is None, why


@pytest.mark.parametrize("x0", [[0.0], [3.0]])
def test_scan_and_point_routes_agree(jump, x0):
    # Gabor step twice the cutoff lattice step: both entry points must pick
    # epsilon against the same cell edge.
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0),), alpha=0.8, beta=1.0, gabor_alpha=1.6)
    rec = scan(jump, [x0], [[1.0]], cfg).records[0]
    query = WavefrontQuery(x0, [1.0], p=1.0, q=1.0, weight=1.0)
    fl = df_fl_point(jump, query, cfg.lattice_pair(1))
    mod = df_mod_point(jump, query, build_agp(1.6, 1.0, d=1))
    _same_answer(fl.to_json(), rec.verdict_fl.to_json(), "fl")
    _same_answer(mod.to_json(), rec.verdict_mod.to_json(), "mod")


@pytest.mark.parametrize("case", sorted(_ROUTE_SCANS))
def test_multi_x0_scan_matches_point_routes(case, jump):
    # A multi-x0 scan shares its shell geometry and j-aggregates across
    # records; every record must still be the point operations' answer.
    f = jump if case == "jump_1d" else line_singularity_2d(n=512)
    x_grid, directions, cfg = _ROUTE_SCANS[case]
    pair, gsys = cfg.lattice_pair(f.d), cfg.gabor_system(f.d)
    records = scan(f, x_grid, directions, cfg).records
    assert len(records) == len(x_grid) * len(directions) * len(_ROUTE_PQS)
    for i, rec in enumerate(records):
        query = WavefrontQuery(rec.x0, rec.theta, p=rec.p, q=rec.q, weight=rec.s, r_max=cfg.r_max)
        fl = rec.verdict_fl.to_json() if rec.verdict_fl else rec.error_fl
        mod = rec.verdict_mod.to_json() if rec.verdict_mod else rec.error_mod
        _same_answer(_point_answer(df_fl_point, f, query, pair), fl, f"record {i} fl")
        _same_answer(_point_answer(df_mod_point, f, query, gsys), mod, f"record {i} mod")


# Small settings for each dimension: four full shells, a cutoff cell and a
# window of at most 2^d translates around every x0 in [-1/2, 1/2]^d.
_SMALL = {
    1: (1024, 4.0, ScanConfig(alpha=2.0, beta=1.0, gabor_alpha=6.0)),
    2: (128, 2.0, ScanConfig(alpha=2.0, beta=0.25, gabor_alpha=24.0)),
}


def _small_signal(d: int, real: bool, seed: int) -> GridSignal:
    """A Gaussian cut by a random half-space on a small grid of [-L, L)^d;
    a complex one is modulated, so its spectrum is not Hermitian."""
    rng = np.random.default_rng(seed)
    n, half, _ = _SMALL[d]
    axis = np.arange(n) * (2 * half / n) - half
    x = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1)
    samples = np.exp(-np.sum(x * x, axis=-1)) * (x @ rng.normal(size=d) > rng.uniform(-0.3, 0.3))
    if not real:
        samples = samples * np.exp(3j * (x @ rng.normal(size=d)))
    return GridSignal.from_samples(samples, [-half] * d, [2 * half / n] * d)


def _assert_series_close(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.boundaries, want.boundaries)
    assert np.array_equal(got.counts, want.counts)
    assert got.noise_floor == want.noise_floor
    scale = np.max(want.S)
    for name in ("a", "S", "shell_absmax"):
        gap = np.max(np.abs(getattr(got, name) - getattr(want, name)))
        assert gap <= 1e-12 * np.max(getattr(want, name)), name
    assert abs(got.core - want.core) <= 1e-12 * scale
    assert _outcome(lambda: classify(got).kind) == _outcome(lambda: classify(want).kind)


@settings(max_examples=50, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    x0=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
    angle=st.one_of(st.floats(0.0, 360.0), st.sampled_from([45.0, 135.0, 225.0, 315.0])),
    aperture=st.floats(1.0, 85.0),
    pqs=st.sampled_from(_ROUTE_PQS),
)
@example(d=2, real=True, seed=0, x0=[0.1, -0.2], angle=45.0, aperture=80.0, pqs=_ROUTE_PQS[0])
def test_property_cone_series_match_whole_ball_series(d, real, seed, x0, angle, aperture, pqs):
    # A point verdict bins on the points of the ball its widest cone bins,
    # a scan on the ball's points inside the last full shell; each series
    # either asks, at every aperture up to the widest, is the whole ball's
    # to round-off.
    f = _small_signal(d, real, seed)
    cfg = _SMALL[d][2]
    x0 = np.array(x0[:d])
    direction = [1.0 if angle < 180 else -1.0] if d == 1 else [
        math.cos(math.radians(angle)), math.sin(math.radians(angle))]
    p, q, s = pqs
    query = WavefrontQuery(x0, direction, aperture_deg=aperture, p=p, q=q, weight=s)
    pair, gsys = cfg.lattice_pair(d), cfg.gabor_system(d)
    routes = (
        (lambda ball: wavefront._fl_stage(f, pair, x0, ball), pair.lambda2, "lattice pair",
         (aperture, aperture / 2)),
        (lambda ball: wavefront._mod_stage(wavefront._RowStore(f, gsys, [x0], None), 0, ball),
         gsys.lambda2, "Gabor system", (aperture,)),
    )
    for stage, lambda2, name, apertures in routes:
        _, cone_ball = wavefront._point_inputs(f, query, lambda2, name, apertures)
        on_ball = stage(lambda: whole_ball(lambda2, default_r_max(f)))
        for ball in (cone_ball, lambda: wavefront._frequencies(f, lambda2, None)):
            series = stage(ball)
            for a in apertures:
                args = (query.weight, p, q, Cone.from_degrees(query.direction, a))
                _assert_series_close(_outcome(series, *args), _outcome(on_ball, *args))


def test_point_ball_is_the_whole_geometrys_cone_index_gather(line2d):
    # Every point verdict transforms exactly the points its widest cone bins:
    # the whole geometry's `cone_index` gather, in ball order.  On r_max = 180
    # the last full shell is 128, and every cone, the 80 degree diagonal one
    # on a real signal included, is cut there.
    pair = ScanConfig(alpha=2.5, beta=1.0).lattice_pair(2)
    whole = whole_ball(pair.lambda2, 180.0)
    imag = GridSignal.from_samples(1j * line2d.samples, line2d.origin, line2d.spacing)
    for f, direction, aperture in (
        (line2d, [1.0, 0.0], 20.0),
        (line2d, [1.0, 1.0], 60.0),
        (line2d, [1.0, 1.0], 80.0),
        (imag, [1.0, 1.0], 80.0),
    ):
        query = WavefrontQuery([0.0, 0.3], direction, aperture_deg=aperture, r_max=180.0)
        _, ball = wavefront._point_inputs(f, query, pair.lambda2, "lattice pair", (aperture,))
        geometry = ball()
        sel = whole.cone_index(query.cone)[0]
        assert np.array_equal(geometry.ball.points, whole.ball.points[sel])
        assert np.array_equal(geometry.ball.ks, whole.ball.ks[sel])
        assert geometry.ball.is_of(pair.lambda2, 180.0) and geometry.r0 == whole.r0
        assert np.max(geometry.ball.radii) <= whole.boundaries[-1] == 128.0


def _binned_by_the_whole_ball(lambda2, r_max, cone):
    """The points a verdict bins, picked from the whole ball: the shell
    geometry of every point of lambda2 with |xi| <= r_max, and the indices
    of its points inside the last full shell, of `cone` when one is given."""
    whole = whole_ball(lambda2, r_max)
    keep = whole.shell <= whole.boundaries.size - 1
    if cone is not None:
        keep &= cone.contains(whole.ball.points)
    return whole, np.flatnonzero(keep)


def _fine_signal(d):
    """A signal sampled finely enough that no frequency below 140 leaves its band."""
    return GridSignal.from_samples(np.ones((4,) * d), np.zeros(d), np.full(d, 0.02))


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 3),
    entries=st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9),
    offset=st.one_of(st.just([0.0] * 3), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)),
    octaves=st.floats(0.5, 2.5),
    axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    aperture=st.one_of(st.none(), st.floats(0.1, 89.9)),
)
@example(d=2, entries=[0.0, 0.6, 0.4, -0.2] + [0.0] * 5, offset=[0.1, 0.0, 0.0], octaves=2.44,
         axis=[1.0, 2.0, 0.0], aperture=35.0)
def test_property_frequencies_keep_the_whole_balls_binned_points_in_ball_order(
    d, entries, offset, octaves, axis, aperture
):
    # A verdict's frequencies are the whole ball's points inside the last
    # full shell, of its cone when it has one, in ball order, on the whole
    # ball's lattice, radius and shell edges, though only they are
    # enumerated; or the whole ball's refusal when r_max leaves no full
    # shell (under one octave above r0 = 4 x min spacing).
    basis = np.eye(d) + 0.5 * np.array(entries[: d * d]).reshape(d, d)  # skewed, near I
    assume(abs(np.linalg.det(basis)) > 0.2)
    axis = np.array(axis[:d])
    assume(np.linalg.norm(axis) > 0.1)
    lambda2 = make_lattice(basis, offset[:d])
    r_max = 4.0 * lambda2.min_spacing * 2.0 ** (octaves if d < 3 else min(octaves, 1.5))
    lo, hi = lattice._integer_box_for_ball(lambda2, r_max)
    assume(np.prod(hi - lo + 1) <= 400_000)  # a whole ball a test can enumerate quickly
    cone = None if aperture is None else Cone.from_degrees(axis, aperture)
    f = _fine_signal(d)
    try:
        whole, sel = _binned_by_the_whole_ball(lambda2, r_max, cone)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            wavefront._frequencies(f, lambda2, r_max, cone)
        assert str(refused.value) == str(exc)
        return
    got = wavefront._frequencies(f, lambda2, r_max, cone)
    assert np.array_equal(got.ball.points, whole.ball.points[sel])
    assert np.array_equal(got.ball.ks, whole.ball.ks[sel])
    assert got.ball.points.dtype == whole.ball.points.dtype
    assert got.ball.ks.dtype == whole.ball.ks.dtype
    assert got.ball.is_of(lambda2, r_max) and got.r0 == whole.r0
    assert np.array_equal(got.boundaries, whole.boundaries)
    computed, mirrored = got.ball.split(real=True)
    n = got.ball.points.shape[0]
    if cone is not None:
        # no cone of aperture under 90 degrees holds both xi and -xi, so
        # every point is computed
        assert mirrored.size == 0 and np.array_equal(np.arange(n)[computed], np.arange(n))
    elif whole.ball.split(real=True)[1].size:
        # a centrally symmetric ball stays so inside the last full shell
        assert np.array_equal(computed, np.flatnonzero(got.ball.points[:, -1] >= 0))
    # the cone and every narrower one about its axis (without a cone, any
    # cone) bin the same points with the same shell indices on either geometry
    for a in (35.0, 89.9) if cone is None else (aperture, aperture / 2):
        narrow = Cone.from_degrees(axis, a)
        sel_w, idx_w, counts_w = whole.cone_index(narrow)
        sel_g, idx_g, counts_g = got.cone_index(narrow)
        assert np.array_equal(got.ball.points[sel_g], whole.ball.points[sel_w])
        assert np.array_equal(idx_g, idx_w) and np.array_equal(counts_g, counts_w)


def test_frequencies_of_a_cone_drop_its_points_past_the_last_full_shell():
    # shells from 4 x 0.92 to 14.75 on a ball of radius 20: the cone's points
    # past the last full shell are not binned, so they are not enumerated
    lambda2 = make_lattice([[1.0, 0.3], [0.2, 0.9]], offset=[0.1, 0.0])
    cone = Cone.from_degrees([1.0, 2.0], 35.0)
    whole, sel = _binned_by_the_whole_ball(lambda2, 20.0, cone)
    got = wavefront._frequencies(_fine_signal(2), lambda2, 20.0, cone)
    assert np.count_nonzero(cone.contains(whole.ball.points)) > sel.size
    assert 0 < got.ball.points.shape[0] == sel.size < whole.ball.points.shape[0]
    # a centrally symmetric ball is computed on its half xi_d >= 0
    z2_ball = LatticeBall.of(scaled_integer_lattice(1.0, 2), 6.0)
    computed = z2_ball.split(real=True)[0]
    assert np.array_equal(z2_ball.ks[computed], z2_ball.ks[z2_ball.ks[:, -1] >= 0])
    assert z2_ball.split(real=False)[0] == slice(None)


def test_verdicts_enumerate_only_the_points_they_bin(line2d, monkeypatch):
    # On r_max = 180 the last full shell is 128: each point route enumerates
    # its 20 degree cone's points inside it, and a scan every point inside
    # it, each once; none enumerates the whole ball of 101,765 points.
    calls = []

    def enumerated(lat, r_max, **kwargs):
        out = points_in_ball(lat, r_max, **kwargs)
        calls.append((r_max, kwargs.get("cone") is not None, out[0].shape[0]))
        return out

    points_in_ball = lattice.points_in_ball
    for mod in (lattice, seminorm, gabor, wavefront):
        if hasattr(mod, "points_in_ball"):
            monkeypatch.setattr(mod, "points_in_ball", enumerated)
    cfg = ScanConfig(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0, r_max=180.0)
    query = WavefrontQuery([0.0, 0.3], [1.0, 0.0], aperture_deg=20.0, r_max=180.0)
    for route, arg in ((df_fl_point, cfg.lattice_pair(2)), (df_mod_point, cfg.gabor_system(2))):
        calls.clear()
        route(line2d, query, arg)
        assert calls == [(128.0, True, 5716)]
    calls.clear()
    scan(line2d, [[0.0, 0.3]], [[1.0, 0.0]], cfg)
    assert calls == [(128.0, False, 51433)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r_max", [1e19, 1e20, 1e300])
def test_point_routes_refuse_a_ball_past_the_int64_range(jump, line2d, r_max):
    # the whole ball's box is refused by its cell count before any bound is
    # cast to integers: no cast warning, no bogus points or shell counts
    line_cfg = ScanConfig(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0)
    for f, x0, cfg in ((jump, [0.25], ScanConfig()), (line2d, [0.0, 0.3], line_cfg)):
        query = WavefrontQuery(x0, [1.0] + [0.0] * (f.d - 1), r_max=r_max)
        for route, arg in ((df_fl_point, cfg.lattice_pair(f.d)),
                           (df_mod_point, cfg.gabor_system(f.d))):
            with pytest.raises(BudgetExceeded, match="candidate cells, budget is"):
                route(f, query, arg)


def test_point_verdicts_transform_no_point_past_the_last_shell(jump, line2d, monkeypatch):
    # Both routes' transforms run through the analysis core; no point
    # verdict, scan or detector prediction hands it a point with |xi| above
    # the last full shell edge.
    reached = []

    def watched(f, ball, *args, **kwargs):
        reached.append(float(np.max(ball.radii, initial=0.0)))
        return analysis(f, ball, *args, **kwargs)

    analysis = signal._analysis
    monkeypatch.setattr(signal, "_analysis", watched)
    monkeypatch.setattr(gabor, "_analysis", watched)
    line_cfg = ScanConfig(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0, r_max=180.0)
    # the last full shell edges are 512 of 716.8 (1D) and 128 of 180 (2D)
    cases = ((jump, [0.0], [1.0], ScanConfig(), 512.0),
             (line2d, [0.0, 0.3], [1.0, 1.0], line_cfg, 128.0))
    for f, x0, direction, cfg, last in cases:
        r_max = cfg.r_max or default_r_max(f)
        assert whole_ball(cfg.lattice_pair(f.d).lambda2, r_max).boundaries[-1] == last < r_max
        for aperture in (20.0, 80.0):
            query = WavefrontQuery(x0, direction, aperture_deg=aperture, r_max=cfg.r_max)
            reached.clear()
            df_fl_point(f, query, cfg.lattice_pair(f.d))
            df_mod_point(f, query, cfg.gabor_system(f.d))
            assert len(reached) == 2 and max(reached) <= last
        reached.clear()
        scan(f, [x0], [direction], cfg)
        assert len(reached) == 2 and max(reached) == last
    reached.clear()
    WavefrontDetector(method="both").fit(jump).predict([[0.0, 1.0], [3.0, -1.0]])
    assert len(reached) == 4 and max(reached) == 512.0


def test_cone_point_verdicts_refuse_the_band_the_whole_ball_leaves():
    # Axis 2 is sampled 4 times coarser than axis 1, so r_max = 60 leaves
    # its band (0.9 pi / h2 = 45.2) but not axis 1's.  The 20 degree cone
    # along e1 reaches |xi_2| <= 20.6 only; both point routes still refuse
    # as the scan does, quoting the whole ball's largest |xi_i|, which is
    # read off its points nearest the axes, not off the cone's.
    x1 = np.arange(256) / 64 - 2.0
    x2 = np.arange(64) / 16 - 2.0
    samples = (x1[:, None] > 0.1) * np.exp(-(x1[:, None] ** 2 + x2[None, :] ** 2))
    f = GridSignal.from_samples(samples, [-2.0, -2.0], [1 / 64, 1 / 16])
    cfg = ScanConfig(alpha=2.5, beta=1.0, r_max=60.0)
    query = WavefrontQuery([0.0, 0.0], [1.0, 0.0], r_max=60.0)
    pair = cfg.lattice_pair(2)
    points = whole_ball(pair.lambda2, 60.0).ball.points
    cone_points = points[query.cone.contains(points)]
    assert np.max(np.abs(cone_points[:, 1])) < f.nyquist_limit()[1] < 60.0
    rec = scan(f, [[0.0, 0.0]], [[1.0, 0.0]], cfg).records[0]
    assert rec.error_fl.startswith("FrequencyOutOfRange: ") and rec.error_mod == rec.error_fl
    for route, arg in ((df_fl_point, pair), (df_mod_point, cfg.gabor_system(2))):
        with pytest.raises(FrequencyOutOfRange) as refused:
            route(f, query, arg)
        assert f"FrequencyOutOfRange: {refused.value}" == rec.error_fl


def test_band_refusals_enumerate_no_whole_ball(line2d):
    # r_max = 2000 leaves the line's band (0.9 pi / h = 361.9) on a ball of
    # 12.6 million points; each route refuses with the same text, read off
    # the ball's points nearest the axes, in well under 10 MB (a whole ball
    # took about 1 GB)
    cfg = ScanConfig(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0, r_max=2000.0)
    query = WavefrontQuery([0.0, 0.3], [1.0, 0.0], r_max=2000.0)

    def refusal(route, arg):
        with pytest.raises(FrequencyOutOfRange) as refused:
            route(line2d, query, arg)
        return [f"FrequencyOutOfRange: {refused.value}"]

    def scanned():
        rec = scan(line2d, [[0.0, 0.3]], [[1.0, 0.0]], cfg).records[0]
        return [rec.error_fl, rec.error_mod]

    texts = []
    for run in (lambda: refusal(df_fl_point, cfg.lattice_pair(2)),
                lambda: refusal(df_mod_point, cfg.gabor_system(2)), scanned):
        tracemalloc.start()
        try:
            texts += run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak
    assert len(texts) == 4 and len(set(texts)) == 1
    assert texts[0].startswith("FrequencyOutOfRange: requested |xi| up to [2000. 2000.] "
                               "exceeds the guarded band [361.91147369 361.91147369]")


def test_scan_and_point_routes_agree_outside_domain(jump):
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0),), alpha=1.0, beta=1.0)
    rec = scan(jump, [[9.0]], [[1.0]], cfg).records[0]
    query = WavefrontQuery([9.0], [1.0], p=1.0, q=1.0, weight=1.0)
    routes = (
        (df_fl_point, cfg.lattice_pair(1), rec.error_fl),
        (df_mod_point, build_agp(1.0, 1.0, d=1), rec.error_mod),
    )
    for route, arg, recorded in routes:
        with pytest.raises(DomainClipped) as info:
            route(jump, query, arg)
        assert recorded == f"DomainClipped: {info.value}"


def test_scan_config_rejects_inadmissible_pair(jump):
    cfg = ScanConfig(alpha=4.0, beta=2.0)  # product > 2*pi
    with pytest.raises(ValueError):
        cfg.lattice_pair(1)


def test_scan_config_refuses_an_r_max_that_leaves_no_full_shell(jump):
    # The shells start at r0 = 4 beta, so an r_max at or under 8 beta leaves
    # none.  It is refused when the config is built, with the text of
    # `shell_boundaries`: a scan used to record DomainClipped at an x0 outside
    # the domain and raise at one inside it.
    for beta in (1.0, 0.5):
        for r_max in (8 * beta, beta):
            says = f"r_max = {r_max:g} leaves no full shell above r0 = {4 * beta:g}"
            with pytest.raises(ValueError, match=f"^{says}$"):
                ScanConfig(beta=beta, r_max=r_max)
        cfg = ScanConfig(beta=beta, r_max=8 * beta * (1 + 1e-6), methods=("fl",))
        records = scan(jump, [[9.0], [0.0]], [[1.0]], cfg).records
        assert [r.error_fl.split(":")[0] for r in records] == ["DomainClipped", "TooFewShells"]


def test_scan_and_point_verdict_run_each_x0s_modulation_checks_once(jump, monkeypatch):
    # The row store runs the checks of each distinct x0 once, when it is
    # built, and raises the error they gave in that x0's turn: the records of
    # an x0 that fails them carry the error the point verdict raises.  9 and
    # -8 are not interior to the domain [-8, 8); at epsilon = 1/2 the windows
    # around 6 reach past 8.
    calls = []

    def counted(f, sys0, x0, epsilon):
        calls.append(float(x0[0]))
        return support_rows(f, sys0, x0, epsilon)

    support_rows = wavefront._support_rows
    monkeypatch.setattr(wavefront, "_support_rows", counted)
    cases = (
        (None, [[1.0], [9.0], [0.0], [9.0], [-8.0], [1.0], [0.5]], {9.0: DomainClipped,
                                                                  -8.0: DomainClipped}),
        (0.5, [[6.0], [0.0], [6.0]], {6.0: EpsilonTooLarge}),
    )
    for epsilon, x_grid, failing in cases:
        cfg = ScanConfig(methods=("mod",), epsilon=epsilon)
        calls.clear()
        records = scan(jump, x_grid, [[1.0], [-1.0]], cfg).records
        assert calls == list(dict.fromkeys(x for (x,) in x_grid))
        for x0, error in failing.items():
            calls.clear()
            with pytest.raises(error) as refused:
                df_mod_point(jump, WavefrontQuery([x0], [1.0], epsilon=epsilon),
                             cfg.gabor_system(1))
            assert calls == [x0]
            texts = {r.error_mod for r in records if r.x0 == [x0]}
            assert texts == {f"{error.__name__}: {refused.value}"}
        assert all(r.verdict_mod is not None for r in records if r.x0[0] not in failing)


def test_scan_enumerates_the_ball_once_and_tests_each_cone_once(jump, monkeypatch):
    # Both routes bin on one shell geometry and every coefficient table is
    # built on its ball: the scan enumerates the beta-lattice ball once,
    # inside its last full shell (512 of r_max = 716.8), and tests each
    # direction's cone once.
    calls = {"ball": 0, "cone": 0}
    enumerated = []

    def counted(fn, key):
        def call(*args, **kwargs):
            calls[key] += 1
            if key == "ball":
                enumerated.append((args[1], kwargs))
            return fn(*args, **kwargs)
        return call

    for mod in (lattice, seminorm, gabor, wavefront):
        if hasattr(mod, "points_in_ball"):
            monkeypatch.setattr(mod, "points_in_ball", counted(mod.points_in_ball, "ball"))
    monkeypatch.setattr(Cone, "contains", counted(Cone.contains, "cone"))
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0), (2.0, 1.0, 0.0)))
    # 9 lies outside the domain (no table); 0.5 sits on a cutoff cell face
    # (a table but no windowed spectrum)
    records = scan(jump, [[0.0], [1.0], [9.0], [0.5]], [[1.0], [-1.0]], cfg).records
    with_table = {tuple(r.x0) for r in records if r.verdict_mod is not None}
    assert with_table == {(0.0,), (1.0,), (0.5,)}
    assert calls == {"ball": 1, "cone": 2}
    assert enumerated == [(512.0, {"cone": None})]


def _row_readers(f, x_grid, cfg):
    """Each Gabor row (eps, j) the modulation verdicts at x_grid read, with
    the indices of the x0s that read it, found as a point verdict finds them."""
    sys0 = cfg.gabor_system(f.d)
    readers = {}
    for i, x0 in enumerate(x_grid):
        x0 = np.array(x0, dtype=float)
        eps = cfg.epsilon or wavefront.choose_epsilon(f, sys0, x0)
        for j in gabor.support_index_set(sys0.with_epsilon(eps), x0).tolist():
            readers.setdefault((eps, *j), []).append(i)
    return readers


def test_scan_holds_one_x0s_spectrum_and_table_at_a_time(jump, monkeypatch):
    # A scan works each distinct x0 once, at its first place in x_grid: it
    # builds one windowed spectrum and one Gabor table per distinct x0.  It
    # drops each x0's spectrum and table (with its j-aggregates) before it
    # builds the next x0's, and each Gabor row right after the last distinct
    # x0 that reads it: when a spectrum is built, no earlier spectrum or
    # table is alive; when an x0's table is built, no earlier table is, nor
    # any row whose readers are all earlier; after it, the store holds only
    # rows a later x0 reads.
    x_grid = [[1.0], [0.0], [3.0], [0.25], [1.0], [0.0]]
    distinct = [[1.0], [0.0], [3.0], [0.25]]
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0), (2.0, 1.0, 0.0)))
    last = {key: max(i) for key, i in _row_readers(jump, distinct, cfg).items()}
    spectra, tables, rows = [], [], {}

    def spectrum(*args, **kwargs):
        assert all(ref() is None for ref in spectra + tables)
        out = samples(*args, **kwargs)
        spectra.append(weakref.ref(out))
        return out

    def table(store, i, ball):
        assert all(ref() is None for ref in tables)
        assert all(ref() is None for key, ref in rows.items() if last[key] < i)
        geometry, out = store_table(store, i, ball)
        assert all(last[key] > i for key in store.held)
        rows.update((key, weakref.ref(mags)) for key, (mags, _) in store.held.items())
        tables.append(weakref.ref(out))
        return geometry, out

    samples, store_table = wavefront.lattice_samples, wavefront._RowStore.table
    monkeypatch.setattr(wavefront, "lattice_samples", spectrum)
    monkeypatch.setattr(wavefront._RowStore, "table", table)
    records = scan(jump, x_grid, [[1.0], [-1.0]], cfg).records
    assert len(spectra) == len(tables) == len(distinct)
    assert rows and all(ref() is None for ref in rows.values())
    assert [r.x0 for r in records] == [x0 for x0 in x_grid for _ in range(4)]
    assert all(r.verdict_fl is not None and r.verdict_mod is not None for r in records)


def test_scan_of_a_grid_listed_twice_peaks_as_the_grid_listed_once(line2d):
    # Each distinct x0 is worked once, at its first place in x_grid, so the
    # second pass over a grid listed twice builds no stage and holds no row:
    # the traced peak stays that of one pass.
    cfg = ScanConfig(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0, r_max=180.0,
                     methods=("mod",))
    grid = [[a, b] for a in (-1.0, -0.5, 0.0, 0.5, 1.0) for b in (-1.0, 0.0, 1.0)]
    scan(line2d, grid[:1], [[1.0, 0.0]], cfg)
    peaks = []
    for x_grid in (grid, grid + grid):
        tracemalloc.start()
        try:
            records = scan(line2d, x_grid, [[1.0, 0.0]], cfg).records
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(records) == len(x_grid)
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_scan_config_refuses_an_empty_pqs():
    # a scan under no (p, q, s) would build every x0's stages for no record;
    # flat settings still default to their one triple
    with pytest.raises(ValueError, match=r"pqs must list at least one \(p, q, s\) triple"):
        ScanConfig(pqs=())
    assert ScanConfig.from_settings(1.0, 2.0, 0.5, pqs=()).pqs == ((1.0, 2.0, 0.5),)


def _nonempty(f, sys0, keys):
    """The rows (eps, j) among `keys` whose window box holds a sample of the
    support of f, in order."""
    out = []
    for eps, *j in keys:
        window, centre = sys0.psi.scaled(eps), eps * sys0.x_point([j])
        a, b = signal._index_box(window.lo + centre, window.hi + centre, f.origin,
                                 f.spacing, *zip(*f.support))
        if np.all(b > a):
            out.append((eps, *j))
    return out


@pytest.mark.parametrize("case", ["jump, repeated and out of order", "complex jump", "line"])
def test_scan_transforms_each_nonempty_gabor_row_once(case, jump, line2d, monkeypatch):
    # A scan transforms each distinct Gabor row (eps, j) its x0s read once,
    # and none whose window box misses the signal support: such a row is 0.
    # `signal._analysis` samples the window on exactly the rows it
    # transforms.  A complex signal's rows cover the whole ball.  On the line
    # (supported in x1 >= 0), every window at x0 = (-2, 0) lies in x1 < 0,
    # so that x0 transforms no row.
    rows, widths = [], []

    def sampled(window, shifts, *args):
        js = np.rint(shifts / (window.scale * sys0.alpha)).astype(int).tolist()
        rows.extend((window.scale, *j) for j in js)
        return window_batch(window, shifts, *args)

    def analysis(f, ball, *args):
        values, floors = core(f, ball, *args)
        widths.append(values.shape[1] == whole)
        return values, floors

    window_batch, core = signal._window_batch, signal._analysis
    monkeypatch.setattr(signal, "_window_batch", sampled)
    monkeypatch.setattr(gabor, "_analysis", analysis)
    if case == "line":
        f, cfg = line2d, ScanConfig(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0,
                                    r_max=180.0, methods=("mod",))
        x_grid = [[0.0, 0.0], [0.0, 0.5], [0.0, -0.5], [2.0, 0.0], [-2.0, 0.0]]
    else:
        f, cfg = jump, ScanConfig(methods=("mod",))
        if case == "complex jump":
            f = GridSignal.from_samples((1 + 2j) * jump.samples, jump.origin, jump.spacing)
        x_grid = [[1.0], [0.0], [-1.0], [3.0], [0.0], [0.25], [1.0], [-5.0]]
    sys0 = cfg.gabor_system(f.d)
    whole = wavefront._frequencies(f, sys0.lambda2, cfg.r_max).ball.points.shape[0]
    scan(f, x_grid, [[1.0] + [0.0] * (f.d - 1)], cfg)
    readers = _row_readers(f, x_grid, cfg)
    assert sorted(rows) == sorted(_nonempty(f, sys0, readers))
    assert widths and all(widths) == (case == "complex jump")
    if case == "line":
        assert len(rows) < len(readers)
        rows.clear()
        scan(f, [[-2.0, 0.0]], [[1.0, 0.0]], cfg)
        assert rows == []


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    shifted=st.booleans(),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
def test_property_row_store_matches_per_x0_tables(d, real, seed, shifted, picks):
    # The scan's row store builds each row once, in the batches its x0s
    # first need, where a point verdict builds its x0's rows in one table:
    # every record keeps its kinds, codes and errors, floats within 1e-9.
    # The x0s repeat and come in any order; nearer the domain's edges they
    # take smaller epsilons, and on the domain [0, 2L)^d rows of different
    # epsilons share their j.  At half the small settings' gabor_alpha an x0
    # reads 2 to 6 rows, some of them built for another x0.
    f = _small_signal(d, real, seed)
    _, half, cfg = _SMALL[d]
    if shifted:
        f = GridSignal.from_samples(f.samples, f.origin + half, f.spacing)
    cfg = dataclasses.replace(cfg, pqs=_ROUTE_PQS[:3], methods=("mod",),
                              gabor_alpha=cfg.gabor_alpha / 2)
    at = [f.origin[0] + 2 * half * t for t in (0.2, 0.4, 0.5, 0.55, 0.7, 0.9)]
    x_grid = [[at[k]] + [at[(k + 2) % 6]] * (d - 1) for k in picks]
    directions = [[1.0] + [0.0] * (d - 1), [-1.0] + [0.5] * (d - 1)]
    together = scan(f, x_grid, directions, cfg).records
    alone = [r for x0 in x_grid for r in scan(f, [x0], directions, cfg).records]
    assert len(together) == len(alone)
    for i, (got, want) in enumerate(zip(together, alone)):
        why = _mismatch(got.to_json(), want.to_json(), f"record {i}")
        assert why is None, why


def test_verdict_path_never_builds_the_whole_table(jump, monkeypatch):
    # A real signal's table holds only its columns xi_d >= 0 and every verdict
    # reads them as they are stored: building the complete table fails here.
    def refuse(table):
        raise AssertionError("a verdict built the complete coefficient table")

    tables = []

    def kept(*args, **kwargs):
        tables.append(gabor.coefficients(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(gabor.CoefficientTable, "whole", refuse)
    monkeypatch.setattr(wavefront, "coefficients", kept)
    line = line_singularity_2d(n=512)
    cfg_line = ScanConfig(pqs=((2.0, 1.0, 0.0), (math.inf, math.inf, 1.0)), alpha=2.5,
                          beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0, r_max=90.0)
    cases = (
        (jump, [0.0], [1.0], ScanConfig(pqs=((1.0, 1.0, 1.0), (2.0, 2.0, 0.0)))),
        (line, [0.0, 0.5], [0.0, 1.0], cfg_line),
    )
    for f, x0, theta, cfg in cases:
        assert all(r.verdict_mod is not None for r in scan(f, [x0], [theta], cfg).records)
        for p, q, s in cfg.pqs:
            query = WavefrontQuery(x0, theta, p=p, q=q, weight=s, r_max=cfg.r_max)
            df_mod_point(f, query, cfg.gabor_system(f.d))
    detector = WavefrontDetector(q=1.0, p=2.0, s=1.0, method="mod").fit(jump)
    assert detector.predict([[0.0, 1.0], [3.0, -1.0]]).tolist() == [1, 0]
    assert len(tables) == 2 + 2 * 2 + 2
    for table in tables:
        assert table.values.shape[1] == np.count_nonzero(table.ball.ks[:, -1] >= 0)

    # a complex signal's table holds every column of its ball
    complex_line = GridSignal.from_samples((1 + 1j) * line.samples, line.origin, line.spacing)
    table = gabor.coefficients(complex_line, cfg_line.gabor_system(2), 20.0)
    assert table.values.shape[1] == table.ball.points.shape[0]


def test_scan_fails_in_the_point_routes_order(jump):
    # Each x0's own checks come before the ball is enumerated: x0 = 9 fails
    # as outside the domain, though a ball of radius 2e8 is over the cell
    # budget, which x0 = 0 then meets on both routes.
    cfg = ScanConfig(r_max=2e8)
    outside, inside = scan(jump, [[9.0], [0.0]], [[1.0]], cfg).records
    routes = ((df_fl_point, cfg.lattice_pair(1)), (df_mod_point, cfg.gabor_system(1)))
    for rec, error in ((outside, DomainClipped), (inside, BudgetExceeded)):
        query = WavefrontQuery(rec.x0, [1.0], r_max=2e8)
        for (route, arg), recorded in zip(routes, (rec.error_fl, rec.error_mod)):
            with pytest.raises(error) as info:
                route(jump, query, arg)
            assert recorded == f"{error.__name__}: {info.value}"


@pytest.fixture(scope="module")
def route_scans(jump):
    """Each _ROUTE_SCANS case's signal and its scan records as JSON."""
    out = {}
    for case, (x_grid, directions, cfg) in _ROUTE_SCANS.items():
        f = jump if case == "jump_1d" else line_singularity_2d(n=512)
        out[case] = f, _records_json(scan(f, x_grid, directions, cfg))
    return out


def _records_json(estimate):
    return json.dumps([r.to_json() for r in estimate.records], sort_keys=True)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_ROUTE_SCANS)), st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_property_power_of_two_direction_scaling_keeps_scan_records(route_scans, case, ks):
    # 2^k v normalizes to exactly v / |v|, so the scan's cone cache must
    # serve the scaled directions with the very records of the unscaled ones
    x_grid, directions, cfg = _ROUTE_SCANS[case]
    f, expected = route_scans[case]
    scaled = [[2.0**k * c for c in v] for v, k in zip(directions, ks)]
    assert _records_json(scan(f, x_grid, scaled, cfg)) == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=6, max_size=6))
@example([3.0, 0.1, 7.3, 1e3, 1 / 3, 1e-3])
def test_property_positive_direction_scaling_keeps_scan_records(route_scans, factors):
    # c v normalizes to v / |v| up to round-off for any c > 0, so every
    # record keeps its kinds, codes and errors, and tau moves by round-off
    x_grid, directions, cfg = _ROUTE_SCANS["line_2d"]
    f, expected = route_scans["line_2d"]
    scaled = [[c * x for x in v] for v, c in zip(directions, factors)]
    got = json.loads(_records_json(scan(f, x_grid, scaled, cfg)))
    expected = json.loads(expected)
    assert len(got) == len(expected)
    same = ("x0", "p", "q", "s", "error_fl", "error_mod")
    for a, b in zip(got, expected):
        assert [a[k] for k in same] == [b[k] for k in same]
        assert np.allclose(a["theta"], b["theta"], rtol=0.0, atol=1e-12)
        for m in ("fl", "mod"):
            assert (a[m]["kind"], a[m]["code"]) == (b[m]["kind"], b[m]["code"])
            assert abs(a[m]["tau"] - b[m]["tau"]) <= 1e-9
