import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microloc import (
    BudgetExceeded,
    Cone,
    DomainClipped,
    EpsilonTooLarge,
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
    multiply,
    scan,
)
from microloc import gabor, lattice, seminorm, wavefront
from microloc.fixtures import line_singularity_2d
from microloc.seminorm import Verdict, lattice_ball, lattice_samples, series_from_spectrum
from microloc.wavefront import WavefrontEstimate, WavefrontRecord, cutoff_for, default_r_max


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


def _fl_kind_with_cutoff(f, pair, x0, inner, outer):
    # the FL verdict (q = s = 1, 20 degrees) with chi = 1 on |x - x0| <= inner, 0 beyond outer
    chi = make_cutoff(([x0 - inner], [x0 + inner]), ([x0 - outer], [x0 + outer]))
    r_max, cone = default_r_max(f), Cone.from_degrees([1.0], 20.0)
    spec = lattice_samples(multiply(f, chi), lattice_ball(pair.lambda2, r_max))
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


def test_aperture_monotonicity(jump, unit_pair):
    # finite at 20 degrees must stay finite at every smaller aperture
    sweep = aperture_sweep(
        jump, WavefrontQuery([1.0], [1.0], q=1.0, weight=1.0), unit_pair, (20.0, 10.0, 5.0)
    )
    assert sweep[20.0].kind == "finite"
    assert all(v.kind == "finite" for v in sweep.values())


def test_direction_scale_invariance(jump, unit_pair):
    a = df_fl_point(jump, WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0), unit_pair)
    b = df_fl_point(jump, WavefrontQuery([0.0], [2.0], q=1.0, weight=1.0), unit_pair)
    assert a.kind == b.kind and a.tau == b.tau


def test_cutoff_for_validation(jump, unit_pair):
    with pytest.raises(DomainClipped):
        cutoff_for(jump, unit_pair.lambda1, np.array([0.5]))  # on a cell face
    with pytest.raises(DomainClipped):
        df_fl_point(jump, WavefrontQuery([7.999], [1.0]), unit_pair)
    with pytest.raises(DomainClipped):
        df_fl_point(jump, WavefrontQuery([9.0], [1.0]), unit_pair)


def test_epsilon_too_large(jump):
    sys0 = build_agp(1.0, 1.0, d=1)
    with pytest.raises(EpsilonTooLarge):
        df_mod_point(jump, WavefrontQuery([7.0], [1.0], epsilon=1.0), sys0)


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
    rep = check_equivalence(WavefrontEstimate(records, {}))
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


_DIAG = 0.5**0.5
_ROUTE_PQS = (
    (1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (2.0, 1.0, 0.0), (1.0, 2.0, 1.0), (2.0, 2.0, 0.0),
    (math.inf, math.inf, 1.0),
)
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


def _point_answer(route, f, query, arg):
    try:
        return route(f, query, arg).to_json()
    except MicrolocError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("x0", [[0.0], [3.0]])
def test_scan_and_point_routes_agree(jump, x0):
    # Gabor step twice the cutoff lattice step: both entry points must pick
    # epsilon against the same cell edge.
    cfg = ScanConfig(pqs=((1.0, 1.0, 1.0),), alpha=0.8, beta=1.0, gabor_alpha=1.6)
    rec = scan(jump, [x0], [[1.0]], cfg).records[0]
    query = WavefrontQuery(x0, [1.0], p=1.0, q=1.0, weight=1.0)
    fl = df_fl_point(jump, query, cfg.lattice_pair(1))
    mod = df_mod_point(jump, query, build_agp(1.6, 1.0, d=1))
    assert rec.verdict_fl.to_json() == fl.to_json()
    assert rec.verdict_mod.to_json() == mod.to_json()


@pytest.mark.parametrize("case", sorted(_ROUTE_SCANS))
def test_multi_x0_scan_matches_point_routes(case, jump):
    # A multi-x0 scan shares its shell geometry and j-aggregates across
    # records; every record must still be exactly the point operations' answer.
    f = jump if case == "jump_1d" else line_singularity_2d(n=512)
    x_grid, directions, cfg = _ROUTE_SCANS[case]
    pair, gsys = cfg.lattice_pair(f.d), cfg.gabor_system(f.d)
    records = scan(f, x_grid, directions, cfg).records
    assert len(records) == len(x_grid) * len(directions) * len(_ROUTE_PQS)
    for rec in records:
        query = WavefrontQuery(rec.x0, rec.theta, p=rec.p, q=rec.q, weight=rec.s, r_max=cfg.r_max)
        fl = rec.verdict_fl.to_json() if rec.verdict_fl else rec.error_fl
        mod = rec.verdict_mod.to_json() if rec.verdict_mod else rec.error_mod
        assert fl == _point_answer(df_fl_point, f, query, pair)
        assert mod == _point_answer(df_mod_point, f, query, gsys)


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


def test_scan_enumerates_the_ball_once_and_tests_each_cone_once(jump, monkeypatch):
    # Both routes bin on one shell geometry and every coefficient table is
    # built on its ball: the scan enumerates the beta-lattice ball once and
    # tests each direction's cone once.
    calls = {"ball": 0, "cone": 0}

    def counted(fn, key):
        def call(*args, **kwargs):
            calls[key] += 1
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


def test_verdict_path_never_builds_the_whole_table(jump, monkeypatch):
    # A real signal's table holds only its columns k_d >= 0 and every verdict
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
        assert table.half
        assert table.values.shape[1] == np.count_nonzero(table.ball.ks[:, -1] >= 0)

    # a complex signal's table holds every column of its ball
    complex_line = GridSignal.from_samples((1 + 1j) * line.samples, line.origin, line.spacing)
    table = gabor.coefficients(complex_line, cfg_line.gabor_system(2), 20.0)
    assert not table.half
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
