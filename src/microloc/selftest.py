"""Acceptance suites runnable from the CLI (`selftest`) and from pytest.

Each suite checks one package-level guarantee at a fixed tolerance and
returns a SuiteResult; `run_selftest` drives any subset.  Everything is
seeded and generated in-process, so a fresh checkout needs no data files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fixtures
from .gabor import build_agp, check_partition, coefficients, discrete_mod_norm, reconstruct
from .geometry import Cone, Weight
from .lattice import scaled_integer_lattice
from .seminorm import classify, lattice_samples, quadrature_spectrum, series_from_spectrum
from .signal import fourier_at, make_cutoff, multiply
from .wavefront import ScanConfig, _fl_stage, _frequencies, check_equivalence, scan

_TWO_PI = 2.0 * math.pi


@dataclass
class SuiteResult:
    name: str
    passed: bool
    duration_s: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "duration_s": round(self.duration_s, 3),
            "details": self.details,
        }


def _result(name: str, t0: float, passed: bool, **details) -> SuiteResult:
    return SuiteResult(name, bool(passed), time.time() - t0, details)


# ---------------------------------------------------------------------------
# Criterion: Fourier oracle
# ---------------------------------------------------------------------------


def suite_fourier_oracle() -> SuiteResult:
    """Sampled triangle vs closed form at 50 frequencies; Gaussian fixed point."""
    t0 = time.time()
    tri = fixtures.triangle_1d()
    freqs = np.linspace(-300.0, 300.0, 50)
    freqs[np.abs(freqs) < 0.25] = 0.5
    worst_tri = 0.0
    for xi in freqs:
        got = fourier_at(tri, [xi])
        want = _TWO_PI ** -0.5 * np.sinc(xi / (2 * np.pi)) ** 2
        worst_tri = max(worst_tri, abs(got - want))
    gauss = fixtures.truncated_gaussian_1d()
    worst_gauss = 0.0
    for xi in (0.25, 0.5, 1.0, 2.0, 5.0):
        got = fourier_at(gauss, [xi])
        worst_gauss = max(worst_gauss, abs(got - math.exp(-0.5 * xi * xi)))
    passed = worst_tri <= 1e-6 and worst_gauss <= 1e-8
    return _result(
        "fourier_oracle", t0, passed,
        triangle_max_err=worst_tri, gaussian_max_err=worst_gauss,
        tolerances={"triangle": 1e-6, "gaussian": 1e-8},
    )


# ---------------------------------------------------------------------------
# Criterion: Gabor duality
# ---------------------------------------------------------------------------


_ROUNDTRIP_EPSILONS = (1.0, 0.5, 0.25)


def _roundtrip_radius(bandwidth: float, eps: float, alpha1: float) -> float:
    # Calibrated so coefficient tails cost < 1e-6 in relative L2.
    return bandwidth + max(320.0 / (eps * alpha1), 170.0)


def worst_roundtrip(sys0, signals, bandwidth: float) -> float:
    """The worst relative L2 error of analysis then synthesis over the
    signals, band-limited to `bandwidth`, at every epsilon in {1, 1/2, 1/4}
    of the Gabor system sys0."""
    worst = 0.0
    for eps in _ROUNDTRIP_EPSILONS:
        se = sys0.with_epsilon(eps)
        radius = _roundtrip_radius(bandwidth, eps, se.alpha1)
        for f in signals:
            rec = reconstruct(coefficients(f, se, radius), se, f)
            num = np.linalg.norm(rec.samples - f.samples)
            worst = max(worst, float(num / np.linalg.norm(f.samples)))
    return worst


def suite_gabor_duality() -> SuiteResult:
    """Partition identity and analysis/synthesis round trips.

    10 random admissible (alpha, beta), epsilon in {1, 1/2, 1/4}, 20
    effectively band-limited random signals per configuration; partition
    deviation <= 1e-10 and relative L2 round-trip error <= 1e-6.
    """
    t0 = time.time()
    seed = 2024
    rng = np.random.default_rng(seed)
    worst_dev = 0.0
    worst_rel = 0.0
    n_trips = 0
    signals = [
        fixtures.random_band_limited(n=8192, bandwidth=8.0, seed=seed + 17 * i)
        for i in range(20)
    ]
    for _ in range(10):
        while True:
            alpha = rng.uniform(0.6, 1.6)
            beta = rng.uniform(0.8, 2.4)
            if alpha * beta < 0.85 * _TWO_PI:
                break
        sys0 = build_agp(alpha, beta, d=1)
        worst_dev = max(worst_dev, check_partition(sys0, n=512))
        worst_rel = max(worst_rel, worst_roundtrip(sys0, signals, 8.0))
        n_trips += len(_ROUNDTRIP_EPSILONS) * len(signals)
    passed = worst_dev <= 1e-10 and worst_rel <= 1e-6
    return _result(
        "gabor_duality", t0, passed,
        n_round_trips=n_trips, worst_partition_deviation=worst_dev,
        worst_roundtrip_rel_l2=worst_rel,
        tolerances={"partition": 1e-10, "roundtrip": 1e-6},
    )


# ---------------------------------------------------------------------------
# Criterion: discrete vs continuous cross-check
# ---------------------------------------------------------------------------


def _crosscheck_cases():
    """(signal, lambda2, r_max, density, cone pairs, (q, s) list) rows.

    Every signal is supported inside one cell of the 6Z^d - 3 spatial
    lattice, as the discrete-to-continuous direction requires.
    """
    cones_1d = [
        ([1.0], 10.0, 20.0),
        ([-1.0], 15.0, 30.0),
        ([1.0], 20.0, 45.0),
    ]
    cones_2d = [
        ([1.0, 0.0], 15.0, 30.0),
        ([0.0, 1.0], 10.0, 25.0),
        ([0.7071, 0.7071], 20.0, 40.0),
    ]
    qs_jump = [(1.0, 1.0), (1.0, -0.5), (2.0, 1.0), (2.0, -0.2), (math.inf, 1.5)]
    qs_smooth = [(1.0, 1.0), (2.0, 1.0), (math.inf, 1.0)]
    qs_line = [(1.0, 1.5), (2.0, 1.5), (math.inf, 1.5)]
    return [
        ("jump_1d", fixtures.jump_1d_in_cell(), 1, 716.0, 4.0, cones_1d, qs_jump),
        ("bump_1d", fixtures.smooth_bump_1d(), 1, 716.0, 4.0, cones_1d, qs_smooth),
        ("line_2d", fixtures.line_singularity_2d(), 2, 180.0, 2.0, cones_2d, qs_line),
    ]


def suite_continuous_crosscheck() -> SuiteResult:
    """Classification agreement between the lattice series and the
    quadrature oracle, in both implication directions over nested cones,
    plus the cutoff stability check (finite over the outer cone survives a
    smooth cutoff, classified on the inner cone)."""
    t0 = time.time()
    violations = []
    n_checks = 0
    n_conclusive = 0
    for name, f, d, r_max, density, cone_pairs, qs in _crosscheck_cases():
        lam2 = scaled_integer_lattice(1.0, d)
        ball = _frequencies(f, lam2, r_max)
        spec_d = lattice_samples(f, ball)
        spec_c = quadrature_spectrum(f, density, r_max, 4.0)
        chi = make_cutoff(
            (-np.ones(d), np.ones(d)), (-2.0 * np.ones(d), 2.0 * np.ones(d))
        )
        spec_d_cut = lattice_samples(multiply(f, chi), ball)
        for axis, a_in, a_out in cone_pairs:
            c_in = Cone.from_degrees(axis, a_in)
            c_out = Cone.from_degrees(axis, a_out)
            for q, s in qs:
                w = Weight.bracket_power(s)
                vd_out = classify(series_from_spectrum(spec_d, w, q, c_out))
                vd_in = classify(series_from_spectrum(spec_d, w, q, c_in))
                vc_out = classify(series_from_spectrum(spec_c, w, q, c_out))
                vc_in = classify(series_from_spectrum(spec_c, w, q, c_in))
                vd_cut_in = classify(series_from_spectrum(spec_d_cut, w, q, c_in))
                n_checks += 1
                n_conclusive += sum(
                    v.is_conclusive for v in (vd_out, vd_in, vc_out, vc_in)
                )
                row = {"signal": name, "axis": axis, "q": q, "s": s}
                if vc_out.is_finite and vd_in.is_divergent:
                    violations.append({**row, "direction": "continuous->discrete"})
                if vd_out.is_finite and vc_in.is_divergent:
                    violations.append({**row, "direction": "discrete->continuous"})
                if vd_out.is_finite and vd_cut_in.is_divergent:
                    violations.append({**row, "direction": "cutoff stability"})
    return _result(
        "continuous_crosscheck", t0, not violations,
        n_checks=n_checks, n_conclusive_verdicts=n_conclusive, violations=violations,
    )


# ---------------------------------------------------------------------------
# Criterion: analytic ground truth
# ---------------------------------------------------------------------------


def suite_ground_truth() -> SuiteResult:
    """Jump and line-singularity verdicts against the analytic boundary
    s = 1 - 1/q, at offsets +-0.35 and +-0.6 from it; smooth points must
    come out finite for every tested (q, s)."""
    t0 = time.time()
    misses = []
    f = fixtures.jump_1d()
    q_list = [1.0, 2.0, 4.0, math.inf]
    pqs = []
    for q in q_list:
        b = 1.0 if math.isinf(q) else 1.0 - 1.0 / q
        for ds in (-0.6, -0.35, 0.35, 0.6):
            pqs.append((1.0, q, b + ds))
    cfg = ScanConfig(pqs=tuple(pqs), alpha=1.0, beta=1.0, methods=("fl",))
    est = scan(f, [[0.0], [3.0]], [[1.0], [-1.0]], cfg)
    f2 = fixtures.line_singularity_2d()
    cfg2 = ScanConfig(
        pqs=((1.0, 1.0, 1.5), (1.0, 2.0, 1.5)),
        alpha=2.5, beta=1.0, r_max=180.0, methods=("fl",),
    )
    deg10 = (math.cos(math.radians(10)), math.sin(math.radians(10)))
    dirs = [(1.0, 0.0), (-1.0, 0.0), deg10, (0.0, 1.0), (0.7071, 0.7071)]
    est2 = scan(f2, [[0.0, 0.0], [0.0, 0.5], [2.0, 0.0], [-2.0, 0.0]], dirs, cfg2)

    def at_jump(rec):
        b = 1.0 if math.isinf(rec.q) else 1.0 - 1.0 / rec.q
        return abs(rec.x0[0]) < 1e-9 and rec.s > b

    def on_line(rec):
        angle_from_normal = math.degrees(math.acos(min(1.0, abs(rec.theta[0]))))
        return abs(rec.x0[0]) < 1e-9 and angle_from_normal < 20.0

    n_conclusive = 0
    for where, records, divergent, shown in (
        ("jump", est.records, at_jump, ("x0", "q", "s")),
        ("line", est2.records, on_line, ("x0", "theta", "q", "s")),
    ):
        for rec in records:
            v = rec.verdict_fl
            if v is None:
                misses.append({"where": where, "x0": rec.x0, "error": rec.error_fl})
            elif v.is_conclusive:
                n_conclusive += 1
                want = "divergent" if divergent(rec) else "finite"
                if v.kind != want:
                    misses.append({"where": where, **{k: getattr(rec, k) for k in shown},
                                   "got": v.kind, "want": want})
    return _result(
        "ground_truth", t0, not misses,
        n_conclusive=n_conclusive, misses=misses,
    )


# ---------------------------------------------------------------------------
# Criterion: FL / modulation equivalence on the standard matrix
# ---------------------------------------------------------------------------

_STANDARD_PQS = (
    (1.0, 1.0, 1.0),
    (2.0, 2.0, 1.0),
    (2.0, 1.0, 0.0),
    (1.0, 2.0, 1.0),
    (2.0, 2.0, 0.0),
)


@lru_cache(maxsize=1)
def _standard_estimates():
    cfg1 = ScanConfig(pqs=_STANDARD_PQS, alpha=1.0, beta=1.0)
    est_jump = scan(
        fixtures.jump_1d(),
        [[0.0], [1.0], [-1.0], [2.0], [-2.0], [3.0]],
        [[1.0], [-1.0]],
        cfg1,
    )
    est_bump = scan(
        fixtures.smooth_bump_1d(), [[0.0], [1.2], [-1.2]], [[1.0], [-1.0]], cfg1
    )
    cfg2 = ScanConfig(
        pqs=_STANDARD_PQS, alpha=2.5, beta=1.0,
        gabor_alpha=2.0, gabor_alpha1=5.0, r_max=180.0,
    )
    diag = math.sqrt(0.5)
    est_line = scan(
        fixtures.line_singularity_2d(),
        [[0.0, 0.0], [0.0, 0.5], [0.0, -0.5], [2.0, 0.0], [-2.0, 0.0]],
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [diag, diag], [-diag, diag]],
        cfg2,
    )
    return est_jump, est_bump, est_line


def suite_wavefront_equivalence() -> SuiteResult:
    """Zero conclusive disagreements between the two verdict columns over
    the standard >= 200-record matrix."""
    t0 = time.time()
    reports = [check_equivalence(e) for e in _standard_estimates()]
    n_records = sum(r.n_records for r in reports)
    n_compared = sum(r.n_compared for r in reports)
    disagreements = [d for r in reports for d in r.disagreements]
    passed = not disagreements and n_records >= 200 and n_compared > 0
    return _result(
        "wavefront_equivalence", t0, passed,
        n_records=n_records, n_compared=n_compared,
        n_disagreements=len(disagreements), disagreements=disagreements[:20],
    )


# ---------------------------------------------------------------------------
# Criterion: modulation norm equivalence across epsilon
# ---------------------------------------------------------------------------


def suite_norm_equivalence() -> SuiteResult:
    """Discrete modulation norms across epsilon in {1, 1/2, 1/4} stay within
    a single factor C <= 10 on a smooth test set."""
    t0 = time.time()
    seed, bound = 11, 10.0
    sys0 = build_agp(1.0, 1.0, d=1)
    radius = _roundtrip_radius(8.0, 0.25, sys0.alpha1)
    worst = 1.0
    for i in range(5):
        f = fixtures.random_band_limited(n=8192, bandwidth=8.0, seed=seed + i)
        for p, q in ((1.0, 1.0), (2.0, 2.0), (2.0, 1.0)):
            for s in (0.0, 1.0):
                w = Weight.bracket_power(s)
                norms = []
                for eps in (1.0, 0.5, 0.25):
                    table = coefficients(f, sys0.with_epsilon(eps), radius)
                    norms.append(discrete_mod_norm(table, w, p, q))
                ratio = max(norms) / min(norms)
                worst = max(worst, ratio)
    return _result(
        "norm_equivalence", t0, worst <= bound,
        worst_ratio=worst, bound=bound,
    )


# ---------------------------------------------------------------------------
# Criterion: classifier sanity
# ---------------------------------------------------------------------------


def suite_classifier_sanity() -> SuiteResult:
    """Weight-shift law (tau moves by exactly t when s moves by t, within
    0.05) and the inconclusive rate of the standard matrix (<= 10%)."""
    t0 = time.time()
    f = fixtures.jump_1d()
    pair = ScanConfig(alpha=1.0, beta=1.0).lattice_pair(1)
    # the FL verdict path's own stage at x0 = 0 (p is unused on that route)
    series = _fl_stage(f, pair, np.array([0.0]), lambda: _frequencies(f, pair.lambda2, 716.0))
    cone = Cone.from_degrees([1.0], 20.0)
    worst_shift = 0.0
    for q in (1.0, 2.0):
        for s0 in (-0.5, 0.0):
            tau0 = classify(series(Weight.bracket_power(s0), 1.0, q, cone)).tau
            for t_shift in (1.0, 2.0):
                tau1 = classify(series(Weight.bracket_power(s0 + t_shift), 1.0, q, cone)).tau
                worst_shift = max(worst_shift, abs((tau1 - tau0) - t_shift))

    estimates = _standard_estimates()
    n_sides = sum(v is not None for est in estimates for rec in est.records
                  for v in (rec.verdict_fl, rec.verdict_mod))
    n_inconclusive = sum(r.n_inconclusive_fl + r.n_inconclusive_mod
                         for r in map(check_equivalence, estimates))
    rate = n_inconclusive / max(n_sides, 1)
    passed = worst_shift <= 0.05 and rate <= 0.10
    return _result(
        "classifier_sanity", t0, passed,
        worst_weight_shift_error=worst_shift, inconclusive_rate=rate,
        n_verdicts=n_sides,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "fourier_oracle": suite_fourier_oracle,
    "gabor_duality": suite_gabor_duality,
    "continuous_crosscheck": suite_continuous_crosscheck,
    "ground_truth": suite_ground_truth,
    "wavefront_equivalence": suite_wavefront_equivalence,
    "norm_equivalence": suite_norm_equivalence,
    "classifier_sanity": suite_classifier_sanity,
}


def run_selftest(names=None) -> tuple[bool, list[SuiteResult]]:
    """Run the named suites (all by default), printing one line per suite;
    returns (all_passed, results)."""
    chosen = list(SUITES) if names is None else list(names)
    results = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        res = SUITES[name]()
        results.append(res)
        print(f"[{'PASS' if res.passed else 'FAIL'}] {name} ({res.duration_s:.1f}s)")
    return all(r.passed for r in results), results
