"""The four workloads: seeded inputs, the timed operations and their checks.

`build(name, seed)` imports microloc, makes every input of the workload from
the seed and returns a `Workload`, whose `ops` are run in order, as whole
rounds.  An op's `run` is the timed call into microloc; its `judge` is
called untimed on the result and says whether the op failed, how many
results it returned, and a fingerprint that must repeat in every round.

Seeded points keep away from where a route's reach crosses a singularity or
a cell edge: there the named faults make answers depend on the draw (see
README.md).  Each named fault is asked instead by one fixed probe op per
workload, the same whatever the seed, so it is counted as failed in every
round until it is mended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

STANDARD_PQS = (
    (1.0, 1.0, 1.0),
    (2.0, 2.0, 1.0),
    (2.0, 1.0, 0.0),
    (1.0, 2.0, 1.0),
    (2.0, 2.0, 0.0),
)
_DIAG = math.sqrt(0.5)
DIRS_1D = ((1.0,), (-1.0,))
DIRS_2D = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (_DIAG, _DIAG), (-_DIAG, _DIAG))
DETECTOR_DIRS_2D = ((1.0, 0.0), (0.0, 1.0))

# The line fixture is asked on the standard matrix's lattices.
LINE_ALPHA, LINE_GABOR_ALPHA, LINE_GABOR_ALPHA1, LINE_R_MAX = 2.5, 2.0, 5.0, 180.0

# One fixed question per named fault: (fault, fixture, x0, theta, (p, q, s)).
PROBES = (
    ("cutoff_reach", "jump_1d", (0.032,), (1.0,), (1.0, 1.0, 1.0)),
    ("route_reach_mismatch", "jump_1d", (0.4,), (1.0,), (1.0, 1.0, 1.0)),
    ("underresolved_cutoff", "line_singularity_2d", (1.1, 0.2), (0.0, 1.0), (1.0, 1.0, 1.0)),
)


# Seeded points are a seeded cell plus a fixed in-cell offset, so every run
# asks questions of the same cost: a question's cost follows the distance to
# the cell edges (the cutoff's width) and the offset to the Gabor translates,
# not the cell.  Offsets stay 1/4 from the edges of the unit cells.
OFFSETS_1D = (0.0, 0.125, -0.125, 0.25, -0.25)
JUMP_CELLS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)  # off the jump's own cell, inside [-6, 6]
BUMP_CELLS = (-1, 0, 1)  # inside the bump's support [-2, 2]
# 2D points sit on (Z/2)^2, 3/4 from the cell edges x = +-5/4 and at least
# 2 from the line when off it: every one has the same cutoff and translates.
LINE_ON = ((0.0, -2.0), (0.0, -0.5), (0.0, 0.5), (0.0, 2.0))
LINE_OFF = tuple((x1, x2) for x1 in (-2.0, 2.0) for x2 in (-2.0, -0.5, 0.0, 0.5, 2.0))


def _smooth_1d(rng, cells, offset):
    return (float(_pick(rng, cells)) + offset,)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    judge: Callable[[object], tuple]  # -> (failure reason or None, n_results, fingerprint)
    fault: str | None = None  # the named fault a probe op asks about


@dataclass
class Workload:
    name: str
    ops: list
    static_problems: Callable[[], list] = field(default=lambda: [])
    composition: dict = field(default_factory=dict)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _kind(answer):
    return answer if isinstance(answer, BaseException) else answer.kind


def _tag(answer):
    return type(answer).__name__ if isinstance(answer, BaseException) else answer


def _record_answers(rec):
    """The two routes' verdict kinds of a WavefrontRecord, or their errors."""
    return tuple(
        v.kind if v is not None else RuntimeError(err)
        for v, err in ((rec.verdict_fl, rec.error_fl), (rec.verdict_mod, rec.error_mod))
    )


# ---------------------------------------------------------------------------
# scan_matrix
# ---------------------------------------------------------------------------


def _scan_matrix(ml, seed):
    fx = ml.fixtures
    cfg1 = ml.ScanConfig(pqs=STANDARD_PQS, alpha=1.0, beta=1.0)
    cfg2 = ml.ScanConfig(
        pqs=STANDARD_PQS, alpha=LINE_ALPHA, beta=1.0, gabor_alpha=LINE_GABOR_ALPHA,
        gabor_alpha1=LINE_GABOR_ALPHA1, r_max=LINE_R_MAX,
    )
    scans = [
        ("jump_1d", fx.jump_1d(), [[0.0], [1.0], [-1.0], [2.0], [-2.0], [3.0]],
         [list(t) for t in DIRS_1D], cfg1),
        ("smooth_bump_1d", fx.smooth_bump_1d(), [[0.0], [1.2], [-1.2]],
         [list(t) for t in DIRS_1D], cfg1),
        ("line_singularity_2d", fx.line_singularity_2d(),
         [[0.0, 0.0], [0.0, 0.5], [0.0, -0.5], [2.0, 0.0], [-2.0, 0.0]],
         [list(t) for t in DIRS_2D], cfg2),
    ]
    n_records = sum(len(x) * len(d) * len(STANDARD_PQS) for _, _, x, d, _ in scans)

    def run():
        return [ml.scan(f, xs, dirs, cfg) for _, f, xs, dirs, cfg in scans]

    def judge(estimates):
        reasons = []
        kinds = []
        for (fixture, *_), est in zip(scans, estimates):
            for rec in est.records:
                fl, mod = _record_answers(rec)
                want = oracle.expected_kind(fixture, rec.x0, rec.theta, rec.q, rec.s)
                why = oracle.judge(want, fl, mod)
                if why:
                    reasons.append(why)
                kinds.append((_tag(fl), _tag(mod)))
        if len(kinds) != n_records:
            raise ValueError(f"scan returned {len(kinds)} records, expected {n_records}")
        reason = ",".join(sorted(set(reasons))) or None
        return reason, 2 * len(kinds), tuple(kinds)

    ops = [Op("standard equivalence matrix", run, judge)]
    return Workload("scan_matrix", ops, composition={
        "records": n_records, "verdicts": 2 * n_records,
        "note": "seed-independent: the matrix selftest builds"})


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------


def _point_setting(ml):
    fx = ml.fixtures
    pair1 = ml.ScanConfig(alpha=1.0, beta=1.0).lattice_pair(1)
    sys1 = ml.build_agp(1.0, 1.0, 1)
    return {
        "jump_1d": (fx.jump_1d(), pair1, sys1, None),
        "smooth_bump_1d": (fx.smooth_bump_1d(), pair1, sys1, None),
        "line_singularity_2d": (
            fx.line_singularity_2d(),
            ml.ScanConfig(alpha=LINE_ALPHA, beta=1.0).lattice_pair(2),
            ml.build_agp(LINE_GABOR_ALPHA, 1.0, 2, alpha1=LINE_GABOR_ALPHA1),
            LINE_R_MAX,
        ),
    }


def _question_op(ml, setting, fixture, x0, theta, pqs, fault=None):
    f, pair, gsys, r_max = setting[fixture]
    p, q, s = pqs
    query = ml.WavefrontQuery(list(x0), list(theta), q=q, p=p, weight=s, r_max=r_max)
    want = oracle.expected_kind(fixture, x0, theta, q, s)

    def run():
        answers = []
        for route, arg in ((ml.df_fl_point, pair), (ml.df_mod_point, gsys)):
            try:
                answers.append(route(f, query, arg))
            except Exception as exc:  # a raised route is a failed question, not a crash
                answers.append(exc)
        return answers

    def judge(answers):
        fl, mod = (_kind(a) for a in answers)
        return oracle.judge(want, fl, mod), 2, (_tag(fl), _tag(mod))

    label = f"{fixture} x0={list(x0)} theta={list(theta)} pqs={pqs}"
    return Op(label, run, judge, fault)


def _point_queries(ml, seed):
    rng = np.random.default_rng(seed)
    setting = _point_setting(ml)
    questions = [("jump_1d", (0.0,)) for _ in range(4)]
    questions += [("jump_1d", _smooth_1d(rng, JUMP_CELLS, u)) for u in OFFSETS_1D]
    questions += [("smooth_bump_1d", _smooth_1d(rng, BUMP_CELLS, u))
                  for u in OFFSETS_1D + OFFSETS_1D[:4]]
    questions += [("line_singularity_2d", _pick(rng, LINE_ON)) for _ in range(3)]
    questions += [("line_singularity_2d", _pick(rng, LINE_OFF)) for _ in range(3)]
    ops = []
    for i in rng.permutation(len(questions)):
        fixture, x0 = questions[i]
        theta = _pick(rng, DIRS_1D if len(x0) == 1 else DIRS_2D)
        ops.append(_question_op(ml, setting, fixture, x0, theta, _pick(rng, STANDARD_PQS)))
    for fault, fixture, x0, theta, pqs in PROBES:
        ops.append(_question_op(ml, setting, fixture, x0, theta, pqs, fault))
    return Workload("point_queries", ops, composition={
        "seeded_questions": len(questions), "probe_questions": len(PROBES),
        "two_d": sum(len(x0) == 2 for _, x0 in questions) + 1})


# ---------------------------------------------------------------------------
# detector_batch
# ---------------------------------------------------------------------------


def _predict_op(det, fixture, rows, fault=None):
    X = np.asarray(rows, dtype=float)
    d = det.signal_.d
    p, q, s = float(det.p), float(det.q), float(det.s)
    asked_again: dict = {}

    def run():
        return det.predict(X)

    def routes(i):
        if i not in asked_again:
            asked_again[i] = _record_answers(det.predict_records(X[i:i + 1]).records[0])
        return asked_again[i]

    def judge(codes):
        codes = np.asarray(codes)
        if codes.shape != (X.shape[0],) or not np.isin(codes, (-1, 0, 1)).all():
            raise ValueError(f"predict returned {codes!r} for {X.shape[0]} rows")
        reasons = []
        kind_of = {1: oracle.DIVERGENT, 0: oracle.FINITE}
        for i, (row, code) in enumerate(zip(X, codes)):
            want = oracle.expected_kind(fixture, row[:d], row[d:], q, s)
            if code >= 0:
                fl = mod = kind_of[int(code)]
            else:  # tell an inconclusive verdict from a disagreement or an error,
                # asked once per row: the determinism check covers the codes
                fl, mod = routes(i)
            why = oracle.judge(want, fl, mod)
            if why:
                reasons.append(why)
        return ",".join(sorted(set(reasons))) or None, X.shape[0], tuple(int(c) for c in codes)

    label = f"{fixture} pqs={(p, q, s)} rows={X.tolist()}"
    return Op(label, run, judge, fault)


def _detector_batch(ml, seed):
    rng = np.random.default_rng(seed)
    fx = ml.fixtures
    jump, line = fx.jump_1d(), fx.line_singularity_2d()

    def detector(f, pqs, alpha, r_max):
        p, q, s = pqs
        return ml.WavefrontDetector(q=q, p=p, s=s, alpha=alpha, beta=1.0, r_max=r_max,
                                    method="both").fit(f)

    jump_dets = {pqs: detector(jump, pqs, 1.0, None) for pqs in STANDARD_PQS}
    line_dets = {pqs: detector(line, pqs, LINE_ALPHA, LINE_R_MAX) for pqs in STANDARD_PQS}
    ops = []
    for i, pqs in enumerate(STANDARD_PQS):
        (x,) = _smooth_1d(rng, JUMP_CELLS, OFFSETS_1D[i])
        rows = [[x0, th] for x0 in (0.0, x) for (th,) in DIRS_1D]
        ops.append(_predict_op(jump_dets[pqs], "jump_1d", rows))
        x0 = _pick(rng, LINE_ON if i % 2 == 0 else LINE_OFF)
        rows = [list(x0) + list(th) for th in DETECTOR_DIRS_2D]
        ops.append(_predict_op(line_dets[pqs], "line_singularity_2d", rows))
    for fault, fixture, x0, theta, pqs in PROBES:
        det = (jump_dets if fixture == "jump_1d" else line_dets)[pqs]
        ops.append(_predict_op(det, fixture, [list(x0) + list(theta)], fault))
    return Workload("detector_batch", ops, composition={
        "seeded_predicts": 2 * len(STANDARD_PQS), "probe_predicts": len(PROBES),
        "rows_per_jump_predict": 4, "rows_per_line_predict": len(DETECTOR_DIRS_2D)})


# ---------------------------------------------------------------------------
# gabor_roundtrip
# ---------------------------------------------------------------------------

ROUNDTRIP_TOL = 1e-6
PARTITION_TOL = 1e-10
_BANDWIDTH = 8.0


def roundtrip_radius(bandwidth: float, eps: float, alpha1: float) -> float:
    """Frequency radius at which coefficient tails cost < 1e-6 in relative L2
    (the calibration the acceptance suite uses)."""
    return bandwidth + max(320.0 / (eps * alpha1), 170.0)


# (alpha, beta) cell centres of the admissible box alpha in [0.6, 1.6],
# beta in [0.8, 2.4] (alpha * beta < 2 pi holds throughout).  A trip's cost
# and memory follow alpha and beta, so the seed only jitters each centre.
GABOR_ALPHAS = (0.75, 1.1, 1.45)
GABOR_BETAS = (0.95, 1.6, 2.25)
GABOR_JITTER = 0.02


def _gabor_roundtrip(ml, seed):
    rng = np.random.default_rng(seed)
    systems = []
    for a in GABOR_ALPHAS:
        for b in GABOR_BETAS:
            alpha, beta = a + rng.uniform(-1, 1) * GABOR_JITTER, b + rng.uniform(-1, 1) * GABOR_JITTER
            systems.append(ml.build_agp(alpha, beta, d=1))
    signal_seeds = rng.integers(2**31, size=len(systems))
    dilated = []
    ops = []
    for gsys, signal_seed in zip(systems, signal_seeds):
        f = ml.fixtures.random_band_limited(n=8192, bandwidth=_BANDWIDTH, seed=int(signal_seed))
        for eps in (1.0, 0.5, 0.25):
            se = gsys.with_epsilon(eps)
            dilated.append(se)
            radius = roundtrip_radius(_BANDWIDTH, eps, se.alpha1)

            def run(f=f, se=se, radius=radius):
                return ml.reconstruct(ml.coefficients(f, se, radius), se, f)

            def judge(rec, f=f):
                err = oracle.roundtrip_rel_l2(f.samples, rec.samples)
                return ("roundtrip_error" if err > ROUNDTRIP_TOL else None), 1, err <= ROUNDTRIP_TOL

            label = f"alpha={se.alpha:.4f} beta={se.beta:.4f} eps={eps}"
            ops.append(Op(label, run, judge))

    def static_problems():
        out = []
        for se in dilated:
            dev = oracle.partition_deviation(se.phi, se.psi, se.alpha, se.beta, se.epsilon)
            if not dev <= PARTITION_TOL:
                out.append(f"partition deviation {dev:.3g} for alpha={se.alpha} "
                           f"beta={se.beta} eps={se.epsilon}")
        return out

    return Workload("gabor_roundtrip", ops, static_problems, composition={
        "systems": len(systems), "epsilons": [1.0, 0.5, 0.25], "signals": len(systems)})


BUILDERS = {
    "scan_matrix": _scan_matrix,
    "point_queries": _point_queries,
    "detector_batch": _detector_batch,
    "gabor_roundtrip": _gabor_roundtrip,
}


def build(name: str, seed: int) -> Workload:
    import microloc
    import microloc.fixtures  # noqa: F401  (binds microloc.fixtures)

    return BUILDERS[name](microloc, seed)
