"""Point verdicts and scans for the discrete wave-front sets.

A query fixes a base point x0, a direction, a cone aperture, exponents and a
weight.  The Fourier-Lebesgue verdict localizes with a smooth cutoff chi
supported inside the spatial-lattice cell containing x0 (chi(x0) = 1) and
classifies the lattice cone series of chi*f.  The modulation verdict
classifies the mixed (p over j, q over k) cone series of Gabor coefficients
restricted to the translates whose supports contain x0.  Divergent means
(x0, direction) belongs to the wave-front set at the queried aperture.

Membership is reported per aperture (default 20 degrees); `aperture_sweep`
refines toward the "every conical neighbourhood" quantifier.  Default radial
cutoff for series is 0.7 / h: beyond that the rectangle-rule spectrum of a
sampled discontinuity is visibly distorted by aliasing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from .errors import DomainClipped, EpsilonTooLarge, MicrolocError
from .gabor import CoefficientTable, GaborSystem, build_agp, coefficients, support_index_set
from .geometry import Cone, Weight
from .lattice import Lattice, LatticePair, classify_pair, parallelepiped_containing, scaled_integer_lattice
from .seminorm import (
    DEFAULT_K_LAST,
    DEFAULT_MARGIN,
    SpectralSamples,
    Verdict,
    classify,
    discrete_mod_series,
    j_aggregate,
    lattice_ball,
    lattice_samples,
    series_from_spectrum,
)
from .signal import BumpWindow, GridSignal, make_cutoff, multiply
from .validation import (
    as_point, check_dilation, check_exponent, check_finite, check_fit_window, check_in_open,
    check_positive, unit_direction,
)

ALIAS_SAFE_FACTOR = 0.7


def default_r_max(f: GridSignal) -> float:
    """Largest shell radius at which sampled discontinuities keep their
    asymptotic spectrum slope (alias distortion below a few percent)."""
    return ALIAS_SAFE_FACTOR / float(np.max(f.spacing))


def _check_settings(aperture_deg, epsilon, r_max, margin, k_last) -> None:
    """Range checks of the settings WavefrontQuery and ScanConfig share."""
    check_in_open(aperture_deg, 0.0, 90.0, "aperture_deg")
    if epsilon is not None:
        check_dilation(epsilon)
    if r_max is not None:
        check_positive(r_max, "r_max")
    check_positive(margin, "margin")
    check_fit_window(k_last)


@dataclass(frozen=True)
class WavefrontQuery:
    """One (point, direction) membership question with its parameters."""

    x0: np.ndarray
    direction: np.ndarray
    aperture_deg: float = 20.0
    q: float = 1.0
    p: float = 1.0
    weight: Weight | float = 0.0
    epsilon: float | None = None
    r_max: float | None = None
    margin: float = DEFAULT_MARGIN
    k_last: int = DEFAULT_K_LAST

    def __post_init__(self):
        object.__setattr__(self, "x0", as_point(self.x0, name="x0"))
        object.__setattr__(self, "direction", unit_direction(self.direction))
        _check_settings(self.aperture_deg, self.epsilon, self.r_max, self.margin, self.k_last)
        object.__setattr__(self, "q", check_exponent(self.q, "q"))
        object.__setattr__(self, "p", check_exponent(self.p, "p"))
        if not isinstance(self.weight, Weight):
            object.__setattr__(self, "weight", Weight.bracket_power(self.weight))

    @property
    def cone(self) -> Cone:
        return Cone.from_degrees(self.direction, self.aperture_deg)

    @property
    def s(self) -> float:
        return self.weight.s


def _interior_distance(x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.min(np.minimum(x0 - lo, hi - x0)))


def cutoff_for(f: GridSignal, lambda1: Lattice, x0: np.ndarray) -> BumpWindow:
    """Smooth (C-infinity) cutoff chi with chi(x0) = 1 supported inside
    (cell of x0) cap X.

    The outer radius is min(0.9 x distance to the boundary of the cell/domain
    intersection, 0.45 x shortest cell edge) and the inner radius a quarter
    of it; the cap keeps the cutoff local so membership reflects the geometry
    near x0 rather than whatever else the cell contains.  Raises DomainClipped
    when no cutoff with a grid-resolvable transition fits.  Callers check
    first that x0 is interior to the signal domain, so that failure reads the
    same on every entry point.
    """
    if not lambda1.is_diagonal:
        raise ValueError("cutoff construction requires an axis-aligned spatial lattice")
    cell = parallelepiped_containing(lambda1, x0)
    d_lo, d_hi = cell.bounding_box()
    x_lo, x_hi = f.domain_box
    lo = np.maximum(d_lo, x_lo)
    hi = np.minimum(d_hi, x_hi)
    dist = _interior_distance(x0, lo, hi)
    if dist <= 0:
        raise DomainClipped(
            f"x0 = {x0.tolist()} sits on the boundary of its cell/domain intersection"
        )
    outer = min(0.9 * dist, 0.45 * lambda1.min_spacing)
    h = float(np.max(f.spacing))
    if outer < 10.0 * h:
        raise DomainClipped(
            f"admissible cutoff radius {outer:.3g} is under 10 grid steps ({h:.3g}); "
            "the cell/domain intersection around x0 is too small"
        )
    inner = 0.25 * outer
    return make_cutoff((x0 - inner, x0 + inner), (x0 - outer, x0 + outer))


def _require_interior(f: GridSignal, x0: np.ndarray) -> None:
    lo, hi = f.domain_box
    if not (np.all(x0 > lo) & np.all(x0 < hi)):
        raise DomainClipped(f"x0 = {x0.tolist()} is not interior to the signal domain")


def choose_epsilon(f: GridSignal, sys: GaborSystem, x0: np.ndarray) -> float:
    """Largest dyadic epsilon whose local window supports fit the constraints.

    Requires eps * (phi support side) <= the Gabor system's own step
    sys.alpha, and every window support containing x0 (reach eps * alpha2
    around x0) inside the signal domain.  Every entry point picks epsilon
    this way, so scans and point verdicts ask the same question.
    """
    lo, hi = f.domain_box
    eps = 1.0
    for _ in range(48):
        reach = eps * sys.alpha2
        if (
            reach <= sys.alpha + 1e-12
            and np.all(x0 - reach >= lo)
            and np.all(x0 + reach <= hi)
        ):
            return eps
        eps *= 0.5
    raise EpsilonTooLarge(
        f"no dyadic epsilon keeps window supports near x0 = {x0.tolist()} inside the domain"
    )


def _validate_epsilon(f: GridSignal, sys: GaborSystem, x0: np.ndarray, eps: float) -> None:
    lo, hi = f.domain_box
    reach = eps * sys.alpha2
    if np.any(x0 - reach < lo) or np.any(x0 + reach > hi):
        raise EpsilonTooLarge(
            f"epsilon = {eps:g} lets window supports around x0 = {x0.tolist()} "
            "stick out of the signal domain"
        )


def _local_spectrum(f: GridSignal, pair: LatticePair, x0: np.ndarray, ball) -> SpectralSamples:
    """|F(chi f)| on the frequency lattice, chi = cutoff_for(...) around x0:
    the per-point work of every Fourier-Lebesgue verdict.  `ball()` returns
    the `lattice_ball` of the frequencies; it is asked for only after the
    cutoff checks, so those fail first."""
    _require_interior(f, x0)
    chi = cutoff_for(f, pair.lambda1, x0)
    return lattice_samples(multiply(f, chi), ball())


def _local_table(
    f: GridSignal, sys: GaborSystem, x0: np.ndarray, epsilon: float | None, ball
) -> CoefficientTable:
    """Coefficients of every translate whose window support holds x0, in one
    table whose rows are J_{x0}(eps) (`support_index_set`), so a j-aggregate
    of the table sums over that set: the per-point work of every modulation
    verdict.  `ball()` returns the `lattice_ball` the table is built on; it
    is asked for only after the checks on x0 and its translates, so those
    fail first."""
    _require_interior(f, x0)
    if epsilon is not None:
        _validate_epsilon(f, sys, x0, epsilon)
    else:
        epsilon = choose_epsilon(f, sys, x0)
    sys_eps = sys.with_epsilon(epsilon)
    js = support_index_set(sys_eps, x0)
    frequencies = ball().ball
    return coefficients(f, sys_eps, frequencies.radius, js=js, ball=frequencies)


def df_fl_point(f: GridSignal, query: WavefrontQuery, pair: LatticePair) -> Verdict:
    """Fourier-Lebesgue membership verdict at (x0, direction)."""
    (verdict,) = aperture_sweep(f, query, pair, (query.aperture_deg,)).values()
    return verdict


def aperture_sweep(
    f: GridSignal, query: WavefrontQuery, pair: LatticePair, apertures=(20.0, 10.0, 5.0)
) -> dict:
    """Fourier-Lebesgue verdicts over a shrinking sequence of apertures.

    Approximates the "every conical neighbourhood" quantifier: membership at
    a point and direction is witnessed only if every tested aperture stays
    divergent.  The windowed spectrum is computed once for all apertures."""
    if not pair.is_strong:
        raise ValueError(f"lattice pair must be strongly admissible, got {pair.kind}")
    x0 = as_point(query.x0, f.d, "x0")
    as_point(query.direction, f.d, "direction")
    r_max = query.r_max if query.r_max is not None else default_r_max(f)
    spec = _local_spectrum(f, pair, x0, cache(lambda: lattice_ball(pair.lambda2, r_max)))
    return {
        float(a): classify(
            series_from_spectrum(
                spec, query.weight, query.q, Cone.from_degrees(query.direction, a)
            ),
            query.k_last, query.margin,
        )
        for a in apertures
    }


def df_mod_point(f: GridSignal, query: WavefrontQuery, sys: GaborSystem) -> Verdict:
    """Modulation-space membership verdict at (x0, direction)."""
    x0 = as_point(query.x0, f.d, "x0")
    as_point(query.direction, f.d, "direction")
    r_max = query.r_max if query.r_max is not None else default_r_max(f)
    table = _local_table(
        f, sys, x0, query.epsilon, cache(lambda: lattice_ball(sys.lambda2, r_max))
    )
    series = discrete_mod_series(table, query.weight, query.p, query.q, query.cone)
    return classify(series, query.k_last, query.margin)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def _listed(values, must: str):
    """values, if a list (not a str or dict); else a ValueError saying what they `must` be."""
    if isinstance(values, (str, bytes, dict)) or not hasattr(values, "__iter__"):
        raise ValueError(f"{must}, got {values!r}")
    return values


def _triples(pqs) -> tuple:
    """pqs as checked (p, q, s) triples of floats; names an entry that is not one."""
    out = []
    for i, entry in enumerate(_listed(pqs, "pqs must be a list of (p, q, s) triples")):
        try:
            p, q, s = entry
        except (TypeError, ValueError):
            raise ValueError(f"pqs entry {i} must be a (p, q, s) triple, got {entry!r}") from None
        out.append((check_exponent(p, "p"), check_exponent(q, "q"), check_finite(s, "s")))
    return tuple(out)


@dataclass(frozen=True)
class ScanConfig:
    """Shared parameters for a wave-front scan.

    Spatial cells of Lambda1 = alpha Z^d - alpha/2 are centred on the lattice
    points, the cutoffs are C-infinity, and each shell series starts at
    4 x the frequency step.
    """

    pqs: tuple = ((1.0, 1.0, 1.0),)  # (p, q, s) triples
    aperture_deg: float = 20.0
    alpha: float = 1.0
    beta: float = 1.0
    gabor_alpha: float | None = None  # spatial step of the Gabor system (defaults to alpha)
    gabor_alpha1: float | None = None  # dual-window support side (default midpoint rule)
    epsilon: float | None = None
    r_max: float | None = None
    margin: float = DEFAULT_MARGIN
    k_last: int = DEFAULT_K_LAST
    methods: tuple = ("fl", "mod")

    def __post_init__(self):
        object.__setattr__(self, "pqs", _triples(self.pqs))
        check_positive(self.alpha, "alpha")
        check_positive(self.beta, "beta")
        if not self.methods or not set(self.methods) <= {"fl", "mod"}:
            raise ValueError(f"methods must be a nonempty subset of fl, mod; got {self.methods!r}")
        _check_settings(self.aperture_deg, self.epsilon, self.r_max, self.margin, self.k_last)

    @classmethod
    def from_settings(
        cls, p, q, s, pqs=None, method="both", shells=DEFAULT_K_LAST, **shared
    ) -> "ScanConfig":
        """The ScanConfig of flat settings, as the CLI and the detector name
        them: one (p, q, s) unless `pqs` lists triples, `method` one of fl,
        mod or both, and `shells` the fit window k_last; the other settings
        keep their ScanConfig names."""
        methods = ("fl", "mod") if method == "both" else (method,)
        return cls(pqs=pqs or ((p, q, s),), methods=methods, k_last=shells, **shared)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["pqs"] = [list(map(float, t)) for t in self.pqs]
        out["methods"] = list(self.methods)
        return out

    def lattice_pair(self, d: int) -> LatticePair:
        pair = classify_pair(
            scaled_integer_lattice(self.alpha, d, -0.5 * self.alpha * np.ones(d)),
            scaled_integer_lattice(self.beta, d),
        )
        if not pair.is_strong:
            raise ValueError(
                f"alpha = {self.alpha}, beta = {self.beta} give a {pair.kind} pair; "
                "a strongly admissible pair is required"
            )
        return pair

    def gabor_system(self, d: int) -> GaborSystem:
        alpha = self.gabor_alpha if self.gabor_alpha is not None else self.alpha
        return build_agp(alpha, self.beta, d, alpha1=self.gabor_alpha1)


@dataclass
class WavefrontRecord:
    """One scanned (x0, direction, p, q, s) row with both verdicts."""

    x0: list
    theta: list
    p: float
    q: float
    s: float
    aperture_deg: float
    verdict_fl: Verdict | None = None
    verdict_mod: Verdict | None = None
    error_fl: str | None = None
    error_mod: str | None = None

    def to_json(self) -> dict:
        return {
            "x0": self.x0,
            "theta": self.theta,
            "p": self.p,
            "q": self.q,
            "s": self.s,
            "aperture_deg": self.aperture_deg,
            "fl": self.verdict_fl.to_json() if self.verdict_fl else None,
            "mod": self.verdict_mod.to_json() if self.verdict_mod else None,
            "error_fl": self.error_fl,
            "error_mod": self.error_mod,
        }


@dataclass
class WavefrontEstimate:
    """All records of a scan plus the configuration snapshot."""

    records: list
    config: dict

    def to_json(self) -> dict:
        return {"config": self.config, "records": [r.to_json() for r in self.records]}

    def heatmap_csv(self, path) -> Path:
        """CSV for external plotting: coordinates, direction angle (degrees),
        fitted exponents and verdict codes (1 divergent / 0 finite / -1
        inconclusive, blank on per-record errors)."""
        p = Path(path)
        if not self.records:
            p.write_text("x0_0,theta_deg,p,q,s,tau_fl,tau_mod,fl_code,mod_code\n")
            return p
        d = len(self.records[0].x0)
        cols = [f"x0_{i}" for i in range(d)] + ["theta_deg", "p", "q", "s"]
        cols += ["tau_fl", "tau_mod", "fl_code", "mod_code"]
        lines = [",".join(cols)]
        for r in self.records:
            theta_deg = math.degrees(math.atan2(r.theta[1], r.theta[0])) if d == 2 else (
                0.0 if r.theta[0] >= 0 else 180.0
            )
            def _tau(v):
                return "" if v is None or v.tau is None else repr(v.tau)
            def _code(v):
                return "" if v is None else str(v.code)
            cells = [repr(x) for x in r.x0] + [repr(theta_deg), repr(r.p), repr(r.q), repr(r.s)]
            cells += [_tau(r.verdict_fl), _tau(r.verdict_mod), _code(r.verdict_fl), _code(r.verdict_mod)]
            lines.append(",".join(cells))
        p.write_text("\n".join(lines) + "\n")
        return p


def scan(f: GridSignal, x_grid, directions, cfg: ScanConfig) -> WavefrontEstimate:
    """Run the point operations of cfg.methods over x_grid x directions x cfg.pqs.

    Per-record failures are recorded in the row, never abort the scan.  The
    work is shared at three levels, and every record gets the verdicts
    df_fl_point and df_mod_point give for its question:
    - once per scan, one enumeration of the beta-lattice ball and one shell
      geometry on it (radii, shell index, each direction's cone indices,
      <xi>^s per s) for both routes, because every x0 samples the same ball
      at the same r_max.  The ball is enumerated the first time an x0
      passes the checks that come before it, so every x0 fails as the point
      operations fail;
    - once per x0, one windowed spectrum, sampled on the geometry's points,
      and one Gabor coefficient table on the same ball, built as the point
      operations build theirs (epsilon chosen against the Gabor step), and
      the table's j-aggregate once per distinct p, dropped before the next
      x0;
    - per record, the cone gather, the shell sums and `classify`.
    """
    _listed(x_grid, "x_grid must be a list of points")
    _listed(directions, "directions must be a list of vectors")
    x_grid = [as_point(x, f.d, "x0") for x in x_grid]
    directions = [unit_direction(as_point(v, f.d, "direction")) for v in directions]
    records: list[WavefrontRecord] = []
    estimate = WavefrontEstimate(records, {"scan": cfg.to_json()})
    if not x_grid or not directions:
        return estimate

    pair = cfg.lattice_pair(f.d)
    want_fl = "fl" in cfg.methods
    want_mod = "mod" in cfg.methods
    sys = cfg.gabor_system(f.d) if want_mod else None
    r_max = cfg.r_max if cfg.r_max is not None else default_r_max(f)
    cones = [Cone.from_degrees(th, cfg.aperture_deg) for th in directions]
    ball = cache(lambda: lattice_ball(pair.lambda2, r_max))

    for x0 in x_grid:
        spec = table = fl_err = mod_err = None
        aggregates: dict = {}  # j-aggregates of this x0's table, by p
        if want_fl:
            try:
                spec = _local_spectrum(f, pair, x0, ball)
            except MicrolocError as exc:
                fl_err = f"{type(exc).__name__}: {exc}"
        if want_mod:
            try:
                table = _local_table(f, sys, x0, cfg.epsilon, ball)
            except MicrolocError as exc:
                mod_err = f"{type(exc).__name__}: {exc}"

        for theta, cone in zip(directions, cones):
            for p, q, s in cfg.pqs:
                w = Weight.bracket_power(s)
                rec = WavefrontRecord(
                    [float(v) for v in x0],
                    [float(v) for v in theta],
                    float(p),
                    float(q),
                    float(s),
                    cfg.aperture_deg,
                    error_fl=fl_err,
                    error_mod=mod_err,
                )
                if spec is not None:
                    try:
                        series = series_from_spectrum(spec, w, q, cone)
                        rec.verdict_fl = classify(series, cfg.k_last, cfg.margin)
                    except MicrolocError as exc:
                        rec.error_fl = f"{type(exc).__name__}: {exc}"
                if table is not None:
                    try:
                        if p not in aggregates:
                            aggregates[p] = j_aggregate(table, p, ball())
                        series = discrete_mod_series(table, w, p, q, cone, aggregates[p])
                        rec.verdict_mod = classify(series, cfg.k_last, cfg.margin)
                    except MicrolocError as exc:
                        rec.error_mod = f"{type(exc).__name__}: {exc}"
                records.append(rec)
    return estimate


# ---------------------------------------------------------------------------
# Equivalence report
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Comparison of the two verdict columns of an estimate."""

    n_records: int
    n_compared: int
    n_disagreements: int
    disagreements: list
    n_inconclusive_fl: int
    n_inconclusive_mod: int
    all_inconclusive_fl: bool
    all_inconclusive_mod: bool
    holds: bool

    def to_json(self) -> dict:
        return asdict(self)


def check_equivalence(estimate: WavefrontEstimate) -> EquivalenceReport:
    """List every record where the two conclusive verdicts differ.

    Records with any error or an inconclusive side are excluded from the
    comparison; the equivalence claim holds iff zero exclusion-adjusted
    disagreements remain (an empty comparison set is flagged, not passed
    silently: holds stays True only when something was actually compared).
    """
    n_inc_fl = n_inc_mod = n_compared = 0
    any_fl = any_mod = False
    disagreements = []
    for i, rec in enumerate(estimate.records):
        vf, vm = rec.verdict_fl, rec.verdict_mod
        if vf is not None:
            any_fl = any_fl or vf.is_conclusive
            n_inc_fl += 0 if vf.is_conclusive else 1
        if vm is not None:
            any_mod = any_mod or vm.is_conclusive
            n_inc_mod += 0 if vm.is_conclusive else 1
        if vf is None or vm is None:
            continue
        if not (vf.is_conclusive and vm.is_conclusive):
            continue
        n_compared += 1
        if vf.kind != vm.kind:
            disagreements.append(
                {
                    "index": i,
                    "x0": rec.x0,
                    "theta": rec.theta,
                    "p": rec.p,
                    "q": rec.q,
                    "s": rec.s,
                    "fl": vf.kind,
                    "mod": vm.kind,
                }
            )
    n = len(estimate.records)
    return EquivalenceReport(
        n_records=n,
        n_compared=n_compared,
        n_disagreements=len(disagreements),
        disagreements=disagreements,
        n_inconclusive_fl=n_inc_fl,
        n_inconclusive_mod=n_inc_mod,
        all_inconclusive_fl=n > 0 and not any_fl,
        all_inconclusive_mod=n > 0 and not any_mod,
        holds=len(disagreements) == 0 and n_compared > 0,
    )
