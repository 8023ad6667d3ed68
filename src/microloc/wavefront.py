"""Point verdicts and scans for the discrete wave-front sets.

A query fixes a base point x0, a direction, a cone aperture, exponents and a
weight.  The Fourier-Lebesgue verdict localizes with a smooth cutoff chi
supported inside the spatial-lattice cell containing x0 (chi(x0) = 1) and
classifies the lattice cone series of chi*f.  The modulation verdict
classifies the mixed (p over j, q over k) cone series of Gabor coefficients
restricted to the translates whose supports contain x0.  Divergent means
(x0, direction) belongs to the wave-front set at the queried aperture.

Each route has one per-x0 stage (`_fl_stage`, `_mod_stage`): it checks x0,
builds the route's local object (|F(chi f)| on the lattice, or the table of
Gabor magnitudes |c_{j,k}| on J_{x0}(eps)) and returns a series maker
(weight, p, q, cone) -> ConeSumSeries.  The point verdicts and `scan` ask
both routes through it.  Every verdict enumerates and transforms exactly
the points its series bin, the ball's points inside the last full shell
(`_frequencies`): a point verdict bins on one cone (nested cones of one
axis for `aperture_sweep`), so it enumerates only its widest cone's points
of them, and `scan` all of them, shared by every x0 and direction.  No
verdict enumerates the whole ball: its budget refusals are read off its
box, and the band it leaves off its points nearest the axes.

The modulation stage reads its rows (eps, j) from a row store
(`_RowStore`) over the distinct x0s asked: a scan's holds each x0 its
questions name, once however often it is named, a point verdict's its one
x0.  The store runs each x0's checks once, keeping the error they raise for
that x0's turn, builds each distinct row once, when the first x0 reads it,
keeps its magnitudes and noise floor until the last x0 that reads it, and
transforms no row whose window box misses the signal support (such a row is
0, see `signal._analysis`).

Membership is reported per aperture (default 20 degrees); `aperture_sweep`
refines toward the "every conical neighbourhood" quantifier.  Default radial
cutoff for series is 0.7 / h: beyond that the rectangle-rule spectrum of a
sampled discontinuity is visibly distorted by aliasing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import DomainClipped, EpsilonTooLarge, MicrolocError
from .gabor import CoefficientTable, GaborSystem, build_agp, coefficients, support_index_set
from .geometry import Cone, Weight
from .lattice import (
    Lattice, LatticeBall, LatticePair, _axis_points, _check_box, _integer_box_for_ball,
    classify_pair, points_in_ball, scaled_integer_lattice,
)
from .seminorm import (
    DEFAULT_K_LAST,
    DEFAULT_MARGIN,
    ShellGeometry,
    Verdict,
    _first_edge,
    classify,
    discrete_mod_series,
    j_aggregate,
    lattice_samples,
    series_from_spectrum,
    shell_boundaries,
)
from .signal import BumpWindow, GridSignal, _check_band, make_cutoff, multiply
from .validation import (
    as_point, check_dilation, check_exponent, check_finite, check_fit_window, check_in_open,
    check_positive, unit_direction,
)

ALIAS_SAFE_FACTOR = 0.7
# x0 within this relative distance of a cell face (in lattice coordinates)
# sits on it
_FACE_TOL = 1e-12


def default_r_max(f: GridSignal) -> float:
    """Largest shell radius at which sampled discontinuities keep their
    asymptotic spectrum slope (alias distortion below a few percent)."""
    return ALIAS_SAFE_FACTOR / float(np.max(f.spacing))


def _check_settings(obj) -> None:
    """Range checks of the settings WavefrontQuery and ScanConfig share; the
    frozen `obj` keeps the values they return, so a number is held as a
    float however it was given."""
    checked = {
        "aperture_deg": check_in_open(obj.aperture_deg, 0.0, 90.0, "aperture_deg"),
        "epsilon": None if obj.epsilon is None else check_dilation(obj.epsilon),
        "r_max": None if obj.r_max is None else check_positive(obj.r_max, "r_max"),
        "margin": check_positive(obj.margin, "margin"),
        "k_last": check_fit_window(obj.k_last),
    }
    for name, value in checked.items():
        object.__setattr__(obj, name, value)


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
        _check_settings(self)
        object.__setattr__(self, "q", check_exponent(self.q, "q"))
        object.__setattr__(self, "p", check_exponent(self.p, "p"))
        if not isinstance(self.weight, Weight):
            object.__setattr__(self, "weight", Weight.bracket_power(self.weight))

    @property
    def cone(self) -> Cone:
        return Cone.from_degrees(self.direction, self.aperture_deg)


def _interior_distance(x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Room from x0 to the nearest face of the box [lo, hi]; positive iff x0
    is inside the open box."""
    return float(np.min(np.minimum(x0 - lo, hi - x0)))


def _require_interior(f: GridSignal, x0: np.ndarray) -> None:
    if not _interior_distance(x0, *f.domain_box) > 0:
        raise DomainClipped(f"x0 = {x0.tolist()} is not interior to the signal domain")


def cutoff_for(f: GridSignal, lambda1: Lattice, x0: np.ndarray) -> BumpWindow:
    """Smooth (C-infinity) cutoff chi with chi(x0) = 1 supported inside
    (cell of x0) cap X.

    x0 must be interior to the signal domain (DomainClipped otherwise, as on
    every entry point).  Its cell is the cell of the axis-aligned lambda1
    whose closure holds x0, read from x0's lattice coordinates; on a cell
    face (within _FACE_TOL) the tie breaks toward the lower cell, so x0 sits
    on that cell's upper face and DomainClipped follows.  The outer radius
    is min(0.9 x distance to the boundary of the cell/domain intersection,
    0.45 x shortest cell edge) and the inner radius a quarter of it; the cap
    keeps the cutoff local so membership reflects the geometry near x0
    rather than whatever else the cell contains.  Raises DomainClipped when
    no cutoff with a grid-resolvable transition fits.
    """
    x0 = as_point(x0, lambda1.d, "x0")
    _require_interior(f, x0)
    if not lambda1.is_diagonal:
        raise ValueError("cutoff construction requires an axis-aligned spatial lattice")
    t = lambda1.to_lattice_coords(x0)
    nearest = np.round(t)
    on_face = np.abs(t - nearest) <= _FACE_TOL * np.maximum(1.0, np.abs(nearest))
    anchor = np.where(on_face, nearest - 1, np.floor(t))
    # the cell's opposite corners, ordered per axis (a basis entry may be negative)
    cell_lo, cell_hi = np.sort(lambda1.points([anchor, anchor + 1]), axis=0)
    x_lo, x_hi = f.domain_box
    dist = _interior_distance(x0, np.maximum(cell_lo, x_lo), np.minimum(cell_hi, x_hi))
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


def _reaches_inside(f: GridSignal, x0: np.ndarray, reach: float) -> bool:
    """Whether the box of half-side `reach` around x0 lies in the signal domain."""
    lo, hi = f.domain_box
    return bool(np.all(x0 - reach >= lo) and np.all(x0 + reach <= hi))


def choose_epsilon(f: GridSignal, sys: GaborSystem, x0: np.ndarray) -> float:
    """Largest dyadic epsilon whose local window supports fit the constraints.

    Requires eps * (phi support side) <= the Gabor system's own step
    sys.alpha, and every window support containing x0 (reach eps * alpha2
    around x0) inside the signal domain.  Every entry point picks epsilon
    this way, so scans and point verdicts ask the same question.
    """
    eps = 1.0
    for _ in range(48):
        reach = eps * sys.alpha2
        if reach <= sys.alpha + 1e-12 and _reaches_inside(f, x0, reach):
            return eps
        eps *= 0.5
    raise EpsilonTooLarge(
        f"no dyadic epsilon keeps window supports near x0 = {x0.tolist()} inside the domain"
    )


# Per-x0 stages.  Each asks `ball()` (the frequencies' shell geometry,
# `_frequencies`: `scan`'s one, built on first call, or a point verdict's,
# see `_point_inputs`) only after its checks on x0, so those fail first on
# every entry point, and returns its route's series maker at x0.


def _fl_stage(f: GridSignal, pair: LatticePair, x0: np.ndarray, ball):
    """Fourier-Lebesgue: |F(chi f)| on the frequency lattice, chi =
    cutoff_for(...) around x0, binned by `series_from_spectrum` (p unused)."""
    chi = cutoff_for(f, pair.lambda1, x0)
    spec = lattice_samples(multiply(f, chi), ball())
    return lambda weight, p, q, cone: series_from_spectrum(spec, weight, q, cone)


def _support_rows(f: GridSignal, sys: GaborSystem, x0: np.ndarray, epsilon: float | None):
    """The modulation route's checks on x0 and the Gabor rows its verdict
    reads: the system at x0's epsilon, J_{x0}(eps) (`support_index_set`)
    and the rows' keys (eps, *j).  epsilon defaults to `choose_epsilon`; a
    given one must keep the windows holding x0 inside the domain."""
    _require_interior(f, x0)
    if epsilon is None:
        epsilon = choose_epsilon(f, sys, x0)
    elif not _reaches_inside(f, x0, epsilon * sys.alpha2):
        raise EpsilonTooLarge(
            f"epsilon = {epsilon:g} lets window supports around x0 = {x0.tolist()} "
            "stick out of the signal domain"
        )
    sys_eps = sys.with_epsilon(epsilon)
    js = support_index_set(sys_eps, x0)
    return sys_eps, js, [(sys_eps.epsilon, *j) for j in js.tolist()]


class _RowStore:
    """The Gabor rows (eps, j) that the modulation verdicts at a list of x0s
    read, each built once: its magnitudes |c_{j,k}| (float64) and its noise
    floor, held from the first x0 that reads it to the last.

    On construction every x0 runs `_support_rows` once, never the ball:
    `supports` keeps its result, or the MicrolocError its checks raised,
    and `last` the last x0 (by index) that reads each row; an x0 whose
    checks failed reads none.  The x0s ask `table` in index order, all on
    one ball.  Each held row is its own array, so every table is stacked
    from held rows and no row is copied out of a table."""

    def __init__(self, f: GridSignal, sys: GaborSystem, x_grid, epsilon: float | None):
        self.f = f
        self.supports: list = []
        for x0 in x_grid:
            try:
                self.supports.append(_support_rows(f, sys, x0, epsilon))
            except MicrolocError as exc:
                self.supports.append(exc)
        self.last = {key: i for i, support in enumerate(self.supports)
                     if not isinstance(support, MicrolocError) for key in support[2]}
        self.held: dict = {}

    def table(self, i: int, ball):
        """The shell geometry `ball()` and the table of |c_{j,k}| on
        J_{x0}(eps) at the i-th x0, each row with its floor; the error of
        x0's checks, raised again, before the ball is asked.  The rows no
        earlier x0 built are built by one `coefficients` call, in J order,
        and held as one magnitude array each; the table stacks the x0's held
        rows in J order, and then every held row no later x0 reads is
        dropped."""
        support = self.supports[i]
        if isinstance(support, MicrolocError):
            raise support
        sys_eps, js, keys = support
        geometry = ball()
        new = [r for r, key in enumerate(keys) if key not in self.held]
        if new:
            built = coefficients(self.f, sys_eps, geometry.ball.radius, js=js[new],
                                 ball=geometry.ball)
            self.held.update((keys[r], (np.abs(row), floor))
                             for r, row, floor in zip(new, built.values, built.floors))
            del built  # the complex rows go before the table is stacked
        rows = [self.held[key] for key in keys]  # J_{x0}(eps) is never empty
        mags, floors = np.stack([m for m, _ in rows]), np.array([fl for _, fl in rows])
        self.held = {key: row for key, row in self.held.items() if self.last[key] > i}
        return geometry, CoefficientTable(js, geometry.ball, mags, floors)


def _mod_stage(store: _RowStore, i: int, ball):
    """Modulation at the store's i-th x0: the table of |c_{j,k}| whose rows
    are J_{x0}(eps) (`_RowStore.table`, which raises the error of x0's
    checks, run once when the store was built), binned by
    `discrete_mod_series`; its j-aggregate is taken once per p, on the
    shared geometry."""
    geometry, table = store.table(i, ball)
    aggregates: dict = {}

    def series(weight, p, q, cone):
        if p not in aggregates:
            aggregates[p] = j_aggregate(table, p, geometry)
        return discrete_mod_series(table, weight, p, q, cone, aggregates[p])

    return series


def _frequencies(f: GridSignal, lambda2: Lattice, r_max: float | None, cone: Cone | None = None):
    """The shell geometry of the frequencies a verdict reads: of the ball of
    every point of lambda2 with |xi| <= r_max (r_max defaulting to
    `default_r_max(f)`), the points that `cone`'s series bin, or without a
    cone every cone's series.  These are the points inside the last full
    shell R_M = min(r_max, r0 2^M), r0 = `seminorm._first_edge`, of the
    cone when one is given, in ball order, on the ball's lattice, radius
    and r0, so its shell edges; only they are enumerated.  Every cone about
    the same axis and no wider (without a cone, every cone) selects the
    same points with the same shell indices from it as from the whole
    ball's geometry.  lambda2 is axis-aligned on every public route:
    `cutoff_for` refuses a skewed lambda1, a strong pair of a diagonal
    lambda1 has a diagonal lambda2, and `build_agp`'s is diagonal.

    The refusals are those the whole ball gives, in its order: its box
    against the cell and memory budgets, decided on the box alone; then the
    band, which no point of the ball can leave while r_max (1 + 1e-9) is
    under the Nyquist limit on every axis (a kept |xi_i| is at most r_max
    to a few ulps), and otherwise is checked on the ball's points nearest
    the axes (`lattice._axis_points`), whose largest |xi_i| per axis is
    the whole ball's; then ValueError when r_max leaves no full shell."""
    r_max = check_finite(r_max if r_max is not None else default_r_max(f), "r_max")
    _check_box(*_integer_box_for_ball(lambda2, r_max))
    if not np.all(r_max * (1 + 1e-9) < f.nyquist_limit()):
        _check_band(f, _axis_points(lambda2, r_max))
    r0 = _first_edge(lambda2)
    # r0 2^M passes r_max when log2(r_max / r0) falls short of an integer by
    # under 1e-9 (`shell_boundaries`), and no ball point lies past r_max
    pts, ks = points_in_ball(lambda2, min(r_max, shell_boundaries(r0, r_max)[-1]), cone=cone)
    return ShellGeometry(LatticeBall(lambda2, r_max, pts, ks), r0)


def _point_inputs(f: GridSignal, query: WavefrontQuery, lambda2: Lattice, name: str, apertures):
    """x0 of a point verdict and its ball thunk, after the dimension checks
    of x0, the direction and lambda2, which the `name`d lattice pair or
    Gabor system brings.  The thunk gives `_frequencies` on the query's
    cone at the widest of `apertures`: every series the verdict asks bins
    on that cone or a narrower one about the same axis, so it reads the
    same points, and only they are enumerated."""
    x0 = as_point(query.x0, f.d, "x0")
    as_point(query.direction, f.d, "direction")
    if lambda2.d != f.d:
        raise ValueError(f"a {lambda2.d}-d {name} for a {f.d}-d signal")
    cone = Cone.from_degrees(query.direction, max(apertures))
    return x0, lambda: _frequencies(f, lambda2, query.r_max, cone)


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
    divergent.  `apertures` is a list (not a number, str or dict), each in
    (0, 90) degrees, as a query's is, and at least one is given.  The
    windowed spectrum is computed once for all apertures, on the cone of the
    widest."""
    if not pair.is_strong:
        raise ValueError(f"lattice pair must be strongly admissible, got {pair.kind}")
    apertures = [check_in_open(a, 0.0, 90.0, "aperture_deg")
                 for a in _listed(apertures, "apertures must be a list of apertures in degrees")]
    if not apertures:
        raise ValueError("apertures must list at least one aperture")
    x0, ball = _point_inputs(f, query, pair.lambda2, "lattice pair", apertures)
    series = _fl_stage(f, pair, x0, ball)
    return {
        a: classify(
            series(query.weight, query.p, query.q, Cone.from_degrees(query.direction, a)),
            query.k_last, query.margin,
        )
        for a in apertures
    }


def df_mod_point(f: GridSignal, query: WavefrontQuery, sys: GaborSystem) -> Verdict:
    """Modulation-space membership verdict at (x0, direction)."""
    x0, ball = _point_inputs(f, query, sys.lambda2, "Gabor system", (query.aperture_deg,))
    series = _mod_stage(_RowStore(f, sys, [x0], query.epsilon), 0, ball)
    return classify(series(query.weight, query.p, query.q, query.cone), query.k_last, query.margin)


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
    if not out:
        raise ValueError("pqs must list at least one (p, q, s) triple")
    return tuple(out)


@dataclass(frozen=True)
class ScanConfig:
    """Shared parameters for a wave-front scan.

    Spatial cells of Lambda1 = alpha Z^d - alpha/2 are centred on the lattice
    points, the cutoffs are C-infinity, and each shell series starts at
    r0 = 4 x the frequency step, so an r_max that leaves no full shell
    above it (r_max <= 8 beta) is refused here, as `shell_boundaries`
    refuses it, whatever x0s a scan asks.
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
        object.__setattr__(self, "alpha", check_positive(self.alpha, "alpha"))
        object.__setattr__(self, "beta", check_positive(self.beta, "beta"))
        for name in ("gabor_alpha", "gabor_alpha1"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_positive(getattr(self, name), name))
        if not self.methods or not set(self.methods) <= {"fl", "mod"}:
            raise ValueError(f"methods must be a nonempty subset of fl, mod; got {self.methods!r}")
        _check_settings(self)
        if self.r_max is not None:
            shell_boundaries(_first_edge(scaled_integer_lattice(self.beta, 1)), self.r_max)

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
    """All records of a scan."""

    records: list

    def to_json(self) -> dict:
        return {"records": [r.to_json() for r in self.records]}

    def heatmap_csv(self, path) -> Path:
        """CSV for external plotting: coordinates, direction angle (degrees;
        blank for d >= 3, where one angle does not name a direction), fitted
        exponents and verdict codes (1 divergent / 0 finite / -1
        inconclusive, blank on per-record errors)."""
        d = len(self.records[0].x0) if self.records else 1
        cols = [f"x0_{i}" for i in range(d)] + ["theta_deg", "p", "q", "s"]
        cols += ["tau_fl", "tau_mod", "fl_code", "mod_code"]
        lines = [",".join(cols)]

        def _tau(v):
            return "" if v is None or v.tau is None else repr(v.tau)

        def _code(v):
            return "" if v is None else str(v.code)

        for r in self.records:
            if d == 1:
                theta_deg = repr(0.0 if r.theta[0] >= 0 else 180.0)
            elif d == 2:
                theta_deg = repr(math.degrees(math.atan2(r.theta[1], r.theta[0])))
            else:
                theta_deg = ""
            cells = [repr(x) for x in r.x0] + [theta_deg, repr(r.p), repr(r.q), repr(r.s)]
            cells += [_tau(r.verdict_fl), _tau(r.verdict_mod), _code(r.verdict_fl), _code(r.verdict_mod)]
            lines.append(",".join(cells))
        p = Path(path)
        p.write_text("\n".join(lines) + "\n")
        return p


def scan(f: GridSignal, x_grid, directions, cfg: ScanConfig) -> WavefrontEstimate:
    """Run the point operations of cfg.methods over x_grid x directions x cfg.pqs.

    Per-record failures are recorded in the row, never abort the scan.  Each
    route is asked through the per-x0 stage the point verdicts use
    (`_fl_stage`, `_mod_stage`), so every record gets the verdict
    df_fl_point and df_mod_point give for its question.  The records come
    in x_grid, then directions, then cfg.pqs order, and every distinct x0
    (by its bytes) is worked once, at its first place in x_grid: an x0
    listed twice costs what it costs once.  The work is shared at five
    levels:
    - once per scan, one enumeration of the beta-lattice ball's points
      inside the last full shell and one shell geometry on them
      (`_frequencies`: radii, shell index, each direction's cone indices,
      <xi>^s per s) for both routes, because every x0 samples the same
      points at the same r_max.  They are enumerated the first time an x0
      passes the checks that come before it, so every x0 fails as the
      point operations fail;
    - once per scan and Gabor row (eps, j), its magnitudes |c_{j,k}| and
      noise floor (`_RowStore`): built when the first x0 that reads the row
      asks for it, dropped after the last one has, never built when the
      row's window box misses the signal support.  The rows held at once
      grow with how far apart among the distinct x0s a row's readers sit;
    - once per distinct x0 and route, one stage: the windowed spectrum or
      the table of the x0's rows J_{x0}(eps) (with its j-aggregate once per
      distinct p), or the error it raised, recorded in every row of that
      x0.  Routes run in the order fl, mod, and an x0's stages are dropped
      before the next x0's;
    - once per spectrum of an x0 (the windowed one, or a j-aggregate per
      p) and cone, the cone's gathered magnitudes, their shell maxima and
      their weighted magnitudes per s, cached on the spectrum and dropped
      with the x0's stages;
    - per record, the shell sums of the q-th powers (the weighted shell
      maxima at q = inf) and `classify`, one `Weight` per (p, q, s) of
      cfg.pqs serving every record.

    A default r_max (`default_r_max`, from f's spacing) that leaves no full
    shell is refused before any x0 is worked, as `ScanConfig` refuses a
    given one.
    """
    _listed(x_grid, "x_grid must be a list of points")
    _listed(directions, "directions must be a list of vectors")
    x_grid = [as_point(x, f.d, "x0") for x in x_grid]
    directions = [unit_direction(as_point(v, f.d, "direction")) for v in directions]
    return _scan(f, [(x0, theta) for x0 in x_grid for theta in directions], cfg)


def _scan(f: GridSignal, questions, cfg: ScanConfig) -> WavefrontEstimate:
    """The records of cfg.methods at `questions`, checked (x0, unit
    direction) pairs of f.d-vectors: one per question and (p, q, s) of
    cfg.pqs, in that order, shared as `scan` says.  The questions are
    grouped by distinct x0 (`x0.tobytes()`), visited in order of first
    appearance, so each x0 gets one set of stages and one row-store entry."""
    at: dict = {}  # x0 bytes -> indices of the questions at that x0
    for n, (x0, _) in enumerate(questions):
        at.setdefault(x0.tobytes(), []).append(n)
    if not at:
        return WavefrontEstimate([])
    x_grid = [questions[ns[0]][0] for ns in at.values()]

    pair = cfg.lattice_pair(f.d)
    if cfg.r_max is None:
        # the default r_max depends on f's spacing, so ScanConfig cannot
        # refuse it: refuse it here, before any x0's checks, as
        # `_frequencies` would refuse it for an x0 that passed them
        shell_boundaries(_first_edge(pair.lambda2), default_r_max(f))
    store = (_RowStore(f, cfg.gabor_system(f.d), x_grid, cfg.epsilon)
             if "mod" in cfg.methods else None)
    ball = cache(lambda: _frequencies(f, pair.lambda2, cfg.r_max))
    stages = {
        "fl": lambda i: _fl_stage(f, pair, x_grid[i], ball),
        "mod": lambda i: _mod_stage(store, i, ball),
    }
    methods = [m for m in stages if m in cfg.methods]
    triples = [(p, q, s, Weight.bracket_power(s)) for p, q, s in cfg.pqs]
    placed: list = [[] for _ in questions]  # per question, its records

    for i, (x0, ns) in enumerate(zip(x_grid, at.values())):
        # makers[m] is read in place, never bound, so no maker (and no
        # table) outlives its x0
        makers, errors = {}, {}
        for m in methods:
            try:
                makers[m] = stages[m](i)
            except MicrolocError as exc:
                errors[f"error_{m}"] = f"{type(exc).__name__}: {exc}"
        for n in ns:
            theta = questions[n][1]
            cone = Cone.from_degrees(theta, cfg.aperture_deg)
            for p, q, s, w in triples:
                rec = WavefrontRecord([float(v) for v in x0], [float(v) for v in theta],
                                      float(p), float(q), float(s), cfg.aperture_deg, **errors)
                for m in makers:
                    try:
                        series = makers[m](w, p, q, cone)
                        setattr(rec, f"verdict_{m}", classify(series, cfg.k_last, cfg.margin))
                    except MicrolocError as exc:
                        setattr(rec, f"error_{m}", f"{type(exc).__name__}: {exc}")
                placed[n].append(rec)
    return WavefrontEstimate([rec for recs in placed for rec in recs])


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
    all_inconclusive_X flags a route that returned verdicts, none of them
    conclusive; a route that was not run or failed on every record returned
    none, so its flag stays False.
    """
    records = estimate.records
    given = {m: [v for r in records if (v := getattr(r, f"verdict_{m}")) is not None]
             for m in ("fl", "mod")}
    inconclusive = {m: sum(not v.is_conclusive for v in vs) for m, vs in given.items()}
    compared = [
        (i, rec) for i, rec in enumerate(records)
        if rec.verdict_fl is not None and rec.verdict_mod is not None
        and rec.verdict_fl.is_conclusive and rec.verdict_mod.is_conclusive
    ]
    disagreements = [
        {"index": i, "x0": rec.x0, "theta": rec.theta, "p": rec.p, "q": rec.q, "s": rec.s,
         "fl": rec.verdict_fl.kind, "mod": rec.verdict_mod.kind}
        for i, rec in compared if rec.verdict_fl.kind != rec.verdict_mod.kind
    ]
    return EquivalenceReport(
        n_records=len(records),
        n_compared=len(compared),
        n_disagreements=len(disagreements),
        disagreements=disagreements,
        n_inconclusive_fl=inconclusive["fl"],
        n_inconclusive_mod=inconclusive["mod"],
        all_inconclusive_fl=0 < len(given["fl"]) == inconclusive["fl"],
        all_inconclusive_mod=0 < len(given["mod"]) == inconclusive["mod"],
        holds=not disagreements and bool(compared),
    )
