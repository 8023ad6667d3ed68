"""Cone-restricted seminorms as shell series, and their classification.

A cone seminorm is evaluated shell by shell over geometric radii
R_0 < 2 R_0 < ... <= R_max, with R_0 = 4 x (minimal lattice spacing) by
default so the non-asymptotic core is skipped.  For q < inf the per-shell
aggregate a_m is the q-th-power mass; for q = inf it is the shell maximum.

Classification fits log(a_m / shell width) against log R_m over the last K
usable shells.  Since a cone lattice holds ~ R^(d-1) points per unit radius,
a per-point decay |F f(xi) w(xi)| ~ |xi|^tau makes that density scale like
R^(q tau + d - 1), so the fitted slope sigma gives tau = (sigma - (d-1)) / q
and the series converges exactly when tau < -d/q.  Verdicts carry an
explicit inconclusive band of width `margin` around the threshold because
finitely many shells cannot decide the boundary case.  Shells whose raw
spectrum values sit below the quadrature noise floor are evidence of decay,
not data, and are excluded from the fit; each series carries the floor of
the spectrum it was binned from, so `classify` reads the series alone.

Every frequency set is a `LatticeBall`: the lattice ball |xi| <= r_max of
both discrete routes, and the midpoint-lattice ball of the quadrature
oracle (`quadrature_spectrum`).  Binning goes through a `ShellGeometry`,
which wraps one ball and its first shell edge r0 and holds what depends on
the ball's points alone: each point's shell index, each cone's in-range
point indices and the weight <xi>^s per exponent s.  A spectrum
(`SpectralSamples`) holds the geometry it was sampled on and a series bins
on that geometry, so every spectrum of one geometry shares its cone indices
and weights.  A verdict's geometry holds only the points its series bin
(`wavefront._frequencies`): `wavefront.scan` builds one per scan and
samples every windowed spectrum and builds every coefficient table on its
ball.  Per spectrum (per x0) come the magnitudes, and for the modulation
route the j-aggregate over every row of the x0's table, whose rows are
J_{x0}(eps), once per exponent p (a scan builds each row once, for every
x0 that reads it, and its x0s' tables hold the rows' magnitudes, see
`wavefront._RowStore`); per series (per record, always on one cone) only
the gather of the cone's magnitudes, the weighted power sums per shell and
the shell maxima.  For a real signal |F f(-xi)| = |F f(xi)| and
c_{j,-k} = conj(c_{j,k}), so on a centrally symmetric ball, a scan's
included, every route, the oracle's too, transforms only the half ball
xi_d >= 0 (a cone's points are never symmetric and are all transformed).
`fourier_batch` mirrors its values onto the whole ball; a coefficient table
holds only the computed columns, and its j-aggregates are taken on them and
mirrored (`CoefficientTable.aggregate`), so every spectrum covers the
geometry's points and the binning does not know which half was computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TooFewShells
from .gabor import CoefficientTable
from .geometry import Cone, Weight
from .lattice import Lattice, LatticeBall, scaled_integer_lattice
from .signal import GridSignal, fourier_batch
from .validation import check_exponent, check_fit_window, check_positive

SHELL_RATIO = 2.0
DEFAULT_MARGIN = 0.15
DEFAULT_K_LAST = 6
_CAUCHY_TOL = 1e-3
_TRIM_TOL = 0.06


def shell_boundaries(r0: float, r_max: float) -> np.ndarray:
    """Geometric shell edges r0 * 2^m not exceeding r_max (full octaves only)."""
    r0 = check_positive(r0, "r0")
    if r_max <= r0 * SHELL_RATIO:
        raise ValueError(
            f"r_max = {r_max:g} leaves no full shell above r0 = {r0:g}"
        )
    m_top = int(math.floor(math.log(r_max / r0, SHELL_RATIO) + 1e-9))
    return r0 * SHELL_RATIO ** np.arange(m_top + 1)


@dataclass(frozen=True)
class SpectralSamples:
    """Spectrum magnitudes on the points of the shell geometry they were
    sampled on, ready for binning on it, and the noise floor below which a
    magnitude is round-off, which every series binned from them carries."""

    geometry: ShellGeometry
    magnitudes: np.ndarray  # (n,) nonnegative, one per geometry point
    cell_weight: float  # 1 for lattice sums, delta^d for quadrature
    noise_floor: float


def lattice_samples(f: GridSignal, geometry: ShellGeometry) -> SpectralSamples:
    """|F f| on the points of a lattice ball's geometry, sampled on it."""
    return SpectralSamples(geometry, np.abs(fourier_batch(f, geometry.ball)), 1.0, f.noise_floor())


def quadrature_spectrum(f: GridSignal, density: float, r_max: float, r0: float
                        ) -> SpectralSamples:
    """|F f| on the midpoint quadrature nodes delta (Z^d + 1/2) of the ball
    |xi| <= r_max, delta = 1 / density, on their shell geometry with shells
    from r0 to r_max.

    The nodes are the `LatticeBall` of the midpoint lattice, so each carries
    the cell weight delta^d and none is the origin; they are independent of
    any frequency lattice of the discrete route.  Where they are exactly
    symmetric (a dyadic delta) a real f is transformed on half of them.
    """
    delta = 1.0 / check_positive(density, "density")
    midpoints = scaled_integer_lattice(delta, f.d, np.full(f.d, 0.5 * delta))
    geometry = ShellGeometry(LatticeBall.of(midpoints, r_max), r0)
    vals = np.abs(fourier_batch(f, geometry.ball))
    return SpectralSamples(geometry, vals, delta**f.d, f.noise_floor())


@dataclass(frozen=True)
class ConeSumSeries:
    """Shell-wise aggregates of a cone seminorm.

    boundaries has M+1 entries R_0..R_M; shell m covers (R_{m-1}, R_m].
    For q < inf, a holds q-th-power masses and S their running total plus
    the in-cone mass below R_0 (the "core"); for q = inf both hold maxima.
    noise_floor is its spectrum's: `classify` fits no shell whose unweighted
    maximum does not pass it.
    """

    boundaries: np.ndarray  # (M+1,)
    a: np.ndarray  # (M,)
    S: np.ndarray  # (M,)
    counts: np.ndarray  # (M,) frequency points/nodes per shell
    shell_absmax: np.ndarray  # (M,) unweighted spectrum max per shell
    q: float
    d: int
    core: float
    noise_floor: float


@dataclass(eq=False)
class ShellGeometry:
    """Shell binning data of one frequency ball, shared by every spectrum
    sampled on it and every series binned from those.

    Reads the points and radii of `ball` and holds what depends on them
    alone: each point's shell index over the edges r0 * 2^m <= ball.radius
    (0 for the core below r0, 1..M for the shells, M + 1 beyond the last
    full shell), each cone's in-range point indices with their shell
    indices and counts, and the weight <xi>^s for each exponent s.  Each is
    computed once, on first use; none depends on spectrum values.
    """

    ball: LatticeBall
    r0: float
    _cones: dict = field(default_factory=dict, init=False, repr=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def boundaries(self) -> np.ndarray:
        return shell_boundaries(self.r0, self.ball.radius)

    @cached_property
    def shell(self) -> np.ndarray:
        return np.searchsorted(self.boundaries, self.ball.radii, side="left")

    def cone_index(self, cone: Cone) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cone's points inside the last full shell, in point order:
        their indices, their shell indices (0 for the core), and the point
        count per shell.  Computed once per cone axis and aperture."""
        key = (cone.axis.tobytes(), cone.aperture)
        if key not in self._cones:
            n_shell = self.boundaries.size - 1
            sel = np.flatnonzero((self.shell <= n_shell) & cone.contains(self.ball.points))
            idx = self.shell[sel]
            counts = np.bincount(idx, minlength=n_shell + 1)[1:]
            self._cones[key] = (sel, idx, counts)
        return self._cones[key]

    def weight(self, omega: Weight) -> np.ndarray:
        """omega at every point."""
        if omega.s not in self._weights:
            self._weights[omega.s] = omega(self.ball.points)
        return self._weights[omega.s]


def _first_edge(lat: Lattice) -> float:
    """r0 of a lattice ball's shells: 4 x the minimal lattice spacing."""
    return 4.0 * lat.min_spacing


def series_from_spectrum(spec: SpectralSamples, omega: Weight, q, cone: Cone) -> ConeSumSeries:
    """Bin weighted spectrum samples into the geometric cone shells of the
    geometry they were sampled on; the series carries their noise floor."""
    q = check_exponent(q, "q")
    geometry = spec.geometry
    bounds = geometry.boundaries
    n_shell = bounds.size - 1
    sel, idx, counts = geometry.cone_index(cone)
    mags = spec.magnitudes[sel]
    weighted = mags * geometry.weight(omega)[sel]

    absmax = np.zeros(n_shell + 1)
    np.maximum.at(absmax, idx, mags)
    absmax = absmax[1:]

    if math.isinf(q):
        shell_max = np.zeros(n_shell + 1)
        np.maximum.at(shell_max, idx, weighted)
        core = float(shell_max[0])
        a = shell_max[1:]
        s = np.maximum.accumulate(np.concatenate(([core], a)))[1:]
    else:
        contrib = weighted**q * spec.cell_weight
        sums = np.bincount(idx, weights=contrib, minlength=n_shell + 1)
        core = float(sums[0])
        a = sums[1:]
        s = core + np.cumsum(a)
    d = geometry.ball.lattice.d
    return ConeSumSeries(bounds, a, s, counts, absmax, q, d, core, spec.noise_floor)


def j_aggregate(
    table: CoefficientTable, p, geometry: ShellGeometry | None = None
) -> SpectralSamples:
    """The j-aggregate ( sum_j |c_{j,k}|^p )^{1/p} (max_j for p = inf) over
    every row of the table, with its noise floor (`CoefficientTable.aggregate`),
    on `geometry`, the shell geometry of the table's ball; when not given,
    the ball's with shells from `_first_edge` to its radius.
    """
    mags, floor = table.aggregate(p)
    if geometry is None:
        geometry = ShellGeometry(table.ball, _first_edge(table.ball.lattice))
    return SpectralSamples(geometry, mags, 1.0, floor)


def discrete_mod_series(
    table: CoefficientTable,
    omega: Weight,
    p,
    q,
    cone: Cone,
    aggregate: SpectralSamples | None = None,
) -> ConeSumSeries:
    """Shell series of ( sum_j |c_{j,k} w(xi_k)|^p )^{q/p} over the cone and
    every row j of the table, on the shells of the table's ball (see
    `j_aggregate`).

    The rows are the table's translates: a table built on J_{x0}(eps)
    (`support_index_set`) gives the modulation series at x0.  `aggregate`
    is `j_aggregate(table, p)` when the caller already holds it; the series
    bins on the geometry it carries.
    """
    if aggregate is None:
        aggregate = j_aggregate(table, p)
    return series_from_spectrum(aggregate, omega, q, cone)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

_CODES = {"divergent": 1, "finite": 0, "inconclusive": -1}


@dataclass(frozen=True)
class Verdict:
    """Finite / divergent / inconclusive decision for one cone series."""

    kind: str
    value: float | None  # seminorm estimate when finite
    tau: float | None  # fitted per-point decay exponent
    threshold: float
    margin: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_divergent(self) -> bool:
        return self.kind == "divergent"

    @property
    def is_conclusive(self) -> bool:
        return self.kind != "inconclusive"

    @property
    def code(self) -> int:
        return _CODES[self.kind]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "code": self.code,
            "value": self.value,
            "tau": self.tau,
            "threshold": self.threshold,
            "margin": self.margin,
            "diagnostics": self.diagnostics,
        }


def _weighted_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Slope and weighted rms residual of the line minimizing
    sum (w (y - a x - b))^2, as np.polyfit(x, y, 1, w=w) fits it: in closed
    form from the means weighted by w^2 and one slope."""
    w2 = w * w
    total = np.sum(w2)
    dx = x - np.sum(w2 * x) / total
    dy = y - np.sum(w2 * y) / total
    slope = np.sum(w2 * dx * dy) / np.sum(w2 * dx * dx)
    resid = dy - slope * dx
    return float(slope), float(np.sqrt(np.sum(w2 * resid * resid) / total))


def classify(
    series: ConeSumSeries,
    k_last: int = DEFAULT_K_LAST,
    margin: float = DEFAULT_MARGIN,
) -> Verdict:
    """Decide whether the cone series is finite, divergent, or unclear.

    See the module docstring for the decision rule.  A Cauchy cross-check
    (a stabilized partial sum cannot belong to a divergent series) may
    downgrade a divergent fit to inconclusive; it never upgrades.
    """
    check_fit_window(k_last)
    q, d = series.q, series.d
    threshold = 0.0 if math.isinf(q) else -d / q

    structural = np.nonzero(series.counts > 0)[0]
    if structural.size < 4:
        raise TooFewShells(
            f"only {structural.size} shells hold frequency points; need >= 4"
        )

    total = float(series.S[structural[-1]])
    if math.isinf(q):
        norm_estimate = total
    else:
        norm_estimate = total ** (1.0 / q) if total > 0 else 0.0
    if total == 0.0:
        return Verdict(
            "finite", 0.0, None, threshold, margin, {"reason": "empty series"}
        )

    floor = series.noise_floor
    window = structural[-k_last:]
    floored = window[series.shell_absmax[window] <= floor]
    fit_idx = window[(series.shell_absmax[window] > floor) & (series.a[window] > 0)]

    diagnostics: dict = {
        "n_fit": int(fit_idx.size),
        "n_floored": int(floored.size),
        "shells_used": series.boundaries[1:][fit_idx].tolist(),
    }

    if fit_idx.size < 4:
        # The spectrum tail decayed into quadrature round-off: that is decay
        # evidence, so the series is finite at working precision.
        diagnostics["reason"] = "tail below quadrature noise floor"
        return Verdict("finite", norm_estimate, None, threshold, margin, diagnostics)

    x = np.log(series.boundaries[1:][fit_idx])
    if math.isinf(q):
        y = np.log(series.a[fit_idx])
        w = np.ones(fit_idx.size)
    else:
        widths = (series.boundaries[1:] - series.boundaries[:-1])[fit_idx]
        y = np.log(series.a[fit_idx] / widths)
        w = np.sqrt(series.counts[fit_idx])
    # Inner shells can carry a transient (cutoff transition spectrum, window
    # spread) that has not reached the power-law regime.  Drop leading
    # shells while doing so still moves the slope, keeping at least 4.
    sigma, resid = _weighted_fit(x, y, w)
    trimmed = 0
    while x.size > 4:
        sigma_drop, resid_drop = _weighted_fit(x[1:], y[1:], w[1:])
        if abs(sigma_drop - sigma) <= _TRIM_TOL:
            break
        x, y, w = x[1:], y[1:], w[1:]
        sigma, resid = sigma_drop, resid_drop
        trimmed += 1
    tau = sigma if math.isinf(q) else (sigma - (d - 1)) / q
    diagnostics.update(
        {"sigma": sigma, "residual": resid, "n_trimmed": trimmed}
    )

    rel_tail = None
    if not math.isinf(q) and total > 0:
        half = structural[structural.size // 2]
        rel_tail = float((series.S[structural[-1]] - series.S[half]) / total)
        diagnostics["rel_tail"] = rel_tail

    dist = tau - threshold
    if dist < -margin:
        return Verdict("finite", norm_estimate, tau, threshold, margin, diagnostics)
    if dist > margin:
        if rel_tail is not None and rel_tail < _CAUCHY_TOL:
            diagnostics["reason"] = "divergent slope but partial sums stabilized"
            return Verdict("inconclusive", None, tau, threshold, margin, diagnostics)
        return Verdict("divergent", None, tau, threshold, margin, diagnostics)
    return Verdict("inconclusive", None, tau, threshold, margin, diagnostics)
