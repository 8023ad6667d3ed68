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
not data, and are excluded from the fit.

Binning goes through a `ShellGeometry`, which holds what depends on the
frequency points alone: the radii, each point's shell index, each cone's
in-range point indices and the weight <xi>^s per exponent s.  Every series
binned on the same points can share one geometry, and a call given none
builds its own.  Both routes sample the same frequencies, the lattice ball
|xi| <= r_max, so `wavefront.scan` builds one geometry per scan, from one
enumeration of that ball (`lattice_ball`, whose `LatticeBall` also carries
the integer coordinates), bins both routes on it and builds every
coefficient table on that ball.  Per spectrum (per x0) come the
magnitudes, and for the modulation route the j-aggregate of the
coefficient table, once per exponent p; per series (per record) only the
gather of the cone's magnitudes, the weighted power sums per shell and the
shell maxima.  For a real signal |F f(-xi)| = |F f(xi)| and
c_{j,-k} = conj(c_{j,k}), so both routes transform only the half ball
k_d >= 0 and mirror the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TooFewShells
from .gabor import CoefficientTable
from .geometry import Cone, Weight, row_norms
from .lattice import Lattice, LatticeBall
from .signal import GridSignal, fourier_batch
from .validation import check_exponent, check_fit_window, check_positive

SHELL_RATIO = 2.0
DEFAULT_MARGIN = 0.15
DEFAULT_K_LAST = 6
_CAUCHY_TOL = 1e-3
_TRIM_TOL = 0.06


def default_r0(lambda2: Lattice) -> float:
    """First shell edge of a lattice series: 4 x the minimal lattice spacing."""
    return 4.0 * lambda2.min_spacing


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
    """Spectrum magnitudes sampled on frequency points, ready for binning."""

    points: np.ndarray  # (n, d)
    radii: np.ndarray  # (n,)
    magnitudes: np.ndarray  # (n,) nonnegative
    cell_weight: float  # 1 for lattice sums, delta^d for quadrature
    noise_floor: float
    kind: str  # "lattice" | "quadrature" | "gabor"
    meta: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.points.shape[1]


def lattice_spectrum(f: GridSignal, lambda2: Lattice, r_max: float) -> SpectralSamples:
    """|F f| on every lattice point with |xi| <= r_max, origin included (see `lattice_ball`)."""
    return lattice_samples(f, lambda2, lattice_ball(lambda2, r_max))


def lattice_samples(f: GridSignal, lambda2: Lattice, geometry: ShellGeometry) -> SpectralSamples:
    """|F f| on the points of a `lattice_ball` geometry of lambda2, on the
    geometry's own arrays, so that binning on it checks them in O(1).

    For a real f, |F f(-xi)| = |F f(xi)|: on a centrally symmetric ball the
    transform runs on the half ball k_d >= 0 and the magnitudes are mirrored
    (see `LatticeBall.split`)."""
    ball = geometry.ball
    if ball is None or not ball.is_of(lambda2):
        raise ValueError("lattice_samples needs a lattice_ball geometry of lambda2")
    vals = np.zeros(ball.points.shape[0])
    if vals.size:
        computed, mirrored = ball.split(f.is_real)
        vals[computed] = np.abs(fourier_batch(f, ball.points[computed]))
        vals[mirrored] = vals[vals.size - 1 - mirrored]
    return SpectralSamples(
        geometry.points, geometry.radii, vals, 1.0, f.noise_floor(), "lattice",
        {"lattice": lambda2.to_json()},
    )


def quadrature_spectrum(f: GridSignal, density: float, r_max: float) -> SpectralSamples:
    """|F f| on midpoint quadrature nodes covering the ball |xi| <= r_max.

    `density` is nodes per unit length per axis, so each node carries the
    cell weight (1/density)^d; the nodes are independent of any lattice.
    """
    density = check_positive(density, "density")
    delta = 1.0 / density
    half = int(math.ceil(r_max / delta)) + 1
    axis = delta * (np.arange(-half, half) + 0.5)
    mesh = np.meshgrid(*([axis] * f.d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    radii = row_norms(pts)
    keep = (radii > 0) & (radii <= r_max)
    pts, radii = pts[keep], radii[keep]
    vals = np.abs(fourier_batch(f, pts)) if pts.size else np.zeros(0)
    return SpectralSamples(
        pts, radii, vals, delta**f.d, f.noise_floor(), "quadrature",
        {"density": density},
    )


@dataclass(frozen=True)
class ConeSumSeries:
    """Shell-wise aggregates of a cone seminorm.

    boundaries has M+1 entries R_0..R_M; shell m covers (R_{m-1}, R_m].
    For q < inf, a holds q-th-power masses and S their running total plus
    the in-cone mass below R_0 (the "core"); for q = inf both hold maxima.
    """

    boundaries: np.ndarray  # (M+1,)
    a: np.ndarray  # (M,)
    S: np.ndarray  # (M,)
    counts: np.ndarray  # (M,) frequency points/nodes per shell
    shell_absmax: np.ndarray  # (M,) unweighted spectrum max per shell
    q: float
    d: int
    core: float
    meta: dict = field(default_factory=dict)


class ShellGeometry:
    """Shell binning data of one frequency point set, shared by every series
    binned on it.

    Holds the points, their radii, each point's shell index over the edges
    r0 * 2^m <= r_max (0 for the core below r0, 1..M for the shells, M + 1
    beyond the last full shell), each cone's in-range point indices with
    their shell indices and counts, and the weight <xi>^s for each exponent
    s.  All but the points and radii are computed once, on first use; none
    depends on spectrum values.  `ball` is the `LatticeBall` the points and
    radii come from, when they do (see `lattice_ball`).
    """

    def __init__(
        self, points: np.ndarray, radii: np.ndarray, r0: float, r_max: float,
        ball: LatticeBall | None = None,
    ):
        self.points = points
        self.radii = radii
        self.r0 = float(r0)
        self.r_max = float(r_max)
        self.ball = ball
        self._cones: dict = {}
        self._weights: dict = {}

    @cached_property
    def boundaries(self) -> np.ndarray:
        return shell_boundaries(self.r0, self.r_max)

    @cached_property
    def shell(self) -> np.ndarray:
        return np.searchsorted(self.boundaries, self.radii, side="left")

    def holds(self, spec: SpectralSamples) -> bool:
        """True when spec samples exactly this geometry's points."""
        return spec.points is self.points or np.array_equal(spec.points, self.points)

    def cone_index(self, cone: Cone | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-range points of the cone (all points for None), in point order:
        their indices, their shell indices, and the point count per shell."""
        key = None if cone is None else (cone.axis.tobytes(), cone.aperture)
        if key not in self._cones:
            n_shell = self.boundaries.size - 1
            keep = self.shell <= n_shell
            if cone is not None:
                keep &= cone.contains(self.points)
            sel = np.flatnonzero(keep)
            idx = self.shell[sel]
            counts = np.bincount(idx, minlength=n_shell + 1)[1:]
            self._cones[key] = (sel, idx, counts)
        return self._cones[key]

    def weight(self, omega: Weight) -> np.ndarray:
        """omega at every point."""
        if omega.s not in self._weights:
            self._weights[omega.s] = omega(self.points)
        return self._weights[omega.s]


def lattice_ball(lambda2: Lattice, r_max: float) -> ShellGeometry:
    """Every point of lambda2 with |xi| <= r_max, as a shell geometry with
    r0 = default_r0(lambda2).

    These are the frequencies of a Gabor coefficient table of radius r_max,
    so both routes sample one set: a table built on the geometry's `ball`
    shares its points and radii.  The origin is among them when the lattice
    holds it; no cone holds the origin, so no cone series sees it.
    """
    ball = LatticeBall.of(lambda2, r_max)
    return ShellGeometry(ball.points, ball.radii, default_r0(lambda2), r_max, ball)


def series_from_spectrum(
    spec: SpectralSamples,
    omega: Weight,
    q,
    cone: Cone | None,
    r0: float,
    r_max: float | None = None,
    geometry: ShellGeometry | None = None,
) -> ConeSumSeries:
    """Bin weighted spectrum samples into geometric cone shells.

    `geometry` is a shell geometry built on spec's points with the same r0
    and r_max, shared with other series on those points; without one, the
    call builds its own.
    """
    q = check_exponent(q, "q")
    if r_max is None:
        r_max = float(np.max(spec.radii)) if spec.radii.size else r0 * 4
    if geometry is None:
        geometry = ShellGeometry(spec.points, spec.radii, r0, r_max)
    elif not ((geometry.r0, geometry.r_max) == (float(r0), float(r_max)) and geometry.holds(spec)):
        raise ValueError("the shell geometry was built on other points or shell edges")
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

    meta = dict(spec.meta)
    meta.update(
        {
            "kind": spec.kind,
            "noise_floor": spec.noise_floor,
            "cone": cone.to_json() if cone is not None else None,
        }
    )
    return ConeSumSeries(bounds, a, s, counts, absmax, q, spec.d, core, meta)


def j_aggregate(table: CoefficientTable, p, jset: np.ndarray) -> SpectralSamples:
    """The j-aggregate ( sum_j |c_{j,k}|^p )^{1/p} (max_j for p = inf) of the
    table rows jset, with its noise floor, sampled on the table's frequencies.

    jset must be contained in the table's spatial indices (MissingCoefficients
    otherwise).
    """
    p = check_exponent(p, "p")
    jset = np.atleast_2d(np.asarray(jset, dtype=int))
    if jset.size == 0:
        mags = np.zeros(table.xi.shape[0])
        floor = 0.0
    else:
        rows = table.rows_for(jset)
        # the whole table, in order, needs no gathered copy
        whole = np.array_equal(rows, np.arange(table.js.shape[0]))
        block = np.abs(table.values if whole else table.values[rows])
        if math.isinf(p):
            mags = np.max(block, axis=0)
            floor = table.noise_floor
        else:
            block **= p
            mags = np.sum(block, axis=0) ** (1.0 / p)
            floor = table.noise_floor * rows.size ** (1.0 / p)
    return SpectralSamples(
        table.xi,
        table.k_radii,
        mags,
        1.0,
        floor,
        "gabor",
        {"epsilon": table.epsilon, "n_j": int(jset.shape[0])},
    )


def discrete_mod_series(
    table: CoefficientTable,
    omega: Weight,
    p,
    q,
    cone: Cone,
    jset: np.ndarray,
    geometry: ShellGeometry | None = None,
    aggregate: SpectralSamples | None = None,
) -> ConeSumSeries:
    """Shell series of ( sum_j |c_{j,k} w(xi_k)|^p )^{q/p} over the cone,
    on shells from default_r0(table.lambda2) to the table's radius.

    jset must be contained in the table's spatial indices (MissingCoefficients
    otherwise).  `aggregate` is `j_aggregate(table, p, jset)` when the caller
    already holds it, and `geometry` a shell geometry of the table's
    frequencies (see `series_from_spectrum`).
    """
    if aggregate is None:
        aggregate = j_aggregate(table, p, jset)
    r0 = default_r0(table.lambda2)
    return series_from_spectrum(aggregate, omega, q, cone, r0, table.freq_radius, geometry)


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

    floor = float(series.meta.get("noise_floor", 0.0))
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
