"""Admissible Gabor pairs: construction, analysis, synthesis, mixed norms.

The construction follows the cubic-lattice recipe: for alpha * beta < 2*pi
take Lambda1 = alpha Z^d, Lambda2 = beta Z^d, a nonnegative bump g supported
in a cube of side alpha1 in (alpha, 2*pi/beta), and set

    psi = (beta / 2*pi)^d * g / sum_j g(. - alpha j),

which makes sum_j psi(. - alpha j) = (beta / 2*pi)^d exactly by construction.
With phi a smooth cutoff equal to 1 on supp(psi) and supported in the cube of
side alpha2 = 2*pi/beta, the pair satisfies the partition condition

    sum_j (phi * psi)(. - x_j) = (2*pi)^(-d) * ||Lambda2||,

so the epsilon-dilated families stay dual frames for every epsilon in (0, 1]
and synthesis reproduces f with constant exactly 1.  All normalization is
carried by the dual window; coefficients are plain L^2 inner products

    c_{j,k}(eps) = (f, psi^eps_{j,k}) = (2*pi)^(d/2) F(f psi^eps(. - eps x_j))(xi_k).

A table's rows are its translates js and its columns the points of one
frequency `LatticeBall`; every reduction (mixed norms, j-aggregates,
synthesis) runs over all its rows, so the set of translates is chosen once,
when the table is built (`coefficients(..., js=...)`, e.g. J_{x0}(eps) from
`support_index_set`).  Translates past the index budget are refused, not
clipped (BudgetExceeded).  The windows are real, so a real f has
c_{j,-k} = conj(c_{j,k}): on a centrally symmetric frequency ball its table
is computed and held on the half ball k_d >= 0 only, and synthesis and the
mixed norms mirror the stored columns (see `CoefficientTable`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InadmissibleParameters
from .lattice import Lattice, LatticeBall, LatticePair, classify_pair, scaled_integer_lattice
from .signal import (
    _EPS_FLOOR,
    BumpWindow,
    GridSignal,
    _along_axes,
    _batch_rows,
    _bump,
    _check_band,
    _gather,
    _index_box,
    _kernels,
    _lattice_progressions,
    _support_from_nonzero,
    _window_batch,
    make_cutoff,
)
from .validation import as_point, check_dilation, check_exponent, check_positive

_TWO_PI = 2.0 * math.pi
# Translates j with |j_i| above this are refused (BudgetExceeded), not clipped.
_INDEX_BUDGET = 4096


def _dual_axis_profile(alpha: float, alpha1: float, theta_axis: float):
    """One axis of psi: theta_axis * g / (alpha-periodization of g)."""
    half1 = alpha1 / 2.0
    # on t mod alpha in [0, alpha] the bumps with j outside (-j_reach, j_reach] vanish
    j_reach = int(math.ceil(half1 / alpha))

    def profile(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        t0 = np.mod(t, alpha)
        per = np.zeros_like(t0)
        for j in range(1 - j_reach, j_reach + 1):
            per += _bump((t0 - alpha * j) / half1)
        vals = np.zeros_like(t)
        inside = np.abs(t) < half1
        gi = _bump(t[inside] / half1)
        # per >= gi wherever gi > 0 (the periodization contains the own term),
        # so the ratio is safe; underflowed edge values stay exactly zero
        pos = gi > 0.0
        ratio = np.zeros_like(gi)
        ratio[pos] = theta_axis * gi[pos] / per[inside][pos]
        vals[inside] = ratio
        return vals

    return profile


@dataclass(frozen=True)
class GaborSystem:
    """Window pair plus cubic lattice data for one dilation parameter."""

    phi: BumpWindow
    psi: BumpWindow
    pair: LatticePair
    alpha: float
    beta: float
    alpha1: float
    alpha2: float
    epsilon: float = 1.0

    def __post_init__(self):
        check_dilation(self.epsilon)

    @property
    def d(self) -> int:
        return self.phi.d

    @property
    def partition_constant(self) -> float:
        """(2*pi)^-d * ||Lambda2|| = (beta / 2*pi)^d."""
        return (self.beta / _TWO_PI) ** self.d

    @property
    def lambda2(self) -> Lattice:
        return self.pair.lambda2

    def x_point(self, j) -> np.ndarray:
        return self.alpha * np.asarray(j, dtype=float)

    def with_epsilon(self, epsilon: float) -> "GaborSystem":
        return dataclasses.replace(self, epsilon=float(epsilon))


def build_agp(alpha: float, beta: float, d: int = 1, alpha1: float | None = None) -> GaborSystem:
    """Construct an admissible Gabor pair on alpha Z^d / beta Z^d, at
    epsilon = 1 (`GaborSystem.with_epsilon` dilates it).

    Requires alpha * beta < 2*pi (InadmissibleParameters otherwise).  The
    dual window psi is a normalized positive bump, so the partition value
    (beta/2*pi)^d holds analytically; phi is a smooth cutoff equal to 1 on
    supp(psi).
    """
    alpha = check_positive(alpha, "alpha")
    beta = check_positive(beta, "beta")
    if alpha * beta >= _TWO_PI:
        raise InadmissibleParameters(
            f"alpha*beta = {alpha * beta:.6g} must be < 2*pi = {_TWO_PI:.6g}"
        )
    alpha2 = _TWO_PI / beta
    if alpha1 is None:
        alpha1 = 0.5 * (alpha + alpha2)
    if not (alpha < alpha1 < alpha2):
        raise InadmissibleParameters(
            f"window side alpha1 = {alpha1:.6g} must lie in (alpha, 2*pi/beta) "
            f"= ({alpha:.6g}, {alpha2:.6g})"
        )

    profile = _dual_axis_profile(alpha, alpha1, beta / _TWO_PI)
    half1 = alpha1 / 2.0 * np.ones(d)
    psi = BumpWindow(-half1, half1, (profile,) * d)

    half2 = alpha2 / 2.0 * np.ones(d)
    phi = make_cutoff((-half1, half1), (-half2, half2))

    pair = classify_pair(
        scaled_integer_lattice(alpha, d), scaled_integer_lattice(beta, d)
    )
    if not pair.is_strong:
        raise InadmissibleParameters(
            f"lattice pair classified as {pair.kind}; a strong pair is required"
        )
    return GaborSystem(phi, psi, pair, alpha, beta, float(alpha1), alpha2)


def check_partition(sys: GaborSystem, n: int = 256) -> float:
    """Max deviation of sum_j (phi psi)(. - eps x_j) from the partition value.

    The sum is eps*alpha periodic, so one fundamental cell sampled at n
    points per axis is checked.
    """
    eps, alpha = sys.epsilon, sys.alpha
    step = eps * alpha
    axes = [np.linspace(0.0, step, n, endpoint=False) for _ in range(sys.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    reach = int(math.ceil(sys.alpha2 / (2.0 * alpha))) + 1
    total = np.zeros(pts.shape[0])
    for j in np.ndindex(*[2 * reach + 2] * sys.d):
        shifted = (pts - step * (np.array(j) - reach)) / eps  # phi^eps(x) = phi(x / eps)
        total += sys.phi(shifted) * sys.psi(shifted)
    return float(np.max(np.abs(total - sys.partition_constant)))


@dataclass(frozen=True)
class CoefficientTable:
    """Analysis coefficients c_{j,k}(eps): row i belongs to the translate
    js[i], and every reduction of the table runs over all its rows; `ball`
    is the frequency ball the table was built on (its points, integer
    coordinates, radii and radius).

    A half-held table (`half`, a real signal on a centrally symmetric ball)
    stores only the columns of the points k_d >= 0, in ball order: the
    column of -xi_k is conj(c_{j,k}) and is never built.  Otherwise `values`
    has one column per ball point.  `whole()` gives the complete table.
    """

    js: np.ndarray  # (nj, d) integers
    ball: LatticeBall
    values: np.ndarray  # (nj, stored columns) complex
    noise_floor: float = 0.0
    half: bool = False

    def __post_init__(self):
        width = self.ball.points.shape[0] - self.ball.split(self.half)[1].size
        if self.values.shape != (self.js.shape[0], width):
            raise ValueError(
                f"coefficient values of shape {self.values.shape} do not fit "
                f"{self.js.shape[0]} translates and {width} stored columns"
            )

    def on_ball(self, columns: np.ndarray) -> np.ndarray:
        """Values given along the last axis per stored column, on every ball
        point: the column of -xi_k takes the conjugate of that of xi_k (the
        value itself, for magnitudes; see `LatticeBall.unfold`)."""
        return self.ball.unfold(columns, self.half)

    def whole(self) -> np.ndarray:
        """The complete (nj, ball size) table: the stored columns and the
        conjugates of their mirrors."""
        return self.on_ball(self.values)


def _translates(sys: GaborSystem, lo, hi, tol: float, what: str) -> np.ndarray:
    """All integer j with lo - tol <= j <= hi + tol per axis, in lexicographic
    order; BudgetExceeded if one passes the index budget, so none that `what`
    describes is dropped."""
    b = _INDEX_BUDGET
    lo = np.ceil(np.clip(lo - tol, -b - 1, b + 1)).astype(int)
    hi = np.floor(np.clip(hi + tol, -b - 1, b + 1)).astype(int)
    if np.any(hi < lo):
        return np.zeros((0, sys.d), dtype=int)
    if np.any(lo < -b) or np.any(hi > b):
        raise BudgetExceeded(
            f"translates j = {lo.tolist()}..{hi.tolist()} {what}; "
            f"the index budget allows |j| <= {b}"
        )
    mesh = np.meshgrid(*[np.arange(a, e + 1) for a, e in zip(lo, hi)], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _overlapping_js(f: GridSignal, sys: GaborSystem) -> np.ndarray:
    """All j whose scaled dual-window support meets the signal support."""
    if f.is_empty():
        return np.zeros((0, sys.d), dtype=int)
    lo, hi = f.support_box
    step, reach = sys.epsilon * sys.alpha, sys.epsilon * sys.alpha1 / 2.0
    return _translates(
        sys, (lo - reach) / step, (hi + reach) / step, 1e-9, "meet the signal support"
    )


def _placed(window: BumpWindow, sys: GaborSystem, js, origin, spacing, a_min, b_max):
    """window^eps, the offsets eps x_j of its translates, and their grid
    index boxes [a, b) clipped to [a_min, b_max)."""
    w = window.scaled(sys.epsilon)
    shifts = sys.epsilon * sys.x_point(js)
    return w, shifts, _index_box(w.lo + shifts, w.hi + shifts, origin, spacing, a_min, b_max)


def coefficients(
    f: GridSignal,
    sys: GaborSystem,
    freq_radius: float,
    js: np.ndarray | None = None,
    ball: LatticeBall | None = None,
) -> CoefficientTable:
    """Analysis coefficients c_{j,k}(eps) = (f, psi^eps_{j,k})_{L^2}.

    Computed as (2*pi)^(d/2) * F(f * psi^eps(. - eps x_j))(xi_k) for every
    frequency lattice point with |xi_k| <= freq_radius.  By default j runs
    over every translate overlapping the signal support; pass `js` to
    restrict (e.g. to a support index set around one point).  `ball` is
    the `LatticeBall` of sys.lambda2 and freq_radius when the caller already
    holds it (ValueError if it is another ball); the table points at the
    ball either way.

    Per batch of translates each axis factor of psi^eps is sampled once on
    the stacked offsets of every translate's box clipped to the signal
    support; a row's patch is f times the outer product of its axis samples,
    and the chirp-z kernel sums the patches onto the frequency lattice, on
    progressions taken exact from the ball's integer coordinates.  For a
    real f (and real windows) c_{j,-k} = conj(c_{j,k}), so on a centrally
    symmetric ball the kernel runs on the half ball k_d >= 0 only and the
    table holds just those columns (`CoefficientTable.half`); a complex f is
    transformed and held on the whole ball.  A row's noise floor counts the
    window's samples on the grid in 1D and the nonzero bounding box of the
    windowed patch otherwise.
    """
    check_positive(freq_radius, "freq_radius")
    if js is None:
        js = _overlapping_js(f, sys)
    js = np.atleast_2d(np.asarray(js, dtype=int))
    if js.size == 0:
        js = js.reshape(0, sys.d)
    if ball is None:
        ball = LatticeBall.of(sys.lambda2, freq_radius)
    elif not ball.is_of(sys.lambda2, freq_radius):
        raise ValueError(
            f"the frequency ball (radius {ball.radius:g}, lattice {ball.lattice.to_json()}) "
            f"is not the ball of radius {freq_radius:g} on {sys.lambda2.to_json()}"
        )
    _check_band(f, ball.points)
    n = ball.points.shape[0]
    computed, mirrored = ball.split(f.is_real)
    values = np.zeros((js.shape[0], n - mirrored.size), dtype=np.complex128)
    floor = 0.0
    if js.size and n:
        # (2*pi)^(d/2) of the coefficients cancels the transform's (2*pi)^(-d/2)
        origin, spacing, norm = f.origin, f.spacing, f.cell_volume
        w, shifts, (a, b) = _placed(sys.psi, sys, js, origin, spacing, *zip(*f.support))
        progs = _lattice_progressions(ball.lattice, ball.ks[computed])
        lengths = np.max(b - a, axis=0).clip(1)
        kernels = _kernels(progs, spacing, lengths)
        index = (slice(None),) + tuple(p.index for p in progs)
        for rows in _batch_rows(js.shape[0], kernels):
            patches = _gather(f.samples, a[rows], lengths)
            patches *= _window_batch(w, shifts[rows], origin, spacing, a[rows], b[rows], lengths)
            if sys.d == 1:  # the window's samples on the whole grid
                lo, hi = w.lo + shifts[rows], w.hi + shifts[rows]
                grid_a, grid_b = _index_box(lo, hi, origin, spacing, 0, f.shape)
                count = (grid_b - grid_a)[:, 0]
            else:  # the windowed patch's nonzero bounding box
                box = _support_from_nonzero(patches)
                count = np.prod(box[:, :, 1] - box[:, :, 0], axis=1)
            mass = np.sum(np.abs(patches), axis=tuple(range(1, patches.ndim)))
            row_floors = _EPS_FLOOR * np.sqrt(np.maximum(count, 1)) * norm * mass
            floor = max(floor, float(np.max(row_floors)))
            corners = origin + spacing * a[rows]
            sums = _along_axes(patches, kernels, corners.T, [p.start for p in progs])
            values[rows] = norm * sums[index]
    return CoefficientTable(js, ball, values, floor, bool(mirrored.size))


def reconstruct(table: CoefficientTable, sys: GaborSystem, grid: GridSignal) -> GridSignal:
    """Partial synthesis sum_{j,k} c_{j,k}(eps) phi^eps_{j,k} on the grid of
    the template `grid` (its samples are not read).

    The result converges to f as freq_radius grows; the residual is the
    coefficient tail plus quadrature error.  The sums over k run on each
    window's patch by the adjoint chirp-z kernel, batched over translates,
    on the progressions taken exact from the integer coordinates of the
    table's whole ball.  Per batch the coefficient box is filled from the
    batch's rows on the whole ball (`CoefficientTable.on_ball` mirrors a
    half-held table); each axis factor of phi^eps is sampled once, as in
    `coefficients`, and the patches are added onto the grid in order of j.
    """
    origin, spacing, shape = grid.origin, grid.spacing, grid.shape
    out = np.zeros(shape, dtype=np.complex128)
    ball = table.ball
    if table.js.size and ball.points.size:
        w, shifts, (a, b) = _placed(sys.phi, sys, table.js, origin, spacing, 0, shape)
        progs = _lattice_progressions(ball.lattice, ball.ks)
        lengths = np.max(b - a, axis=0).clip(1)
        kernels = _kernels(progs, spacing, lengths, adjoint=True)
        index = (slice(None),) + tuple(p.index for p in progs)
        for rows in _batch_rows(table.js.shape[0], kernels):
            coeffs = np.zeros((rows.stop - rows.start,) + tuple(p.size for p in progs),
                              dtype=np.complex128)
            coeffs[index] = table.on_ball(table.values[rows])
            corners = origin + spacing * a[rows]
            inner = _along_axes(coeffs, kernels, [p.start for p in progs], corners.T)
            inner *= _window_batch(w, shifts[rows], origin, spacing, a[rows], b[rows], lengths)
            for r, (lo, hi) in enumerate(zip(a[rows], b[rows])):
                if np.all(hi > lo):
                    region = tuple(slice(s, e) for s, e in zip(lo, hi))
                    out[region] += inner[(r,) + tuple(slice(0, e - s) for s, e in zip(lo, hi))]
    return GridSignal.from_samples(out, origin, spacing)


def support_index_set(sys: GaborSystem, x0) -> np.ndarray:
    """The finite set J_{x0}(eps): all j with x0 in supp phi^eps_{j,k}, in
    lexicographic order.  A table built on it (`coefficients(..., js=...)`)
    has these as its rows, so its j-aggregates are the sums over J_{x0}(eps).

    phi's support contains psi's, so the phi condition covers both windows;
    supports do not depend on the frequency index.  Raises BudgetExceeded
    when one of them lies past the index budget |j_i| <= _INDEX_BUDGET.
    """
    x0 = as_point(x0, sys.d, "x0")
    eps, alpha, half = sys.epsilon, sys.alpha, sys.alpha2 / 2.0
    return _translates(
        sys, (x0 / eps - half) / alpha, (x0 / eps + half) / alpha, 1e-12, f"hold x0 = {x0.tolist()}"
    )


def discrete_mod_norm(table: CoefficientTable, omega, p, q) -> float:
    """Mixed norm ( sum_k ( sum_j |c_{j,k} w(xi_k)|^p )^{q/p} )^{1/q}.

    p aggregates over the spatial index, q over frequency; inf means max.
    Weights are evaluated at xi_k only (x-independent, radial weights).  The
    inner norms are taken on the stored columns and mirrored onto the whole
    ball, as |conj c| = |c|.
    """
    p = check_exponent(p, "p")
    q = check_exponent(q, "q")
    if table.values.size == 0:
        return 0.0
    stored, _ = table.ball.split(table.half)
    a = np.abs(table.values) * omega(table.ball.points[stored])[None, :]
    if math.isinf(p):
        inner = np.max(a, axis=0)
    else:
        inner = np.sum(a**p, axis=0) ** (1.0 / p)
    inner = table.on_ball(inner)
    if math.isinf(q):
        return float(np.max(inner))
    return float(np.sum(inner**q) ** (1.0 / q))
