"""Expected verdicts and round-trip checks, written from the fixtures' definitions.

Nothing here calls microloc's verdict code: the expected answer of every
question follows from how the fixtures are built (`microloc.fixtures`), and
the round-trip checks recompute the error and the partition sum from the
raw windows.

* `jump_1d`: a step at x = 0 times a C-infinity envelope, so WF = {0} x {+-1}.
* `line_singularity_2d`: a step across x1 = 0 times a smooth profile in x2,
  so WF is the segment {x1 = 0, |x2| < 2.5} in every direction whose cone
  contains +-e1.
* `smooth_bump_1d` and `random_band_limited`: C-infinity, so WF is empty.
* On the singular support, the cone seminorm with weight <xi>^s diverges iff
  s > 1 - 1/q (s > 1 for q = inf); s = 1 - 1/q is not decided.
"""

from __future__ import annotations

import math

import numpy as np

DIVERGENT = "divergent"
FINITE = "finite"
INCONCLUSIVE = "inconclusive"

_ON_TOL = 1e-9
LINE_HALF_LENGTH = 2.5


def boundary_s(q: float) -> float:
    """The analytic regularity boundary s = 1 - 1/q of a jump."""
    return 1.0 if math.isinf(q) else 1.0 - 1.0 / q


def in_wavefront(fixture: str, x0, theta, aperture_deg: float = 20.0) -> bool:
    """Whether (x0, theta) lies in the fixture's wave-front set."""
    x0 = np.asarray(x0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if fixture == "jump_1d":
        return abs(x0[0]) < _ON_TOL
    if fixture == "line_singularity_2d":
        if abs(x0[0]) >= _ON_TOL or abs(x0[1]) >= LINE_HALF_LENGTH:
            return False
        cos_to_normal = abs(theta[0]) / float(np.linalg.norm(theta))
        return math.degrees(math.acos(min(1.0, cos_to_normal))) < aperture_deg
    if fixture in ("smooth_bump_1d", "random_band_limited"):
        return False
    raise ValueError(f"no oracle for fixture {fixture!r}")


def expected_kind(fixture: str, x0, theta, q: float, s: float, aperture_deg: float = 20.0):
    """'divergent' or 'finite', or None where s sits on the boundary."""
    if not in_wavefront(fixture, x0, theta, aperture_deg):
        return FINITE
    b = boundary_s(q)
    if s > b:
        return DIVERGENT
    if s < b:
        return FINITE
    return None


def judge(expected, fl, mod) -> str | None:
    """Why one answered question fails, or None when it passes.

    `fl` and `mod` are the two routes' verdict kinds, or an exception each
    route raised.  A question fails when a route raised, when the two routes
    give different conclusive verdicts, or when a conclusive verdict
    contradicts `expected` (None: only route agreement is checked).  An
    inconclusive verdict is never a failure.
    """
    for got in (fl, mod):
        if isinstance(got, BaseException):
            return "raised"
        if got not in (DIVERGENT, FINITE, INCONCLUSIVE):
            raise ValueError(f"not a verdict kind: {got!r}")
    if INCONCLUSIVE not in (fl, mod) and fl != mod:
        return "route_disagreement"
    if expected is not None:
        for got in (fl, mod):
            if got != INCONCLUSIVE and got != expected:
                return "contradiction"
    return None


def roundtrip_rel_l2(original: np.ndarray, rebuilt: np.ndarray) -> float:
    """Relative L2 error ||rebuilt - original|| / ||original|| over the grid."""
    original = np.asarray(original)
    rebuilt = np.asarray(rebuilt)
    if original.shape != rebuilt.shape:
        raise ValueError(f"shapes differ: {original.shape} vs {rebuilt.shape}")
    return float(np.linalg.norm(rebuilt - original) / np.linalg.norm(original))


def partition_deviation(phi, psi, alpha: float, beta: float, epsilon: float, d: int = 1,
                        n: int = 512) -> float:
    """max |sum_j (phi psi)((x - eps alpha j) / eps) - (beta / 2 pi)^d| over one period.

    `phi` and `psi` are the undilated windows as callables on (m, d) points;
    the dilated translates are phi^eps(x) = phi(x / eps).  Every j whose
    translate can reach the period [0, eps alpha)^d is summed, using that
    phi * psi vanishes outside the cube of side 2 pi / beta.
    """
    period = epsilon * alpha
    axis = period * np.arange(n) / n
    pts = np.stack([m.ravel() for m in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    reach = int(math.ceil(math.pi / (beta * alpha))) + 2
    total = np.zeros(pts.shape[0])
    for j in np.ndindex(*([2 * reach + 1] * d)):
        shift = alpha * (np.asarray(j, dtype=float) - reach)
        t = pts / epsilon - shift
        total += np.asarray(phi(t), dtype=float) * np.asarray(psi(t), dtype=float)
    return float(np.max(np.abs(total - (beta / (2.0 * math.pi)) ** d)))
