"""Built-in test signals.

All fixtures are generated, never shipped as binaries.  The jump fixtures
sample a sharp step (value 1/2 on the grid node at the jump); their computed
spectrum follows the exact 1/|xi| law of the truncated step up to the alias
factor, which stays within a few percent below the alias-safe radius used by
the wave-front defaults.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .signal import (
    DEFAULT_GRID_1D,
    DEFAULT_GRID_2D,
    GridSignal,
    make_cutoff,
    save_signal,
    smooth_bump_window,
)


def _axis(n: int, lo: float, hi: float) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + h * np.arange(n), h


def smooth_bump_1d(
    n: int = DEFAULT_GRID_1D[0],
    lo: float = DEFAULT_GRID_1D[1],
    hi: float = DEFAULT_GRID_1D[2],
    center: float = 0.0,
    radius: float = 2.0,
) -> GridSignal:
    """C-infinity bump, peak 1 at the center; empty wave-front set."""
    x, h = _axis(n, lo, hi)
    w = smooth_bump_window([center], [radius])
    return GridSignal.from_samples(w(x[:, None]).astype(complex), [lo], [h])


def triangle_1d(
    n: int = DEFAULT_GRID_1D[0], lo: float = DEFAULT_GRID_1D[1], hi: float = DEFAULT_GRID_1D[2]
) -> GridSignal:
    """max(0, 1 - |x|); transform (2*pi)^(-1/2) (sin(xi/2)/(xi/2))^2."""
    x, h = _axis(n, lo, hi)
    return GridSignal.from_samples(np.maximum(0.0, 1.0 - np.abs(x)).astype(complex), [lo], [h])


def truncated_gaussian_1d(n: int = 2**14, lo: float = -12.0, hi: float = 12.0) -> GridSignal:
    """exp(-x^2/2) truncated at the box; the unitary-convention fixed point."""
    x, h = _axis(n, lo, hi)
    return GridSignal.from_samples(np.exp(-0.5 * x * x).astype(complex), [lo], [h])


def _step(x: np.ndarray, at: float) -> np.ndarray:
    out = (x > at).astype(float)
    out[np.isclose(x, at, rtol=0.0, atol=1e-12)] = 0.5
    return out


def jump_1d(
    n: int = DEFAULT_GRID_1D[0],
    lo: float = DEFAULT_GRID_1D[1],
    hi: float = DEFAULT_GRID_1D[2],
    jump_at: float = 0.0,
    plateau: float = 4.0,
    support: float = 6.0,
) -> GridSignal:
    """Sampled Heaviside step times a smooth envelope.

    Smooth everywhere except the jump, where |F| ~ (2*pi)^(-1/2)/|xi|; the
    analytic regularity boundary is s = 1 - 1/q.
    """
    x, h = _axis(n, lo, hi)
    env = make_cutoff(([-plateau], [plateau]), ([-support], [support]))
    vals = _step(x, jump_at) * env(x[:, None])
    return GridSignal.from_samples(vals.astype(complex), [lo], [h])


def jump_1d_in_cell(
    n: int = DEFAULT_GRID_1D[0],
    lo: float = DEFAULT_GRID_1D[1],
    hi: float = DEFAULT_GRID_1D[2],
) -> GridSignal:
    """Jump fixture supported in [-2.5, 2.5] (fits one cell of 6Z - 3)."""
    return jump_1d(n, lo, hi, jump_at=0.0, plateau=1.5, support=2.5)


def line_singularity_2d(
    n: int = DEFAULT_GRID_2D[0], lo: float = DEFAULT_GRID_2D[1], hi: float = DEFAULT_GRID_2D[2]
) -> GridSignal:
    """Step across the line x1 = 0 times a smooth profile in x2.

    Supported in [-2.5, 2.5]^2; singular support is the segment of the line
    x1 = 0, with wave-front directions along +-(1, 0).
    """
    x, h = _axis(n, lo, hi)
    env1 = make_cutoff(([-1.5], [1.5]), ([-2.5], [2.5]))
    prof2 = make_cutoff(([-1.5], [1.5]), ([-2.5], [2.5]))
    f1 = _step(x, 0.0) * env1(x[:, None])
    f2 = prof2(x[:, None])
    return GridSignal.from_samples(np.outer(f1, f2).astype(complex), [lo, lo], [h, h])


def random_band_limited(
    n: int = 2**12,
    lo: float = -8.0,
    hi: float = 8.0,
    bandwidth: float = 8.0,
    n_modes: int = 9,
    support_radius: float = 2.0,
    seed: int = 0,
) -> GridSignal:
    """Smooth compactly supported signal with energy below `bandwidth`.

    A random trigonometric polynomial under a fixed C-infinity envelope;
    effectively band-limited (the envelope adds only superpolynomially
    decaying tails).
    """
    rng = np.random.default_rng(seed)
    x, h = _axis(n, lo, hi)
    freqs = np.linspace(-bandwidth, bandwidth, 2 * n_modes + 1)
    amps = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
    vals = (np.exp(1j * np.outer(x, freqs)) @ amps) / math.sqrt(freqs.size)
    env = make_cutoff(
        ([-0.6 * support_radius], [0.6 * support_radius]),
        ([-support_radius], [support_radius]),
    )
    return GridSignal.from_samples(vals * env(x[:, None]), [lo], [h])


FIXTURE_BUILDERS = {
    "smooth_bump": smooth_bump_1d,
    "jump": jump_1d,
    "line_singularity": line_singularity_2d,
}


def write_fixture_set(out_dir) -> dict:
    """Generate the bundled fixtures into a directory; returns a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, builder in FIXTURE_BUILDERS.items():
        f = builder()
        jpath, bpath = save_signal(f, out / name)
        manifest[name] = {
            "header": jpath.name,
            "data": bpath.name,
            "d": f.d,
            "shape": list(f.shape),
        }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
