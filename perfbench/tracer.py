"""Layer spans and counters, taken from outside the library.

`Tracer.install` replaces each traced function by a wrapper wherever
microloc holds a reference to it: in its defining module, in every module
that imported it by name, and on its class for methods.  A wrapper records a
span (name, start, end, parent) in memory and updates the layer's counters
from the call's arguments and result.  `uninstall` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children and minus the time their counters took; spans nest properly
because the library runs on one thread.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _count_points_in_ball(c, args, kwargs, out):
    lat, r_max = args[0], args[1]
    r_min = args[2] if len(args) > 2 else kwargs.get("r_min", -1.0)
    c["points"] += out[0].shape[0]
    c.setdefault("_args", set()).add(
        (lat.basis.tobytes(), lat.offset.tobytes(), float(r_max), float(r_min))
    )


def _count_cone_contains(c, args, kwargs, out):
    c["points"] += np.asarray(args[1]).size // args[0].d


def _count_classify(c, args, kwargs, out):
    diag = out.diagnostics
    c["shells_fitted"] += diag.get("n_fit", 0)
    c["shells_trimmed"] += diag.get("n_trimmed", 0)
    c["shells_floored"] += diag.get("n_floored", 0)


def _count_multiply(c, args, kwargs, out):
    c["alloc_mb"] += out.samples.nbytes / 1e6
    c["_allocated"] += out.samples.size
    c["_support"] += int(np.prod([b - a for a, b in out.support]))


def _count_fourier_batch(c, args, kwargs, out):
    c["freqs"] += out.shape[0]


def _count_matmul_1d(c, args, kwargs, out):
    c["kernel_entries"] += args[0].samples.size * np.unique(args[1]).size


def _count_matmul_2d(c, args, kwargs, out):
    g, freqs = args[0], args[1]
    n1, n2 = g.shape
    k1 = np.unique(freqs[:, 0]).size
    k2 = np.unique(freqs[:, 1]).size
    c["kernel_entries"] += n1 * k1 + n2 * k2


def _count_direct(c, args, kwargs, out):
    g, freqs = args[0], args[1]
    c["kernel_entries"] += int(np.count_nonzero(g.samples)) * freqs.shape[0]


def _count_coefficients(c, args, kwargs, out):
    c["entries"] += out.values.size


def _count_reconstruct(c, args, kwargs, out):
    c["entries"] += args[0].values.size


def _count_predict(c, args, kwargs, out):
    c["rows"] += out.shape[0]


# (module, attribute path, layer name, counter).  Counters that serve a
# parent layer (the transform paths) name that layer in `layer`.
TARGETS = [
    ("microloc.lattice", "points_in_ball", "lattice.points_in_ball", _count_points_in_ball),
    ("microloc.geometry", "Cone.contains", "geometry.Cone.contains", _count_cone_contains),
    ("microloc.seminorm", "series_from_spectrum", "seminorm.series_from_spectrum", None),
    ("microloc.seminorm", "discrete_mod_series", "seminorm.discrete_mod_series", None),
    ("microloc.seminorm", "classify", "seminorm.classify", _count_classify),
    ("microloc.signal", "multiply", "signal.multiply", _count_multiply),
    ("microloc.signal", "fourier_batch", "signal.fourier_batch", _count_fourier_batch),
    ("microloc.gabor", "coefficients", "gabor.coefficients", _count_coefficients),
    ("microloc.gabor", "reconstruct", "gabor.reconstruct", _count_reconstruct),
    ("microloc.wavefront", "scan", "wavefront.scan", None),
    ("microloc.wavefront", "df_fl_point", "wavefront.df_fl_point", None),
    ("microloc.wavefront", "df_mod_point", "wavefront.df_mod_point", None),
    ("microloc.estimator", "WavefrontDetector.predict", "estimator.WavefrontDetector.predict",
     _count_predict),
]

# Private transform paths of `fourier_batch`, timed as parts of that layer.
# A path the library no longer has is reported absent.
PATHS = [
    ("_fft_path_1d", "fft_1d", None),
    ("_matmul_1d", "matmul_1d", _count_matmul_1d),
    ("_matmul_2d", "matmul_2d", _count_matmul_2d),
    ("_direct", "direct", _count_direct),
]

# Extra statistics each layer reports besides `calls` and `self_s`.
STATS = {
    "lattice.points_in_ball": ("points", "distinct_args"),
    "geometry.Cone.contains": ("points",),
    "seminorm.classify": ("shells_fitted", "shells_trimmed", "shells_floored"),
    "signal.multiply": ("alloc_mb", "support_ratio"),
    "signal.fourier_batch": ("freqs", "kernel_entries") + tuple(f"{p}_s" for _, p, _ in PATHS),
    "gabor.coefficients": ("entries",),
    "gabor.reconstruct": ("entries",),
    "estimator.WavefrontDetector.predict": ("rows", "scans_per_row"),
}


class Tracer:
    """Records spans and counters of the traced layers while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._paused = [False]
        # Time spent counting after a call ends, per enclosing span: it is
        # tracing overhead, so it is kept out of that span's self time.
        self._count_time: dict = defaultdict(float)

    def _wrap(self, name: str, fn, count, counters_of: str):
        spans, stack = self.spans, self._stack
        counters = self.counters[counters_of]
        clock = time.perf_counter
        paused = self._paused
        count_time = self._count_time

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None and out is not None:
                count(counters, args, kwargs, out)
                if parent >= 0:
                    count_time[parent] += clock() - t1
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "microloc" or mod_name.startswith("microloc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for mod_name, path, layer, count in TARGETS:
            mod = importlib.import_module(mod_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, count, layer))
            else:
                original = getattr(mod, attr)
                self._patch_everywhere(original, self._wrap(layer, original, count, layer))
        signal_mod = importlib.import_module("microloc.signal")
        for attr, path_name, count in PATHS:
            original = getattr(signal_mod, attr, None)
            if original is None:
                self.absent.append(path_name)
                continue
            wrapper = self._wrap(f"signal.fourier_batch.{path_name}", original, count,
                                 "signal.fourier_batch")
            self._patch_everywhere(original, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this context are neither timed nor counted."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total duration, and self time."""
        child_time = [0.0] * len(self.spans)
        for i, t in self._count_time.items():
            child_time[i] += t
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_time[i]
        return calls, total, self_s

    def scans_under_predict(self) -> int:
        """Scan spans that ran inside a `predict` span."""
        n = 0
        for name, _, _, parent in self.spans:
            if name != "wavefront.scan":
                continue
            while parent >= 0:
                if self.spans[parent][0] == "estimator.WavefrontDetector.predict":
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def layer_metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload's operations."""
        calls, total, self_s = self.self_times()
        out = {}
        for _, _, layer, _ in TARGETS:
            out[f"{layer}.calls"] = calls.get(layer, 0) / rounds
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / rounds
            c = self.counters.get(layer, {})
            for stat in STATS.get(layer, ()):
                if stat == "distinct_args":
                    value = len(c.get("_args", ()))
                elif stat == "support_ratio":
                    value = c.get("_support", 0) / c["_allocated"] if c.get("_allocated") else 0.0
                elif stat == "scans_per_row":
                    rows = c.get("rows", 0)
                    value = self.scans_under_predict() / rows if rows else 0.0
                elif stat.endswith("_s"):
                    value = total.get(f"{layer}.{stat[:-2]}", 0.0) / rounds
                else:
                    value = c.get(stat, 0) / rounds
                out[f"{layer}.{stat}"] = value
        return out
