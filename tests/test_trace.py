"""The benchmark's layer trace (`perfbench/tracer.py`) against the library:
every layer it wraps by name is reached by the calls the benchmark makes,
and its counters read those calls' arguments and results without raising.
The tracer replaces module attributes, so the calls go through `microloc`'s
namespace, as the benchmark's do."""

import importlib.util
import math
from pathlib import Path

import microloc as ml
from microloc.fixtures import random_band_limited

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_reached(jump, unit_pair):
    tracer_mod = _tracer_module()
    detector = ml.WavefrontDetector(q=1.0, s=1.0, method="both").fit(jump)
    sys0 = ml.build_agp(1.0, 1.0, 1)
    query = ml.WavefrontQuery([0.0], [1.0], q=1.0, weight=1.0)
    smooth = random_band_limited(n=2048, bandwidth=4.0, seed=0)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        ml.scan(jump, [[0.0]], [[1.0]], ml.ScanConfig())
        ml.df_fl_point(jump, query, unit_pair)
        ml.df_mod_point(jump, query, sys0)
        ml.reconstruct(ml.coefficients(smooth, sys0, 12.0), sys0, smooth)
        detector.predict([[0.0, 1.0]])
        metrics = tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.self_times()
    assert [layer for _, _, layer, _ in tracer_mod.TARGETS if calls.get(layer, 0) < 1] == []
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["gabor.coefficients.entries"] > 0 and metrics["signal.fourier_batch.freqs"] > 0
    # uninstalling puts every original back
    assert not hasattr(ml.scan, "__wrapped__")
    assert not hasattr(ml.seminorm.series_from_spectrum, "__wrapped__")
