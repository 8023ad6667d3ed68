"""Fingerprint microloc's outputs on a fixed battery of inputs, and compare
two fingerprints: the before/after check of a change that must not move
what the library decides.

    PYTHONPATH=src python3 tools/fingerprint.py --out FILE
    python3 tools/fingerprint.py --compare A B

`--out` runs the battery through the microloc on the import path.  Each
named output is a list of records; a record is a label plus its leaves, in
a fixed order: the texts (strings, ints, bools, None: kinds, codes, error
texts) and the floats, written as their shortest round-trip repr so that
equal bits read equal.  Complex values are split into their real and
imaginary parts.  Durations and file paths are dropped, and of a report
only its `result` block is read (its `meta` holds the timestamp).  The file
holds, per output, the sha256 of its records and the records.

`--compare` prints one line per output:
  identical             the same records, bit for bit;
  same texts            the same labels, texts and float places, with the
                        worst relative float deviation and where it is;
  differs               the first record whose label, texts or float places
                        differ, and its first differing leaf.
It exits 0 when every output is identical and 1 otherwise.

To compare a change against its parent, fingerprint each from its own
checkout (a `git worktree` or `git archive` of the base commit), with
PYTHONPATH at that checkout's `src`, and compare the two files.  Uses only
the standard library and numpy besides microloc.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

_DIAG = math.sqrt(0.5)
DIRS_1D = ([1.0], [-1.0])
# The line fixture is asked on the standard matrix's lattices.
LINE = dict(alpha=2.5, beta=1.0, gabor_alpha=2.0, gabor_alpha1=5.0, r_max=180.0)
# One fixed question per known fault: a cutoff reaching the jump, the two
# routes reaching differently, an under-resolved cutoff on the line.
PROBES = (("jump", [0.032], [1.0]), ("jump", [0.4], [1.0]), ("line", [1.1, 0.2], [0.0, 1.0]))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def _leaves(obj, path, texts, floats):
    """Sort obj's leaves into texts and floats under dotted paths."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        for key in sorted(obj):
            if key != "duration_s":
                _leaves(obj[key], f"{path}.{key}" if path else str(key), texts, floats)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _leaves(item, f"{path}[{i}]", texts, floats)
    elif isinstance(obj, complex):
        floats[f"{path}.re"], floats[f"{path}.im"] = repr(obj.real), repr(obj.imag)
    elif isinstance(obj, float):
        floats[path] = repr(obj)
    elif obj is None or isinstance(obj, (str, int, bool)):
        texts[path] = obj
    else:
        raise TypeError(f"no fingerprint for {type(obj).__name__} at {path}")


def record(label: str, obj) -> dict:
    texts, floats = {}, {}
    _leaves(obj, "", texts, floats)
    return {"label": label, "texts": texts, "floats": floats}


def _answer(call):
    """call()'s result, or the text of the error it raised."""
    try:
        return call()
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------


def standard_matrix(ml):
    """The 240 records of the standard equivalence matrix, as selftest and
    the golden file build it."""
    names = ("jump_1d", "smooth_bump_1d", "line_singularity_2d")
    return [record(f"{name} {i}", rec.to_json())
            for name, est in zip(names, ml.selftest._standard_estimates())
            for i, rec in enumerate(est.records)]


def _heatmap(path: Path) -> list:
    """The heatmap's cells, numbers as floats."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(c) for c in row] for row in csv.reader(path.open())]


def cli_fixtures(ml):
    """Default `analyze` and `scan` of the three bundled fixtures: exit
    code, result block (or error line) and, for scan, the heatmap."""
    from microloc.cli import main

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = sorted(ml.fixtures.write_fixture_set(tmp / "fixtures"))
        for name in names:
            for command in ("analyze", "scan"):
                report = tmp / f"{name}_{command}.json"
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([command, "--signal", str(tmp / "fixtures" / f"{name}.json"),
                                 "--out", str(report)])
                blob = {"exit": code, "stderr": err.getvalue().replace(str(tmp), "<tmp>")}
                if report.exists():
                    blob["result"] = json.loads(report.read_text())["result"]
                heat = tmp / f"{name}_{command}_heatmap.csv"
                if heat.exists():
                    blob["heatmap"] = _heatmap(heat)
                out.append(record(f"{command} {name}", blob))
    return out


def selftest(ml):
    """`microloc selftest --out` per suite, durations dropped."""
    from microloc.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "selftest.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["selftest", "--out", str(report)])
        result = json.loads(report.read_text())["result"]
    out = [record("exit", {"exit": code, "passed": result["passed"]})]
    return out + [record(suite["name"], suite) for suite in result["suites"]]


def predict_records(ml):
    """WavefrontDetector.predict_records and predict on fixed rows per
    (p, q, s), and the three fault probes at the first (p, q, s)."""
    fx = ml.fixtures
    settings = {
        "jump": (fx.jump_1d(), {"alpha": 1.0},
                 [[x0, th] for x0 in (0.0, 2.125) for (th,) in DIRS_1D]),
        "line": (fx.line_singularity_2d(), {"alpha": LINE["alpha"], "r_max": LINE["r_max"]},
                 [[0.0, 0.5, 1.0, 0.0], [0.0, 0.5, 0.0, 1.0], [2.0, -0.5, 1.0, 0.0]]),
    }
    out = []
    for n, (p, q, s) in enumerate(ml.selftest._STANDARD_PQS):
        for name, (f, lattice, rows) in settings.items():
            det = ml.WavefrontDetector(q=q, p=p, s=s, beta=1.0, method="both", **lattice).fit(f)
            asked = rows + [x0 + th for fixture, x0, th in PROBES if fixture == name and n == 0]
            blob = {"repr": repr(det), "codes": det.predict(asked),
                    "records": [rec.to_json() for rec in det.predict_records(asked).records]}
            out.append(record(f"{name} {(p, q, s)}", blob))
    return out


def point_verdicts(ml):
    """df_fl_point and df_mod_point, or their error texts, on fixed
    questions, the fault probes among them."""
    fx = ml.fixtures
    pair1, sys1 = ml.ScanConfig(alpha=1.0, beta=1.0).lattice_pair(1), ml.build_agp(1.0, 1.0, 1)
    pair2 = ml.ScanConfig(**LINE).lattice_pair(2)
    sys2 = ml.build_agp(LINE["gabor_alpha"], 1.0, 2, alpha1=LINE["gabor_alpha1"])
    setting = {"jump": (fx.jump_1d(), pair1, sys1, None),
               "bump": (fx.smooth_bump_1d(), pair1, sys1, None),
               "line": (fx.line_singularity_2d(), pair2, sys2, LINE["r_max"])}
    questions = [("jump", [x0], th) for x0 in (0.0, 1.125, -2.25) for th in DIRS_1D]
    questions += [("bump", [x0], [1.0]) for x0 in (0.0, 1.125, 0.5)]
    questions += [("line", [0.0, 0.5], [1.0, 0.0]), ("line", [2.0, -0.5], [_DIAG, _DIAG]),
                  ("line", [0.5, 0.5], [1.0, 0.0])]
    triples = ml.selftest._STANDARD_PQS
    pqs = [triples[n % len(triples)] for n in range(len(questions))]
    out = []
    for (name, x0, theta), (p, q, s) in zip(questions + list(PROBES),
                                            pqs + [triples[0]] * len(PROBES)):
        f, pair, gsys, r_max = setting[name]
        query = ml.WavefrontQuery(x0, theta, q=q, p=p, weight=s, r_max=r_max)
        blob = {route.__name__: _answer(lambda: route(f, query, arg).to_json())
                for route, arg in ((ml.df_fl_point, pair), (ml.df_mod_point, gsys))}
        out.append(record(f"{name} x0={x0} theta={theta} pqs={(p, q, s)}", blob))
    return out


def transforms(ml):
    """fourier_batch on lattice balls, plain and offset, 1D and 2D, and
    Gabor coefficient tables of a 1D and a 2D signal."""
    fx = ml.fixtures
    bump, jump, line = fx.smooth_bump_1d(n=1024), fx.jump_1d(n=2048), fx.line_singularity_2d(n=64)
    balls = (
        ("bump Z", bump, ml.LatticeBall.of(ml.scaled_integer_lattice(0.75, 1), 60.0)),
        ("jump Z+1/3", jump, ml.LatticeBall.of(ml.scaled_integer_lattice(1.0, 1, [1 / 3]), 90.0)),
        ("line 2D", line, ml.LatticeBall.of(ml.make_lattice(np.diag([1.5, 0.7])), 12.0)),
    )
    out = [record(f"fourier_batch {name}", ml.fourier_batch(f, ball)) for name, f, ball in balls]
    tables = (("jump", jump, ml.build_agp(1.0, 1.0, 1).with_epsilon(0.5), 20.0),
              ("line", line, ml.build_agp(2.0, 1.0, 2, alpha1=5.0).with_epsilon(0.5), 6.0))
    for name, f, gsys, radius in tables:
        table = ml.coefficients(f, gsys, radius)
        out.append(record(f"coefficients {name}", {"js": table.js, "values": table.values,
                                                   "floors": table.floors}))
    return out


def _five(ml):
    fx = ml.fixtures
    return (("smooth_bump_1d", fx.smooth_bump_1d()), ("triangle_1d", fx.triangle_1d()),
            ("truncated_gaussian_1d", fx.truncated_gaussian_1d()), ("jump_1d", fx.jump_1d()),
            ("line_singularity_2d", fx.line_singularity_2d()))


def fourier_at(ml):
    """fourier_at on the five fixtures at fixed frequencies, one past the band."""
    out = []
    for name, f in _five(ml):
        xis = [[x] * f.d for x in (0.0, 1.0, -7.5, 33.25)] + [list(2 * f.nyquist_limit())]
        out.append(record(name, [_answer(lambda: ml.fourier_at(f, xi)) for xi in xis]))
    return out


def stft(ml):
    """The short-time transform (`signal._stft`) on the five fixtures under a
    fixed bump window, at fixed (x, xi)."""
    from microloc.signal import _stft

    out = []
    for name, f in _five(ml):
        w = ml.smooth_bump_window([0.0] * f.d, [0.75] * f.d)
        asks = [([x] * f.d, [xi] * f.d) for x in (0.0, 0.4, -1.3) for xi in (0.5, -12.0)]
        out.append(record(name, [_answer(lambda: _stft(f, w, x, xi)) for x, xi in asks]))
    return out


OUTPUTS = {
    "standard_matrix": standard_matrix,
    "cli_fixtures": cli_fixtures,
    "selftest": selftest,
    "predict_records": predict_records,
    "point_verdicts": point_verdicts,
    "transforms": transforms,
    "fourier_at": fourier_at,
    "stft": stft,
}


def fingerprint(names=None) -> dict:
    """{output: {"sha256", "records"}} of the named outputs (all by default)."""
    import microloc as ml
    import microloc.fixtures  # noqa: F401  (ml.fixtures)
    import microloc.selftest  # noqa: F401  (ml.selftest)

    out = {}
    for name in names or OUTPUTS:
        records = OUTPUTS[name](ml)
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        out[name] = {"sha256": digest, "records": records}
    return out


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if a == b or x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _first_difference(ra: dict, rb: dict) -> str | None:
    """The first leaf at which two records differ other than in a float's
    value, or None."""
    if ra["label"] != rb["label"]:
        return f"label {ra['label']!r} -> {rb['label']!r}"
    for part in ("texts", "floats"):
        a, b = ra[part], rb[part]
        for path in list(a) + [p for p in b if p not in a]:
            if path not in a or path not in b:
                return f"{part} {path} only in {'B' if path not in a else 'A'}"
            if part == "texts" and a[path] != b[path]:
                return f"{path} {a[path]!r} -> {b[path]!r}"
    return None


def compare_output(name: str, a: dict, b: dict) -> tuple[bool, str]:
    """(identical, the line that says how output `name` compares)."""
    if a["sha256"] == b["sha256"] and a["records"] == b["records"]:
        return True, f"{name}: identical ({len(a['records'])} records)"
    ra, rb = a["records"], b["records"]
    for i, (x, y) in enumerate(zip(ra, rb)):
        why = _first_difference(x, y)
        if why:
            return False, f"{name}: differs at record {i} {x['label']!r}: {why}"
    if len(ra) != len(rb):
        return False, f"{name}: differs at record {min(len(ra), len(rb))}: {len(ra)} records -> {len(rb)}"
    worst, where = 0.0, None
    for x, y in zip(ra, rb):
        for path, va in x["floats"].items():
            dev = _relative(va, y["floats"][path])
            if dev > worst:
                worst, where = dev, f"record {x['label']!r} {path} ({va} -> {y['floats'][path]})"
    if where is None:
        return False, f"{name}: same kinds, codes and texts; floats equal but for signs of zero"
    return False, (f"{name}: same kinds, codes and texts; worst relative float deviation "
                   f"{worst:.3g} at {where}")


def compare(a: dict, b: dict) -> tuple[bool, list[str]]:
    """(every output identical, one line per output of either fingerprint)."""
    lines, same = [], True
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b:
            same = False
            lines.append(f"{name}: only in {'B' if name not in a else 'A'}")
            continue
        ok, line = compare_output(name, a[name], b[name])
        same &= ok
        lines.append(line)
    return same, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--out", metavar="FILE", help="write the fingerprint of the battery")
    what.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprints")
    args = parser.parse_args(argv)
    if args.out:
        Path(args.out).write_text(json.dumps(fingerprint()) + "\n")
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    same, lines = compare(a, b)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
