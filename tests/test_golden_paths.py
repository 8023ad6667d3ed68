"""Frozen records of the verdict paths the standard matrix does not reach.

`tests/test_golden.py` freezes the standard matrix, whose triples have
finite exponents and whose records all answer.  This file freezes the rest
in `tests/golden/verdict_paths.jsonl`, in the same format and at the same
1e-9 relative tolerance:
- p = inf and q = inf triples on the jump and on the line;
- one record per error a route raises;
- the `result` block of the default `microloc scan` of both bundled
  fixtures, the line's route disagreements included, with its exit code;
- the perfbench fault probes.
After a change meant to alter verdicts, regenerate the file with
`PYTHONPATH=src python tests/test_golden_paths.py` and review the diff.
"""

import json
import math
import tempfile
from pathlib import Path

from microloc import ScanConfig, fixtures, scan
from microloc.cli import main
from test_golden import _mismatch

GOLDEN = Path(__file__).parent / "golden" / "verdict_paths.jsonl"
INF = math.inf
_INF_PQS = ((INF, 1.0, 1.0), (1.0, INF, 0.5), (2.0, INF, 1.5), (INF, INF, 1.5))
_UNIT = {"alpha": 1.0, "beta": 1.0}
_LINE = {"alpha": 2.5, "beta": 1.0, "gabor_alpha": 2.0, "gabor_alpha1": 5.0, "r_max": 180.0}
_SIGNALS = {"jump": fixtures.jump_1d, "line_singularity": fixtures.line_singularity_2d}

# (case, fixture, x_grid, directions, ScanConfig settings)
SCANS = (
    ("infinite exponents", "jump", [[0.0], [3.0]], [[1.0], [-1.0]], {**_UNIT, "pqs": _INF_PQS}),
    ("infinite exponents", "line_singularity", [[0.0, 0.0], [2.0, 0.0]],
     [[1.0, 0.0], [0.0, 1.0]], {**_LINE, "pqs": _INF_PQS}),
    ("DomainClipped on a cell face", "jump", [[0.5]], [[1.0]], _UNIT),
    ("DomainClipped outside the domain", "jump", [[9.0]], [[1.0]], _UNIT),
    ("EpsilonTooLarge", "jump", [[7.0]], [[1.0]], {**_UNIT, "epsilon": 1.0}),
    ("BudgetExceeded", "jump", [[0.0]], [[1.0]], {**_UNIT, "r_max": 2e8}),
    ("TooFewShells", "jump", [[0.0]], [[1.0]], {**_UNIT, "r_max": 40.0}),
    ("fault probes", "jump", [[0.032], [0.4]], [[1.0]], _UNIT),
    ("fault probe", "line_singularity", [[1.1, 0.2]], [[0.0, 1.0]], _LINE),
)


def _default_scans() -> list[dict]:
    """The `result` block and exit code of `microloc scan --signal S` with no
    config, per bundled fixture S, as one record per line."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        main(["make-fixtures", "--out", str(tmp)])
        for name in _SIGNALS:
            report = tmp / f"{name}_scan.json"
            code = main(["scan", "--signal", str(tmp / f"{name}.json"), "--out", str(report)])
            result = json.loads(report.read_text())["result"]
            case = {"case": "default scan", "fixture": name}
            out.append({**case, "exit": code, "equivalence": result["equivalence"]})
            out.extend({**case, **rec} for rec in result["records"])
    return out


def _lines() -> list[str]:
    blobs = [
        {"case": case, "fixture": name, **rec.to_json()}
        for case, name, x_grid, directions, settings in SCANS
        for rec in scan(_SIGNALS[name](), x_grid, directions, ScanConfig(**settings)).records
    ]
    return [json.dumps(b, sort_keys=True) for b in blobs + _default_scans()]


def test_verdict_paths_match_golden():
    want = GOLDEN.read_text().splitlines()
    got = _lines()
    assert len(got) == len(want)
    problems = [
        why
        for i, (g, w) in enumerate(zip(got, want))
        if (why := _mismatch(json.loads(g), json.loads(w), f"record {i}"))
    ]
    assert not problems, "\n".join(problems[:10])


def test_golden_holds_every_path():
    """The file keeps what it is for: infinite exponents on both routes,
    each error once or more, and the line's disagreements."""
    blobs = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    records = [b for b in blobs if "x0" in b]
    assert any(math.isinf(b["p"]) for b in records) and any(math.isinf(b["q"]) for b in records)
    errors = {e.split(":")[0] for b in records for e in (b["error_fl"], b["error_mod"]) if e}
    assert errors == {"DomainClipped", "EpsilonTooLarge", "BudgetExceeded", "TooFewShells"}
    (line_scan,) = [b for b in blobs if "equivalence" in b and b["fixture"] == "line_singularity"]
    assert line_scan["exit"] == 1 and line_scan["equivalence"]["n_disagreements"] == 2


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(_lines()) + "\n")
    print(f"wrote {GOLDEN}")
