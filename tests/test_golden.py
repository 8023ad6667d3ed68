"""Frozen records of the standard equivalence matrix.

Every record of `selftest._standard_estimates()` is compared with
`tests/golden/standard_matrix.jsonl`, one JSON record per line.  Kinds,
codes, error texts and shell counts must match exactly; fitted floats (tau,
value, sigma, residual, ...) within 1e-9 relative, since BLAS blocking may
move their last bits.  After a change meant to alter verdicts, regenerate
the file with `PYTHONPATH=src python tests/test_golden.py` and review the
diff.
"""

import json
import math
from pathlib import Path

from microloc.selftest import _standard_estimates

GOLDEN = Path(__file__).parent / "golden" / "standard_matrix.jsonl"
NAMES = ("jump_1d", "smooth_bump_1d", "line_singularity_2d")
REL_TOL = 1e-9


def _lines() -> list[str]:
    return [
        json.dumps({"estimate": name, **rec.to_json()}, sort_keys=True)
        for name, est in zip(NAMES, _standard_estimates())
        for rec in est.records
    ]


def _mismatch(got, want, where: str) -> str | None:
    if isinstance(want, float) and isinstance(got, float):
        same = got == want or math.isclose(got, want, rel_tol=REL_TOL)
        return None if same else f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            why = _mismatch(got[key], want[key], f"{where}.{key}")
            if why:
                return why
        return None
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            why = _mismatch(g, w, f"{where}[{i}]")
            if why:
                return why
        return None
    return None if type(got) is type(want) and got == want else f"{where}: {got!r} != {want!r}"


def test_standard_matrix_matches_golden():
    want = GOLDEN.read_text().splitlines()
    got = _lines()
    assert len(got) == len(want) == 240
    problems = [
        why
        for i, (g, w) in enumerate(zip(got, want))
        if (why := _mismatch(json.loads(g), json.loads(w), f"record {i}"))
    ]
    assert not problems, "\n".join(problems[:10])


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(_lines()) + "\n")
    print(f"wrote {GOLDEN}")
