"""The output fingerprint `tools/fingerprint.py`: taken of two cheap
outputs and compared through its command line, it reports a fingerprint
identical to itself, and names the record of a perturbed copy."""

import copy
import importlib.util
import json
import re
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_OUTPUTS = ("transforms", "fourier_at")


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprint", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(tool, a, b, tmp_path, capsys):
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path, fp in zip(paths, (a, b)):
        path.write_text(json.dumps(fp))
    code = tool.main(["--compare", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()


def test_compare_reports_identical_and_names_a_perturbed_record(tmp_path, capsys):
    tool = _tool()
    fp = json.loads(json.dumps(tool.fingerprint(_OUTPUTS)))
    assert list(fp) == list(_OUTPUTS)
    assert _compare(tool, fp, fp, tmp_path, capsys) == (
        0, ["transforms: identical (5 records)", "fourier_at: identical (5 records)"])

    # a float moved by a relative 1e-12: the same texts, and where it moved
    moved = copy.deepcopy(fp)
    rec = moved["fourier_at"]["records"][3]
    assert rec["label"] == "jump_1d"
    rec["floats"]["[1].re"] = repr(float(rec["floats"]["[1].re"]) * (1 + 1e-12))
    code, lines = _compare(tool, fp, moved, tmp_path, capsys)
    assert code == 1 and lines[0] == "transforms: identical (5 records)"
    found = re.fullmatch(r"fourier_at: same kinds, codes and texts; worst relative float "
                         r"deviation (\S+) at record 'jump_1d' \[1\]\.re \(.*\)", lines[1])
    assert found and abs(float(found[1]) - 1e-12) < 1e-14

    # an error text changed: the first record that differs, and its leaf
    changed = copy.deepcopy(fp)
    changed["fourier_at"]["records"][1]["texts"]["[4]"] = "ValueError: other"
    code, lines = _compare(tool, fp, changed, tmp_path, capsys)
    assert code == 1
    assert lines[1].startswith("fourier_at: differs at record 1 'triangle_1d': [4] "
                               "'FrequencyOutOfRange: ")
    assert lines[1].endswith(" -> 'ValueError: other'")

    # an output missing from one side
    del changed["transforms"]
    assert _compare(tool, fp, changed, tmp_path, capsys)[1][0] == "transforms: only in A"
