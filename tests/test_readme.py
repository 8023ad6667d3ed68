"""The README's quick-start code runs as written, on public names only, and
its module table names only attributes that exist."""

import importlib
import re
from pathlib import Path

import microloc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:  # later blocks reuse the first one's names
        exec(block, namespace)
    assert capsys.readouterr().out.split() == ["divergent", "divergent"]
    assert namespace["det"].predict([[0.0, 1.0], [3.0, 1.0]]).tolist() == [1, 0]
    assert namespace["spectrum"].shape == (namespace["ball"].points.shape[0],) == (241,)
    assert set(re.findall(r"\bml\.(\w+)", "".join(blocks))) <= set(microloc.__all__)


def test_readme_module_table_names_existing_attributes():
    # a `Class.attr` in a layout row must exist in that row's module, so a
    # removed method cannot stay in the table
    rows = re.findall(r"^\| `microloc\.(\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert len(rows) >= 10
    named = 0
    for module, contents in rows:
        mod = importlib.import_module(f"microloc.{module}")
        for cls, attr in re.findall(r"`([A-Z]\w*)\.(\w+)`", contents):
            assert hasattr(getattr(mod, cls, None), attr), f"microloc.{module} has no {cls}.{attr}"
            named += 1
    assert named >= 4
