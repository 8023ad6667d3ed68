"""The README's quick-start code runs as written, on public names only."""

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
