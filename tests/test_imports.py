"""Static checks over the library's modules: every imported name is read
(or re-exported through `__all__`), and every import sits at module level,
so a name left behind when code moves between modules shows here."""

import ast
from pathlib import Path

import pytest

_MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "microloc").glob("*.py"))


def _imported(node):
    """(name bound, line) of each alias an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_read_and_at_module_level(path):
    tree = ast.parse(path.read_text())
    imports = (ast.Import, ast.ImportFrom)
    nested = [
        f"{path.name}:{node.lineno}"
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, imports)
    ]
    assert nested == [], f"imports inside a function: {nested}"
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [
        f"{path.name}:{line} {name}"
        for node in tree.body if isinstance(node, imports)
        for name, line in _imported(node) if name not in read | exported
    ]
    assert unread == [], f"imported names never read: {unread}"
