"""Size of the library, per module of src/microloc and in total.

    python3 tools/code_lines.py [source directory, default src/microloc]

Three counts per module:
  lines       every line, as `wc -l` counts them
  code        lines that hold code: no blank lines, comments or docstrings
  statements  `ast.stmt` nodes that are not docstrings; reformatting code
              does not move this count
and below the table the number of public names, the entries of `__all__`
in the package's `__init__.py`.  Uses only the standard library (`ast` and
`tokenize`).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The docstring statement of the module and of each class and function."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.append(first)
    return out


def counts(text: str) -> tuple[int, int, int]:
    """(lines, code lines, statements) of one module's source."""
    tree = ast.parse(text)
    docs = _docstrings(tree)
    doc_lines = {n for d in docs for n in range(d.lineno, d.end_lineno + 1)}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in doc_lines)
    statements = sum(isinstance(n, ast.stmt) for n in ast.walk(tree)) - len(docs)
    return text.count("\n"), len(code), statements


def public_names(text: str) -> int:
    """The number of entries of the module-level `__all__` list or tuple
    (0 without one)."""
    for node in ast.parse(text).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/microloc")
    rows = [(p.name, *counts(p.read_text())) for p in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}} {'lines':>6} {'code':>6} {'statements':>10}")
    for name, lines, code, statements in rows:
        print(f"{name:<{width}} {lines:>6} {code:>6} {statements:>10}")
    init = root / "__init__.py"
    print(f"public names (__all__): {public_names(init.read_text()) if init.exists() else 0}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
