"""Every imported name in the package, tests and benchmark is used.

The scan is a plain AST walk, so it needs no linter: a name bound by an import
counts as used when the module reads it anywhere or lists it in `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "bench")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_scanner_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d\nimport e\n"
              "__all__ = ['b']\nprint(os.path.sep, e)\n")
    assert unused_imports(source) == ["d"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             for name in unused_imports(path.read_text())]
    assert found == []
