"""Every name a groundplan module imports is used in that module.

Deleting code tends to leave its imports behind; this walks each module's
syntax tree (stdlib ast, nothing is imported) and lists the imported names
that no expression, annotation or `__all__` entry mentions. Package
`__init__.py` files only re-export, so they are not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groundplan"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_modules_are_found():
    assert {"scene.py", "render.py", "simulate.py", "tasks.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = ("from .scene import Box, Sphere\nimport numpy as np\nimport os.path\n"
              "__all__ = ['Box']\nx: np.ndarray = os.sep\n")
    assert unused_imports(source) == ["Sphere"]
