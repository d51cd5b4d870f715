"""Source rules checked on each groundplan module's syntax tree.

Every name a module imports is used in that module. Deleting code tends to
leave its imports behind; this walks each module's syntax tree (stdlib ast,
nothing is imported) and lists the imported names that no expression,
annotation or `__all__` entry mentions. Package `__init__.py` files only
re-export, so they are not checked.

Only `jsonfile` decides JSON kinds: no other module has a table keyed by
JSON types, an `_is_<kind>` helper, or an inline `type(...) is int` or
`isinstance(..., str)` test of a JSON type.
"""

from __future__ import annotations

import ast
import re
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


JSON_TYPES = {"int", "float", "str", "bool", "list", "dict"}


def _json_types_in(node) -> bool:
    names = node.elts if isinstance(node, (ast.Tuple, ast.Set, ast.List)) else [node]
    return any(isinstance(n, ast.Name) and n.id in JSON_TYPES for n in names)


def json_kind_checks(source: str) -> list[str]:
    """Where the module decides a JSON kind itself, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict) and sum(map(_json_types_in, filter(None, node.keys))) > 1:
            found.append(f"{node.lineno}: a table keyed by JSON types")
        elif isinstance(node, ast.FunctionDef) and re.match(
                r"_?is_(int|float|num|str|bool|list|dict|obj|arr)", node.name):
            found.append(f"{node.lineno}: {node.name}()")
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
              and any(map(_json_types_in, node.comparators))):
            found.append(f"{node.lineno}: a type() test")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and _json_types_in(node.args[1])):
            found.append(f"{node.lineno}: an isinstance() test")
    return sorted(found, key=lambda f: int(f.split(":")[0]))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "jsonfile.py"],
                         ids=lambda p: p.name)
def test_only_jsonfile_decides_json_kinds(path):
    assert json_kind_checks(path.read_text()) == []


def test_a_json_kind_check_is_reported():
    source = ("NAMES = {int: 'an integer', str: 'a string'}\n"
              "KINDS = {'a': int, 'b': str}\n"
              "def _is_str_list(v):\n    return type(v) is list\n"
              "ok = isinstance(v, (int, float)) or isinstance(v, Box) or type(v) is Box\n")
    assert json_kind_checks(source) == [
        "1: a table keyed by JSON types", "3: _is_str_list()", "4: a type() test",
        "5: an isinstance() test"]
