"""Source rules checked on each groundplan module's syntax tree.

Every name a module imports is used in that module. Deleting code tends to
leave its imports behind; this walks each module's syntax tree (stdlib ast,
nothing is imported) and lists the imported names that no expression,
annotation or `__all__` entry mentions. Package `__init__.py` files only
re-export, so they are not checked.

Only `jsonfile` decides JSON kinds: no other module has a table keyed by
JSON types, an `_is_<kind>` helper, or an inline `type(...) is int` or
`isinstance(..., str)` test of a JSON type.

Only `View` scans a whole depth frame for valid pixels: `View.valid_pixels`
keeps the scan, so every other reader takes its index instead of a
`depth > 0` pass of its own. A window of a frame (a subscript) may be tested
anywhere. `geometry.unproject` keeps its own scan as the reference for a bare
frame, and uses the index when it is given one.

No module reads `.flags.writeable`: every `View` is read-only from
construction, so no code path depends on whether a frame is writable. Only
`View.__post_init__` sets the flag on frames, with `_RunsView.ids` for the id
map it decodes lazily, and `scene._wrist_pose` on the rotation it keeps.
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


def _whole_depth_frame(node) -> bool:
    """`depth` or `<x>.depth`, as is or through `.ravel()`, `.reshape(...)` or
    `np.asarray(...)`; a subscript is a window, not a whole frame."""
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("ravel", "reshape", "flatten"):
            node = node.func.value
        elif node.func.attr in ("asarray", "array") and node.args:
            node = node.args[0]
        else:
            return False
    return ((isinstance(node, ast.Name) and node.id == "depth")
            or (isinstance(node, ast.Attribute) and node.attr == "depth"))


def _scoped(node, scope=()):
    """Every node below `node` with the names of the classes and functions it
    is in, joined by dots."""
    for child in ast.iter_child_nodes(node):
        yield child, ".".join(scope)
        inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _scoped(child, inner)


def depth_scans(source: str) -> list[str]:
    """Each whole-frame `depth > 0` test, as '<line>: <class>.<function>'."""
    return [f"{node.lineno}: {scope}" for node, scope in _scoped(ast.parse(source))
            if isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Gt)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 0 and _whole_depth_frame(node.left)]


# (module, scope) of the scans the rule allows, with their reasons above.
DEPTH_SCAN_OWNERS = {("scene.py", "View.valid_pixels"), ("geometry.py", "unproject")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_view_scans_a_whole_depth_frame(path):
    scans = depth_scans(path.read_text())
    assert [s for s in scans if (path.name, s.split(": ")[1]) not in DEPTH_SCAN_OWNERS] == []


def test_the_valid_pixel_scan_has_its_owners():
    owners = {(p.name, s.split(": ")[1]) for p in MODULES for s in depth_scans(p.read_text())}
    assert owners == DEPTH_SCAN_OWNERS


def test_a_whole_depth_frame_scan_is_reported():
    source = ("def f(view, depth):\n"
              "    a = np.flatnonzero(view.depth > 0)\n"
              "    b = depth > 0\n"
              "    c = np.asarray(view.depth).ravel() > 0\n"
              "    d = view.depth[0:4, 2:5] > 0\n"
              "    e = view.ids > 0\n"
              "class V:\n"
              "    def g(self):\n"
              "        return self.depth.reshape(-1) > 0, self.depth > 1\n")
    assert depth_scans(source) == ["2: f", "3: f", "4: f", "9: V.g"]


def writeable_flags(source: str) -> list[str]:
    """Each `<x>.flags.writeable`, as '<line>: read|set <class>.<function>'."""
    return [f"{node.lineno}: {'read' if isinstance(node.ctx, ast.Load) else 'set'} {scope}"
            for node, scope in _scoped(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "writeable"]


# (module, scope) of the places that freeze an array, with their reasons above.
WRITEABLE_SETTERS = {("scene.py", "View.__post_init__"), ("scene.py", "_wrist_pose"),
                     ("datasets.py", "_RunsView.ids")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_writeable_flag_is_never_read_and_set_only_by_its_owners(path):
    flags = [f.split(": ")[1].split(" ") for f in writeable_flags(path.read_text())]
    assert [f for f in flags if f[0] == "read" or (path.name, f[1]) not in WRITEABLE_SETTERS] == []


def test_a_writeable_flag_read_or_set_is_reported():
    source = ("def f(view, ids):\n"
              "    ids.flags.writeable = False\n"
              "    if not view.depth.flags.writeable:\n"
              "        return None\n"
              "class V:\n"
              "    def g(self):\n"
              "        return [v for v in (1,) if self.ids.flags.writeable]\n")
    assert writeable_flags(source) == ["2: set f", "3: read f", "7: read V.g"]
