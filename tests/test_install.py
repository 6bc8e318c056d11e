"""Every dependency that pyproject.toml declares, runtime and test extra, must
be importable: a declared package that cannot be installed fails here.  The
package's public names are exactly `__all__`, and its modules carry no dead
imports or unreferenced private names (a stdlib `ast` check)."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = sorted((PYPROJECT.parent / "src" / "antipodal").glob("*.py"))


def _declared():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    return [re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in reqs]


@pytest.mark.parametrize("name", _declared())
def test_declared_dependency_is_importable(name):
    assert importlib.util.find_spec(name.replace("-", "_")) is not None


def test_all_lists_exactly_the_public_names():
    import types

    import antipodal

    bound = {name for name, value in vars(antipodal).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(antipodal.__all__) == bound
    assert len(antipodal.__all__) == len(bound)
    for name in antipodal.__all__:
        assert getattr(antipodal, name) is not None


def _read_names(tree):
    """The names a module reads: every bare name, and the strings of __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    assert sorted(imported - _read_names(tree)) == []


def test_every_private_module_name_is_referenced():
    """A module-level _name defined in src/ is read somewhere in src/, as a
    name or as an attribute (``kernels._CHUNK``)."""
    defined = []
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            defined += [(path.name, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [d for d in defined if d[1] not in read] == []
