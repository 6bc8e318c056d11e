"""Every dependency that pyproject.toml declares, runtime and test extra, must
be importable: a declared package that cannot be installed fails here."""

import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
