"""Every name a qapga module imports is used in that module: a name left behind
by a refactor fails here.  Names listed in __all__ count as used, and so does
`from __future__ import annotations`."""

import ast
from pathlib import Path

import pytest

import qapga

MODULES = sorted(Path(qapga.__file__).parent.glob("*.py"))


def dead_imports(source: str) -> list[str]:
    """The names source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "ga.py", "instance.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    assert dead_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\nimport re\nre.compile('x')\n", ["os"]),
    ("import numpy as np\nimport os.path\nos.path.join(np.pi)\n", []),
    ("from .ga import run, GaConfig\nGaConfig()\n", ["run"]),
    ("from .ga import run as go\nrun()\n", ["go"]),
    ("from __future__ import annotations\n", []),
    ("from .ga import run\n__all__ = ['run']\n", []),
    ("from .ga import run\ndef f(r: run): pass\n", []),
], ids=["plain", "dotted-and-aliased", "from", "from-aliased", "future", "all", "annotation"])
def test_the_check_finds_what_it_should(source, expected):
    assert dead_imports(source) == expected
