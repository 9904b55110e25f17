"""One rule checks every count, size, index and limit the library takes:
instance._integer.  GaConfig's field table loop, which also checks its real
fields, is the only other reader of numbers.Integral; a copy of the check
anywhere else fails here."""

import ast
from pathlib import Path

import pytest

import qapga

# module stem -> qualified names of the functions that may read Integral
ALLOWED = {"instance": {"_integer"}, "ga": {"GaConfig.__post_init__"}}


def integral_uses(source: str, allowed: set[str]) -> list[str]:
    """'scope:line' of each read of the name Integral (bare or as an attribute) in
    source outside the functions whose qualified names are in allowed; imports
    are not reads."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif "Integral" in (getattr(node, "id", None), getattr(node, "attr", None)) \
                and scope not in allowed:
            uses.append(f"{scope or '<module>'}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return uses


def test_integral_is_read_only_by_the_one_rule():
    uses = {}
    for path in sorted(Path(qapga.__file__).parent.glob("*.py")):
        found = integral_uses(path.read_text(encoding="utf-8"), ALLOWED.get(path.stem, set()))
        if found:
            uses[path.name] = found
    assert uses == {}


@pytest.mark.parametrize("source, allowed, expected", [
    ("from numbers import Integral\n"
     "def _integer(v):\n    return isinstance(v, Integral)\n", {"_integer"}, []),
    ("def swap_delta(i):\n    if not isinstance(i, Integral):\n        raise ValueError\n",
     {"_integer"}, ["swap_delta:2"]),
    ("import numbers\nok = isinstance(n, numbers.Integral)\n", set(), ["<module>:2"]),
    ("class GaConfig:\n    def __post_init__(self):\n        Integral\n"
     "    def other(self):\n        Integral\n", {"GaConfig.__post_init__"}, ["GaConfig.other:5"]),
    ("def _integer(v):\n    def inner():\n        return Integral\n", {"_integer"},
     ["_integer.inner:3"]),
    ("def f(v):\n    return isinstance(v, int)\n", set(), []),
], ids=["in-rule", "copy", "module-attribute", "other-method", "nested", "no-integral"])
def test_the_integer_check_finds_what_it_should(source, allowed, expected):
    assert integral_uses(source, allowed) == expected
