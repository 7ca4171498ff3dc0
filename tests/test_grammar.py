"""The package declares requires-python >= 3.10. Every source and test file
must parse under the 3.10 grammar, so syntax such as ``except*`` (3.11) is
caught on any interpreter. A call to a function that 3.10's standard library
lacks still parses, so the standard-library names added in 3.11 are looked
for in the syntax tree as well."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/**/*.py"))

# standard-library modules and names that Python 3.11 added
NEW_MODULES = {"tomllib", "wsgiref.types"}
NEW_NAMES = {
    "asyncio": {"Barrier", "BrokenBarrierError", "Runner", "TaskGroup", "Timeout", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum", "member", "nonmember", "verify"},
    "hashlib": {"file_digest"},
    "inspect": {"getmembers_static", "ismethodwrapper"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "typing": {
        "LiteralString", "Never", "NotRequired", "Required", "Self", "TypeVarTuple", "Unpack",
        "assert_never", "assert_type", "clear_overloads", "dataclass_transform",
        "get_overloads", "reveal_type",
    },
}
NEW_BUILTINS = {"BaseExceptionGroup", "ExceptionGroup"}
NEW_METHODS = {"add_note"}  # BaseException.add_note


def names_added_in_3_11(source: str) -> list[str]:
    """Every use in source of a standard-library name that 3.10 lacks."""
    tree = ast.parse(source)
    modules = {}  # local name -> module, from import statements
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found += [alias.name] if alias.name in NEW_MODULES else []
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.module] if node.module in NEW_MODULES else []
            new = NEW_NAMES.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in new]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr in NEW_METHODS:
                found.append(f".{node.attr}")
            elif isinstance(node.value, ast.Name):
                module = modules.get(node.value.id)
                if node.attr in NEW_NAMES.get(module, set()):
                    found.append(f"{module}.{node.attr}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_uses_no_standard_library_name_added_in_3_11(path):
    assert names_added_in_3_11(path.read_text(encoding="utf-8")) == []


def test_except_star_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_names_added_in_3_11_are_found():
    source = (
        "import tomllib\n"
        "import math as m, typing, datetime, asyncio, enum, hashlib, contextlib, operator\n"
        "from typing import Self, Never, assert_never\n"
        "m.cbrt(8.0) + m.exp2(3.0)\n"
        "x: typing.Never\n"
        "datetime.UTC\n"
        "class E(enum.StrEnum): pass\n"
        "asyncio.TaskGroup()\n"
        "hashlib.file_digest\n"
        "contextlib.chdir('.')\n"
        "operator.call(print)\n"
        "raise ExceptionGroup('g', [ValueError()])\n"
        "err = ValueError(); err.add_note('n')\n"
    )
    assert sorted(names_added_in_3_11(source)) == sorted([
        "tomllib", "typing.Self", "typing.Never", "typing.assert_never",
        "math.cbrt", "math.exp2", "typing.Never", "datetime.UTC", "enum.StrEnum",
        "asyncio.TaskGroup", "hashlib.file_digest", "contextlib.chdir", "operator.call",
        "ExceptionGroup", ".add_note",
    ])


def test_names_that_3_10_has_are_not_found():
    source = (
        "import math, typing\n"
        "from typing import Optional\n"
        "from enum import Enum\n"
        "math.sqrt(2.0) + math.isqrt(4)\n"
        "typing.NamedTuple\n"
        "def cbrt(x): return x\n"
        "cbrt(8)\n"
    )
    assert names_added_in_3_11(source) == []
