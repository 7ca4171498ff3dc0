"""The package declares requires-python >= 3.10. Every source and test file
must parse under the 3.10 grammar, so syntax such as ``except*`` (3.11) is
caught on any interpreter. This checks grammar only: a call to a function
that 3.10's standard library lacks still parses and is not caught here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/**/*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_except_star_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
