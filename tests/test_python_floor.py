"""The sources stay inside Python 3.10, the floor pyproject.toml declares."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/duostego/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")])


def test_sources_parse_as_python_3_10():
    """Every package, test and bench file parses with 3.10's grammar.

    This checks syntax only (such as `except*`, `type X = ...` or
    `def f[T]`), not calls to library functions added after 3.10.
    """
    assert {path.parent.name for path in SOURCES} == {"duostego", "tests", "bench"}
    with pytest.raises(SyntaxError):  # feature_version is honoured here
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    failures = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text("utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}: {exc}")
    assert failures == []
