"""The package parses as Python 3.10, the oldest version pyproject.toml
admits, although the test runs on a newer one.  `ast.parse` with
``feature_version`` refuses the grammar that 3.10 lacks, such as ``except*``
and ``type`` statements."""

import ast
from pathlib import Path

import functal

SRC = Path(functal.__file__).parent


def test_every_module_parses_as_python_3_10():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_check_refuses_newer_grammar():
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type Vector = list[float]\n"):
        try:
            ast.parse(source, feature_version=(3, 10))
        except SyntaxError:
            continue
        raise AssertionError(f"parsed as 3.10: {source!r}")
