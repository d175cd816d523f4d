"""No def that nothing runs: a fixed list of CLI commands, run in process
through `cli.run` under `sys.setprofile`, calls every function and method in
src/functal at least once.  The exceptions are the __repr__, __hash__ and
__eq__ that a test or a debugger calls, and the `ALLOWED` table of
tests/test_callers.py, each entry with its reason; an allowed def that runs
fails the test until it leaves the table.  The commands cover every verb,
the six suites at seed 0, text and JSON output, files read and written, and
exit codes 0, 1 and 2."""

import ast
import contextlib
import io
import json
import sys
import types
from pathlib import Path
from typing import Iterator

import pytest

import functal
from functal import cli
from functal.algebra import mat, serialize_algebra
from functal.gallery import INVERTIBLE_B, JORDAN_BLOCK_B
from test_callers import ALLOWED

SRC = Path(functal.__file__).parent
EXEMPT = {"__repr__", "__hash__", "__eq__"}
# f_hat = diag(1, 2) + [[0, 2], [1, 0]] on mat(4): the double irrational roots
# +-sqrt(2) and +-1/sqrt(2), the only spectrum here that takes a float rank
PLANTED = json.dumps({"E_{1,1}": 1, "E_{2,2}": 2, "E_{3,4}": 1, "E_{4,3}": 2})


def commands(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of each command, after writing the files they read to ``tmp``."""
    violation = json.loads(serialize_algebra(mat(2)))
    violation["table"][0][0] = ["2", "0", "0", "0"]  # E11 * E11 = 2 E11: not associative
    files = {
        "invertible.json": INVERTIBLE_B,
        "block.json": JORDAN_BLOCK_B,
        "malformed.json": {"dim": 1, "basis": ["a"], "table": [5]},
        "violation.json": violation,
    }
    for name, doc in files.items():
        (tmp / name).write_text(json.dumps(doc))
    gallery = tmp / "gallery"
    return [
        (["gallery", "--output-dir", str(gallery)], 0),
        (["new", "--algebra", "seaweed:1,2;2,1"], 0),
        (["show", "--algebra", "ut:3"], 0),
        (["show", "--algebra", "mat:2", "--format", "json"], 0),
        (["show", "--algebra", str(tmp / "malformed.json")], 2),
        (["validate", "--algebra", str(gallery / "unital_ext_nondiag.json")], 0),
        (["validate", "--algebra", str(tmp / "violation.json"), "--format", "json"], 1),
        (["spectrum", "--algebra", str(tmp / "violation.json")], 2),
        (["chi", "--algebra", "mat:3"], 0),
        (["chi", "--algebra", "ut:5", "--format", "json", "--output", str(tmp / "chi.json")], 0),
        (["spectrum", "--algebra", "mat:4", "--format", "json"], 0),
        (["spectrum", "--algebra", "mat:4", "--functional", PLANTED], 0),
        (["spectrum", "--algebra", str(gallery / "ut3.json")], 1),
        (["stab", "--algebra", "mat:2", "--functional", "diag:1,2", "--alpha", "1/2"], 0),
        (["jordan", "--algebra", "ut:5", "--alpha", "inf", "--format", "json"], 0),
        (["jordan", "--algebra", "mat:4", "--alpha", "-1/2"], 0),
        (["classify", "--algebra", "mat:2"], 0),
        (["classify", "--algebra", f"abc0:{tmp / 'invertible.json'}", "--samples", "2"], 0),
        (["classify", "--algebra", f"abc0:{tmp / 'block.json'}", "--samples", "2", "--format", "json"], 0),
        (["index", "--algebra", "tensor:mat:2;mat:3", "--format", "json"], 0),
        (["index", "--algebra", "mat:2", "--samples", "0"], 2),
        (["tensor", "--algebra", "ut:2", "--algebra-b", "mat:2"], 0),
        (["probe", "--algebra", "mat:2", "--algebra-b", "ut:2", "--samples", "2"], 0),
        (["verify", "stab-props"], 0),
        (["verify", "vk-props"], 0),
        (["verify", "cayley"], 0),
        (["verify", "tensor-chi"], 0),
        (["verify", "regular-corollaries", "--format", "json"], 0),
        (["verify", "tensor-stab"], 0),
        (["verify", "no-such-suite"], 2),
    ]


def key(code: types.CodeType) -> tuple[str, int]:
    return Path(code.co_filename).name, code.co_firstlineno


def qualnames(node: ast.AST, prefix: str = "") -> Iterator[tuple[int, str]]:
    """(first line, qualified name) of every def below ``node``; the first
    line is that of its first decorator, as in the code object it compiles to."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from qualnames(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), prefix + child.name
            yield from qualnames(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from qualnames(child, prefix)


def definitions() -> dict[tuple[str, int], str]:
    """{(file, first line): qualified name} of every def in src/functal."""
    return {
        (p.name, line): qualname
        for p in sorted(SRC.glob("*.py"))
        for line, qualname in qualnames(ast.parse(p.read_text()))
    }


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """The expected and the actual exit codes of the commands, and the keys
    of the code objects of src/functal that ran."""
    argvs, expected = zip(*commands(tmp_path_factory.mktemp("liveness")))
    seen: dict[int, types.CodeType] = {}

    def record(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    # a cached def that ran in an earlier test runs again
    for name, module in list(sys.modules.items()):
        if name.startswith("functal."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    codes = []
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                codes.append(cli.run(["--seed", "0", *argv]))
    finally:
        sys.setprofile(previous)
    # "<" names the lambdas, comprehensions and module bodies, which are no defs
    return list(expected), codes, {
        key(c) for c in seen.values() if Path(c.co_filename).parent == SRC and not c.co_name.startswith("<")
    }


def test_every_command_exits_as_expected(profiled):
    expected, codes, _ = profiled
    assert codes == expected


def test_every_def_runs(profiled):
    _, _, ran = profiled
    idle = {
        f"{file}:{line} {qualname}"
        for (file, line), qualname in definitions().items()
        if (file, line) not in ran and qualname.rpartition(".")[2] not in EXEMPT and qualname not in ALLOWED
    }
    assert idle == set()


def test_every_allowed_def_exists_and_never_runs(profiled):
    _, _, ran = profiled
    defs = definitions()
    assert set(ALLOWED) <= set(defs.values())
    assert {defs[k] for k in ran if k in defs} & set(ALLOWED) == set()
