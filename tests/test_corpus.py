"""The example corpus, tests/cli_corpus.json, in one pass through `cli.run`.

Every entry exits with its recorded code, and every entry with a recorded
SHA-256 prints exactly that stdout with nothing on stderr; tests/cli_corpus.py
rewrites the digests when an output change is meant.  The entries marked
"profile" run under `sys.setprofile`, and no def in src/functal may go
without a call from them.  The exceptions are the __repr__, __hash__ and
__eq__ that a test or a debugger calls, and the `ALLOWED` table of
tests/test_callers.py, each entry with its reason; an allowed def that runs
fails the test until it leaves the table.  The profiled commands cover every
verb, the six suites at seed 0, text and JSON output, files read and written,
and exit codes 0, 1 and 2."""

import ast
import sys
import types
from pathlib import Path
from typing import Iterator

import pytest

import cli_corpus
import functal
from test_callers import ALLOWED

SRC = Path(functal.__file__).parent
EXEMPT = {"__repr__", "__hash__", "__eq__"}
ENTRIES = cli_corpus.load()


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
def runs(tmp_path_factory):
    """{argv: (exit code, stdout, stderr)} of every entry, and the keys of the
    code objects of src/functal that the profiled entries ran."""
    tmp = tmp_path_factory.mktemp("corpus")
    cli_corpus.write_inputs(tmp)
    seen: dict[int, types.CodeType] = {}

    def record(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    # a cached def that ran in an earlier test runs again, and the profiled
    # entries run first, so that none of them finds a cached answer
    for name, module in list(sys.modules.items()):
        if name.startswith("functal."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    results = {}
    previous = sys.getprofile()
    try:
        for entry in sorted(ENTRIES, key=lambda e: not e.get("profile")):
            sys.setprofile(record if entry.get("profile") else previous)
            results[" ".join(entry["argv"])] = cli_corpus.run(entry, tmp)
    finally:
        sys.setprofile(previous)
    # "<" names the lambdas, comprehensions and module bodies, which are no defs
    return results, {
        key(c) for c in seen.values() if Path(c.co_filename).parent == SRC and not c.co_name.startswith("<")
    }


def test_every_command_exits_as_expected(runs):
    results, _ = runs
    assert len(results) == len(ENTRIES), "an argv repeats"
    assert {argv: result[0] for argv, result in results.items()} == {" ".join(e["argv"]): e["exit"] for e in ENTRIES}


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e["sha256"]], ids=lambda e: " ".join(e["argv"]))
def test_output_matches_the_recorded_digest(runs, entry):
    code, out, err = runs[0][" ".join(entry["argv"])]
    assert (code, err) == (entry["exit"], "")
    assert cli_corpus.sha256(out) == entry["sha256"]


def test_every_def_runs(runs):
    _, ran = runs
    idle = {
        f"{file}:{line} {qualname}"
        for (file, line), qualname in definitions().items()
        if (file, line) not in ran and qualname.rpartition(".")[2] not in EXEMPT and qualname not in ALLOWED
    }
    assert idle == set()


def test_every_allowed_def_exists_and_never_runs(runs):
    _, ran = runs
    defs = definitions()
    assert set(ALLOWED) <= set(defs.values())
    assert {defs[k] for k in ran if k in defs} & set(ALLOWED) == set()
