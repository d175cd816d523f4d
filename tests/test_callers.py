"""No helper without a caller: every def and class in src/functal is named
in the code of src/functal or perfbench/*.py besides its own definition and
the package's __init__.py, which only re-exports.  No idle default either:
some call in that code passes each defaulted parameter, and some call there
or in tests/ leaves it out."""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "functal"


def library_files() -> list[Path]:
    return [p for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) if p.name != "__init__.py"]


# {def: (named, reason)} of every def kept on purpose though no CLI command
# runs it, by qualified name.  `named` says whether a line of src/functal or
# perfbench/*.py names it: this test exempts only the defs that none names,
# and tests/test_corpus.py, which reads the whole table, fails when an
# entry runs
ALLOWED = {
    "opposite": (True, "perfbench/layers.py wraps it by name"),
    "main": (True, "the console entry point"),
    "_pseudo_remainder": (True, "the GCDHEU fallback, which tests/test_poly.py forces"),
    "_prs_gcd": (True, "the GCDHEU fallback, which tests/test_poly.py forces"),
    "_factorize": (True, "perfbench/make_pools.py imports it"),
    "mat_tensor_index_experiment": (False, "ROADMAP item 1: the seed of the mat-tensor-index suite"),
    "TensorIndexReport.passed": (True, "ROADMAP item 1: the report of mat_tensor_index_experiment"),
}


def named(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every NAME token, and of every string literal that is
    exactly an identifier (as in a list of attribute names); a word in a
    docstring or a comment names nothing."""
    out = []
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                out.append((tok.string, tok.start[0]))
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except (ValueError, SyntaxError):
                    continue  # an f-string
                if isinstance(value, str) and value.isidentifier():
                    out.append((value, tok.start[0]))
    return out


def uncalled_definitions() -> dict[str, str]:
    """{name: where} of every def and class that no other line names."""
    files = library_files()
    names = {p: named(p) for p in files}
    out = {}
    for path in files:
        if path.parent != SRC:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the language
            own = range(min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno + 1)
            if not any(
                name == node.name and not (other == path and line in own)
                for other, found in names.items()
                for name, line in found
            ):
                out[node.name] = f"{path.name}:{node.lineno}"
    return out


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions()
    unnamed = {name.rpartition(".")[2] for name, (named, _) in ALLOWED.items() if not named}
    assert {name: at for name, at in uncalled.items() if name not in unnamed} == {}
    # an allowed def that gains a caller leaves the table, or is marked named
    assert unnamed <= set(uncalled)


# (def, parameter) kept on purpose with no call that passes it yet
ALLOWED_PARAMETERS = {
    # ROADMAP item 1: the experiment has no caller until its suite lands
    ("mat_tensor_index_experiment", "max_exact_chi_dim"),
}


def calls(files: list[Path]) -> tuple[dict[str, ast.FunctionDef], dict[str, list[set[str]]], set[str]]:
    """The module-level defs of src/functal; for each, the set of parameters
    passed, by keyword or by position, at each of its calls in ``files``; and
    the defs that may be passed anything: those named as a value (as in the
    SUITES table) or called with *args or **kwargs."""
    trees = [ast.parse(p.read_text()) for p in files]
    defs = {
        node.name: node
        for path in library_files()
        if path.parent == SRC
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    passed = {name: [] for name in defs}
    as_value = set()
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name not in defs:
                continue
            callees.add(id(func))
            params = [a.arg for a in defs[name].args.posonlyargs + defs[name].args.args]
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                as_value.add(name)
            passed[name].append(set(params[: len(node.args)]) | {k.arg for k in node.keywords})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in defs and id(node) not in callees:
                as_value.add(node.id)
    return defs, passed, as_value


def defaulted(node: ast.FunctionDef) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    out = positional[len(positional) - len(args.defaults):] if args.defaults else []
    out += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in out]


def unpassed_parameters() -> set[tuple[str, str]]:
    """(def, parameter) of every defaulted parameter of a module-level def in
    src/functal that no call in src/functal or perfbench/*.py passes."""
    defs, passed, as_value = calls(library_files())
    return {
        (name, a)
        for name, node in defs.items()
        if name not in as_value
        for a in defaulted(node)
        if not any(a in p for p in passed[name])
    }


def overridden_defaults() -> set[tuple[str, str]]:
    """(def, parameter) of every defaulted parameter of a module-level def in
    src/functal that every call in src/functal, perfbench/*.py and tests/
    passes, so that its default is never used."""
    defs, passed, as_value = calls(library_files() + sorted((ROOT / "tests").glob("*.py")))
    return {
        (name, a)
        for name, node in defs.items()
        if name not in as_value and passed[name]
        for a in defaulted(node)
        if all(a in p for p in passed[name])
    }


def test_every_defaulted_parameter_is_passed_somewhere():
    unpassed = unpassed_parameters()
    assert unpassed - ALLOWED_PARAMETERS == set()
    # an allowed parameter that gains a caller leaves the list
    assert ALLOWED_PARAMETERS <= unpassed


def test_no_default_is_overridden_by_every_call():
    assert overridden_defaults() == set()
