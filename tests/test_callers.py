"""No helper without a caller: every def and class in src/functal is named
in the code of src/functal or perfbench/*.py besides its own definition and
the package's __init__.py, which only re-exports."""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "functal"

# names kept on purpose with no caller yet
ALLOWED = {
    "mat_tensor_index_experiment",  # ROADMAP item 2: the seed of the mat-tensor-index suite
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
    files = [p for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) if p.name != "__init__.py"]
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
    assert {name: at for name, at in uncalled.items() if name not in ALLOWED} == {}
    # an allowed name that gains a caller leaves the list
    assert ALLOWED <= set(uncalled)


# (def, parameter) kept on purpose with no call that passes it yet
ALLOWED_PARAMETERS = {
    # ROADMAP item 2: the experiment has no caller until its suite lands
    ("mat_tensor_index_experiment", "sampler"),
    ("mat_tensor_index_experiment", "max_exact_chi_dim"),
}


def unpassed_parameters() -> set[tuple[str, str]]:
    """(def, parameter) of every defaulted parameter of a module-level def in
    src/functal that no call in src/functal or perfbench/*.py passes, by
    keyword or by position.  A def that is also named as a value (as in the
    SUITES table), or called with *args or **kwargs, may be passed anything,
    so it is skipped."""
    files = [p for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text()) for p in files}
    defs = {
        node.name: node
        for path, tree in trees.items()
        if path.parent == SRC
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    passed = {name: set() for name in defs}
    as_value = set()
    for tree in trees.values():
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
            passed[name].update(params[: len(node.args)])
            passed[name].update(k.arg for k in node.keywords)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in defs and id(node) not in callees:
                as_value.add(node.id)
    out = set()
    for name, node in defs.items():
        if name in as_value:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        out.update((name, a.arg) for a in defaulted if a.arg not in passed[name])
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    unpassed = unpassed_parameters()
    assert unpassed - ALLOWED_PARAMETERS == set()
    # an allowed parameter that gains a caller leaves the list
    assert ALLOWED_PARAMETERS <= unpassed
