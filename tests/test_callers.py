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
