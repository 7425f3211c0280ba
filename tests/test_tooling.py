import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "coverideals").glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_no_module_imports_signal():
    # Signal handlers are process-global state: a budget or cap built on them
    # behaves differently off the main thread, and the library promises pure
    # functions.
    assert SOURCES
    for path in SOURCES:
        modules = imported_modules(ast.parse(path.read_text(), str(path)))
        assert not {m for m in modules if m.split(".")[0] == "signal"}, path.name
