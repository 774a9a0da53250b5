"""Modules import at the top: no function in src/covgraphs imports.  groups,
which systems and cpmaps import, reads the morphisms it transports through
their own methods, so it needs no late import of either."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "covgraphs"

ALLOWED = set()


def _function_imports() -> set:
    """(module, function, imported module) of every import inside a function."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        found.add((path.stem, fn.name, node.module or ""))
                    elif isinstance(node, ast.Import):
                        found.update((path.stem, fn.name, a.name) for a in node.names)
    return found


def test_function_level_imports_are_the_circular_ones():
    assert _function_imports() == ALLOWED
