"""Modules import at the top: no function in src/covgraphs imports.  groups,
which systems and cpmaps import, reads the morphisms it transports through
their own methods, so it needs no late import of either.

A private name imported from another module is a decision that two modules
share it, so the set of such imports is pinned: a new one changes PRIVATE
here, where review sees it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "covgraphs"

ALLOWED = set()

# (importing module, source module, private name)
PRIVATE = {
    ("bundle", "systems", "_factor_dims"),
    ("bundle", "systems", "_shared_system"),
    ("cpmaps", "systems", "_diff"),
    ("relations", "cpmaps", "_hom_defects"),
    ("relations", "cpmaps", "_psd_cut"),
    ("scc", "graphs", "_conjugation_action"),
    ("scc", "graphs", "_reverse"),
}


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


def _private_imports() -> set:
    """(module, source module, name) of every private name one module of
    src/covgraphs imports from another."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((path.stem, node.module, a.name) for a in node.names
                             if a.name.startswith("_"))
    return found


def test_private_cross_module_imports_are_the_pinned_ones():
    assert _private_imports() == PRIVATE
