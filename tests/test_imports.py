"""Modules import at the top: no function in src/covgraphs imports.  groups,
which systems and cpmaps import, reads the morphisms it transports through
their own methods, so it needs no late import of either.

A private name imported from another module is a decision that two modules
share it, so the set of such imports is pinned: a new one changes PRIVATE
here, where review sees it.  So is the set of functions that read a memo's
state (groups.is_kept): a path chosen by what a memo happens to hold gives
one answer on a born object and another on its twin, so a new reader
changes KEPT_READERS here."""

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
    ("relations", "cpmaps", "_marginals"),
    ("relations", "cpmaps", "_psd_cut"),
    ("scc", "graphs", "_conjugation_action"),
    ("scc", "graphs", "_reverse"),
}

# (module, function) of every function in src/covgraphs that calls groups.is_kept
KEPT_READERS = {
    ("cpmaps", "compose"),
    ("cpmaps", "_negative_parts"),
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


def _kept_readers() -> set:
    """(module, innermost enclosing function) of every call of is_kept,
    by name or as groups.is_kept, in src/covgraphs."""
    found = set()

    def visit(node, module, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "is_kept":
                    found.add((module, fn))
            visit(child, module, fn)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_memo_state_readers_are_the_pinned_ones():
    assert _kept_readers() == KEPT_READERS
