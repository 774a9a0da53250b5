"""Every public top-level function or class of covgraphs is used or named
by the library, the benchmark or the README, so that a name only the tests
call lives with the tests (tests/genutil.py), not in the library.

A name counts where the code of src/covgraphs or perfbench reads it (a
call, an attribute, an import, a base class), or where README.md names it
inside a code span.  A word of a docstring or message does not count, nor
does the def or class statement itself.  cli.cmd_* are exempt: cli.main
looks them up by name.

A public method of a public class counts only where the code of
src/covgraphs or perfbench reads it as an attribute; the tests read blocks
as ``.blocks[(i, j)]`` and group products as ``group.table[g][h]``."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "covgraphs"


def _names(tree) -> set:
    """The names and attributes the code of tree reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _readme_code_words() -> set:
    """The words inside README.md's code spans and fenced blocks."""
    text = (ROOT / "README.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return {word for span in spans for word in re.findall(r"\w+", span)}


def _unused_public_names() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = _readme_code_words()
    for tree in trees.values():
        used |= _names(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _names(ast.parse(path.read_text()))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not (module == "cli" and node.name.startswith("cmd_"))
        and node.name not in used
    ]


def test_every_public_name_is_used_outside_the_tests():
    assert _unused_public_names() == []


def _unused_public_methods() -> list:
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    return [
        f"{path.stem}.{cls.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("_")
        and item.name not in read
    ]


def test_every_public_method_is_read_by_the_library_or_the_benchmark():
    assert _unused_public_methods() == []
