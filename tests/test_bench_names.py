"""Every function the benchmark counts by name (NAMED in perfbench/run.py)
exists in covgraphs, so that a rename or a deletion shows here before a
benchmark run.  NAMED is read from the runner's source with ast; the runner
is not imported.  That the functions are still called is checked by
perfbench/test_trace_coverage.py."""

import ast
import importlib
import pathlib

RUNNER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _named() -> tuple:
    for node in ast.parse(RUNNER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["NAMED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no NAMED")


def _resolves(name: str) -> bool:
    module, *path = name.split(".")
    obj = importlib.import_module(f"covgraphs.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_named_function_resolves_in_covgraphs():
    named = _named()
    assert named and all(isinstance(name, str) for name in named)
    assert [name for name in named if not _resolves(name)] == []
