"""Seeded mutants of demo/bundle.json never end in a traceback.

Each mutant replaces or deletes one leaf (a value that is not an object or
a list) of demo/bundle.json, the value drawn from a fixed pool of ill-typed
and out-of-range JSON values.  The seven demo commands run on it in
process; cli.main must return an exit code every time, never raise."""

import contextlib
import io
import json
import pathlib
import random

import pytest

from covgraphs import cli

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo" / "bundle.json"

# Replacements for a leaf; DELETE removes it from its object or list.
DELETE = object()
POOL = (DELETE, None, True, False, "x", "", 10 ** 400, -10 ** 400, float("nan"),
        float("inf"), -float("inf"), [], [[]], [[1.0], [1.0, 2.0]], {}, {"0,0": 1})

# The seven demo commands, "OUT" standing for the -o path.
COMMANDS = (
    ("analyze-channel", "spread", "--emit-reverse", "-o", "OUT"),
    ("analyze-channel", "mix"),
    ("scc-verify", "copy", "spread", "encode"),
    ("scc-verify", "copy", "spread", "encode", "-o", "OUT"),
    ("twirl", "mix", "-o", "OUT"),
    ("graph-to-channel", "complete_A", "-o", "OUT"),
    ("check-hom", "encode", "discrete_A", "discrete_A"),
)
MUTANTS_PER_SEED = 50


def _leaves(doc, path=()):
    """Paths (keys and indices) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _mutants(seed: int):
    """(description, document) of MUTANTS_PER_SEED one-leaf mutants."""
    base = DEMO.read_text()
    leaves = _leaves(json.loads(base))
    pick = random.Random(seed)
    for _ in range(MUTANTS_PER_SEED):
        doc = json.loads(base)
        path, value = pick.choice(leaves), pick.choice(POOL)
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
        yield f"{path} -> {'deleted' if value is DELETE else repr(value)[:20]}", doc


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutants_exit_with_a_code(seed, tmp_path):
    bundle_path, out = tmp_path / "mutant.json", tmp_path / "out.json"
    for what, doc in _mutants(seed):
        bundle_path.write_text(json.dumps(doc))
        for command in COMMANDS:
            argv = [command[0], str(bundle_path)] + [str(out) if a == "OUT" else a
                                                      for a in command[1:]]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2), (what, command, code)
            out.unlink(missing_ok=True)
