"""Every backticked `module.name` in README.md, with module a covgraphs
module, names something that exists, so that a rename or a deletion in the
library shows here before a reader meets it.  Text after the name, as in
`graphs.is_reversible(f)` or `linalg.TOL_SPEC_SV = √TOL_SPEC`, is not read."""

import importlib
import pathlib
import pkgutil
import re

import covgraphs

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(covgraphs.__path__)}


def _readme_names() -> set:
    return {(module, name)
            for module, name in re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)", README.read_text())
            if module in MODULES}


def test_every_readme_name_resolves_in_covgraphs():
    names = _readme_names()
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"covgraphs.{module}"), name)]
    assert missing == []
