"""The tolerance policy: every threshold is named once, in linalg's constant
block, and every ``tol`` argument defaults to one of those names."""

import ast
import pathlib

import numpy as np
import pytest

import covgraphs
from covgraphs import bundle, classical, graphs, linalg, relations, scc, systems
from covgraphs.errors import ShapeMismatch

SRC = pathlib.Path(covgraphs.__file__).parent


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _constant_block(tree):
    """Module-level assignments to upper-case names."""
    return [
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)
    ]


def test_threshold_literals_only_in_linalg_constants():
    stray = []
    for name, tree in _modules():
        named = set()
        if name == "linalg.py":
            named = {id(n) for block in _constant_block(tree) for n in ast.walk(block)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) <= 1e-2 and id(node) not in named):
                stray.append(f"{name}:{node.lineno} {node.value!r}")
    assert not stray


def test_tol_defaults_are_named():
    literal = []
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            pos = args.posonlyargs + args.args
            pairs = list(zip(pos[len(pos) - len(args.defaults):], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            for arg, default in pairs:
                if arg.arg == "tol" and default is not None and any(
                        isinstance(n, ast.Constant) for n in ast.walk(default)):
                    literal.append(f"{name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}")
    assert not literal


def _names_tol_spec(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "TOL_SPEC") or (
        isinstance(node, ast.Attribute) and node.attr == "TOL_SPEC")


def test_singular_value_cut_is_named_once():
    """The singular-value form √TOL_SPEC of the TOL_SPEC eigenvalue cut is
    computed once, as TOL_SPEC_SV in linalg's constant block; everything
    else uses the name."""
    roots = []
    for name, tree in _modules():
        block = {}
        if name == "linalg.py":
            block = {id(n): b for b in _constant_block(tree) for n in ast.walk(b)}
        for node in ast.walk(tree):
            pow_ = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and _names_tol_spec(node.left))
            sqrt = (isinstance(node, ast.Call) and node.args and _names_tol_spec(node.args[0])
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt")
            if pow_ or sqrt:
                owner = block.get(id(node))
                target = owner.targets[0].id if owner is not None else None
                roots.append(f"{name}:{node.lineno} {target}")
    assert len(roots) == 1 and roots[0].endswith(" TOL_SPEC_SV"), roots


def test_bundle_tol_reaches_declared_graph_kind():
    """load_bundle's tol reaches the graph's symmetry and declared-kind
    checks: a graph spanned by vec(I) + 3e-7 vec(Z) and vec(X), declared a
    confusability graph, loads at tol 1e-5 and is rejected at the default."""
    eye, z, x = np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    proj = linalg.orthonormal_span([linalg.vec(eye + 3e-7 * z), linalg.vec(x)], dim=4)
    data = {"systems": {"A": {"factors": [2]}},
            "graphs": {"g": {"system": "A", "kind": "confusability",
                             "blocks": {"0,0": {"projection": bundle.matrix_to_json(proj)}}}}}
    g = bundle.load_bundle(data, tol=1e-5).graphs["g"]
    assert np.array_equal(g.relation.blocks[(0, 0)],
                          bundle.matrix_from_json(bundle.matrix_to_json(proj)))
    with pytest.raises(bundle.BundleError, match="declared 'confusability' fails the check"):
        bundle.load_bundle(data)


# Inputs on both sides of a cut: each verdict flips if its constant or its
# scale moves by a decade.

def test_relation_validator_cut_is_validate_slack_tol_proj():
    """A 1x1 relation block 1 + δ has projection defect δ(1 + δ): refused at
    δ = 3e-6 and accepted at 3e-7, either side of VALIDATE_SLACK * TOL_PROJ
    = 1e-6."""
    one = systems.system((1,))
    with pytest.raises(ShapeMismatch, match=r"relation block \(0, 0\) is not a projection"):
        relations.QuantumRelation(one, one, {(0, 0): np.array([[1 + 3e-6]])})
    relations.QuantumRelation(one, one, {(0, 0): np.array([[1 + 3e-7]])})


@pytest.mark.parametrize("sin, contained", [(3e-8, False), (3e-9, True)])
def test_containment_cut_scales_by_at_least_one(sin, contained):
    """Rank-one projections p = uu† and q = vv† at angle θ have containment
    defect ‖q p − p‖ = sin θ, and ‖p‖ = 1, so leq at tol 1e-8 decides on
    tol · max(1, ‖p‖) = 1e-8: p ≤ q fails at sin θ = 3e-8 and holds at
    3e-9."""
    sys = systems.system((2,))
    u, v = np.zeros(4), np.zeros(4)
    u[0], v[0], v[1] = 1.0, np.sqrt(1 - sin * sin), sin
    p = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(u, u)})
    q = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v)})
    assert relations.leq(p, q, 1e-8) is contained


def test_merging_channel_is_not_reversible_at_a_coarse_tol():
    """A classical channel that sends both inputs to one output is a channel
    at tol 1e-3, and its confusability graph is the complete one, at
    distance exactly 1 from the discrete graph, so it is not reversible at
    tol 1e-3."""
    f = classical.embed_channel(np.array([[1.0, 1.0], [0.0, 0.0]]))
    graph = graphs.confusability_of(f).relation
    assert relations.relation_defect(graph, relations.discrete(f.source)) == 1.0
    assert graphs.is_channel(f, 1e-3) and not graphs.is_reversible(f, 1e-3)


@pytest.mark.parametrize("eps, adjacent", [(1e-15, False), (1e-17, True)])
def test_source_span_cut_is_span_ratio_tol(eps, adjacent):
    """S(2) -> O_A(3) ⊗ O_B(1) sends symbol 0 to letter 0 and, with weight
    ε, to letter 2, and symbol 1 to letter 1, so letters 1 and 2 are kept
    apart by one span vector of size √ε.  At tol 1e-6 the span cut is
    SPAN_RATIO · tol = 1e-8, above the TOL_SPEC floor: √ε = 3.2e-8 keeps the
    letters non-adjacent at ε = 1e-15, and 3.2e-9 is cut at ε = 1e-17, so
    they are adjacent."""
    s_sys, oa, ob = (systems.classical_system(n) for n in (2, 3, 1))
    chan = classical.embed_channel(np.array([[1 - eps, 0.0], [0.0, 1.0], [eps, 0.0]]),
                                   s_sys, scc.tensor_system(oa, ob).product)
    src = scc.Source(s_sys, oa, ob, chan)
    adj = classical.extract_graph(scc.source_confusability_graph(src, 1e-6))
    assert adj[1, 2] == adj[2, 1] == adjacent
