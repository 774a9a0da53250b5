"""JSON serialization of groups, systems, channels, relations, graphs, sources.

One self-describing bundle holds everything an invocation needs, so that
cross-references (systems, actions) resolve atomically:

    {
      "group":   {"order": 2, "mult_table": [[0,1],[1,0]], "identity": 0},
      "systems": {"A": {"factors": [2], "weights": [2.0],
                        "action": {"perms": {"1": [0]},
                                   "unitaries": {"1": [matrix]}}},
                  "AB": {"tensor": ["A", "B"]}},
      "channels": {"f": {"from": "A", "to": "B",
                         "kraus": {"0,0": [matrix, ...]}}},
      "graphs":  {"g": {"system": "A", "kind": "confusability",
                        "blocks": {"0,0": {"projection": matrix}}}},
      "sources": {"c": {"s": "S", "oa": "A", "ob": "B", "channel": "C"}}
    }

Complex scalars serialize as two-element arrays [re, im]; matrices as nested
row lists of those.  Channels may also be given by "choi" blocks or, for
commutative systems, by a plain real "stochastic" matrix.  When the bundle
declares a nontrivial group, every channel must pass the covariance check at
load time.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .cpmaps import CpMorphism, from_kraus
from .errors import CovGraphsError
from .graphs import QuantumGraph, classify
from .groups import AlgebraAction, FiniteGroup, is_covariant_cp, trivial_action, trivial_group
from .relations import QuantumRelation
from .scc import Source, tensor_system
from .systems import QuantumSet, System


class BundleError(CovGraphsError):
    pass


def complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = []
        for row in data:
            rows.append([complex(entry[0], entry[1]) for entry in row])
        return np.array(rows, dtype=complex)
    except (TypeError, IndexError) as exc:
        raise BundleError(f"malformed matrix: {exc}") from exc


def group_from_json(data) -> FiniteGroup:
    return FiniteGroup(int(data["order"]),
                       tuple(tuple(int(x) for x in row) for row in data["mult_table"]),
                       int(data.get("identity", 0)))


def system_to_json(sys: System) -> dict:
    out = {"factors": list(sys.dims), "weights": list(sys.weights)}
    group = sys.group
    if group.order > 1:
        perms = {}
        unitaries = {}
        for g in group.elements:
            if g == group.identity:
                continue
            perms[str(g)] = list(sys.action.perms[g])
            unitaries[str(g)] = [matrix_to_json(u) for u in sys.action.unitaries[g]]
        out["action"] = {"perms": perms, "unitaries": unitaries}
    return out


def system_from_json(data, group: FiniteGroup) -> System:
    dims = tuple(int(d) for d in data["factors"])
    action_data = data.get("action")
    if action_data is None:
        action = trivial_action(group, dims)
    else:
        perms = []
        units = []
        for g in range(group.order):
            key = str(g)
            if key in action_data.get("perms", {}):
                perms.append(tuple(int(x) for x in action_data["perms"][key]))
            else:
                perms.append(tuple(range(len(dims))))
            if key in action_data.get("unitaries", {}):
                units.append(tuple(matrix_from_json(u) for u in action_data["unitaries"][key]))
            else:
                units.append(tuple(np.eye(d, dtype=complex) for d in dims))
        action = AlgebraAction(group, dims, tuple(perms), tuple(units))
    weights = data.get("weights")
    if weights is None:
        weights = tuple(float(d) for d in dims)
    return System(QuantumSet(dims), action, tuple(float(w) for w in weights))


def _pair_key(i: int, j: int) -> str:
    return f"{i},{j}"


def _parse_pair(key: str):
    try:
        i, j = key.split(",")
        return int(i), int(j)
    except ValueError as exc:
        raise BundleError(f"factor-pair key {key!r} must look like 'i,j'") from exc


def channel_from_json(data, systems: dict) -> CpMorphism:
    try:
        src = systems[data["from"]]
        tgt = systems[data["to"]]
    except KeyError as exc:
        raise BundleError(f"channel references unknown system {exc}") from exc
    if "stochastic" in data:
        p = np.asarray(data["stochastic"], dtype=float)
        from .classical import embed_channel

        return embed_channel(p, src, tgt)
    if "kraus" in data:
        kraus = {}
        for key, ops in data["kraus"].items():
            kraus[_parse_pair(key)] = [matrix_from_json(m) for m in ops]
        return from_kraus(kraus, src, tgt)
    if "choi" in data:
        blocks = {_parse_pair(key): matrix_from_json(m) for key, m in data["choi"].items()}
        return CpMorphism(src, tgt, blocks)
    raise BundleError("channel needs one of 'kraus', 'choi' or 'stochastic'")


def _blocks_from_json(data, src: System, tgt: System, kind: str) -> dict:
    """Projection blocks given either as a "projection" matrix or as a
    "basis" of operators K_j -> H_i whose span is taken."""
    blocks = {}
    for key, spec in data.get("blocks", {}).items():
        pair = _parse_pair(key)
        if "projection" in spec:
            blocks[pair] = matrix_from_json(spec["projection"])
        elif "basis" in spec:
            i, j = pair
            vecs = [linalg.vec(linalg.as_complex(matrix_from_json(m))) for m in spec["basis"]]
            blocks[pair] = linalg.orthonormal_span(vecs, dim=src.dims[i] * tgt.dims[j])
        else:
            raise BundleError(f"{kind} block {key} needs 'projection' or 'basis'")
    return blocks


def relation_from_json(data, systems: dict) -> QuantumRelation:
    try:
        src = systems[data["source"]]
        tgt = systems[data["target"]]
    except KeyError as exc:
        raise BundleError(f"relation references unknown system {exc}") from exc
    return QuantumRelation(src, tgt, _blocks_from_json(data, src, tgt, "relation"))


def graph_from_json(data, systems: dict) -> QuantumGraph:
    try:
        sys = systems[data["system"]]
    except KeyError as exc:
        raise BundleError(f"graph references unknown system {exc}") from exc
    rel = QuantumRelation(sys, sys, _blocks_from_json(data, sys, sys, "graph"))
    g = QuantumGraph(sys, rel)
    kind = data.get("kind")
    if kind is not None:
        flags = classify(g)
        if kind == "confusability" and not flags["is_confusability"]:
            raise BundleError("graph declared 'confusability' fails the check")
        if kind == "simple" and not flags["is_simple"]:
            raise BundleError("graph declared 'simple' fails the check")
        if kind not in ("confusability", "simple", "general"):
            raise BundleError(f"unknown graph kind {kind!r}")
    return g


class SpecBundle:
    """Named groups/systems/channels/graphs/sources with resolved references."""

    def __init__(self, group: FiniteGroup, systems: dict, channels: dict,
                 graphs: dict, sources: dict, relations: dict | None = None):
        self.group = group
        self.systems = systems
        self.channels = channels
        self.graphs = graphs
        self.sources = sources
        self.relations = relations if relations is not None else {}


def load_bundle(data, tol: float = linalg.TOL_PROJ) -> SpecBundle:
    if isinstance(data, str):
        data = json.loads(data)
    group = group_from_json(data["group"]) if "group" in data else trivial_group()

    systems: dict = {}
    pending = dict(data.get("systems", {}))
    # Resolve plain systems first, then tensor products (one nesting level at
    # a time, so products of products also resolve).
    progress = True
    while pending and progress:
        progress = False
        for name in list(pending):
            spec = pending[name]
            if "tensor" in spec:
                left, right = spec["tensor"]
                if left in systems and right in systems:
                    systems[name] = tensor_system(systems[left], systems[right]).product
                    del pending[name]
                    progress = True
            else:
                systems[name] = system_from_json(spec, group)
                del pending[name]
                progress = True
    if pending:
        raise BundleError(f"unresolvable system references: {sorted(pending)}")

    channels = {}
    for name, spec in data.get("channels", {}).items():
        chan = channel_from_json(spec, systems)
        if group.order > 1 and not is_covariant_cp(chan, tol):
            raise BundleError(f"channel {name!r} is not covariant for the bundle group")
        channels[name] = chan

    graphs = {}
    for name, spec in data.get("graphs", {}).items():
        graphs[name] = graph_from_json(spec, systems)

    relations = {}
    for name, spec in data.get("relations", {}).items():
        relations[name] = relation_from_json(spec, systems)

    sources = {}
    for name, spec in data.get("sources", {}).items():
        try:
            s_sys = systems[spec["s"]]
            oa = systems[spec["oa"]]
            ob = systems[spec["ob"]]
            chan = channels[spec["channel"]]
        except KeyError as exc:
            raise BundleError(f"source {name!r} references unknown object {exc}") from exc
        sources[name] = Source(s_sys, oa, ob, chan, tol=tol)

    return SpecBundle(group, systems, channels, graphs, sources, relations)


def load_bundle_file(path: str, tol: float = linalg.TOL_PROJ) -> SpecBundle:
    with open(path) as fh:
        return load_bundle(json.load(fh), tol=tol)


def dump_channel(f: CpMorphism, src_name: str, tgt_name: str) -> dict:
    from .cpmaps import to_kraus

    kraus = to_kraus(f)
    return {
        "from": src_name,
        "to": tgt_name,
        "kraus": {
            _pair_key(i, j): [matrix_to_json(m) for m in ops]
            for (i, j), ops in kraus.items()
            if ops
        },
    }


def dump_json(obj, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
