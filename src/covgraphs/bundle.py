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
commutative systems, by a plain real "stochastic" matrix.

This module only parses.  A ragged or non-numeric matrix or a malformed
"i,j" key raises BundleError naming the entry, and load_bundle prefixes it
with the object it was building.  A map keyed by "i,j" becomes a dict from
factor pair to parsed entry, in entry order (one np.asarray for the whole
map when its entries share one shape), and the owners check the rest:

  * systems.block_store (through CpMorphism and QuantumRelation) and
    cpmaps.from_kraus: finite entries, each block or map of its factor
    pair's shape, pairs inside the layout;
  * CpMorphism: Choi blocks Hermitian PSD; QuantumRelation: projections;
  * AlgebraAction: each element permutes factors of equal dimension with
    one family of finite unitaries, and the action is a homomorphism up to
    phase; System: weights constant on its orbits;
  * load_bundle: with a nontrivial group, every channel is covariant, and a
    graph declared "confusability" or "simple" is one.

The owners check once per block-store class and name the first failing
block or map in dict order, and the first failing unitary by (g, i).
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


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    """One JSON matrix (rows of [re, im] entries) as a complex array; a
    malformed one raises BundleError naming it."""
    return _parse(data, name, 3)


def _parse(data, name: str, ndim: int) -> np.ndarray:
    """JSON number arrays of ndim axes ending in [re, im] pairs, with one
    np.asarray, as a complex array of ndim - 1 axes.  Ragged or non-numeric
    data raise BundleError naming it."""
    try:
        a = np.asarray(data)
    except ValueError as exc:
        raise BundleError(f"malformed {name}: {exc}") from None
    if a.size == 0 and a.ndim < ndim:
        return np.zeros(a.shape, dtype=complex)
    if a.dtype.kind not in "biuf" or a.ndim != ndim or a.shape[-1] != 2:
        raise BundleError(f"malformed {name}: expected numbers nested {ndim} deep, ending in "
                          f"[re, im] pairs; got shape {a.shape} of {a.dtype}")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _maps(data, name: str):
    """A JSON list of matrices: one (count, r, c) array, or, when their
    shapes differ, a list of matrices for the owner to name the odd one."""
    try:
        return _parse(data, name, 4)
    except BundleError:
        if not isinstance(data, list):
            raise
        return [_parse(m, f"{name} [{t}]", 3) for t, m in enumerate(data)]


def _pair_map(entries: dict, what: str, one, rows=None, ndim: int = 4) -> dict:
    """A JSON map keyed by factor pair "i,j" as a dict pair -> parsed entry,
    in entry order.

    ``rows`` (the entries' matrix data, when every entry has one) share one
    np.asarray of ``ndim`` axes when they are numbers of one shape.
    Otherwise each entry is parsed by one(pair, name, entry) in turn, so the
    first malformed key or entry raises BundleError naming it.
    """
    if rows is not None:
        try:
            return dict(zip(map(_parse_pair, entries), _parse(rows, what, ndim)))
        except BundleError:
            pass
    out = {}
    for text, value in entries.items():
        pair = _parse_pair(text)
        out[pair] = one(pair, f"{what} {text}", value)
    return out


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
    dims = tuple(map(int, data["factors"]))
    action_data = data.get("action")
    if action_data is None:
        action = trivial_action(group, dims)
    else:
        given_perms = action_data.get("perms", {})
        given_units = action_data.get("unitaries", {})
        perms = tuple(
            tuple(map(int, given_perms[str(g)])) if str(g) in given_perms
            else tuple(range(len(dims)))
            for g in range(group.order)
        )
        # Elements missing from the JSON act by identities; AlgebraAction
        # stacks the families per factor dimension and checks them.
        units = tuple(
            tuple(matrix_from_json(u, f"unitaries[{g}][{i}]")
                  for i, u in enumerate(given_units[str(g)]))
            if str(g) in given_units else tuple(np.eye(d, dtype=complex) for d in dims)
            for g in range(group.order)
        )
        action = AlgebraAction(group, dims, perms, units)
    weights = data.get("weights")
    if weights is None:
        weights = dims
    return System(QuantumSet(dims), action, tuple(map(float, weights)))


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
        try:
            p = np.asarray(data["stochastic"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise BundleError(f"malformed stochastic matrix: {exc}") from None
        from .classical import embed_channel

        return embed_channel(p, src, tgt)
    if "kraus" in data:
        entries = data["kraus"]
        return from_kraus(_pair_map(entries, "Kraus maps", _kraus_entry,
                                    list(entries.values()), 5), src, tgt)
    if "choi" in data:
        entries = data["choi"]
        return CpMorphism(src, tgt, _pair_map(entries, "Choi block",
                                              lambda pair, name, m: matrix_from_json(m, name),
                                              list(entries.values())))
    raise BundleError("channel needs one of 'kraus', 'choi' or 'stochastic'")


def _kraus_entry(pair, name: str, ops):
    if not isinstance(ops, list):
        raise BundleError(f"{name} must be a list of matrices")
    return _maps(ops, name)


def _blocks_from_json(data, src: System, tgt: System, kind: str) -> dict:
    """Projection blocks given either as a "projection" matrix or as a
    "basis" of operators K_j -> H_i whose span is taken, one
    orthonormal_span per basis."""

    def one(pair, name, spec):
        if "projection" in spec:
            return matrix_from_json(spec["projection"], name)
        if "basis" in spec:
            vecs = [linalg.vec(linalg.as_complex(m)) for m in _maps(spec["basis"], name)]
            i, j = pair
            if not (0 <= i < len(src.dims) and 0 <= j < len(tgt.dims)):
                return np.zeros((0, 0), dtype=complex)  # for the block store to name
            return linalg.orthonormal_span(vecs, dim=src.dims[i] * tgt.dims[j])
        raise BundleError(f"{name} needs 'projection' or 'basis'")

    entries = data.get("blocks", {})
    specs = list(entries.values())
    rows = None
    if all(isinstance(spec, dict) and "projection" in spec for spec in specs):
        rows = [spec["projection"] for spec in specs]
    return _pair_map(entries, f"{kind} block", one, rows)


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


def _named(kind: str, name: str, build, *args):
    """build(*args), with a BundleError prefixed by the object it was building."""
    try:
        return build(*args)
    except BundleError as exc:
        raise BundleError(f"{kind} {name!r}: {exc}") from exc.__cause__


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
                systems[name] = _named("system", name, system_from_json, spec, group)
                del pending[name]
                progress = True
    if pending:
        raise BundleError(f"unresolvable system references: {sorted(pending)}")

    channels = {}
    for name, spec in data.get("channels", {}).items():
        chan = _named("channel", name, channel_from_json, spec, systems)
        if group.order > 1 and not is_covariant_cp(chan, tol):
            raise BundleError(f"channel {name!r} is not covariant for the bundle group")
        channels[name] = chan

    graphs = {}
    for name, spec in data.get("graphs", {}).items():
        graphs[name] = _named("graph", name, graph_from_json, spec, systems)

    relations = {}
    for name, spec in data.get("relations", {}).items():
        relations[name] = _named("relation", name, relation_from_json, spec, systems)

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
