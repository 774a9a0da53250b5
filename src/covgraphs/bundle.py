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

Loading checks everything that enters:
  * the JSON itself: a ragged or non-numeric matrix or a malformed key
    raises BundleError naming the entry and the object it belongs to;
  * entries are finite; Kraus maps and blocks have their factor pair's
    shape and lie inside the layout;
  * Choi blocks are Hermitian PSD, relation and graph blocks projections;
  * each action permutes factors of equal dimension, with one family of
    unitaries per element, and is a homomorphism up to phase; weights are
    constant on its orbits;
  * with a nontrivial group, every channel is covariant, and a graph
    declared "confusability" or "simple" is one.

The checks run once per block-store class, not once per block.  The
"projection", "choi" and "kraus" entries of one (d_i, e_j) class (Kraus
maps and bases also of one count) are parsed together by one np.asarray
into a stack; the bases of one group are spanned by one stacked
orthonormal_span; a system's unitaries are parsed once per factor
dimension.  The stacks are then scanned, shape-checked and validated as
wholes, and the first failing entry in entry order is the one named.
"""

from __future__ import annotations

import json
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import linalg
from .cpmaps import CpMorphism, from_kraus
from .errors import CovGraphsError, DimensionMismatch
from .graphs import QuantumGraph, classify
from .groups import (
    AlgebraAction,
    FiniteGroup,
    dim_classes,
    is_covariant_cp,
    trivial_action,
    trivial_group,
)
from .relations import QuantumRelation
from .scc import Source, tensor_system
from .systems import BlockStore, QuantumSet, System, layout


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


@lru_cache(maxsize=128)
def _pair_texts(lay) -> dict:
    """"i,j" -> ((i, j), class index, slot) for every factor pair of a layout."""
    return MappingProxyType({f"{i},{j}": ((i, j),) + lay.where[(i, j)] for i, j in lay.keys})


def _parsed_entries(entries: dict, lay, what: str, split):
    """Parse the entries of a JSON map keyed by factor pair ("i,j") per group.

    split(text, value) gives an entry's (tag, JSON data, count): count is
    None for one matrix and the number of matrices for a list of them.  The
    entries of one tag, pair class and count share one np.asarray; a group
    that is not one stack (ragged, or of unequal shapes) is parsed matrix by
    matrix.  A pair outside the layout forms a group of its own, left for
    the block store to name.

    Returns the groups as (tag, class index, count, entry positions, pairs,
    slots, parsed): parsed is a stack whose row s belongs to pairs[s] (at
    slots[s] of its class, None for a key not written "i,j"), or a list of
    per-entry arrays (lists of arrays for counted entries).  The failures
    come as (position, BundleError) for a malformed key or matrix; entries
    after a malformed key are not read.
    """
    texts = _pair_texts(lay)
    groups = {}
    fails = []
    for pos, (text, value) in enumerate(entries.items()):
        try:
            hit = texts.get(text)
            if hit is None:
                pair = _parse_pair(text)
                c, slot = lay.where.get(pair, (pair, None))
            else:
                pair, c, slot = hit
            tag, data, count = split(text, value)
        except BundleError as exc:
            fails.append((pos, exc))
            break
        positions, pairs, slots, items = groups.setdefault((tag, c, count), ([], [], [], []))
        positions.append(pos)
        pairs.append(pair)
        slots.append(slot)
        items.append(data)
    names = list(entries)
    out = []
    for (tag, c, count), (positions, pairs, slots, items) in groups.items():
        try:
            parsed = _parse(items, what, 4 if count is None else 5)
        except BundleError:
            parsed = []
            for pos, item in zip(positions, items):
                name = f"{what} {names[pos]}"
                try:
                    parsed.append(_parse(item, name, 3) if count is None else
                                  [_parse(m, f"{name} [{t}]", 3) for t, m in enumerate(item)])
                except BundleError as exc:
                    fails.append((pos, exc))
                    break
        out.append((tag, c, count, positions, pairs, slots, parsed))
    return out, fails


def _first(fails):
    """Raise the failure at the least position, if any."""
    if fails:
        raise min(fails, key=lambda f: f[0])[1]


def _in_entry_order(groups) -> dict:
    """pair -> parsed entry, in the entry order of the JSON map."""
    rows = sorted((pos, pair, parsed[s]) for *_, positions, pairs, _, parsed in groups
                  for s, (pos, pair) in enumerate(zip(positions, pairs)))
    return {pair: value for _, pair, value in rows}


def _blocks(groups, lay, src: System, tgt: System):
    """The parsed blocks for a CP morphism or relation to validate: a
    stack-born BlockStore when every group is one stack of its class's
    block shape at "i,j" keys inside the layout, else a dict pair -> block
    in entry order, for the block store to name the failing block."""
    per_class = {}
    for _, c, _, _, _, slots, parsed in groups:
        if (not isinstance(parsed, np.ndarray) or None in slots
                or parsed.shape[1:] != (lay.classes[c].n,) * 2):
            return _in_entry_order(groups)
        per_class.setdefault(c, []).append((slots, parsed))
    parts = []
    for c, given in per_class.items():
        klass = lay.classes[c]
        k, n = len(klass.keys), klass.n
        if len(given) == 1 and given[0][0] == list(range(k)):
            stack = given[0][1]
        else:
            stack = np.zeros((k, n, n), dtype=complex)
            for slots, parsed in given:
                stack[slots] = parsed
        parts.append((klass, stack))
    return BlockStore.stacked(src, tgt, parts)


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
        perms = tuple(
            tuple(map(int, given_perms[str(g)])) if str(g) in given_perms
            else tuple(range(len(dims)))
            for g in range(group.order)
        )
        action = AlgebraAction(group, dims, perms,
                               _unitaries(action_data.get("unitaries", {}), group, dims))
    weights = data.get("weights")
    if weights is None:
        weights = dims
    return System(QuantumSet(dims), action, tuple(map(float, weights)))


def _unitaries(given: dict, group: FiniteGroup, dims: tuple):
    """The action's unitaries: elements missing from ``given`` act by
    identities.  Parsed as class stacks, one np.asarray per factor
    dimension over the given elements; if a family has the wrong length or
    a class is not one stack, per element and factor instead, for
    AlgebraAction to name the failing one."""
    present = [g for g in range(group.order) if str(g) in given]
    families = [given[str(g)] for g in present]
    factors, _ = dim_classes(dims)
    stacks = {}
    if all(isinstance(f, list) and len(f) == len(dims) for f in families):
        for d, idx in factors.items():
            stack = np.empty((group.order, len(idx), d, d), dtype=complex)
            stack[:] = np.eye(d)
            if present:
                try:
                    parsed = _parse([[f[i] for i in idx] for f in families], "unitaries", 5)
                except BundleError:
                    break
                if parsed.shape[1:] != (len(idx), d, d):
                    break
                stack[present] = parsed
            stacks[d] = stack
        else:
            return stacks
    return tuple(
        tuple(matrix_from_json(u, f"unitaries[{g}][{i}]") for i, u in enumerate(given[str(g)]))
        if str(g) in given else tuple(np.eye(d, dtype=complex) for d in dims)
        for g in range(group.order)
    )


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
    lay = layout(src.dims, tgt.dims)
    if "kraus" in data:
        def split(text, ops):
            if not isinstance(ops, list):
                raise BundleError(f"Kraus maps {text} must be a list of matrices")
            return "kraus", ops, len(ops)

        groups, fails = _parsed_entries(data["kraus"], lay, "Kraus maps", split)
        _first(fails)
        return from_kraus(_in_entry_order(groups), src, tgt)
    if "choi" in data:
        groups, fails = _parsed_entries(data["choi"], lay, "Choi block",
                                        lambda text, m: ("choi", m, None))
        _first(fails)
        return CpMorphism(src, tgt, _blocks(groups, lay, src, tgt))
    raise BundleError("channel needs one of 'kraus', 'choi' or 'stochastic'")


def _blocks_from_json(data, src: System, tgt: System, kind: str) -> dict:
    """Projection blocks given either as a "projection" matrix or as a
    "basis" of operators K_j -> H_i whose span is taken.

    Entries are parsed per class (and basis length); each group of bases
    is scanned once and spanned by one stacked orthonormal_span.  The first
    failing entry, in entry order, raises."""
    lay = layout(src.dims, tgt.dims)

    def split(text, spec):
        if "projection" in spec:
            return "projection", spec["projection"], None
        if "basis" in spec:
            return "basis", spec["basis"], len(spec["basis"])
        raise BundleError(f"{kind} block {text} needs 'projection' or 'basis'")

    groups, fails = _parsed_entries(data.get("blocks", {}), lay, f"{kind} block", split)
    spanned = []
    for tag, c, count, positions, pairs, slots, parsed in groups:
        if tag == "basis" and len(parsed) == len(positions):
            try:
                parsed = _spans(parsed, count, pairs[0], src, tgt, None not in slots)
            except DimensionMismatch as exc:
                fails.append((positions[getattr(exc, "member", 0)], exc))
                continue
        spanned.append((tag, c, count, positions, pairs, slots, parsed))
    _first(fails)
    return _blocks(spanned, lay, src, tgt)


def _spans(bases, count: int, pair, src: System, tgt: System, inside: bool):
    """Projections onto the spans of the parsed bases of one group: a
    (p, count, r, c) stack, scanned once and spanned by one stacked
    orthonormal_span, or (for a group of unequal shapes) per-entry lists
    spanned one by one.  A non-finite basis, or operators of another size
    than the block's vectors, raise DimensionMismatch carrying the entry's
    place in the group as ``member``."""
    i, j = pair
    n = src.dims[i] * tgt.dims[j] if inside else None  # outside: left to the store
    if isinstance(bases, list):
        out = []
        for s, ops in enumerate(bases):
            try:
                vecs = [linalg.vec(linalg.as_complex(m)) for m in ops]
                out.append(linalg.orthonormal_span(vecs, dim=n))
            except DimensionMismatch as exc:
                exc.member = s
                raise
        return out
    p = len(bases)
    if count == 0:
        return np.zeros((p, n or 0, n or 0), dtype=complex)
    bases = linalg.as_complex(bases, bases.shape[1:])
    size = bases.shape[2] * bases.shape[3]
    if n is not None and size != n:
        raise DimensionMismatch(f"span vectors have dim {size}, expected {n}")
    # vec of each operator, as the columns of its family.
    vecs = bases.swapaxes(2, 3).reshape(p, count, size).swapaxes(1, 2)
    return linalg.orthonormal_span(vecs)


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
