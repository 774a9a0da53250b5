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

This module only parses.  Every number the document holds is read by one
rule (_numbers): one np.asarray must give an integer or float array, so a
string, null, object, ragged list or all-boolean array raises BundleError
naming the entry.  Flat lists ("factors", "perms", "weights", the group's
order, identity and rows) are first read entry by entry, refusing a bool
and naming the first bad entry: an integer must fit int64, a weight be
finite.  Known limit: numpy reads a bool mixed with numbers inside a
nested matrix as 0 or 1; refusing it would need a walk over every leaf, a
quarter or more of a load.  Names of other objects are looked up by one
rule (_refs).  An unknown name or a malformed "i,j" key raises BundleError
naming it, and load_bundle prefixes every error with the object it built.

A map whose "i,j" keys are all two decimal numbers without leading zeros
(so distinct keys are distinct pairs) and whose entries share one shape
becomes a systems.KeyedStack: its pairs as one (k, 2) int array, parsed in
one pass over the key text, and its entries as one array.  Any other map
becomes a dict from factor pair to parsed entry, in entry order, a
repeated pair keeping its last entry.  The owners check the rest:

  * systems.block_store (through CpMorphism and QuantumRelation) and
    cpmaps.from_kraus: finite entries, each block or map of its factor
    pair's shape and pairs inside the layout, once per class for either
    form (systems.located), naming the first failure in entry order;
  * CpMorphism: Choi blocks Hermitian, and PSD by the cut every reader
    reads; QuantumRelation: projections; QuantumGraph: symmetric;
  * FiniteGroup: a table of order x order, a Latin square, associative,
    with its identity inside the group.  Equal groups share one
    FiniteGroup (groups.shared_group);
  * AlgebraAction: each element permutes factors of equal dimension with
    one family of finite unitaries, and the action is a homomorphism up to
    phase, naming the first failing unitary by (g, i); System: weights
    constant on its orbits.  A system that gives no unitaries acts by
    permutations alone (groups.permutation_action); one that gives
    unitaries shares one action per group, dims, perms and the shape and
    bytes of every parsed unitary, across loads (groups.shared);
  * load_bundle: the document, its group, sections, objects, actions and
    block maps are JSON objects, a "tensor" two system names, and a
    channel gives exactly one of "kraus", "choi" and "stochastic"; with a
    nontrivial group, every channel is covariant, and a graph declared
    "confusability" or "simple" is one, at load_bundle's tol.  The bundle
    keeps the system names each object declares (SpecBundle.declared), and
    the CLI writes them back.

dump_channel writes a channel's held Kraus family, so it forms no Choi
block and runs no cut of its own; dump_json writes json.dumps(obj,
indent=1, sort_keys=True) and a newline in one write.
"""

from __future__ import annotations

import json
import re
import sys
from operator import itemgetter

import numpy as np

from . import linalg
from .classical import embed_channel
from .cpmaps import CpMorphism, from_kraus
from .errors import CovGraphsError
from .graphs import QuantumGraph, classify
from .groups import (
    AlgebraAction,
    FiniteGroup,
    is_covariant_cp,
    permutation_action,
    shared,
    shared_group,
    trivial_action,
    trivial_group,
)
from .relations import QuantumRelation
from .scc import Source, tensor_system
from .systems import KeyedStack, System, _factor_dims, _shared_system


class BundleError(CovGraphsError):
    pass


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    """One JSON matrix (rows of [re, im] entries) as a complex array; a
    malformed one raises BundleError naming it."""
    return _parse(data, name, 3)


def _parse(data, name: str, ndim: int) -> np.ndarray:
    """JSON number arrays of ndim axes ending in [re, im] pairs (_numbers) as
    a complex array of ndim - 1 axes; empty data of fewer axes as zeros of
    its shape, for the owner to name."""
    a = _numbers(data, name, ndim)
    if a.ndim < ndim:
        return np.zeros(a.shape, dtype=complex)
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


# Flat lists: entry types, largest magnitude, and words naming a bad list and entry.
_FLAT = {int: ((int, np.integer), np.inf, "integers", "an integer"),
         float: ((int, float), sys.float_info.max, "numbers", "a finite number")}


def _numbers(data, what: str, ndim: int | None = None, flat: type | None = None):
    """The one numeric rule (module docstring): data as an integer or float
    array, nested ndim deep and ending in [re, im] pairs when ndim is given
    (or empty with fewer axes).  Given flat, int or float, data is a list
    checked entry by entry and returned as a tuple of flat."""
    if flat is not None:
        kinds, top, plural, noun = _FLAT[flat]
        if not isinstance(data, (list, tuple)):
            raise BundleError(f"{what} must be a list of {plural}, not {type(data).__name__}")
        for x in data:
            if isinstance(x, bool) or not isinstance(x, kinds) or not abs(x) <= top:
                raise BundleError(f"{what} entry {x!r} is not {noun}")
            if flat is int and not -2 ** 63 <= x < 2 ** 63:
                raise BundleError(f"{what} entry is outside the int64 range")
    try:
        a = np.asarray(data, dtype=flat)
    except (ValueError, TypeError, OverflowError) as exc:
        raise BundleError(f"malformed {what}: {exc}") from None
    nested = (ndim is None or (a.ndim == ndim and a.shape[-1] == 2)
              or (a.size == 0 and a.ndim < ndim))
    if a.dtype.kind not in "iuf" or not nested:
        deep = "" if ndim is None else f" nested {ndim} deep, ending in [re, im] pairs"
        raise BundleError(f"malformed {what}: expected numbers{deep}; "
                          f"got shape {a.shape} of {a.dtype}")
    return a if flat is None else tuple(a.tolist())


def _maps(data, name: str):
    """A JSON list of matrices: one (count, r, c) array, or, when their
    shapes differ, a list of matrices for the owner to name the odd one."""
    try:
        return _parse(data, name, 4)
    except BundleError:
        if not isinstance(data, list):
            raise
        return [_parse(m, f"{name} [{t}]", 3) for t, m in enumerate(data)]


def _pair_map(entries: dict, what: str, one, rows=None, ndim: int = 4):
    """A JSON map keyed by factor pair "i,j": a KeyedStack, or a dict pair ->
    parsed entry, in entry order.

    ``rows`` (the entries' matrix data, when every entry has one) become the
    stack of a KeyedStack, with one np.asarray of ``ndim`` axes, when they
    are numbers of one shape and _parse_pairs reads every key.  Otherwise
    each entry is parsed by one(pair, name, entry) in turn, so the first
    malformed key or entry raises BundleError naming it.
    """
    pairs = _parse_pairs(entries) if rows else None
    if pairs is not None:
        try:
            return KeyedStack(pairs, _parse(rows, what, ndim))
        except BundleError:
            pass
    out = {}
    for text, value in entries.items():
        pair = _parse_pair(text)
        out[pair] = one(pair, f"{what} {text}", value)
    return out


# Keys "i,j" of decimal numbers without leading zeros, one key per line.
_PAIR_LINES = re.compile(r"(?:(?:0|[1-9][0-9]{0,8}),(?:0|[1-9][0-9]{0,8})\n)*")


def _parse_pairs(keys):
    """Keys "i,j" as one (k, 2) int array, parsed in one pass over their
    text; None unless every key is two decimal numbers of up to nine digits
    without leading zeros, so that the pairs of distinct keys are distinct."""
    try:
        text = "\n".join(keys) + "\n"
    except TypeError:  # a key that is no str
        return None
    if text.count("\n") != len(keys) or not _PAIR_LINES.fullmatch(text):
        return None  # a key held a newline, or is not two numbers
    return np.fromstring(text.replace("\n", ","), dtype=int, sep=",",
                         count=2 * len(keys)).reshape(-1, 2)


def _object(value, what: str) -> dict:
    """value, which must be a JSON object; else BundleError naming what."""
    if not isinstance(value, dict):
        raise BundleError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _entries(data: dict, section: str):
    """The (name, spec) pairs of a bundle section, which must be JSON
    objects, as the section must."""
    for name, spec in _object(data.get(section, {}), f"section {section!r}").items():
        yield name, _object(spec, f"{section} entry {name!r}")


def group_from_json(data) -> FiniteGroup:
    """The bundle's group, its order, identity and table rows read as
    integers (_numbers).  Equal groups share one FiniteGroup
    (groups.shared_group)."""
    _object(data, "group")
    for field in ("order", "mult_table"):
        if field not in data:
            raise BundleError(f"group needs {field!r}")
    order, table, identity = data["order"], data["mult_table"], data.get("identity", 0)
    if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
        raise BundleError("group mult_table must be a list of rows")
    order, identity = _numbers((order, identity), "group", flat=int)
    return shared_group(order, tuple(_numbers(row, "group", flat=int) for row in table), identity)


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
            # Each class stack holds its factors in factor order.
            members = {d: iter(stack[g]) for d, stack in sys.action.unitaries.items()}
            unitaries[str(g)] = [matrix_to_json(next(members[d])) for d in sys.dims]
        out["action"] = {"perms": perms, "unitaries": unitaries}
    return out


def system_from_json(data, group: FiniteGroup) -> System:
    if "factors" not in data:
        raise BundleError("needs 'factors'")
    dims = _factor_dims(_numbers(data["factors"], "factors", flat=int))
    action_data = data.get("action")
    if action_data is None:
        action = trivial_action(group, dims)
    else:
        _object(action_data, "action")
        given_perms = _object(action_data.get("perms", {}), "perms")
        given_units = _object(action_data.get("unitaries", {}), "unitaries")
        perms = tuple(
            _numbers(given_perms[str(g)], "perms", flat=int) if str(g) in given_perms
            else tuple(range(len(dims)))
            for g in range(group.order)
        )
        if not any(str(g) in given_units for g in range(group.order)):
            action = permutation_action(group, dims, perms)
        else:
            # Elements missing from the JSON act by identities; AlgebraAction
            # stacks the families per factor dimension and checks them.
            units = tuple(
                tuple(matrix_from_json(u, f"unitaries[{g}][{i}]")
                      for i, u in enumerate(given_units[str(g)]))
                if str(g) in given_units else tuple(np.eye(d, dtype=complex) for d in dims)
                for g in range(group.order)
            )
            action = _unitary_action(group, dims, perms, tuple(
                tuple((u.shape, u.tobytes()) for u in fam) for fam in units))
    weights = data.get("weights")
    weights = dims if weights is None else _numbers(weights, "weights", flat=float)
    return _shared_system(dims, weights, action)


@shared
def _unitary_action(group: FiniteGroup, dims: tuple, perms: tuple,
                    units: tuple) -> AlgebraAction:
    """AlgebraAction with the per-element unitary families given as the
    (shape, bytes) of each parsed complex matrix, shared (groups.shared)
    per group, dims, perms and those shapes and bytes."""
    return AlgebraAction(group, dims, perms, tuple(
        tuple(np.frombuffer(raw, dtype=complex).reshape(shape) for shape, raw in fam)
        for fam in units))


def _pair_key(i: int, j: int) -> str:
    return f"{i},{j}"


def _parse_pair(key):
    try:
        i, j = key.split(",")
        return int(i), int(j)
    except (AttributeError, ValueError) as exc:  # a key that is no str, or not two numbers
        raise BundleError(f"factor-pair key {key!r} must look like 'i,j'") from exc


def _refs(table: dict, spec: dict, fields: tuple, what: str) -> list:
    """The objects of table that spec names under fields; a missing field or
    an unknown name raises BundleError: what, then the name."""
    try:
        return [table[spec[field]] for field in fields]
    except (KeyError, TypeError) as exc:
        raise BundleError(f"{what} {exc}") from exc


def channel_from_json(data, systems: dict) -> CpMorphism:
    src, tgt = _refs(systems, data, ("from", "to"), "channel references unknown system")
    if sum(kind in data for kind in ("kraus", "choi", "stochastic")) != 1:
        raise BundleError("channel needs exactly one of 'kraus', 'choi' or 'stochastic'")
    if "stochastic" in data:
        return embed_channel(_numbers(data["stochastic"], "stochastic matrix"), src, tgt)
    if "kraus" in data:
        entries = data["kraus"]
        return from_kraus(_pair_map(entries, "Kraus maps", _kraus_entry,
                                    list(entries.values()), 5), src, tgt)
    entries = data["choi"]
    return CpMorphism(src, tgt, _pair_map(entries, "Choi block",
                                          lambda pair, name, m: matrix_from_json(m, name),
                                          list(entries.values())))


def _kraus_entry(pair, name: str, ops):
    if not isinstance(ops, list):
        raise BundleError(f"{name} must be a list of matrices")
    return _maps(ops, name)


def _blocks_from_json(data, src: System, tgt: System, kind: str) -> dict:
    """Projection blocks given either as a "projection" matrix or as a
    "basis" of operators K_j -> H_i whose span is taken, one
    orthonormal_span per basis."""

    def one(pair, name, spec):
        if "projection" in _object(spec, name):
            return matrix_from_json(spec["projection"], name)
        if "basis" in spec:
            vecs = [linalg.vec(linalg.as_complex(m)) for m in _maps(spec["basis"], name)]
            i, j = pair
            if not (0 <= i < len(src.dims) and 0 <= j < len(tgt.dims)):
                return np.zeros((0, 0), dtype=complex)  # for the block store to name
            return linalg.orthonormal_span(vecs, dim=src.dims[i] * tgt.dims[j])
        raise BundleError(f"{name} needs 'projection' or 'basis'")

    entries = _object(data.get("blocks", {}), "blocks")
    try:
        rows = list(map(itemgetter("projection"), entries.values()))
    except (KeyError, TypeError):  # an entry without a projection
        rows = None
    return _pair_map(entries, f"{kind} block", one, rows)


def relation_from_json(data, systems: dict) -> QuantumRelation:
    src, tgt = _refs(systems, data, ("source", "target"), "relation references unknown system")
    return QuantumRelation(src, tgt, _blocks_from_json(data, src, tgt, "relation"))


def graph_from_json(data, systems: dict, tol: float) -> QuantumGraph:
    (sys,) = _refs(systems, data, ("system",), "graph references unknown system")
    rel = QuantumRelation(sys, sys, _blocks_from_json(data, sys, sys, "graph"))
    g = QuantumGraph(sys, rel)
    kind = data.get("kind")
    if kind is not None:
        flags = classify(g, tol)
        if kind == "confusability" and not flags["is_confusability"]:
            raise BundleError("graph declared 'confusability' fails the check")
        if kind == "simple" and not flags["is_simple"]:
            raise BundleError("graph declared 'simple' fails the check")
        if kind not in ("confusability", "simple", "general"):
            raise BundleError(f"unknown graph kind {kind!r}")
    return g


class SpecBundle:
    """Named groups/systems/channels/graphs/sources with resolved references,
    and the system names each object declares: declared["channels"][name]
    is a channel's (from, to), declared["graphs"][name] a graph's system,
    declared["sources"][name] a source's (s, oa, ob) and
    declared["systems"][name] a tensor system's (left, right)."""

    def __init__(self, group: FiniteGroup, systems: dict, channels: dict,
                 graphs: dict, sources: dict, relations: dict, declared: dict):
        self.group = group
        self.systems = systems
        self.channels = channels
        self.graphs = graphs
        self.sources = sources
        self.relations = relations
        self.declared = declared


def _named(kind: str, name: str, build, *args):
    """build(*args), a CovGraphsError re-raised as its type, prefixed by the object built."""
    try:
        return build(*args)
    except CovGraphsError as exc:
        raise type(exc)(f"{kind} {name!r}: {exc}") from exc.__cause__


def load_bundle(data: dict, tol: float = linalg.TOL_PROJ) -> SpecBundle:
    _object(data, "bundle")
    group = group_from_json(data["group"]) if "group" in data else trivial_group()
    declared = {"systems": {}, "channels": {}, "graphs": {}, "sources": {}}

    systems: dict = {}
    pending = dict(_entries(data, "systems"))
    for name, spec in pending.items():
        if "tensor" in spec:
            legs = spec["tensor"]
            if not (isinstance(legs, list) and len(legs) == 2
                    and all(isinstance(leg, str) for leg in legs)):
                raise BundleError(f"system {name!r}: tensor must name two systems")
            declared["systems"][name] = tuple(legs)
    # Resolve plain systems first, then tensor products (one nesting level at
    # a time, so products of products also resolve).
    progress = True
    while pending and progress:
        progress = False
        for name in list(pending):
            spec = pending[name]
            if "tensor" in spec:
                left, right = declared["systems"][name]
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
    for name, spec in _entries(data, "channels"):
        chan = _named("channel", name, channel_from_json, spec, systems)
        if group.order > 1 and not is_covariant_cp(chan, tol):
            raise BundleError(f"channel {name!r} is not covariant for the bundle group")
        channels[name] = chan
        declared["channels"][name] = spec["from"], spec["to"]

    graphs = {}
    for name, spec in _entries(data, "graphs"):
        graphs[name] = _named("graph", name, graph_from_json, spec, systems, tol)
        declared["graphs"][name] = spec["system"]

    relations = {}
    for name, spec in _entries(data, "relations"):
        relations[name] = _named("relation", name, relation_from_json, spec, systems)

    sources = {}
    for name, spec in _entries(data, "sources"):
        unknown = f"source {name!r} references unknown object"
        s_sys, oa, ob = _refs(systems, spec, ("s", "oa", "ob"), unknown)
        (chan,) = _refs(channels, spec, ("channel",), unknown)
        sources[name] = _named("source", name, Source, s_sys, oa, ob, chan, tol)
        declared["sources"][name] = spec["s"], spec["oa"], spec["ob"]

    return SpecBundle(group, systems, channels, graphs, sources, relations, declared)


def load_bundle_file(path: str, tol: float = linalg.TOL_PROJ) -> SpecBundle:
    with open(path) as fh:
        return load_bundle(json.load(fh), tol=tol)


def dump_channel(f: CpMorphism, src_name: str, tgt_name: str) -> dict:
    """f as a channel entry from src_name to tgt_name: its held Kraus family
    (CpMorphism.kraus), minimal for a morphism born as Choi blocks and the
    maps as stored for one born from Kraus maps."""
    return {
        "from": src_name,
        "to": tgt_name,
        "kraus": {
            _pair_key(i, j): matrix_to_json(ops)
            for (i, j), ops in f.kraus().items()
        },
    }


def dump_json(obj, path: str):
    """Write obj as json.dumps(obj, indent=1, sort_keys=True) and a newline,
    in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")
