"""Input from outside the library is scanned for non-finite entries at the
boundary: every public entry point below raises DimensionMismatch on NaN and
on ±inf.  The input's type is the one trust rule: a family given as a dict
or a KeyedStack is always checked, and a BlockStore, which only the library
builds, never is; no argument switches a check off.  This table is what
keeps the scan on user input."""

import inspect

import numpy as np
import pytest

from covgraphs import bundle, classical, cpmaps, groups, linalg, relations, systems
from covgraphs.errors import DimensionMismatch

from genutil import inner_action


def _json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _bad_map(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    return m


def _bad_block(bad):
    b = np.eye(4, dtype=complex)
    b[1, 2] = bad
    return b


def _keyed(family):
    """The dict family as a systems.KeyedStack."""
    return systems.KeyedStack(np.array(list(family)), np.array(list(family.values())))


QUBIT = systems.system((2,))
SYSTEMS = {"A": {"factors": [2]}, "C": {"factors": [1, 1]}}


def _load(**sections):
    return bundle.load_bundle(dict({"systems": SYSTEMS}, **sections))


ENTRY_POINTS = {
    "from_kraus": lambda bad: cpmaps.from_kraus({(0, 0): [_bad_map(bad)]}, QUBIT, QUBIT),
    "CpMorphism": lambda bad: cpmaps.CpMorphism(QUBIT, QUBIT, {(0, 0): _bad_block(bad)}),
    "QuantumRelation": lambda bad: relations.QuantumRelation(
        QUBIT, QUBIT, {(0, 0): _bad_block(bad)}),
    "from_kraus keyed": lambda bad: cpmaps.from_kraus(
        _keyed({(0, 0): [_bad_map(bad)]}), QUBIT, QUBIT),
    "CpMorphism keyed": lambda bad: cpmaps.CpMorphism(
        QUBIT, QUBIT, _keyed({(0, 0): _bad_block(bad)})),
    "QuantumRelation keyed": lambda bad: relations.QuantumRelation(
        QUBIT, QUBIT, _keyed({(0, 0): _bad_block(bad)})),
    "AlgebraAction": lambda bad: inner_action(
        groups.cyclic_group(2), 2, [np.eye(2), _bad_map(bad)]),
    "load_bundle kraus": lambda bad: _load(channels={"f": {
        "from": "A", "to": "A", "kraus": {"0,0": [_json(_bad_map(bad))]}}}),
    "load_bundle choi": lambda bad: _load(channels={"f": {
        "from": "A", "to": "A", "choi": {"0,0": _json(_bad_block(bad))}}}),
    "load_bundle stochastic": lambda bad: _load(channels={"f": {
        "from": "C", "to": "C", "stochastic": [[1.0, bad], [0.0, 1.0]]}}),
    "load_bundle projection": lambda bad: _load(graphs={"g": {
        "system": "A", "blocks": {"0,0": {"projection": _json(_bad_block(bad))}}}}),
    "load_bundle graph basis": lambda bad: _load(graphs={"g": {
        "system": "A", "blocks": {"0,0": {"basis": [_json(_bad_map(bad))]}}}}),
    "load_bundle relation basis": lambda bad: _load(relations={"r": {
        "source": "A", "target": "A", "blocks": {"0,0": {"basis": [_json(_bad_map(bad))]}}}}),
    "load_bundle relation projection": lambda bad: _load(relations={"r": {
        "source": "A", "target": "A",
        "blocks": {"0,0": {"projection": _json(_bad_block(bad))}}}}),
    "load_bundle action unitary": lambda bad: bundle.load_bundle({
        "group": {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0},
        "systems": {"A": {"factors": [2], "action": {
            "perms": {"1": [0]}, "unitaries": {"1": [_json(_bad_map(bad))]}}}}}),
    "embed_channel": lambda bad: classical.embed_channel([[1.0, bad], [0.0, 1.0]]),
    "apply": lambda bad: cpmaps.apply(cpmaps.identity_channel(QUBIT), [_bad_map(bad)]),
    "check_element": lambda bad: QUBIT.check_element([_bad_map(bad)]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
def test_non_finite_input_raises(entry, bad):
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](bad)


def test_no_switch_skips_a_check():
    """The trust rule has no flag: these are the signatures at the boundary."""
    def params(fn):
        return [(p.name, p.kind.name, p.default) for p in inspect.signature(fn).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(cpmaps.CpMorphism.__init__) == [
        ("self", "POSITIONAL_OR_KEYWORD", empty), ("source", "POSITIONAL_OR_KEYWORD", empty),
        ("target", "POSITIONAL_OR_KEYWORD", empty), ("blocks", "POSITIONAL_OR_KEYWORD", empty)]
    assert params(relations.QuantumRelation.__init__) == [
        ("self", "POSITIONAL_OR_KEYWORD", empty), ("source", "POSITIONAL_OR_KEYWORD", empty),
        ("target", "POSITIONAL_OR_KEYWORD", empty), ("blocks", "POSITIONAL_OR_KEYWORD", empty),
        ("frames", "POSITIONAL_OR_KEYWORD", None)]
    assert params(systems.block_store) == [
        (name, "POSITIONAL_OR_KEYWORD", empty) for name in ("source", "target", "blocks", "kind")]
    assert params(linalg.as_complex) == [
        ("m", "POSITIONAL_OR_KEYWORD", empty), ("shape", "POSITIONAL_OR_KEYWORD", None)]
    assert params(linalg.as_complex_groups) == [
        ("groups", "POSITIONAL_OR_KEYWORD", empty), ("fails", "POSITIONAL_OR_KEYWORD", empty),
        ("name", "POSITIONAL_OR_KEYWORD", empty), ("about", "VAR_POSITIONAL", empty)]
    assert not hasattr(cpmaps, "_from_maps")


def _spy(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_a_store_is_taken_as_it_is(monkeypatch):
    """A BlockStore, the library's own, is not PSD- or projection-checked; the
    same blocks given as a dict are, the Choi blocks by one cut per class."""
    cuts = _spy(monkeypatch, linalg, "spectral_cut")
    defects = _spy(monkeypatch, linalg, "projection_defects")
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = 1.0
    for make, calls, kind in ((cpmaps.CpMorphism, cuts, "Choi"),
                              (relations.QuantumRelation, defects, "relation")):
        store = systems.block_store(QUBIT, QUBIT, {(0, 0): proj}, kind)
        assert make(QUBIT, QUBIT, store).blocks is store and calls == []
        make(QUBIT, QUBIT, {(0, 0): proj})
        assert len(calls) == 1


PAIR = systems.system((2, 1))

NONE_ENTRIES = {
    "Choi block": lambda: cpmaps.CpMorphism(
        PAIR, PAIR, {(0, 0): None, (1, 1): np.ones((1, 1))}),
    "relation block": lambda: relations.QuantumRelation(
        PAIR, PAIR, {(0, 0): None, (1, 1): np.ones((1, 1))}),
    "Kraus entry": lambda: cpmaps.from_kraus(
        {(0, 0): None, (1, 1): [np.ones((1, 1))]}, PAIR, PAIR),
}


@pytest.mark.parametrize("kind", NONE_ENTRIES, ids=str)
def test_a_none_entry_loads_as_zero(kind):
    """A None entry of a dict family is a zero block; in a Kraus family it is
    a pair without maps."""
    f = NONE_ENTRIES[kind]()
    assert np.array_equal(f.blocks[(0, 0)], np.zeros((4, 4)))
    assert np.array_equal(f.blocks[(1, 1)], np.ones((1, 1)))
    if kind == "Kraus entry":
        assert list(f.kraus()) == [(1, 1)]
