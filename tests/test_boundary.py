"""Input from outside the library is scanned for non-finite entries at the
boundary: every public entry point below raises DimensionMismatch on NaN and
on ±inf.  Blocks the library builds itself (block_store with validate=False)
are not scanned; this table is what keeps the scan on user input."""

import numpy as np
import pytest

from covgraphs import bundle, classical, cpmaps, groups, relations, systems
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


QUBIT = systems.system((2,))
SYSTEMS = {"A": {"factors": [2]}, "C": {"factors": [1, 1]}}


def _load(**sections):
    return bundle.load_bundle(dict({"systems": SYSTEMS}, **sections))


ENTRY_POINTS = {
    "from_kraus": lambda bad: cpmaps.from_kraus({(0, 0): [_bad_map(bad)]}, QUBIT, QUBIT),
    "CpMorphism": lambda bad: cpmaps.CpMorphism(QUBIT, QUBIT, {(0, 0): _bad_block(bad)}),
    "QuantumRelation": lambda bad: relations.QuantumRelation(
        QUBIT, QUBIT, {(0, 0): _bad_block(bad)}),
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
