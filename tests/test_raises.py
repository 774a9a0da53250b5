"""Raises on outside input that the rest of the suite does not reach: one
row per raise, matching its message.  Bundle rows go through cli.main on a
changed copy of demo/bundle.json and expect exit 2, naming the failure."""

import json
import math
import pathlib
import re

import numpy as np
import pytest

from covgraphs import classical, cli, cpmaps, graphs, groups, linalg, relations, scc, systems
from covgraphs.classical import embed_channel
from covgraphs.errors import (
    ActionShapeMismatch,
    DimensionMismatch,
    GroupMismatch,
    NegativeSpectrum,
    PsdViolation,
    ShapeMismatch,
    SourceInvalid,
    SystemMismatch,
)

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo" / "bundle.json"

BUNDLES = {
    "non-numeric matrix": (
        lambda d: d["channels"].update(bad={"from": "A", "to": "A", "choi": {"0,0": [["a"]]}}),
        "malformed Choi block 0,0: expected numbers nested 3 deep"),
    "kraus entry not a list": (
        lambda d: d["channels"].update(bad={"from": "A", "to": "A", "kraus": {"0,0": 5}}),
        "Kraus maps 0,0 must be a list of matrices"),
    "relation of an unknown system": (
        lambda d: d.update(relations={"r": {"source": "X", "target": "A", "blocks": {}}}),
        "relation references unknown system 'X'"),
    "graph of an unknown system": (
        lambda d: d["graphs"].update(bad={"system": "X", "blocks": {}}),
        "graph references unknown system 'X'"),
    "graph declared simple": (
        lambda d: d["graphs"]["discrete_A"].update(kind="simple"),
        "graph declared 'simple' fails the check"),
    "unknown graph kind": (
        lambda d: d["graphs"]["discrete_A"].update(kind="odd"),
        "unknown graph kind 'odd'"),
    "source of an unknown channel": (
        lambda d: d["sources"]["copy"].update(channel="nope"),
        "source 'copy' references unknown object 'nope'"),
}


@pytest.mark.parametrize("case", BUNDLES)
def test_bundle_raise_exits_2(case, tmp_path, capsys):
    change, message = BUNDLES[case]
    data = json.loads(DEMO.read_text())
    change(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["analyze-channel", str(path), "mix"]) == 2
    assert message in capsys.readouterr().err


Z2 = groups.cyclic_group(2)
QUBIT, PAIR = systems.system((2,)), systems.classical_system(2)


def _coding():
    """A classical source on two points with trivial side information, the
    identity channel on two points, the one-point system and the tensor
    product the source maps into."""
    one = systems.classical_system(1)
    ts = scc.tensor_system(PAIR, one)
    src = scc.Source(PAIR, PAIR, one, embed_channel(np.eye(2), PAIR, ts.product))
    ident = cpmaps.identity_channel(PAIR)
    return src, ident, one, ts


def _source_of(channel_of):
    src, _, one, ts = _coding()
    return scc.Source(PAIR, PAIR, one, channel_of(ts))


def _encoding(encoder):
    src, ident, _, _ = _coding()
    return scc.encoding_is_valid(encoder, src, ident)


def _verify(decoder):
    src, ident, _, _ = _coding()
    return scc.verify_scheme(src, ident, ident, decoder)


def _action(perms, unitaries, dims=(1,)):
    return groups.AlgebraAction(Z2, dims, perms, unitaries)


RAISES = {
    "cpmaps.add types": (
        lambda: cpmaps.add(cpmaps.identity_channel(QUBIT), cpmaps.identity_channel(PAIR)),
        SystemMismatch, "can only add CP morphisms with equal types"),
    "cpmaps.add negative coefficient": (
        lambda: cpmaps.add(cpmaps.identity_channel(QUBIT), cpmaps.identity_channel(QUBIT),
                           1.0, -1.0),
        PsdViolation, "add: coefficient cg = -1.0 is not finite and nonnegative"),
    "cpmaps.add non-finite coefficient": (
        lambda: cpmaps.add(cpmaps.identity_channel(QUBIT), cpmaps.identity_channel(QUBIT),
                           math.nan),
        PsdViolation, "add: coefficient cf = nan is not finite and nonnegative"),
    "cpmaps.cp_norm_diff types": (
        lambda: cpmaps.cp_norm_diff(cpmaps.identity_channel(QUBIT),
                                    cpmaps.identity_channel(PAIR)),
        SystemMismatch, "cannot compare CP morphisms of different types"),
    "relations.compose middle": (
        lambda: relations.compose(relations.discrete(QUBIT), relations.discrete(PAIR)),
        SystemMismatch, "compose: target of p must equal source of q"),
    "relations.relations_equal types": (
        lambda: relations.relations_equal(relations.discrete(QUBIT), relations.discrete(PAIR)),
        SystemMismatch, "relations_equal: type mismatch"),
    "graphs.QuantumGraph system": (
        lambda: graphs.QuantumGraph(PAIR, relations.discrete(QUBIT)),
        SystemMismatch, "graph relation must live on the given system"),
    "graphs.is_homomorphism systems": (
        lambda: graphs.is_homomorphism(cpmaps.identity_channel(QUBIT), graphs.discrete_graph(PAIR),
                                       graphs.discrete_graph(QUBIT)),
        SystemMismatch, "homomorphism check: systems do not match"),
    "graphs.is_simple_homomorphism systems": (
        lambda: graphs.is_simple_homomorphism(cpmaps.identity_channel(QUBIT),
                                              graphs.discrete_graph(QUBIT),
                                              graphs.discrete_graph(PAIR)),
        SystemMismatch, "homomorphism check: systems do not match"),
    "scc.Source channel type": (
        lambda: _source_of(lambda ts: embed_channel(np.full((3, 2), 1 / 3))),
        SourceInvalid, "source channel must map S to the O_A ⊗ O_B product"),
    "scc.Source not a channel": (
        lambda: _source_of(
            lambda ts: cpmaps.add(*[embed_channel(np.eye(2), PAIR, ts.product)] * 2)),
        SourceInvalid, "source map is not a channel"),
    "scc encoder source": (
        lambda: _encoding(cpmaps.identity_channel(QUBIT)),
        SystemMismatch, "encoder must start on O_A"),
    "scc encoder target": (
        lambda: _encoding(embed_channel(np.full((3, 2), 1 / 3))),
        SystemMismatch, "encoder must feed the communication channel"),
    "scc decoder type": (
        lambda: _verify(cpmaps.identity_channel(QUBIT)),
        SystemMismatch, "decoder must map B ⊗ O_B to S"),
    "systems.system empty": (
        lambda: systems.system(()),
        ShapeMismatch, "a quantum set needs at least one factor of dim >= 1"),
    "systems.System weights": (
        lambda: systems.System((2,), groups.trivial_action(Z2, (2,)), (-1.0,)),
        ShapeMismatch, "need one finite positive weight per factor"),
    "systems.check_element factors": (
        lambda: PAIR.check_element([np.eye(1)]),
        ShapeMismatch, "element has wrong number of factor blocks"),
    "groups.FiniteGroup identity": (
        lambda: groups.FiniteGroup(2, ((0, 1), (1, 0)), 1),
        GroupMismatch, "identity row/column must be trivial"),
    "groups.AlgebraAction perms count": (
        lambda: _action(((0,),), ((np.eye(1),), (np.eye(1),))),
        ActionShapeMismatch, "need one permutation and unitary family per element"),
    "groups.AlgebraAction unitary family count": (
        lambda: _action(((0,),) * 2, ((np.eye(1),),)),
        ActionShapeMismatch, "need one permutation and unitary family per element"),
    "groups.AlgebraAction stack dims": (
        lambda: _action(((0,),) * 2, {2: np.ones((2, 1, 2, 2))}),
        ActionShapeMismatch, "need one unitary stack per factor dimension"),
    "groups.AlgebraAction stack shape": (
        lambda: _action(((0,),) * 2, {1: np.ones((1, 1, 1, 1))}),
        ActionShapeMismatch, "unitary stack of dimension 1 has shape (1, 1, 1, 1)"),
    "groups.AlgebraAction unitary shape": (
        lambda: _action(((0,),) * 2, ((np.eye(1),), (np.eye(2),))),
        ActionShapeMismatch, "unitaries[1][0] has wrong shape"),
    "groups.AlgebraAction identity perms": (
        lambda: _action(((1, 0), (0, 1)), {1: np.ones((2, 2, 1, 1))}, (1, 1)),
        ActionShapeMismatch, "identity element must fix the factor slots"),
    "classical.check_stochastic ndim": (
        lambda: classical.check_stochastic([0.5, 0.5]),
        ShapeMismatch, "stochastic matrix must be 2-dimensional"),
    "classical.check_stochastic sign": (
        lambda: classical.check_stochastic([[1.5, 0.0], [-0.5, 1.0]]),
        ShapeMismatch, "stochastic matrix must be nonnegative"),
    "classical.oracle_stochastic_hom larger adjacencies": (
        lambda: classical.oracle_stochastic_hom(np.eye(2), np.eye(3, dtype=bool),
                                                np.eye(3, dtype=bool)),
        ShapeMismatch, "a 2 x 2 stochastic matrix needs adjacencies 2 x 2 and 2 x 2, "
                       "got (3, 3) and (3, 3)"),
    "classical.oracle_stochastic_hom broadcast adjacency": (
        lambda: classical.oracle_stochastic_hom(np.eye(2), np.ones((1, 1), dtype=bool),
                                                np.eye(2, dtype=bool)),
        ShapeMismatch, "a 2 x 2 stochastic matrix needs adjacencies 2 x 2 and 2 x 2, "
                       "got (1, 1) and (2, 2)"),
    "classical.oracle_source_graph rows": (
        lambda: classical.oracle_source_graph(np.eye(3), 2, 2),
        ShapeMismatch, "source matrix rows must factor as n_a * n_b"),
    "linalg.unvec length": (
        lambda: linalg.unvec(np.zeros(5), 2, 2),
        DimensionMismatch, "cannot unvec length 5 into 2x2"),
    "linalg.orthonormal_span empty": (
        lambda: linalg.orthonormal_span([]),
        DimensionMismatch, "empty span needs an explicit ambient dimension"),
    "linalg.psd_sqrt negative": (
        lambda: linalg.psd_sqrt(-np.eye(2)),
        NegativeSpectrum, "psd_sqrt: min eigenvalue -1.000e+00"),
    "linalg.inv_sqrt_psd singular": (
        lambda: linalg.inv_sqrt_psd(np.diag([1.0, 0.0])),
        NegativeSpectrum, "inv_sqrt_psd: matrix is singular at this tolerance"),
    "linalg.adjoint_image shape": (
        lambda: linalg.adjoint_image(np.eye(4), 2, 3),
        DimensionMismatch, "adjoint_image: block shape mismatch"),
}


@pytest.mark.parametrize("case", RAISES)
def test_outside_input_raises(case):
    call, kind, message = RAISES[case]
    with pytest.raises(kind, match=re.escape(message)):
        call()
