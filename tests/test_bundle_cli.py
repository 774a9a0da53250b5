import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from covgraphs import bundle, cli, cpmaps, graphs, groups, relations, scc, systems
from covgraphs.bundle import BundleError
from covgraphs.errors import ActionShapeMismatch, CharacterizationMismatch

from genutil import phase_fixed_unitary, symmetric_group_perms

rng = np.random.default_rng(909)
DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo" / "bundle.json"


def swap_bundle():
    return {
        "group": {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0},
        "systems": {
            "A": {"factors": [1, 1], "action": {"perms": {"1": [1, 0]}, "unitaries": {}}},
        },
        "channels": {
            "unif": {"from": "A", "to": "A", "stochastic": [[0.5, 0.5], [0.5, 0.5]]},
        },
    }


class TestBundle:
    def test_matrix_roundtrip(self):
        m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert np.allclose(bundle.matrix_from_json(bundle.matrix_to_json(m)), m)

    def test_load_simple(self):
        b = bundle.load_bundle(swap_bundle())
        assert b.group.order == 2
        assert cpmaps.is_channel(b.channels["unif"])

    def test_covariance_enforced_at_load(self):
        data = swap_bundle()
        data["channels"]["skew"] = {
            "from": "A", "to": "A", "stochastic": [[1.0, 0.0], [0.0, 1.0]],
        }
        # identity on a swapped pair IS covariant; use a genuinely skew one
        data["channels"]["skew"]["stochastic"] = [[1.0, 0.5], [0.0, 0.5]]
        with pytest.raises(BundleError):
            bundle.load_bundle(data)

    def test_tensor_system_reference(self):
        data = {
            "systems": {
                "A": {"factors": [2]},
                "B": {"factors": [1, 1]},
                "AB": {"tensor": ["A", "B"]},
            }
        }
        b = bundle.load_bundle(data)
        assert b.systems["AB"].dims == (2, 2)

    def test_unresolved_reference(self):
        with pytest.raises(BundleError):
            bundle.load_bundle({"systems": {"AB": {"tensor": ["A", "B"]}}})

    def test_graph_kind_validated(self):
        data = {
            "systems": {"A": {"factors": [1, 1]}},
            "graphs": {
                "bad": {
                    "system": "A",
                    "kind": "confusability",
                    "blocks": {},
                }
            },
        }
        with pytest.raises(BundleError):
            bundle.load_bundle(data)

    def test_graph_basis_blocks(self):
        data = {
            "systems": {"A": {"factors": [2]}},
            "graphs": {
                "g": {
                    "system": "A",
                    "kind": "confusability",
                    "blocks": {
                        "0,0": {"basis": [bundle.matrix_to_json(np.eye(2))]},
                    },
                }
            },
        }
        b = bundle.load_bundle(data)
        g = b.graphs["g"]
        assert relations.relations_equal(g.relation, graphs.discrete_graph(b.systems["A"]).relation)

    def test_channel_choi_blocks(self):
        sys_a = systems.system((2,))
        ident = cpmaps.identity_channel(sys_a)
        data = {
            "systems": {"A": {"factors": [2]}},
            "channels": {
                "id": {
                    "from": "A",
                    "to": "A",
                    "choi": {"0,0": bundle.matrix_to_json(ident.blocks[(0, 0)])},
                }
            },
        }
        b = bundle.load_bundle(data)
        assert cpmaps.cp_norm_diff(b.channels["id"], ident) < 1e-12

    def test_relation_section(self):
        data = {
            "systems": {"A": {"factors": [1, 1]}, "B": {"factors": [1, 1]}},
            "relations": {
                "r": {
                    "source": "A",
                    "target": "B",
                    "blocks": {"0,1": {"projection": [[[1.0, 0.0]]]}},
                }
            },
        }
        b = bundle.load_bundle(data)
        assert b.relations["r"].rank(0, 1) == 1
        assert b.relations["r"].rank(0, 0) == 0

    def test_ragged_matrix_raises_bundle_error(self):
        with pytest.raises(BundleError):
            bundle.matrix_from_json([[[1, 0], [0, 0]], [[0, 0]]])

    @pytest.mark.parametrize("path", ["projection", "choi", "kraus", "basis", "unitaries",
                                      "stochastic"])
    def test_ragged_entry_raises_bundle_error_naming_it(self, path):
        ragged = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
        data = {"systems": {"A": {"factors": [2]}, "C": {"factors": [1, 1]}}}
        if path == "projection":
            data["graphs"] = {"g": {"system": "A", "blocks": {"0,0": {"projection": ragged}}}}
            name = "0,0"
        elif path == "basis":
            data["relations"] = {"r": {"source": "A", "target": "A",
                                       "blocks": {"0,0": {"basis": [ragged]}}}}
            name = "0,0"
        elif path == "choi":
            data["channels"] = {"f": {"from": "A", "to": "A", "choi": {"0,0": ragged}}}
            name = "0,0"
        elif path == "kraus":
            good = bundle.matrix_to_json(np.eye(2))
            data["channels"] = {"f": {"from": "A", "to": "A", "kraus": {"0,0": [good, ragged]}}}
            name = "0,0"
        elif path == "unitaries":
            data["group"] = {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0}
            data["systems"]["A"]["action"] = {"perms": {"1": [0]}, "unitaries": {"1": [ragged]}}
            name = "unitaries[1][0]"
        else:
            data["channels"] = {"f": {"from": "C", "to": "C",
                                      "stochastic": [[1.0, 0.0], [0.0]]}}
            name = "stochastic"
        with pytest.raises(BundleError, match=re.escape(name)):
            bundle.load_bundle(data)

    @pytest.mark.parametrize("count", [1, 3])
    def test_unitary_family_of_wrong_length_rejected(self, count):
        z = bundle.matrix_to_json(np.diag([1.0, -1.0]))
        data = {"group": {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0},
                "systems": {"A": {"factors": [2, 2],
                                  "action": {"perms": {"1": [0, 1]},
                                             "unitaries": {"1": [z] * count}}}}}
        with pytest.raises(ActionShapeMismatch, match=re.escape("unitaries[1]")):
            bundle.load_bundle(data)

    def test_family_lengths_checked_by_the_action(self):
        z2 = groups.cyclic_group(2)
        eye = np.eye(2)
        for perms, units in ((((0, 1), (0, 1, 2)), ((eye, eye), (eye, eye))),
                             (((0, 1), (1, 0)), ((eye, eye), (eye,))),
                             (((0, 1), (1, 0)), ((eye, eye), (eye, eye, eye)))):
            with pytest.raises(ActionShapeMismatch):
                groups.AlgebraAction(z2, (2, 2), perms, units)

    def test_system_json_roundtrip(self):
        s2 = groups.symmetric_group(2)
        act = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
        sys_a = systems.classical_system(2, act)
        doc = bundle.system_to_json(sys_a)
        back = bundle.system_from_json(doc, s2)
        assert back == sys_a


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-c", "import covgraphs.cli, sys; sys.exit(covgraphs.cli.main())"]
        + args,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def demo_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "demo.json"
    data = {
        "systems": {
            "A": {"factors": [1, 1]},
            "B": {"factors": [1, 1, 1]},
            "Q": {"factors": [2]},
            "S": {"factors": [1, 1]},
            "OB": {"factors": [1, 1]},
            "OAOB": {"tensor": ["A", "OB"]},
            "BOB": {"tensor": ["B", "OB"]},
        },
        "channels": {
            "inj": {"from": "A", "to": "B",
                    "stochastic": [[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]]},
            "merge": {"from": "A", "to": "B",
                      "stochastic": [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]},
            "enc": {"from": "A", "to": "A", "stochastic": [[1.0, 0.0], [0.0, 1.0]]},
            "src_chan": {"from": "S", "to": "OAOB",
                         "stochastic": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
            "dec": {"from": "BOB", "to": "S",
                    "stochastic": [[1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
                                   [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]},
            "bad_dec": {"from": "BOB", "to": "S",
                        "stochastic": [[0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                                       [1.0, 1.0, 1.0, 1.0, 0.0, 1.0]]},
            "leak": {"from": "A", "to": "A", "kraus": {"0,0": [[[[1.0, 0.0]]]]}},
            "hadamard": {"from": "Q", "to": "Q",
                         "kraus": {"0,0": [[[[0.7071067811865476, 0.0],
                                             [0.7071067811865476, 0.0]],
                                            [[0.7071067811865476, 0.0],
                                             [-0.7071067811865476, 0.0]]]]}},
        },
        "graphs": {
            "dA": {"system": "A", "kind": "confusability",
                   "blocks": {"0,0": {"projection": [[[1.0, 0.0]]]},
                              "1,1": {"projection": [[[1.0, 0.0]]]}}},
            "sA": {"system": "A", "kind": "simple",
                   "blocks": {"0,1": {"projection": [[[1.0, 0.0]]]},
                              "1,0": {"projection": [[[1.0, 0.0]]]}}},
            "kA": {"system": "A", "kind": "confusability",
                   "blocks": {
                       f"{i},{j}": {"projection": [[[1.0, 0.0]]]}
                       for i in range(2) for j in range(2)
                   }},
            "kB": {"system": "B", "kind": "confusability",
                   "blocks": {
                       f"{i},{j}": {"projection": [[[1.0, 0.0]]]}
                       for i in range(3) for j in range(3)
                   }},
        },
        "sources": {
            "csrc": {"s": "S", "oa": "A", "ob": "OB", "channel": "src_chan"},
        },
    }
    path.write_text(json.dumps(data))
    return str(path)


# Structurally malformed copies of demo/bundle.json, each with the text its
# error must hold.
MALFORMED = {
    "factors not a list": (lambda d: d["systems"]["A"].update(factors=2), "system 'A'"),
    "perms not an object": (lambda d: d["systems"]["A"]["action"].update(perms=3), "perms"),
    "systems a list": (lambda d: d.update(systems=list(d["systems"].values())),
                       "section 'systems'"),
    "null group": (lambda d: d.update(group=None), "group"),
    "graph blocks a list": (
        lambda d: d["graphs"]["discrete_A"].update(
            blocks=list(d["graphs"]["discrete_A"]["blocks"].values())),
        "graph 'discrete_A'"),
    "top-level list": (lambda d: [d], "bundle"),
    "tensor a string": (lambda d: d["systems"]["AOB"].update(tensor="AB"), "system 'AOB'"),
    "stochastic and kraus": (
        lambda d: d["channels"]["mix"].update(kraus={"0,0": [[[[1.0, 0.0]]]]}), "channel 'mix'"),
    "system name a list": (lambda d: d["channels"]["mix"].update({"from": ["A"]}),
                           "channel 'mix'"),
    "graph block a number": (lambda d: d["graphs"]["discrete_A"]["blocks"].update({"0,0": 5}),
                             "graph block 0,0"),
    "weights a number": (lambda d: d["systems"]["A"].update(weights=2), "system 'A': weights"),
    "weights nested": (lambda d: d["systems"]["A"].update(weights=[[1]]), "system 'A': weights"),
    "weights a string": (lambda d: d["systems"]["A"].update(weights=["a"]), "system 'A': weights"),
    "weights NaN": (lambda d: d["systems"]["A"].update(weights=[float("nan")] * 2),
                    "system 'A': weights"),
    "weights inf": (lambda d: d["systems"]["A"].update(weights=[float("inf")] * 2),
                    "system 'A': weights"),
    "weights past float": (lambda d: d["systems"]["A"].update(weights=[10 ** 400] * 2),
                           "system 'A': weights"),
    "stochastic past float": (
        lambda d: d["channels"]["spread"]["stochastic"][0].__setitem__(0, 10 ** 400),
        "channel 'spread': malformed stochastic matrix"),
    "group entry past int64": (lambda d: d["group"]["mult_table"][0].__setitem__(0, 10 ** 400),
                               "group entry is outside the int64 range"),
    "stochastic of strings": (lambda d: d["channels"]["mix"].update(stochastic=[["0.5"] * 2] * 2),
                              "channel 'mix': malformed stochastic matrix"),
    "stochastic of bools": (
        lambda d: d["channels"]["mix"].update(stochastic=[[True, False], [False, True]]),
        "channel 'mix': malformed stochastic matrix"),
    "null in stochastic": (lambda d: d["channels"]["mix"]["stochastic"][0].__setitem__(0, None),
                           "channel 'mix': malformed stochastic matrix"),
    "Choi block of bools": (
        lambda d: d["channels"].update(bools={"from": "A", "to": "A", "choi": {
            "0,0": [[[True, False]]], "1,1": [[[True, False]]]}}),
        "channel 'bools': malformed Choi block 0,0"),
    "graph basis a number": (
        lambda d: d["graphs"]["discrete_A"]["blocks"].update({"0,0": {"basis": 5}}),
        "graph 'discrete_A': malformed graph block 0,0"),
    "no factors": (lambda d: d["systems"]["A"].__delitem__("factors"),
                   "system 'A': needs 'factors'"),
    "factor of dim 0": (lambda d: d["systems"].update(A={"factors": [0]}),
                        "system 'A': a quantum set needs at least one factor of dim >= 1"),
    "factor of dim -1": (lambda d: d["systems"].update(A={"factors": [-1]}),
                         "system 'A': a quantum set needs at least one factor of dim >= 1"),
    "factor of dim 0 with an action": (
        lambda d: d["systems"]["A"].update(factors=[2, 0]),
        "system 'A': a quantum set needs at least one factor of dim >= 1"),
    "no group order": (lambda d: d["group"].__delitem__("order"), "group needs 'order'"),
    "no group table": (lambda d: d["group"].__delitem__("mult_table"),
                       "group needs 'mult_table'"),
}


def _constant(value):
    return lambda fn: lambda *args, **kwargs: value


def _negated(fn):
    return lambda *args, **kwargs: not fn(*args, **kwargs)


def _raising(exc):
    def wrap(fn):
        def raise_(*args, **kwargs):
            raise exc
        return raise_
    return wrap


# The exit contract, one row per (command, outcome): argv, with BUNDLE, DEMO,
# MISSING and OUT standing for the demo_bundle fixture, demo/bundle.json, a
# path that does not exist and an output path; a library function replaced
# for the run, as (module, name, wrapper of the original), or None; the exit
# code; lines stdout must hold, each as the start of one of its lines; and the
# prefix of stderr ("" for none).
EXIT_CONTRACT = {
    "analyze-channel reversible, reverse written": (
        ["analyze-channel", "BUNDLE", "inj", "--emit-reverse", "-o", "OUT"], None, 0,
        ["is channel: yes", "reversible: yes", "reverse channel written to OUT"], ""),
    "analyze-channel reversible, no -o": (
        ["analyze-channel", "BUNDLE", "inj", "--emit-reverse"], None, 0,
        ["reversible: yes", "reverse channel computed (use -o to write it)"], ""),
    "analyze-channel not reversible": (
        ["analyze-channel", "BUNDLE", "merge"], None, 0, ["reversible: no"], ""),
    "analyze-channel not a channel": (
        ["analyze-channel", "BUNDLE", "leak"], None, 0,
        ["is channel: no", "reversible: n/a (not a channel)"], ""),
    "analyze-channel unknown channel": (
        ["analyze-channel", "BUNDLE", "nope"], None, 2, [], "error: unknown channel 'nope'"),
    "analyze-channel unreadable bundle": (
        ["analyze-channel", "MISSING", "inj"], None, 2, [], "error: cannot load bundle: "),
    "graph-to-channel realized": (
        ["graph-to-channel", "BUNDLE", "dA", "-o", "OUT"], None, 0,
        ["round-trip defect: 0.000e+00", "written to OUT"], ""),
    "graph-to-channel not a confusability graph": (
        ["graph-to-channel", "BUNDLE", "sA"], None, 2, [],
        "error: realize_channel needs a confusability graph"),
    "graph-to-channel round trip failed": (
        ["graph-to-channel", "BUNDLE", "dA"], (relations, "relation_defect", _constant(1.0)), 1,
        ["round-trip defect: 1.000e+00", "round trip FAILED tolerance"], ""),
    "graph-to-channel --tau 1e-10 does not read back": (
        ["graph-to-channel", "DEMO", "complete_A", "--tau", "1e-10", "-o", "OUT"], None, 2, [],
        "error: --tau 1e-10: its channel does not read the graph back "
        "(round-trip defect 1.000e+00)"),
    "graph-to-channel --tau 5e-10 does not read back": (
        ["graph-to-channel", "DEMO", "complete_A", "--tau", "5e-10", "-o", "OUT"], None, 2, [],
        "error: --tau 5e-10: its channel does not read the graph back "
        "(round-trip defect 1.000e+00)"),
    "graph-to-channel --tau 1 is infeasible": (
        ["graph-to-channel", "DEMO", "complete_A", "--tau", "1", "-o", "OUT"], None, 2, [],
        "error: blend parameter 1.0 is infeasible"),
    "graph-to-channel --tau 2 is out of range": (
        ["graph-to-channel", "DEMO", "complete_A", "--tau", "2", "-o", "OUT"], None, 2, [],
        "error: blend parameter must lie in (0, 1]"),
    "graph-to-channel --tau 1e-9 reads back": (
        ["graph-to-channel", "DEMO", "complete_A", "--tau", "1e-9", "-o", "OUT"], None, 0,
        ["round-trip defect: 0.000e+00", "written to OUT"], ""),
    "check-hom true": (
        ["check-hom", "BUNDLE", "inj", "kA", "kB"], None, 0, ["homomorphism: true"], ""),
    "check-hom false": (
        ["check-hom", "BUNDLE", "merge", "dA", "kB"], None, 1,
        ["homomorphism: false", "witness block (0,1): containment defect 1.000e+00",
         "witness block (1,0): containment defect 1.000e+00"], ""),
    "check-hom systems do not match": (
        ["check-hom", "BUNDLE", "inj", "kB", "kA"], None, 2, [],
        "error: homomorphism check: systems do not match"),
    "scc-verify synthesized, valid": (
        ["scc-verify", "BUNDLE", "csrc", "inj", "enc", "-o", "OUT"], None, 0,
        ["decoder synthesized", "scheme: valid", "decoder written to OUT"], ""),
    "scc-verify given, valid": (
        ["scc-verify", "BUNDLE", "csrc", "inj", "enc", "dec"], None, 0, ["scheme: valid"], ""),
    "scc-verify given, invalid encoder": (
        ["scc-verify", "BUNDLE", "csrc", "merge", "enc", "dec"], None, 1,
        ["scheme: invalid (encoder is not a homomorphism)"], ""),
    "scc-verify synthesized, invalid encoder": (
        ["scc-verify", "BUNDLE", "csrc", "merge", "enc"], None, 1,
        ["scheme: invalid (encoder is not a homomorphism)"], ""),
    "scc-verify given, decoder fails": (
        ["scc-verify", "BUNDLE", "csrc", "inj", "enc", "bad_dec"], None, 1,
        ["scheme: invalid (decoder fails)"], ""),
    "scc-verify wrong-typed decoder": (
        ["scc-verify", "BUNDLE", "csrc", "inj", "enc", "inj"], None, 2, [],
        "error: decoder must map B ⊗ O_B to S"),
    "scc-verify -o with a decoder given": (
        ["scc-verify", "BUNDLE", "csrc", "inj", "enc", "dec", "-o", "OUT"], None, 2, [],
        "error: -o writes a synthesized decoder, and a decoder was given"),
    "scc-verify -o without the declared product": (
        ["scc-verify", "DEMO", "copy", "spread", "encode", "-o", "OUT"], None, 2, [],
        "error: cannot write the decoder: declare its source B ⊗ O_B"),
    "scc-verify theorem violation": (
        ["scc-verify", "BUNDLE", "csrc", "inj", "enc"], (scc, "is_homomorphism", _negated), 3,
        [], "error: homomorphism test (False) and composite reversibility (True) disagree"),
    "twirl covariant": (
        ["twirl", "BUNDLE", "inj", "-o", "OUT"], None, 0,
        ["twirled over group of order 1", "covariant: yes", "written to OUT"], ""),
    "characterization mismatch": (
        ["twirl", "BUNDLE", "inj", "-o", "OUT"],
        (groups, "twirl_cp", _raising(CharacterizationMismatch("injected"))), 3, [],
        "error: injected"),
    "any command internal error": (
        ["twirl", "BUNDLE", "inj", "-o", "OUT"],
        (groups, "twirl_cp", _raising(RuntimeError("injected"))), 3, [],
        "error: internal error: RuntimeError: injected"),
}


@pytest.mark.parametrize("case", EXIT_CONTRACT)
def test_exit_contract(case, demo_bundle, tmp_path, monkeypatch, capsys):
    """A command returns 0 or 1, its verdict; main() maps an input error to
    2 and a theorem violation or any other exception to 3."""
    argv, patch, code, lines, err_prefix = EXIT_CONTRACT[case]
    out = tmp_path / "out.json"
    paths = {"BUNDLE": demo_bundle, "DEMO": str(DEMO), "MISSING": str(tmp_path / "missing.json"),
             "OUT": str(out)}
    if patch is not None:
        module, name, wrap = patch
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert cli.main([paths.get(a, a) for a in argv]) == code
    got = capsys.readouterr()
    stdout = got.out.splitlines()
    for line in lines:
        line = line.replace("OUT", str(out))
        assert any(s.startswith(line) for s in stdout), (line, got.out)
    assert got.err.startswith(err_prefix) and bool(got.err) == bool(err_prefix), got.err
    if code >= 2:
        assert got.out == ""
    assert out.exists() == (code == 0 and "-o" in argv)


@pytest.mark.parametrize("argv", [["analyze-channel", "f"], ["twirl", "f", "-o", "OUT"]])
def test_a_choi_block_that_no_reader_accepts_is_refused_at_load(argv, tmp_path, capsys):
    """A Choi block whose least eigenvalue, -5e-8, lies below the cut every
    reader applies is refused at load, naming its channel, before any
    output."""
    v = np.eye(2).reshape(-1)
    w = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    band = np.outer(v, v) - 5e-8 * np.outer(w, w)
    path, out = tmp_path / "band.json", tmp_path / "out.json"
    path.write_text(json.dumps({"systems": {"A": {"factors": [2]}}, "channels": {
        "f": {"from": "A", "to": "A", "choi": {"0,0": bundle.matrix_to_json(band)}}}}))
    argv = [argv[0], str(path)] + [str(out) if a == "OUT" else a for a in argv[1:]]
    assert cli.main(argv) == 2
    got = capsys.readouterr()
    assert got.out == "" and not out.exists()
    assert got.err == ("error: cannot load bundle: channel 'f': "
                       "Choi block (0, 0): eigenvalue -5.000e-08\n")


class TestCli:
    def test_analyze_reversible(self, demo_bundle, tmp_path):
        out = tmp_path / "rev.json"
        r = run_cli(["analyze-channel", demo_bundle, "inj", "--emit-reverse", "-o", str(out)])
        assert r.returncode == 0
        assert "reversible: yes" in r.stdout
        data = json.loads(out.read_text())
        assert data["from"] == "B" and data["to"] == "A"

    def test_emitted_reverse_of_a_unitary_channel_round_trips(self, tmp_path):
        u = phase_fixed_unitary(0)
        path, out = tmp_path / "u.json", tmp_path / "rev.json"
        path.write_text(json.dumps({
            "systems": {"Q": {"factors": [1, 2]}},
            "channels": {"u": {"from": "Q", "to": "Q", "kraus": {
                "0,0": [bundle.matrix_to_json(np.eye(1))],
                "1,1": [bundle.matrix_to_json(u)]}}},
        }))
        r = run_cli(["analyze-channel", str(path), "u", "--emit-reverse", "-o", str(out)])
        assert r.returncode == 0, r.stderr
        data = json.loads(path.read_text())
        data["channels"]["rev"] = json.loads(out.read_text())
        b = bundle.load_bundle(data)
        f, g = b.channels["u"], b.channels["rev"]
        assert cpmaps.cp_norm_diff(cpmaps.compose(g, f), cpmaps.identity_channel(f.source)) < 1e-7

    def test_analyze_merging(self, demo_bundle):
        r = run_cli(["analyze-channel", demo_bundle, "merge"])
        assert r.returncode == 0
        assert "reversible: no" in r.stdout

    def test_analyze_all_zero_choi_class(self, tmp_path):
        """Choi blocks of one class, all zero: every support block has rank 0."""
        zero = bundle.matrix_to_json(np.zeros((4, 4)))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "systems": {"A": {"factors": [2, 2]}, "B": {"factors": [2]}},
            "channels": {"z": {"from": "A", "to": "B", "choi": {"0,0": zero, "1,0": zero}}},
        }))
        r = run_cli(["analyze-channel", str(path), "z"])
        assert r.returncode == 0, r.stderr
        ranks = re.findall(r"^  \((\d+),(\d+)\): (\d+)$", r.stdout, re.M)
        assert len(ranks) == 2 + 4
        assert {rank for _, _, rank in ranks} == {"0"}

    def test_analyze_unknown_name(self, demo_bundle):
        r = run_cli(["analyze-channel", demo_bundle, "nope"])
        assert r.returncode == 2

    def test_graph_to_channel(self, demo_bundle, tmp_path):
        out = tmp_path / "real.json"
        r = run_cli(["graph-to-channel", demo_bundle, "dA", "-o", str(out)])
        assert r.returncode == 0
        assert "round-trip defect" in r.stdout
        assert out.exists()

    def test_check_hom_true(self, demo_bundle):
        r = run_cli(["check-hom", demo_bundle, "inj", "kA", "kB"])
        assert r.returncode == 0
        assert "true" in r.stdout

    def test_check_hom_false_with_witness(self, demo_bundle):
        r = run_cli(["check-hom", demo_bundle, "merge", "dA", "kB"])
        assert r.returncode == 1
        assert "witness" in r.stdout
        b = bundle.load_bundle_file(demo_bundle)
        failing = sorted(graphs.homomorphism_failures(
            b.channels["merge"], b.graphs["dA"], b.graphs["kB"]))
        printed = re.findall(r"witness block \((\d+),(\d+)\)", r.stdout)
        assert failing
        assert [(int(i), int(j)) for i, j in printed] == [key for key, _ in failing]

    def test_module_entry_point(self):
        r = subprocess.run([sys.executable, "-m", "covgraphs.cli", "--help"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert "RuntimeWarning" not in r.stderr

    def test_scc_verify_valid(self, demo_bundle, tmp_path):
        out = tmp_path / "dec.json"
        r = run_cli(["scc-verify", demo_bundle, "csrc", "inj", "enc", "-o", str(out)])
        assert r.returncode == 0
        assert "valid" in r.stdout
        assert out.exists()

    def test_scc_verify_explicit_decoder(self, demo_bundle):
        r = run_cli(["scc-verify", demo_bundle, "csrc", "inj", "enc", "dec"])
        assert r.returncode == 0
        assert "valid" in r.stdout

    def test_scc_verify_invalid(self, demo_bundle):
        r = run_cli(["scc-verify", demo_bundle, "csrc", "merge", "enc"])
        assert r.returncode == 1

    def test_scc_verify_computes_once(self, demo_bundle, monkeypatch, capsys):
        calls = {"source_confusability_graph": 0, "_composite": 0, "is_reversible": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(scc, name, counted(scc, name))
        # reverse_channel reaches is_reversible through the graphs module
        monkeypatch.setattr(graphs, "is_reversible", counted(graphs, "is_reversible"))
        for argv, code in ((["csrc", "inj", "enc"], 0), (["csrc", "inj", "enc", "dec"], 0),
                           (["csrc", "merge", "enc"], 1)):
            for name in calls:
                calls[name] = 0
            assert cli.main(["scc-verify", demo_bundle] + argv) == code
            assert calls["source_confusability_graph"] == 1, argv
            assert calls["_composite"] == 1, argv
            # One for the source channel's gate, one for the composite.
            assert calls["is_reversible"] == 2, argv
        assert "scheme: invalid (encoder is not a homomorphism)" in capsys.readouterr().out

    def test_parser_built_once_and_commands_looked_up_per_call(self, demo_bundle, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        seen = []
        monkeypatch.setattr(cli, "cmd_twirl", lambda args: seen.append(args.channel) or 7)
        try:
            assert cli.main(["twirl", demo_bundle, "inj"]) == 7
            assert cli.main(["twirl", demo_bundle, "merge"]) == 7
        finally:
            cli._parser.cache_clear()
        assert seen == ["inj", "merge"] and len(built) == 1

    def test_scc_verify_decoder_reloads_into_bundle(self, demo_bundle, tmp_path):
        out = tmp_path / "dec.json"
        r = run_cli(["scc-verify", demo_bundle, "csrc", "inj", "enc", "-o", str(out)])
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["from"] == "BOB"
        with open(demo_bundle) as fh:
            data = json.load(fh)
        data["channels"]["_dec"] = doc
        b = bundle.load_bundle(data)
        assert scc.verify_scheme(b.sources["csrc"], b.channels["inj"], b.channels["enc"],
                                 b.channels["_dec"]) is True

    def test_analyze_unitary_rank_one(self, demo_bundle):
        r = run_cli(["analyze-channel", demo_bundle, "hadamard"])
        assert r.returncode == 0
        assert "(0,0): 1" in r.stdout
        assert "reversible: yes" in r.stdout

    def test_graph_to_channel_explicit_tau(self, demo_bundle, tmp_path):
        out = tmp_path / "real.json"
        r = run_cli(["graph-to-channel", demo_bundle, "kA", "--tau", "0.25", "-o", str(out)])
        assert r.returncode == 0
        assert "round-trip defect: 0.000e+00" in r.stdout
        assert json.loads(out.read_text())["channel"]["from"] == "A"

    def test_scc_verify_output_needs_the_decoder_source(self, tmp_path):
        """With -o, the bundle must name the decoder's source B ⊗ O_B:
        demo/bundle.json does not, so scc-verify exits 2 before any verdict,
        names the tensor system to declare and writes nothing."""
        data = json.loads(DEMO.read_text())
        path, out = tmp_path / "demo.json", tmp_path / "dec.json"
        path.write_text(json.dumps(data))
        argv = ["scc-verify", str(path), "copy", "spread", "encode", "-o", str(out)]
        r = run_cli(argv)
        assert r.returncode == 2 and r.stdout == "" and not out.exists()
        assert 'declare its source B ⊗ O_B as a system {"tensor": ["B", "OB"]}' in r.stderr
        data["systems"]["BOB"] = {"tensor": ["B", "OB"]}
        path.write_text(json.dumps(data))
        r = run_cli(argv)
        assert r.returncode == 0 and json.loads(out.read_text())["from"] == "BOB"

    def test_outputs_name_the_systems_the_bundle_declares(self, tmp_path, capsys):
        """On demo/bundle.json, OB equals A and S: each -o file names the
        system a channel, source or tensor declares, not the first equal one."""
        data = json.loads(DEMO.read_text())
        for name in ("mix", "encode"):
            data["channels"][name + "OB"] = dict(data["channels"][name], **{"from": "OB", "to": "OB"})
        data["systems"]["BOB"] = {"tensor": ["B", "OB"]}
        data["systems"]["BA"] = {"tensor": ["B", "A"]}
        path, out = tmp_path / "demo.json", tmp_path / "out.json"
        path.write_text(json.dumps(data))
        for argv, ends in ((["twirl", "mixOB"], ("OB", "OB")),
                           (["analyze-channel", "encodeOB", "--emit-reverse"], ("OB", "OB")),
                           (["analyze-channel", "spread", "--emit-reverse"], ("B", "A")),
                           (["scc-verify", "copy", "spread", "encode"], ("BOB", "S"))):
            assert cli.main([argv[0], str(path)] + argv[1:] + ["-o", str(out)]) == 0, argv
            doc = json.loads(out.read_text())
            assert (doc["from"], doc["to"]) == ends, argv
        capsys.readouterr()

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_bundle_exits_2_naming_the_object(self, case, tmp_path, capsys):
        change, named = MALFORMED[case]
        data = json.loads(DEMO.read_text())
        data = change(data) or data
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["analyze-channel", str(path), "mix"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load bundle") and named in err, err

    @pytest.mark.parametrize("tol", ["abc", "nan", "inf", "0", "-1", "5"])
    def test_tol_outside_the_open_unit_interval_exits_2(self, tol, capsys):
        """--tol takes a finite 0 < tol < 1: at tol >= 1 every projection
        test passes, since a rank mismatch has a defect of at least 1.  Any
        other value is refused by the parser, as a non-number is: exit 2,
        naming --tol, before the bundle is read."""
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze-channel", str(DEMO), "mix", "--tol", tol])
        assert info.value.code == 2
        got = capsys.readouterr()
        assert got.out == "" and "argument --tol" in got.err and repr(tol) in got.err

    def test_small_tol_is_accepted(self, capsys):
        assert cli.main(["analyze-channel", str(DEMO), "mix", "--tol", "1e-4"]) == 0
        assert "reversible: no" in capsys.readouterr().out

    def test_check_hom_takes_no_output(self, tmp_path, capsys):
        """check-hom writes nothing, so -o is a usage error: exit 2, no file."""
        out = tmp_path / "hom.json"
        with pytest.raises(SystemExit) as info:
            cli.main(["check-hom", str(DEMO), "encode", "discrete_A", "discrete_A",
                      "-o", str(out)])
        assert info.value.code == 2 and not out.exists()
        assert "unrecognized arguments: -o" in capsys.readouterr().err

    def test_scc_verify_output_refuses_a_given_decoder(self, tmp_path, capsys):
        """-o writes a synthesized decoder; with a decoder given, scc-verify
        exits 2 before any verdict and writes nothing."""
        out = tmp_path / "dec.json"
        assert cli.main(["scc-verify", str(DEMO), "copy", "spread", "encode", "mix",
                         "-o", str(out)]) == 2
        got = capsys.readouterr()
        assert got.out == "" and not out.exists()
        assert "-o writes a synthesized decoder, and a decoder was given" in got.err

    def test_graph_to_channel_simple_rejected(self, demo_bundle):
        r = run_cli(["graph-to-channel", demo_bundle, "sA"])
        assert r.returncode == 2

    def test_twirl(self, demo_bundle, tmp_path):
        out = tmp_path / "tw.json"
        r = run_cli(["twirl", demo_bundle, "inj", "-o", str(out)])
        assert r.returncode == 0
        assert out.exists()

    def test_twirl_nontrivial_group(self, tmp_path):
        path = tmp_path / "swap.json"
        path.write_text(json.dumps({
            "group": {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0},
            "systems": {"A": {"factors": [1, 1],
                              "action": {"perms": {"1": [1, 0]}, "unitaries": {}}}},
            "channels": {"unif": {"from": "A", "to": "A",
                                  "stochastic": [[0.5, 0.5], [0.5, 0.5]]}},
        }))
        r = run_cli(["twirl", str(path), "unif"])
        assert r.returncode == 0
        assert "covariant: yes" in r.stdout

    def test_short_unitary_family_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({
            "group": {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0},
            "systems": {"A": {"factors": [2, 2], "action": {
                "perms": {"1": [1, 0]},
                "unitaries": {"1": [bundle.matrix_to_json(np.eye(2))]}}}},
            "channels": {"f": {"from": "A", "to": "A",
                               "kraus": {"0,0": [bundle.matrix_to_json(np.eye(2))],
                                         "1,1": [bundle.matrix_to_json(np.eye(2))]}}},
        }))
        assert cli.main(["twirl", str(path), "f"]) == 2
        assert "unitaries[1] has 1 entries, expected 2" in capsys.readouterr().err

    def test_bad_bundle(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        r = run_cli(["analyze-channel", str(path), "x"])
        assert r.returncode == 2

    def test_deterministic_output(self, demo_bundle, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["graph-to-channel", demo_bundle, "dA", "-o", str(out1)])
        run_cli(["graph-to-channel", demo_bundle, "dA", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        rev1, rev2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(["analyze-channel", demo_bundle, "hadamard", "--emit-reverse", "-o", str(rev1)])
        run_cli(["analyze-channel", demo_bundle, "hadamard", "--emit-reverse", "-o", str(rev2)])
        assert rev1.read_bytes() == rev2.read_bytes()
