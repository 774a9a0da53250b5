"""Bundle loading: what the parser hands the owners, and which failure is
named when a bundle holds several; bundle writing: the bytes of json.dump."""

import contextlib
import inspect
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest

from covgraphs import bundle, cli, cpmaps, graphs, linalg, relations, systems
from covgraphs.bundle import BundleError
from covgraphs.errors import DimensionMismatch, ShapeMismatch, SourceInvalid

from genutil import rand_complex, rand_conf_graph, rand_cp, rand_relation

rng = np.random.default_rng(1010)

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo" / "bundle.json"
RAGGED = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
ONE = [[[1.0, 0.0]]]
EYE2 = bundle.matrix_to_json(np.eye(2))


def test_source_shares_the_bundles_tensor_system():
    b = bundle.load_bundle_file(str(DEMO))
    src = b.sources["copy"]
    assert src.tensor.product is b.systems["AOB"]
    # Equal systems share one product, across loads too.
    assert bundle.load_bundle_file(str(DEMO)).systems["AOB"] is b.systems["AOB"]


def test_loads_share_permutation_actions():
    """demo's C2 swap systems give no unitaries: equal ones share one action,
    within a load and across loads."""
    a, b = (bundle.load_bundle_file(str(DEMO)) for _ in range(2))
    assert b.systems["A"].action is a.systems["A"].action is a.systems["S"].action


# Graph blocks of a system with factors (2, 1), in entry order; two entries
# are malformed, and the earlier one must be named.
MIXED = {
    "projection first": ([("0,0", {"basis": [EYE2]}), ("0,1", {"projection": RAGGED}),
                          ("1,0", {"basis": [RAGGED]}), ("1,1", {"projection": ONE})],
                         "graph block 0,1"),
    "basis first": ([("1,1", {"projection": ONE}), ("1,0", {"basis": [EYE2, RAGGED]}),
                     ("0,1", {"projection": RAGGED}), ("0,0", {"basis": [EYE2]})],
                    "graph block 1,0 [1]"),
    "entry before key": ([("0,0", {"projection": RAGGED}), ("x", {"basis": [EYE2]})],
                         "graph block 0,0"),
    "key before entry": ([("1,1", {"projection": ONE}), ("0;1", {"projection": ONE}),
                          ("0,0", {"basis": [RAGGED]})], "'0;1'"),
    "entry without a tag": ([("1,1", {"projection": ONE}), ("0,0", {"span": [EYE2]}),
                             ("1,0", {"projection": RAGGED})], "graph block 0,0 needs"),
}


@pytest.mark.parametrize("case", MIXED)
def test_first_malformed_graph_entry_is_named(case):
    entries, name = MIXED[case]
    data = {"systems": {"A": {"factors": [2, 1]}},
            "graphs": {"g": {"system": "A", "blocks": dict(entries)}}}
    with pytest.raises(BundleError, match=re.escape(name)) as info:
        bundle.load_bundle(data)
    assert str(info.value).startswith("graph 'g': ")


@pytest.mark.parametrize("basis", [[EYE2], []], ids=["one-operator", "empty"])
@pytest.mark.parametrize("key", ["5,0", "-1,0"])
@pytest.mark.parametrize("section", ["graphs", "relations"])
def test_basis_outside_the_layout_is_out_of_range(section, key, basis):
    blocks = {"0,0": {"projection": bundle.matrix_to_json(np.eye(4))}, key: {"basis": basis}}
    if section == "graphs":
        spec = {"system": "A", "blocks": blocks}
    else:
        spec = {"source": "A", "target": "A", "blocks": blocks}
    with pytest.raises(ShapeMismatch, match="out of range"):
        bundle.load_bundle({"systems": {"A": {"factors": [2]}}, section: {"x": spec}})


@pytest.mark.parametrize("section", ["graphs", "relations"])
def test_basis_operator_of_the_wrong_shape_raises(section):
    """A "basis" operator of block (0, 0) of a (2,) system must be 2 x 2:
    a 3 x 3 one spans 9-dim vectors where the block is 4 x 4."""
    blocks = {"0,0": {"basis": [bundle.matrix_to_json(np.eye(3))]}}
    if section == "graphs":
        spec = {"system": "A", "blocks": blocks}
    else:
        spec = {"source": "A", "target": "A", "blocks": blocks}
    with pytest.raises(DimensionMismatch, match="span vectors have dim 9, expected 4"):
        bundle.load_bundle({"systems": {"A": {"factors": [2]}}, section: {"x": spec}})


@pytest.mark.parametrize("dims", [(2, 2), (1, 2, 2)])
@pytest.mark.parametrize("counts", ["one", "mixed"])
def test_kraus_entries_load_as_from_kraus(dims, counts):
    sys = systems.system(dims)
    kraus = {}
    for i, d in enumerate(dims):
        for j, e in enumerate(dims):
            count = 2 if counts == "one" else int(rng.integers(1, 4))
            kraus[(i, j)] = [rand_complex(rng, e, d) for _ in range(count)]
    data = {"systems": {"A": {"factors": list(dims)}},
            "channels": {"f": {"from": "A", "to": "A", "kraus": {
                f"{i},{j}": [bundle.matrix_to_json(m) for m in ops]
                for (i, j), ops in kraus.items()}}}}
    got = bundle.load_bundle(data).channels["f"]
    ref = cpmaps.from_kraus(kraus, sys, sys)
    for key in ref.blocks:
        assert np.array_equal(got.blocks[key], ref.blocks[key]), key
        maps, ref_maps = got.kraus()[key], ref.kraus()[key]
        assert len(maps) == len(ref_maps), key
        assert all(np.array_equal(m, r) for m, r in zip(maps, ref_maps)), key


# -- keyed stacks --------------------------------------------------------
# A map keyed by "i,j" whose entries share one shape loads as a keyed stack
# (its pairs and entries as two arrays) that the owner groups by class.  It
# must give bitwise the store of the per-entry path (the dict), and on any
# malformed input the same error.

DIMS = {"classical16": (1,) * 16, "q2": (2,), "m123": (1, 2, 3)}
# The pairs given, in this order: every pair, or on (1, 2, 3) two pairs of
# one block shape in two classes, (1, 2) and (2, 1), out of key order, and
# one pair for the Kraus maps, whose shape names the class.
SUBSET = {"m123": [(1, 0), (0, 1)]}
KRAUS_SUBSET = {"m123": [(1, 1)]}
KINDS = ["graph", "relation", "choi", "kraus"]


def _keyed_entries(kind, name):
    """(key text, JSON entry) items of one map of the given kind on DIMS[name]."""
    sys = systems.system(DIMS[name])
    if kind == "graph":
        blocks = rand_conf_graph(rng, sys).relation.blocks
    elif kind == "relation":
        blocks = rand_relation(rng, sys, sys, density=1.0).blocks
    else:
        blocks = rand_cp(rng, sys, sys).blocks
    if kind == "kraus":
        pairs = KRAUS_SUBSET.get(name, list(blocks))
        return [(f"{i},{j}", [bundle.matrix_to_json(rand_complex(rng, sys.dims[j], sys.dims[i]))
                              for _ in range(2)]) for i, j in pairs]
    pairs = SUBSET.get(name, list(blocks))
    wrap = (lambda m: {"projection": m}) if kind in ("graph", "relation") else (lambda m: m)
    return [(f"{i},{j}", wrap(bundle.matrix_to_json(blocks[(i, j)]))) for i, j in pairs]


def _keyed_bundle(kind, name, items):
    data = {"systems": {"A": {"factors": list(DIMS[name])}}}
    entries = dict(items)
    if kind == "graph":
        data["graphs"] = {"x": {"system": "A", "blocks": entries}}
    elif kind == "relation":
        data["relations"] = {"x": {"source": "A", "target": "A", "blocks": entries}}
    else:
        data["channels"] = {"x": {"from": "A", "to": "A", kind: entries}}
    return data


def _matrix(entry):
    return entry["projection"] if isinstance(entry, dict) else entry


def _with_matrix(entry, m):
    return {"projection": m} if isinstance(entry, dict) else m


def _zeros(x):
    """JSON data of the same structure with every number 0.0."""
    if isinstance(x, dict):
        return {k: _zeros(v) for k, v in x.items()}
    return [_zeros(v) for v in x] if isinstance(x, list) else 0.0


def _malformed(case, kind, name, items):
    """items with one defect: the JSON map of the case."""
    items = list(items)
    mid = len(items) // 2
    key, entry = items[0]
    if case == "bad key":
        items[mid] = ("0;1", items[mid][1])
    elif case == "duplicate":
        # Names pair `key` again; the later entry holds zeros.
        items.append(("0" + key, _zeros(entry)))
    elif case == "out of range":
        items.append(("50,0" if name == "classical16" else "5,0", entry))
    elif case == "wrong shape":
        def grown(m):
            rows, cols = len(m) + 1, len(m[0]) + (kind != "kraus")
            return [[[0.0, 0.0]] * cols for _ in range(rows)]
        items = [(k, [grown(m) for m in e] if kind == "kraus"
                  else _with_matrix(e, grown(_matrix(e)))) for k, e in items]
    elif case == "nan":
        k, e = items[mid]
        e = json.loads(json.dumps(e))
        (e[0] if kind == "kraus" else _matrix(e))[0][0][0] = math.nan
        items[mid] = (k, e)
    elif case == "ragged":
        k, e = items[mid]
        items[mid] = (k, [e[0], RAGGED] if kind == "kraus" else _with_matrix(e, RAGGED))
    return items


def _loaded(kind, data):
    """The loaded object's block store and held Kraus maps, or the error
    raised: (type name, message)."""
    try:
        b = bundle.load_bundle(data)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    if kind == "graph":
        return b.graphs["x"].relation.blocks, None
    if kind == "relation":
        return b.relations["x"].blocks, None
    return b.channels["x"].blocks, b.channels["x"].kraus()


def _per_entry(monkeypatch, kind, data):
    """_loaded with every "i,j" map parsed one entry at a time into a dict."""
    with monkeypatch.context() as m:
        m.setattr(bundle, "_parse_pairs", lambda keys: None)
        return _loaded(kind, data)


def _spy_keyed(monkeypatch) -> list:
    """Records, per call of the owners' grouping (systems.located), whether
    it was handed the map as one keyed stack rather than entry by entry."""
    seen, real = [], systems.located

    def spy(lay, family, *args, **kw):
        seen.append(isinstance(family, systems.KeyedStack))
        return real(lay, family, *args, **kw)

    monkeypatch.setattr(systems, "located", spy)
    monkeypatch.setattr(cpmaps, "located", spy)
    return seen


def _assert_same_load(got, ref):
    if isinstance(ref[0], str):
        assert got == ref
        return
    (store, kraus), (ref_store, ref_kraus) = got, ref
    assert list(store) == list(ref_store)
    for key in ref_store:
        assert store[key].tobytes() == ref_store[key].tobytes(), key
    for (_, stack), (_, ref_stack) in zip(store.classes(), ref_store.classes(), strict=True):
        assert stack.tobytes() == ref_stack.tobytes()
    if ref_kraus is not None:
        for key, ops in ref_kraus.items():
            assert [m.tobytes() for m in kraus[key]] == [m.tobytes() for m in ops], key


@pytest.mark.parametrize("name", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_keyed_stack_loads_bitwise_as_per_entry(kind, name, monkeypatch):
    data = _keyed_bundle(kind, name, _keyed_entries(kind, name))
    ref = _per_entry(monkeypatch, kind, data)
    seen = _spy_keyed(monkeypatch)
    got = _loaded(kind, data)
    assert seen == [True]
    assert not isinstance(ref[0], str) and got[0].layout is ref[0].layout
    _assert_same_load(got, ref)


MALFORMED = ["bad key", "duplicate", "out of range", "wrong shape", "nan", "ragged"]
# The error of each malformed case on the (2,) system: the same with and
# without keyed stacks, and as before them.
Q2_ERRORS = {
    ("graph", "bad key"): ("BundleError", "graph 'x': factor-pair key '0;1' must look like 'i,j'"),
    ("graph", "out of range"): ("ShapeMismatch",
                                "graph 'x': relation block index (5, 0) out of range"),
    ("relation", "wrong shape"): ("ShapeMismatch", "relation 'x': "
                                  "relation block (0, 0) has shape (5, 5), expected (4,4)"),
    ("choi", "nan"): ("DimensionMismatch", "channel 'x': matrix entries must be finite"),
    ("kraus", "wrong shape"): ("ShapeMismatch", "channel 'x': "
                               "Kraus map for pair (0, 0) has shape (3, 2), expected (2,2)"),
    ("kraus", "out of range"): ("ShapeMismatch", "channel 'x': Kraus index (5, 0) out of range"),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("name", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_malformed_keyed_map_fails_as_per_entry(kind, name, case, monkeypatch):
    data = _keyed_bundle(kind, name, _malformed(case, kind, name, _keyed_entries(kind, name)))
    ref = _per_entry(monkeypatch, kind, data)
    got = _loaded(kind, data)
    _assert_same_load(got, ref)
    if name == "q2" and (kind, case) in Q2_ERRORS:
        assert got == Q2_ERRORS[(kind, case)]
    if case == "duplicate":
        assert not isinstance(got[0], str) or "symmetric" in got[1]
    else:
        assert isinstance(got[0], str), case


def test_keys_with_leading_zeros_are_not_keyed():
    """Distinct key texts of a keyed stack are distinct pairs: "01,0" names
    the pair of "1,0", so such a map loads entry by entry, the last entry
    of a pair winning (the "duplicate" case above)."""
    assert bundle._parse_pairs(["1,0", "01,0"]) is None
    assert bundle._parse_pairs(["0,0", "1,0", "10,20"]).tolist() == [[0, 0], [1, 0], [10, 20]]


@pytest.mark.parametrize("path", ["keyed", "per-entry"])
def test_kraus_entry_of_no_maps_loads_as_the_zero_morphism(path, monkeypatch):
    """A pair given no maps, "0,0": [], contributes nothing: the channel is
    the zero morphism, with zero blocks and no held maps, whether the map
    reaches the owner as one keyed stack or entry by entry."""
    data = _keyed_bundle("kraus", "q2", [("0,0", [])])
    if path == "per-entry":
        monkeypatch.setattr(bundle, "_parse_pairs", lambda keys: None)
    seen = _spy_keyed(monkeypatch)
    f = bundle.load_bundle(data).channels["x"]
    assert seen == [path == "keyed"]
    assert f.kraus_stacks == ()
    assert dict(f.kraus()) == {}
    assert not f.blocks[(0, 0)].any()


@pytest.mark.parametrize("path", ["keyed", "per-entry"])
@pytest.mark.parametrize("where", ["graph", "kraus"])
def test_key_that_is_no_str_is_refused_by_name(where, path, monkeypatch):
    """JSON keys are strings, but a document built in Python may key a
    factor pair by an int or a tuple: such a key raises BundleError like any
    key that is not "i,j", on the keyed and the per-entry path alike."""
    data = json.loads(DEMO.read_text())
    if where == "graph":
        data["graphs"]["discrete_A"]["blocks"] = {0: {"projection": ONE},
                                                  "1,1": {"projection": ONE}}
        named = "graph 'discrete_A': factor-pair key 0 must look like 'i,j'"
    else:
        data["channels"]["k"] = {"from": "A", "to": "A", "kraus": {(0, 0): [ONE], "1,1": [ONE]}}
        named = "channel 'k': factor-pair key (0, 0) must look like 'i,j'"
    if path == "per-entry":
        monkeypatch.setattr(bundle, "_parse_pairs", lambda keys: None)
    with pytest.raises(BundleError, match=re.escape(named)):
        bundle.load_bundle(data)


@pytest.mark.parametrize("tol", [1e-8, 1e-4])
def test_graph_symmetry_is_checked_at_the_validator_tolerance(tol):
    """A graph block onto span{vec(I + 5e-4 E_01)} has symmetry defect
    7.07e-4: refused at every load tol, since graph symmetry is bounded by
    VALIDATE_SLACK * TOL_PROJ, not by --tol."""
    assert list(inspect.signature(graphs.QuantumGraph).parameters) == [
        "sys", "relation", "validate"]
    u = linalg.vec(np.eye(2) + 5e-4 * np.eye(2, k=1))
    u /= np.linalg.norm(u)
    data = {"systems": {"A": {"factors": [2]}}, "graphs": {"g": {"system": "A", "blocks": {
        "0,0": {"projection": bundle.matrix_to_json(np.outer(u, u.conj()))}}}}}
    with pytest.raises(ShapeMismatch, match=re.escape(
            "graph 'g': graph relation is not symmetric (defect 7.07e-04)")):
        bundle.load_bundle(data, tol=tol)


def test_a_source_error_names_its_source():
    """load_bundle prefixes an error of any type with the object it was
    building, a source too, and keeps the error's type."""
    data = json.loads(DEMO.read_text())
    data["sources"]["copy"]["channel"] = "mix"
    with pytest.raises(SourceInvalid, match=re.escape(
            "source 'copy': source channel must map S to the O_A ⊗ O_B product")):
        bundle.load_bundle(data)


# -- the writer ----------------------------------------------------------

def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()


def _written(obj, tmp_path) -> bytes:
    path = tmp_path / "out.json"
    bundle.dump_json(obj, str(path))
    return path.read_bytes()


def _demo_documents(tmp_path, monkeypatch) -> list:
    """The documents the seven demo/bundle.json commands write with -o;
    scc-verify runs on a copy that declares the decoder's source B ⊗ O_B."""
    docs, real = [], bundle.dump_json
    monkeypatch.setattr(bundle, "dump_json", lambda obj, path: docs.append(obj) or real(obj, path))
    o = str(tmp_path / "o.json")
    demo = str(DEMO)
    data = json.loads(DEMO.read_text())
    data["systems"]["BOB"] = {"tensor": ["B", "OB"]}
    with_bob = tmp_path / "with_bob.json"
    with_bob.write_text(json.dumps(data))
    for argv in (["analyze-channel", demo, "spread", "--emit-reverse", "-o", o],
                 ["analyze-channel", demo, "mix"],
                 ["scc-verify", str(with_bob), "copy", "spread", "encode", "-o", o],
                 ["twirl", demo, "mix", "-o", o],
                 ["check-hom", demo, "encode", "discrete_A", "discrete_A"],
                 ["check-hom", demo, "mix", "discrete_A", "discrete_A"],
                 ["graph-to-channel", demo, "complete_A", "-o", o]):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    return docs


def test_writer_bytes_equal_json_dump_on_demo_outputs(tmp_path, monkeypatch):
    docs = _demo_documents(tmp_path, monkeypatch)
    assert len(docs) == 4
    monkeypatch.undo()
    for doc in docs:
        assert _written(doc, tmp_path) == _json_bytes(doc)


def test_writer_bytes_equal_json_dump_on_graph_to_channel_n16(tmp_path):
    sys = systems.classical_system(16)
    g = rand_conf_graph(rng, sys)
    f, env = graphs.realize_channel(g)
    doc = {"environment": bundle.system_to_json(env),
           "channel": bundle.dump_channel(f, "A", "environment")}
    assert _written(doc, tmp_path) == _json_bytes(doc)


EDGE_DOCUMENTS = {
    "empty": {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ""},
    "floats": {"x": [-0.0, 0.0, 5e-324, 1e16, 1e-7, 123456789.125, math.pi, 1e300]},
    "non-finite": {"m": [[[math.nan, math.inf]], [[-math.inf, 1.0]]]},
    "scalars in lists": {"l": [1, True, False, None, 2.5, "s", [1, [2.0, 3]]]},
    "unsorted keys": {"b": 1, "a": {"z": 0, "y": [1.0]}, "A": 2, "_": 3, "é": 4},
    "strings": {"k\u00e9y": "\u2603 snow", "ctl": "tab\tnew\nline\x00\x1f\"q\" \\",
                "astral": "\U0001f600"},
    "ragged matrix": {"m": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]]]},
    "pair holding an int": {"m": [[[1, 0.0], [0.5, 0.5]]]},
    "long pair": {"m": [[[1.0, 0.0, 2.0]]]},
    "matrices": {"k": [[[[0.1, -0.2], [3e-10, 4.0]]], [[[1.0, 2.0]], [[3.0, math.nan]]]]},
    "top-level list": [[[0.5, -0.5]], [[1.5, 2.5]]],
    "top-level scalar": 1.0,
}


@pytest.mark.parametrize("name", EDGE_DOCUMENTS)
def test_writer_bytes_equal_json_dump_on_edge_cases(name, tmp_path):
    doc = EDGE_DOCUMENTS[name]
    assert _written(doc, tmp_path) == _json_bytes(doc)


@pytest.mark.parametrize("doc", [{1: "int key"}, {"t": (1.0, 2.0)}, {"f": np.float64(0.5)}],
                         ids=["int key", "tuple", "numpy float"])
def test_writer_leaves_other_documents_to_json(doc, tmp_path):
    assert _written(doc, tmp_path) == _json_bytes(doc)


def _spy(monkeypatch) -> list:
    """Record every np.linalg.eigh and linalg.gram call, by name."""
    calls, eigh, gram = [], np.linalg.eigh, linalg.gram
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append("eigh")
                        or eigh(a, *args, **kw))
    monkeypatch.setattr(linalg, "gram", lambda vs: calls.append("gram") or gram(vs))
    return calls


def _dumped_maps(doc) -> dict:
    return {key: [bundle.matrix_from_json(m) for m in ops] for key, ops in doc["kraus"].items()}


@pytest.mark.parametrize("born", ["realize_channel", "from_kraus"])
def test_dump_of_a_kraus_born_morphism_writes_the_stored_maps(born, monkeypatch):
    """dump_channel of a morphism born from Kraus maps writes the maps it
    stores: it forms no V V† block and runs no eigh."""
    if born == "realize_channel":
        f, _ = graphs.realize_channel(bundle.load_bundle_file(str(DEMO)).graphs["complete_A"])
    else:
        src, tgt = systems.system((2, 1)), systems.system((3, 2))
        f = cpmaps.from_kraus({(0, 0): [rand_complex(rng, 3, 2) for _ in range(2)],
                               (1, 0): [rand_complex(rng, 3, 1)],
                               (0, 1): [rand_complex(rng, 2, 2) for _ in range(3)]}, src, tgt)
    assert f.kraus_stacks is not None
    calls = _spy(monkeypatch)
    doc = bundle.dump_channel(f, "A", "B")
    assert calls == []
    held, dumped = f.kraus(), _dumped_maps(doc)
    assert list(dumped) == [f"{i},{j}" for i, j in held]
    for (i, j), ops in held.items():
        got = dumped[f"{i},{j}"]
        assert len(got) == len(ops)
        assert all(np.array_equal(m, r) for m, r in zip(got, ops)), (i, j)


def test_dump_of_a_choi_born_morphism_is_bitwise_to_kraus():
    """A Choi-born morphism's held family is its minimal to_kraus family, so
    its dump holds exactly the to_kraus maps of the same blocks."""
    src, tgt = systems.system((2, 1)), systems.system((2, 3))
    blocks = dict(rand_cp(rng, src, tgt, 3).blocks.items())
    doc = bundle.dump_channel(cpmaps.CpMorphism(src, tgt, blocks), "A", "B")
    ref = cpmaps.to_kraus(cpmaps.CpMorphism(src, tgt, blocks))
    dumped = _dumped_maps(doc)
    assert list(dumped) == [f"{i},{j}" for i, j in ref]
    for (i, j), ops in ref.items():
        got = dumped[f"{i},{j}"]
        assert [m.tobytes() for m in got] == [m.tobytes() for m in ops], (i, j)


def test_graph_to_channel_output_reloads_to_the_realized_channel(tmp_path, capsys):
    """The -o document of graph-to-channel on complete_A reloads to the
    channel realize_channel makes, blocks within 1e-12, with the same
    confusability graph, and dumps again to the same document."""
    out = tmp_path / "real.json"
    assert cli.main(["graph-to-channel", str(DEMO), "complete_A", "-o", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    demo = json.loads(DEMO.read_text())
    reloaded = bundle.load_bundle({
        "group": demo["group"],
        "systems": {"A": demo["systems"]["A"], "environment": doc["environment"]},
        "channels": {"f": doc["channel"]},
    }).channels["f"]
    g = bundle.load_bundle_file(str(DEMO)).graphs["complete_A"]
    f, _ = graphs.realize_channel(g)
    assert reloaded.source == f.source and reloaded.target == f.target
    assert reloaded.blocks.distance(f.blocks) <= 1e-12
    conf = graphs.confusability_of(reloaded).relation
    assert relations.relations_equal(conf, graphs.confusability_of(f).relation)
    assert relations.relations_equal(conf, g.relation)
    assert bundle.dump_channel(reloaded, "A", "environment") == doc["channel"]
