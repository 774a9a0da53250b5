"""Bundle loading: what the parser hands the owners, and which failure is
named when a bundle holds several."""

import pathlib
import re

import numpy as np
import pytest

from covgraphs import bundle, cpmaps, systems
from covgraphs.bundle import BundleError
from covgraphs.errors import ShapeMismatch

from genutil import rand_complex

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
