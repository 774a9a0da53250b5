"""The self-checks read Choi blocks and structure constants in closed form; they
must agree with the φ-basis probe loops of genutil, which push basis elements
through apply, multiply, act and inner one at a time."""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

import covgraphs
from covgraphs import cpmaps, graphs, groups, linalg, systems
from covgraphs.classical import embed_channel

from genutil import (
    basis_offset,
    loop_basis_images,
    loop_superop_matrix,
    probe_hom_defects,
    probe_product_table,
    probe_ssfa_defects,
    probe_superop_matrix,
    rand_channel,
    rand_conf_graph,
    rand_cp,
    rand_stochastic,
    rand_unitary,
    total_matrix_dim,
)

rng = np.random.default_rng(606)


def _weighted(dims, weights):
    action = groups.trivial_action(groups.trivial_group(), dims)
    return systems.System(dims, action, weights)


def _unitary_map(sys, r=rng):
    kraus = {(i, i): [rand_unitary(r, d)] for i, d in enumerate(sys.dims)}
    return cpmaps.from_kraus(kraus, sys, sys)


def _hom_cases():
    cases = []
    for dims in [(2,), (6,), (1, 2, 3)]:
        sys = systems.system(dims)
        cases += [
            (f"kraus{dims}", rand_cp(rng, sys, sys)),
            (f"channelize{dims}", rand_channel(rng, sys, sys)),
            (f"unitary{dims}", _unitary_map(sys)),
        ]
    cases.append(("kraus(2,1)->(3,)", rand_cp(rng, systems.system((2, 1)), systems.system((3,)))))
    cases.append(("classical8", embed_channel(rand_stochastic(rng, 8, 8))))
    # Drawn from their own generator, so that the module's generator reaches
    # the later tests in the state it did before these cases.
    own = np.random.default_rng(616)
    for name, sys in [("(4,)", systems.system((4,))),
                      ("weighted(2,3)", _weighted((2, 3), (0.5, 7.0)))]:
        cases += [
            (f"kraus{name}", rand_cp(own, sys, sys)),
            (f"channelize{name}", rand_channel(own, sys, sys)),
            (f"unitary{name}", _unitary_map(sys, own)),
        ]
    # Factors of equal dimension that are not consecutive: the index path of
    # cpmaps._coords, on both sides at once (np.ix_).
    cases.append(("kraus(1,2,1)->(2,1,2)",
                  rand_cp(own, systems.system((1, 2, 1)), systems.system((2, 1, 2)))))
    cases += [(f"dagger-{name}", cpmaps.dagger(f)) for name, f in cases]
    return [pytest.param(name, f, id=name) for name, f in cases]


def _close(got, ref):
    return abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("name,f", _hom_cases())
def test_hom_defects_match_probe(name, f):
    top, parts = cpmaps._hom_defects(f)
    ref_top, ref_parts = probe_hom_defects(f)
    assert all(type(v) is float for v in (top,) + parts)
    assert _close(top, ref_top), (top, ref_top)
    for got, ref in zip(parts, ref_parts):
        assert _close(got, ref), (parts, ref_parts)
    if name.startswith(("unitary", "dagger-unitary")):
        assert top < 1e-12


@pytest.mark.parametrize("dims,weights", [
    ((1,), (1.0,)),
    ((2,), (2.0,)),
    ((2, 1), (2.0, 1.0)),
    ((1, 2, 3), (1.0, 2.0, 3.0)),
    ((2,), (1.0,)),
    ((2, 3), (0.5, 7.0)),
], ids=str)
def test_ssfa_defects_match_probe(dims, weights):
    _ssfa_matches_probe(_weighted(dims, weights))


def test_ssfa_defects_match_probe_under_a_group():
    """Z2 swaps the two qubit factors of (2, 1, 2), conjugating by u and u†."""
    u = rand_unitary(np.random.default_rng(646), 2)
    one, eye = np.eye(1), np.eye(2)
    action = groups.AlgebraAction(groups.cyclic_group(2), (2, 1, 2), ((0, 1, 2), (2, 1, 0)),
                                  ((eye, one, eye), (u, one, u.conj().T)))
    _ssfa_matches_probe(systems.system((2, 1, 2), action))


def _ssfa_matches_probe(sys):
    got = systems.ssfa_defects(sys, rng=np.random.default_rng(11))
    ref = probe_ssfa_defects(sys, np.random.default_rng(11))
    assert all(type(v) is float for v in got.values())
    assert got.keys() == ref.keys()
    for key, val in ref.items():
        assert _close(got[key], val), (key, got[key], val)


@pytest.mark.parametrize("dims,weights", [
    ((2,), (2.0,)),
    ((1, 2, 3), (1.0, 2.0, 3.0)),
    ((2, 3), (0.5, 7.0)),
    ((6,), (6.0,)),
], ids=str)
def test_product_table_bitwise_equal_probe(dims, weights):
    """The structure constants, scattered into an (N, N, N) zero table, are
    bitwise the table of coords(u_k u_l) the probe builds."""
    sys = _weighted(dims, weights)
    k, l, m, c = systems._structure_constants(sys)
    nb = total_matrix_dim(sys)
    assert len(c) == sum(d ** 3 for d in dims)
    table = np.zeros((nb, nb, nb), dtype=complex)
    table[k, l, m] = c
    assert table.tobytes() == probe_product_table(sys).tobytes()


def test_ssfa_defects_form_no_cubic_table():
    """At d = 10 the dense (N, N, N) table alone is 16 MB."""
    sys = systems.system((10,))
    systems.ssfa_defects(sys)  # warm: imports and caches outside the count
    tracemalloc.start()
    try:
        defects = systems.ssfa_defects(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert all(v < 1e-12 for v in defects.values()), defects


def test_superop_matrix_source_differs_from_target():
    src, tgt = systems.system((2, 1)), systems.system((3,))
    f = rand_cp(rng, src, tgt)
    mat = graphs._superop_matrix(f)
    assert mat.shape == (9, 5)
    assert np.array_equal(mat, probe_superop_matrix(f))
    x = systems.random_element(src, rng)
    fx = systems.coords(tgt, cpmaps.apply(f, x))
    assert np.linalg.norm(mat @ systems.coords(src, x) - fx) <= 1e-12 * np.linalg.norm(fx)


def test_blend_matrices_equal_probe():
    # Non-consecutive factors of equal dimension draw from their own
    # generator, so that later tests see the module's generator as before.
    own = np.random.default_rng(626)
    for r, dims in [(rng, (2,)), (rng, (1, 2)), (rng, (3, 1)), (own, (1, 2, 1)), (own, (2, 1, 2))]:
        g = rand_conf_graph(r, systems.system(dims))
        for tau in (1.0, 0.5, 0.125):
            f = graphs._graph_as_cp(g, tau)
            assert np.array_equal(graphs._superop_matrix(f), probe_superop_matrix(f))


@pytest.mark.parametrize("dims", [(1,) * 16, (1, 2, 3), (6,)], ids=["classical16", "m123", "d6"])
def test_basis_images_and_blends_bitwise_equal_pair_loop(dims):
    """One gather per class gives bitwise the basis images and blend matrices
    of the per-pair loop, at τ = 1 and at the τ realize_channel picks, so τ
    and the emitted Kraus maps stay as they were."""
    sys = systems.system(dims)
    g = rand_conf_graph(rng, sys)
    f, _ = graphs.realize_channel(g)
    cases = [graphs._graph_as_cp(g, 1.0), rand_cp(rng, sys, systems.system((2, 1))), f]
    for cp in cases:
        for got, ref in zip(cpmaps.basis_images(cp), loop_basis_images(cp), strict=True):
            assert got.flags.c_contiguous
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    low = np.linalg.eigvalsh(linalg.hermitize(loop_superop_matrix(cases[0])))[0]
    taus = 0.5 ** np.arange(1, 41)
    tau = float(taus[np.flatnonzero(1.0 + taus * (low - 1.0) > linalg.BLEND_FLOOR)[0]])
    for t in (1.0, tau):
        blend = graphs._graph_as_cp(g, t)
        assert graphs._superop_matrix(blend).tobytes() == loop_superop_matrix(blend).tobytes()
    # The emitted maps: columns of the square root of the blend at tau.
    fhalf = linalg.psd_sqrt(linalg.hermitize(loop_superop_matrix(graphs._graph_as_cp(g, tau))))
    n = total_matrix_dim(sys)
    for i, d in enumerate(dims):
        off = basis_offset(sys, i)
        ref = [fhalf[:, off + a:off + d * d:d] / np.sqrt(float(n)) for a in range(d)]
        got = f.kraus()[(i, 0)]
        assert len(got) == d and all(np.array_equal(m, r) for m, r in zip(got, ref)), i


@pytest.mark.parametrize("delta,verdict", [(0.0, True), (5e-9, False)])
def test_is_channel_functional_test_on_tiny_weight(delta, verdict):
    # On a factor of weight 1e-4 a marginal defect δ moves the functional by
    # δ / √w = 100 δ: only the functional test sees δ = 5e-9.
    src = _weighted((1,), (1e-4,))
    f = cpmaps.from_kraus({(0, 0): [[[np.sqrt(1e-4 + delta)]]]}, src, systems.classical_system(1))
    (_, marg), = cpmaps.choi_marginal(f)
    assert linalg.frob(marg[0] - 1e-4) < linalg.TOL_PROJ
    assert cpmaps.is_channel(f) is verdict


def test_only_systems_probes_the_phi_basis():
    """No module of the library calls phi_basis: the φ-basis probe loops
    live in genutil, and systems reads its structure constants."""
    src = pathlib.Path(covgraphs.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "phi_basis":
                    callers.append(f"{path.name}:{node.lineno}")
    assert not callers
