"""The self-checks read Choi blocks and structure constants in closed form; they
must agree with the φ-basis probe loops of genutil, which push basis elements
through apply, multiply, act and inner one at a time."""

import ast
import importlib
import pathlib
import tracemalloc

import numpy as np
import pytest

import covgraphs
from covgraphs import cpmaps, graphs, groups, linalg, relations, systems
from covgraphs.classical import embed_channel

from genutil import (
    basis_offset,
    choi_born,
    loop_basis_images,
    loop_superop_matrix,
    probe_hom_defects,
    probe_product_table,
    probe_ssfa_defects,
    probe_superop_matrix,
    rand_channel,
    rand_conf_graph,
    rand_cp,
    rand_isometry,
    rand_stochastic,
    rand_unitary,
    total_matrix_dim,
    weyl_unitaries,
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
    # λ_max(f(1)) > 1, where the upper bound's c counts: f(1) = 2 and a sum
    # of channels, on which the bound without either of its factors c falls
    # below the probe.
    qubit, mixed = systems.system((2,)), systems.system((1, 2))
    r = np.random.default_rng(181)
    cases += [
        ("pauli-sum(2,)", cpmaps.from_kraus({(0, 0): [np.eye(2), np.eye(2)[::-1]]}, qubit, qubit)),
        ("channel-sum(1,2)", cpmaps.add(rand_channel(r, mixed, mixed, 3),
                                        rand_channel(r, mixed, mixed, 3), 1.0, 0.3)),
    ]
    cases += [(f"dagger-{name}", cpmaps.dagger(f)) for name, f in cases]
    return [pytest.param(name, f, id=name) for name, f in cases]


def _close(got, ref):
    return abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def _exact_hom_defects(f):
    """_hom_defects with the multiplicativity defect of the exact N_A² pair
    loop on every input."""
    _, (_, unit, star) = cpmaps._hom_defects(f)
    mult = cpmaps._pair_defects(f.source, cpmaps.basis_images(f))
    return max(mult, unit, star), (mult, unit, star)


@pytest.mark.parametrize("name,f", _hom_cases())
def test_hom_defects_match_probe(name, f):
    top, parts = _exact_hom_defects(f)
    ref_top, ref_parts = probe_hom_defects(f)
    assert all(type(v) is float for v in (top,) + parts)
    assert _close(top, ref_top), (top, ref_top)
    for got, ref in zip(parts, ref_parts):
        assert _close(got, ref), (parts, ref_parts)
    if name.startswith(("unitary", "dagger-unitary")):
        assert top < 1e-12


def _bounds(f, neg=None):
    """(L less its guard, L, U, U plus its guard) of _hom_defects: its two
    Schwarz bounds on the multiplicativity defect and their round-off
    guards."""
    src = f.source
    plan = cpmaps._pair_plan(src.dims, src.weights)
    images = cpmaps.basis_images(f)
    stars = [np.linalg.norm((g.conj().transpose(0, 2, 1) - g[plan.left[:len(g)]])
                            .reshape(len(g), -1), axis=1) for g in images]
    low, sure_low, moments = cpmaps._lower_bound(plan, images)
    neg = cpmaps._negative_parts(f) if neg is None else neg
    high, sure_high = cpmaps._upper_bound(plan, moments, cpmaps.apply(f, src.identity()),
                                          stars, neg)
    return sure_low, low, high, sure_high


@pytest.mark.parametrize("name,f", _hom_cases())
def test_hom_bounds_bracket_the_probe(name, f):
    """The decided defects: unit and star as the probe's, the two bounds
    around the probe's multiplicativity within their guards, and the
    probe's verdict."""
    top, (mult, unit, star) = cpmaps._hom_defects(f)
    ref_top, (ref_mult, ref_unit, ref_star) = probe_hom_defects(f)
    assert _close(unit, ref_unit) and _close(star, ref_star)
    sure_low, low, high, sure_high = _bounds(f)
    assert sure_low <= ref_mult <= sure_high, (sure_low, ref_mult, sure_high)
    assert mult in (low, high) or _close(mult, ref_mult)
    assert (top < linalg.TOL_PROJ) == (ref_top < linalg.TOL_PROJ)


SWEEP_SYSTEMS = {
    "(3,)": systems.system((3,)),
    "(1,2)": systems.system((1, 2)),
    "(2,2)": systems.system((2, 2)),
    "(1,2,3)": systems.system((1, 2, 3)),
    "weighted(1,2)": _weighted((1, 2), (0.5, 3.0)),
    "weighted(2,2)": _weighted((2, 2), (4.0, 0.25)),
}
PERTURBED = (0.3, 1.0, 3.0)  # multiplicativity defect, in units of TOL_PROJ


def _factorwise(sys, tgt, maps):
    """The CP morphism sys -> tgt with the Kraus maps maps(i, d) on each
    diagonal pair (i, i)."""
    return cpmaps.from_kraus({(i, i): maps(i, d) for i, d in enumerate(sys.dims)}, sys, tgt)


def _perturbed(r, sys, times):
    """A unital channel (1 − ε) Ad_U + ε (Ad_V + Ad_W) / 2 on each factor,
    ε placed so that its exact multiplicativity defect is ``times``
    TOL_PROJ: the defect is linear in ε up to O(ε²)."""
    us = [[rand_unitary(r, d) for _ in range(3)] for d in sys.dims]

    def mix(eps):
        return _factorwise(sys, sys, lambda i, d: [np.sqrt(1 - eps) * us[i][0]]
                           + [np.sqrt(eps / 2) * u for u in us[i][1:]])

    probe = 1e-4
    slope = cpmaps._pair_defects(sys, cpmaps.basis_images(mix(probe))) / probe
    return mix(times * linalg.TOL_PROJ / slope)


def _weyl_relation(r, sys):
    """Two random Weyl operators spanning each diagonal block, as the
    workload's non-partial-function relations (a 1-dim factor: the identity)."""
    blocks = {}
    for i, d in enumerate(sys.dims):
        picks = r.choice(d * d, size=min(2, d * d), replace=False)
        ops = weyl_unitaries(d)
        blocks[(i, i)] = linalg.orthonormal_span([linalg.vec(ops[int(x)]) for x in picks],
                                                 dim=d * d)
    return relations.QuantumRelation(sys, sys, blocks)


def _sweep(name):
    """(case, CP morphism) pairs of the verdict sweep on SWEEP_SYSTEMS[name],
    fixed seed: unitary, isometric (x -> x ⊗ 1 up to a unitary, unital)
    and non-unital (x -> V x V†, f(1) a projection) *-homomorphisms,
    unital channels perturbed to PERTURBED multiples of TOL_PROJ, a random
    channel, and the canonical CP maps of a unitary-span (function) and a
    Weyl-span relation."""
    sys = SWEEP_SYSTEMS[name]
    r = np.random.default_rng(4900 + sorted(SWEEP_SYSTEMS).index(name))
    wide = systems.system(tuple(2 * d for d in sys.dims))
    tall = systems.system(tuple(d + 1 for d in sys.dims))

    def isometric(i, d):
        w = rand_unitary(r, 2 * d)
        return [w @ np.kron(np.eye(d), np.eye(2)[:, [a]]) for a in range(2)]

    function = relations.QuantumRelation(sys, sys, {
        (i, i): linalg.orthonormal_span([linalg.vec(rand_unitary(r, d).conj().T)], dim=d * d)
        for i, d in enumerate(sys.dims)})
    cases = [
        ("unitary", _factorwise(sys, sys, lambda i, d: [rand_unitary(r, d)])),
        ("isometric", _factorwise(sys, wide, isometric)),
        ("non-unital", _factorwise(sys, tall, lambda i, d: [rand_isometry(r, d + 1, d)])),
    ]
    cases += [(f"perturbed{k}", _perturbed(r, sys, k)) for k in PERTURBED]
    cases += [("channel", rand_channel(r, sys, sys)),
              ("function", relations.relation_as_cp(function)),
              ("weyl", relations.relation_as_cp(_weyl_relation(r, sys)))]
    return cases


def _loop_verdicts(f):
    """(top, multiplicativity) verdicts of the exact loop on f."""
    top, (mult, _, _) = _exact_hom_defects(f)
    return top < linalg.TOL_PROJ, mult < linalg.TOL_PROJ


@pytest.mark.parametrize("name", sorted(SWEEP_SYSTEMS))
def test_verdicts_equal_the_exact_loop(name, monkeypatch):
    """On every case of the sweep, is_star_homomorphism gives the exact
    loop's verdict on f and is_star_cohomomorphism its verdict on f's
    dagger, and on both the multiplicativity part alone does too (a
    non-unital *-homomorphism's True side reads λ_max(f(1))); only the
    perturbation placed at TOL_PROJ runs the loop.  partial_function_flags
    on each relation gives the loop's verdict of its third characterization."""
    cases = _sweep(name)
    runs = _spied(monkeypatch)
    seen, looped = set(), set()
    for case, f in cases:
        before = len(runs)
        verdicts = cpmaps.is_star_homomorphism(f), cpmaps.is_star_cohomomorphism(f)
        parts = [cpmaps._hom_defects(g)[1][0] < linalg.TOL_PROJ for g in (f, cpmaps.dagger(f))]
        if len(runs) > before:
            looped.add(case)
        for g, verdict, part in zip((f, cpmaps.dagger(f)), verdicts, parts):
            top, mult = _loop_verdicts(g)
            assert verdict == top and part == mult, case
            seen.add((case, mult))
    assert looped <= {"perturbed1.0"}
    assert {("non-unital", True), ("perturbed0.3", True), ("perturbed3.0", False),
            ("channel", False), ("weyl", False)} <= seen
    r = np.random.default_rng(4950 + sorted(SWEEP_SYSTEMS).index(name))
    sys = SWEEP_SYSTEMS[name]
    rels = [_weyl_relation(r, sys)] + [relations.support_of(f) for _, f in cases[:3]]
    for p in rels:
        pf, _, witnesses = relations.partial_function_flags(p)
        fcp = cpmaps.dagger(relations.relation_as_cp(p))
        _, (mult, _, star) = _exact_hom_defects(fcp)
        assert pf == (max(mult, star) < linalg.TOL_PROJ)
        assert witnesses["cohom_defects"][1] == star


@pytest.mark.parametrize("name", sorted(SWEEP_SYSTEMS))
def test_verdicts_do_not_depend_on_birth(name):
    """The three verdict APIs answer alike on f, its Choi-born twin and the
    Kraus-born from_kraus(f.kraus()) (partial_function_flags on their
    supports), off the perturbation placed exactly at TOL_PROJ, where the
    births' round-off differences could decide."""
    for case, f in _sweep(name):
        if case == "perturbed1.0":
            continue
        births = [f, choi_born(f), cpmaps.from_kraus(f.kraus(), f.source, f.target)]
        for public in (cpmaps.is_star_homomorphism, cpmaps.is_star_cohomomorphism):
            assert len({public(g) for g in births}) == 1, (case, public.__name__)
        flags = {relations.partial_function_flags(relations.support_of(g))[:2] for g in births}
        assert len(flags) == 1, case


def _spied(monkeypatch):
    """The list each run of the exact N_A² loop appends to."""
    runs = []
    loop = cpmaps._pair_defects
    monkeypatch.setattr(cpmaps, "_pair_defects", lambda *a: runs.append(1) or loop(*a))
    return runs


def test_decided_verdicts_run_no_pair_loop(monkeypatch):
    """At d = 16, and on (1, 2) with the small weight 1e-3, a unitary map
    and a random two-map one are decided by the bounds, and so is every
    _hom_defects call of one seed-1 quantum-factors pass; a perturbation
    whose defect lies between the bounds, around TOL_PROJ, runs the loop."""
    runs = _spied(monkeypatch)
    r = np.random.default_rng(4916)
    for sys in (systems.system((16,)), _weighted((1, 2), (1e-3, 3.0))):
        assert cpmaps.is_star_homomorphism(_factorwise(sys, sys, lambda i, d: [rand_unitary(r, d)]))
        assert not cpmaps.is_star_homomorphism(rand_cp(r, sys, sys))
    assert runs == []

    sys_path = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    monkeypatch.syspath_prepend(sys_path)
    quantum_factors = importlib.import_module("quantum_factors")
    calls = []
    hom = cpmaps._hom_defects
    spy = lambda *a: calls.append(1) or hom(*a)  # noqa: E731
    monkeypatch.setattr(cpmaps, "_hom_defects", spy)
    monkeypatch.setattr(relations, "_hom_defects", spy)
    for task in quantum_factors.build(np.random.default_rng(1)):
        assert task.run() == task.expected, task.tid
    assert len(calls) >= 40 and runs == []

    # The bounds grow linearly with the perturbation, so placed at TOL_PROJ
    # (one exact run, for the slope) they give the multiple that puts
    # TOL_PROJ midway between them.
    qubit = systems.system((2,))
    _, low, high, _ = _bounds(_perturbed(np.random.default_rng(4917), qubit, 1.0))
    assert low < high
    runs.clear()
    # There L, the exact defect of these maps, lies below TOL_PROJ.
    assert cpmaps.is_star_homomorphism(
        _perturbed(np.random.default_rng(4917), qubit, 2 / (1 + high / low)))
    assert len(runs) == 2  # the slope's exact run, and the band's


def _nearly_cp(r, f, kind):
    """f given again as Choi blocks (outside input, so checked) that are CP
    only up to the checks' slack: "negative" takes TOL_SPEC / 2 times the
    top eigenvalue off a random direction outside each block's range (a
    block of full rank has none and stays), which the block keeps as its
    least eigenvalue; "skew" adds to each block a random anti-Hermitian part
    of Frobenius norm 1e-9."""
    blocks = {}
    for key in f.blocks:
        block = np.array(f.blocks[key])
        w, v = np.linalg.eigh(block)
        kernel = v[:, w < linalg.TOL_SPEC * w[-1]]
        if kind == "negative" and kernel.size:
            x = kernel @ (r.normal(size=kernel.shape[1]) + 1j * r.normal(size=kernel.shape[1]))
            x /= np.linalg.norm(x)
            block = block - linalg.TOL_SPEC * w[-1] / 2 * np.outer(x, x.conj())
        elif kind == "skew":
            k = np.outer(r.normal(size=len(block)) + 1j * r.normal(size=len(block)),
                         r.normal(size=len(block)))
            k = k - k.conj().T
            block = block + 1e-9 * k / np.linalg.norm(k)
        blocks[key] = block
    return cpmaps.CpMorphism(f.source, f.target, blocks)


@pytest.mark.parametrize("kind", ["negative", "skew"])
def test_verdicts_on_blocks_inside_the_checks_slack(kind):
    """Choi blocks that the PSD and Hermitian checks accept but that are not
    quite CP, made from unitary maps and from unital channels perturbed to
    half of TOL_PROJ: the Schwarz bound of f as if it were CP falls to a
    third of the exact defect on some of them, so the bounds must bracket
    that defect, widened by the blocks' negative and skew parts, and
    is_star_homomorphism, is_star_cohomomorphism and the multiplicativity
    part must give the exact loop's verdicts.  Small weights scale the
    slack's defect up to TOL_PROJ, so both verdicts occur."""
    r = np.random.default_rng(4960)
    seen = set()
    for weight in np.geomspace(0.02, 0.2, 8):
        for dims in ((2,), (3,), (1, 2)):
            sys = _weighted(dims, (weight,) * len(dims))
            for f in (_factorwise(sys, sys, lambda i, d: [rand_unitary(r, d)]),
                      _perturbed(r, sys, 0.5)):
                f = _nearly_cp(r, f, kind)
                sure_low, _, _, sure_high = _bounds(f)
                assert sure_low <= cpmaps._pair_defects(f.source, cpmaps.basis_images(f)) <= sure_high
                verdicts = cpmaps.is_star_homomorphism(f), cpmaps.is_star_cohomomorphism(f)
                for g, verdict in zip((f, cpmaps.dagger(f)), verdicts):
                    top, mult = _loop_verdicts(g)
                    assert verdict == top, (weight, dims)
                    seen.add(mult)
                _, (mult, _, _) = cpmaps._hom_defects(f)
                assert (mult < linalg.TOL_PROJ) == _loop_verdicts(f)[1]
    assert seen == {True, False}


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
