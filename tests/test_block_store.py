"""The block store and the batched kernels that read it.

The blocks of CP morphisms and relations live in one (k, n, n) stack per
(d_i, e_j) class of factor pairs.  Every stacked kernel must give each member
bitwise the value of its own per-matrix call, and every construction built on
the stacks bitwise the blocks of the per-block loops in genutil.
"""

import ast
import inspect
import pathlib
import re

import numpy as np
import pytest

import covgraphs
from covgraphs import bundle, cpmaps, graphs, groups, linalg, relations, scc, systems
from covgraphs.classical import embed_channel
from covgraphs.errors import (
    ActionShapeMismatch,
    DimensionMismatch,
    NegativeSpectrum,
    NotHermitian,
    ShapeMismatch,
)

from genutil import (
    assert_family_equal,
    assert_graph_symmetric,
    choi_born,
    held,
    kron_tensor_unitaries,
    loop_block_kraus,
    loop_block_store,
    loop_choi_marginal,
    loop_confusability,
    loop_conjugation_unitaries,
    loop_converse,
    loop_converse_frames,
    loop_cp_compose_choi,
    loop_cp_compose_kraus,
    loop_dilation_components,
    loop_embed_kraus,
    loop_first_hom_failure,
    loop_first_nonprojection,
    loop_first_nonunitary,
    loop_from_kraus,
    loop_projection_frames,
    loop_rel_compose,
    loop_reverse,
    loop_support_frames,
    loop_support_of,
    loop_unitary_stacks,
    rand_channel,
    rand_complex,
    rand_cp,
    rand_isometry,
    rand_relation,
    rand_stochastic,
    rand_unitary,
    reference_canonical_eigh,
    symmetric_group_perms,
    total_matrix_dim,
    unitary,
)

rng = np.random.default_rng(707)


def _psd_stack(k, n):
    """Hermitian PSD members of mixed rank: random ranks 0..n, exact zeros,
    and projections (repeated eigenvalues, so ties in the eigen order)."""
    mats = []
    for s in range(k):
        if s % 6 == 0:
            mats.append(np.zeros((n, n), dtype=complex))
        elif s % 6 == 1:
            u = rand_unitary(rng, n)[:, :int(rng.integers(1, n + 1))]
            mats.append(u @ u.conj().T)
        else:
            a = rand_complex(rng, n, int(rng.integers(0, n + 1)))
            mats.append(a @ a.conj().T)
    return np.array(mats)


def _assert_frames_equal(rel, ref: dict):
    """The relation's frames are the reference columns, block by block, and
    each is an orthonormal basis of the range of its block."""
    assert sorted(ref) == list(rel.blocks)
    for key, cols in ref.items():
        fr = rel.frame(*key)
        assert np.array_equal(fr, cols), key
        assert np.allclose(fr.conj().T @ fr, np.eye(fr.shape[1]), atol=1e-12), key
        assert np.allclose(fr @ fr.conj().T, rel.blocks[key], atol=1e-12), key


def _z2_sign_system(dims, signs):
    z2 = groups.cyclic_group(2)
    units = (
        tuple(np.eye(d, dtype=complex) for d in dims),
        tuple(np.diag(s).astype(complex) for s in signs),
    )
    return systems.system(dims, groups.AlgebraAction(z2, dims, (tuple(range(len(dims))),) * 2, units))


def _s3_system():
    s3 = groups.symmetric_group(3)
    return systems.system(
        (2, 2, 2), groups.permutation_action(s3, (2, 2, 2), symmetric_group_perms(3))
    )


def _unitary_channel(src, tgt, pairs):
    """Reversible channel sending source factor i to target factor pairs[i]
    by a random unitary."""
    kraus = {(i, j): [rand_unitary(rng, src.dims[i])] for i, j in enumerate(pairs)}
    return cpmaps.from_kraus(kraus, src, tgt)


def _injective_stochastic(n, n_out):
    """n inputs with disjoint output supports of one or two outputs each."""
    outs = rng.permutation(n_out)
    p = np.zeros((n_out, n))
    for i in range(n):
        p[outs[i], i] = 1.0
    for o in outs[n:]:
        p[o, int(rng.integers(0, n))] = rng.random() + 0.2
    return p / p.sum(axis=0, keepdims=True)


def _channels():
    """Classical n = 16, mixed (1,2,3), and a (1,2) -> (2,1) map, whose (1,2)
    and (2,1) pairs are two classes of 2x2 blocks."""
    m123 = systems.system((1, 2, 3))
    src12, tgt21 = systems.system((1, 2)), systems.system((2, 1))
    return {
        "classical16": embed_channel(rand_stochastic(rng, 16, 16)),
        "m123": rand_channel(rng, m123, m123),
        "12to21": rand_channel(rng, src12, tgt21),
    }


def _reversible_channels():
    m123 = systems.system((1, 2, 3))
    src12, tgt21 = systems.system((1, 2)), systems.system((2, 1))
    return {
        "classical16": embed_channel(_injective_stochastic(16, 24)),
        "m123": _unitary_channel(m123, m123, (0, 1, 2)),
        "12to21": _unitary_channel(src12, tgt21, (1, 0)),
        "12to2123": _isometric_channel(),
    }


def _isometric_channel():
    """Isometric (1, 2) -> (2, 1, 2, 3) channel: factor 0 into a line of
    target 3, factor 1 onto target 2.  Its target repeats dimension 2 out
    of order, and its routes I - α_j differ within one class: I on the
    unreached targets 0 and 1, zero on target 2, a rank-2 projection on
    target 3.  Its own generator keeps the fixtures above as they were."""
    r = np.random.default_rng(709)
    src, tgt = systems.system((1, 2)), systems.system((2, 1, 2, 3))
    # Σ_j w_j M† M = w_i I with the default weights w = dims.
    kraus = {(0, 3): [rand_isometry(r, 3, 1) / np.sqrt(3.0)], (1, 2): [rand_unitary(r, 2)]}
    return cpmaps.from_kraus(kraus, src, tgt)


def _map_born():
    """Kraus-born (1,2,3) and (1,2) -> (2,1) morphisms, two maps per pair:
    support_of spans their held maps.  Their own generator keeps the
    fixtures above as they were."""
    r = np.random.default_rng(708)
    m123 = systems.system((1, 2, 3))
    src12, tgt21 = systems.system((1, 2)), systems.system((2, 1))
    return {"m123-maps": rand_cp(r, m123, m123), "12to21-maps": rand_cp(r, src12, tgt21)}


CHANNELS = _channels()
REVERSIBLE = _reversible_channels()
MAP_BORN = _map_born()
CONFUSABLE = {**CHANNELS, **MAP_BORN, **{f"reversible-{k}": f for k, f in REVERSIBLE.items()}}


class TestStackedKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_support_projection_and_eigh_match_per_matrix(self, n):
        st = _psd_stack(30, n)
        proj, _ = linalg.support_projection(linalg.spectral_cut(st))
        w, v = linalg.canonical_eigh(st)
        for s, m in enumerate(st):
            assert np.array_equal(proj[s], linalg.support_projection(m)[0]), s
            ws, vs = reference_canonical_eigh(m)
            assert np.array_equal(w[s], ws) and np.array_equal(v[s], vs), s

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_support_frames_match_per_matrix(self, n):
        st = _psd_stack(30, n)
        proj, fr = linalg.support_projection(linalg.spectral_cut(st))
        assert fr.vecs.shape == (30, n, fr.ranks.max())
        for s, m in enumerate(st):
            ps, cols = linalg.support_projection(m)
            assert np.array_equal(proj[s], ps), s
            assert np.array_equal(fr.member(s), cols), s
            assert not fr.vecs[s, :, fr.ranks[s]:].any(), s
            assert np.allclose(cols @ cols.conj().T, ps, atol=1e-12), s

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_orthonormal_span_stack_matches_per_family(self, n):
        # Families of c vectors of mixed rank, some exactly zero and some
        # (every fifth) below the absolute floor, at each (tol, floor).
        cuts = ((linalg.TOL_SPEC, linalg.TOL_SPEC), (linalg.TOL_SPEC, 0.0), (1e-3, 1e-6))
        for c in (1, 2, 5):
            fams = []
            for s in range(12):
                r = min(int(rng.integers(1 if s % 5 == 4 else 0, c + 1)), n)
                fam = rand_complex(rng, n, r) @ rand_complex(rng, r, c)
                fams.append(fam * (1e-12 if s % 5 == 4 else 1.0))
            st = np.array(fams)
            for tol, floor in cuts:
                fr = linalg.span_frames(st, tol, floor)
                proj = fr.projections()
                for s, fam in enumerate(st):
                    ps = linalg.orthonormal_span(list(fam.T), tol=tol, floor=floor)
                    cols = linalg.span_frames(fam[None], tol, floor).member(0)
                    assert np.array_equal(proj[s], ps), (c, tol, floor, s)
                    assert np.array_equal(fr.member(s), cols), (c, tol, floor, s)
                    if s % 5 == 4:
                        assert proj[s].any() == (floor == 0.0), (c, tol, floor, s)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_projection_frames_match_per_matrix(self, n):
        mixed, _ = linalg.support_projection(linalg.spectral_cut(_psd_stack(24, n)))
        holes = mixed.copy()
        holes[1::3] = 0.0  # all-zero members between live ones
        for case, st in (("mixed", mixed), ("holes", holes), ("zero", np.zeros((5, n, n), complex))):
            fr = linalg.projection_frames(st)
            assert fr.ranks.shape == (len(st),), case
            for s, p in enumerate(st):
                if n == 1:
                    ref = np.ones((1, int(p[0, 0].real > 0.5)))
                else:
                    w, v = linalg.canonical_eigh(p)
                    ref = v[:, w > 0.5]
                assert np.array_equal(fr.member(s), ref), (case, s)

    @pytest.mark.parametrize("d,e", [(1, 1), (1, 3), (2, 3), (3, 2), (2, 2)])
    def test_adjoint_image_and_trace_outer_match_per_matrix(self, d, e):
        st = np.array([rand_complex(rng, d * e, d * e) for _ in range(12)])
        adj = linalg.adjoint_image(st, d, e)
        tr = linalg.trace_outer(st, e, d)
        for s, m in enumerate(st):
            assert np.array_equal(adj[s], linalg.adjoint_image(m, d, e)), s
            assert np.array_equal(tr[s], linalg.trace_outer(m, e, d)), s

    @pytest.mark.parametrize("m,p", [(1, 1), (1, 3), (2, 3), (3, 2), (4, 4)])
    def test_kron_stack_matches_np_kron(self, m, p):
        a = np.array([rand_complex(rng, m, m) for _ in range(5)])
        b = np.array([rand_complex(rng, p, p) for _ in range(5)])
        real = rng.standard_normal((p, p))
        both = linalg.kron_stack(a, b)
        left = linalg.kron_stack(a, real)
        for s in range(5):
            assert np.array_equal(both[s], np.kron(a[s], b[s])), s
            assert np.array_equal(left[s], np.kron(a[s], real)), s
        grid = linalg.kron_stack(a[:, None], b[None, :3])
        assert grid.shape == (5, 3, m * p, m * p)
        assert np.array_equal(grid[4, 2], np.kron(a[4], b[2]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_first_failing_member_raises_its_error(self, n):
        st = _psd_stack(8, n)
        skew = st.copy()
        skew[5, 0, n - 1] += 1j
        with pytest.raises(NotHermitian) as info:
            linalg.support_projection(linalg.spectral_cut(skew))
        assert info.value.member == 5
        both = skew.copy()
        both[3] = -np.eye(n)
        with pytest.raises(NegativeSpectrum) as info:
            linalg.support_projection(linalg.spectral_cut(both))
        assert info.value.member == 3
        with pytest.raises(NegativeSpectrum):
            linalg.support_projection(-np.eye(n))

    def test_store_names_the_failing_block(self):
        sys = systems.classical_system(4)
        store = systems.block_store(sys, sys, {(0, 0): [[1.0]], (2, 1): [[-1.0]]}, "Choi")
        f = cpmaps.CpMorphism(sys, sys, store)
        with pytest.raises(NegativeSpectrum, match=r"\(2, 1\)"):
            relations.support_of(f)


class TestBlockStore:
    def test_mapping_order_and_row_views(self):
        f = CHANNELS["m123"]
        rel = relations.support_of(f)
        assert list(rel.blocks) == [(i, j) for i in range(3) for j in range(3)]
        stacks = {klass.dims: stack for klass, stack in rel.blocks.classes()}
        assert [klass.dims for klass, _ in rel.blocks.classes()] == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)
        ]
        for (i, j), blk in rel.blocks.items():
            assert not blk.flags.writeable
            assert np.shares_memory(blk, stacks[(f.source.dims[i], f.target.dims[j])])
        assert rel.ranks() == [rel.rank(*key) for key in rel.blocks]

    def test_one_member_class_is_a_read_only_copy_of_the_given_block(self):
        sys = systems.system((30,))
        a = np.eye(900, dtype=complex)
        f = cpmaps.CpMorphism(sys, sys, systems.block_store(sys, sys, {(0, 0): a}, "Choi"))
        ((_, stack),) = f.blocks.classes()
        assert stack.shape == (1, 900, 900) and not np.shares_memory(stack, a)
        assert not stack.flags.writeable and np.array_equal(stack[0], a)
        assert a.flags.writeable and np.array_equal(a, np.eye(900))
        assert f.blocks.classes() is f.blocks.classes()

    def test_absent_pairs_are_never_allocated(self):
        rel = relations.zero_relation(systems.classical_system(64))
        assert rel.blocks[(3, 5)] is rel.blocks[(5, 7)]
        assert not rel.blocks[(3, 5)].flags.writeable and not rel.blocks[(3, 5)].any()
        ((_, stack),) = rel.blocks.classes()
        assert stack.shape == (4096, 1, 1) and stack.strides[0] == 0
        sys = systems.classical_system(8)
        f = cpmaps.CpMorphism(sys, sys, {(1, 2): [[0.5]]})
        ((_, stack),) = f.blocks.classes()
        assert stack[1 * 8 + 2, 0, 0] == 0.5 and np.count_nonzero(stack) == 1

    def test_other_layout_is_refused(self):
        a, b = systems.system((1, 2)), systems.system((2, 1))
        store = relations.complete(a).blocks
        with pytest.raises(ShapeMismatch, match="laid out"):
            relations.QuantumRelation(b, b, store)


class TestBatchedConstructions:
    @pytest.mark.parametrize("name", [*CHANNELS, *MAP_BORN])
    def test_support_converse_and_compose_match_loops(self, name):
        f = {**CHANNELS, **MAP_BORN}[name]
        src, tgt = f.source.dims, f.target.dims
        rf = relations.support_of(f)
        assert_family_equal(rf.blocks, loop_support_of(f))
        rf_frames = loop_support_frames(f)
        _assert_frames_equal(rf, rf_frames)
        cv = relations.converse(rf)
        assert_family_equal(cv.blocks, loop_converse(rf))
        cv_frames = loop_converse_frames(rf_frames, src, tgt)
        _assert_frames_equal(cv, cv_frames)
        for got, (blocks, frames) in (
            (relations.compose(cv, rf), loop_rel_compose(cv_frames, rf_frames, src, tgt, src)),
            (relations.compose(rf, cv), loop_rel_compose(rf_frames, cv_frames, tgt, src, tgt)),
        ):
            assert_family_equal(got.blocks, blocks)
            _assert_frames_equal(got, frames)

    @pytest.mark.parametrize("name", CHANNELS)
    def test_confusability_and_marginal_match_loops(self, name):
        f = CHANNELS[name]
        assert_family_equal(graphs.confusability_of(f).relation.blocks, loop_confusability(f))
        ref = loop_choi_marginal(f)
        marg = cpmaps.choi_marginal(f)
        assert sorted(i for rows, _ in marg for i in rows) == list(range(len(ref)))
        for rows, stack in marg:
            for i, got in zip(rows, stack, strict=True):
                assert np.array_equal(got, ref[i])

    @pytest.mark.parametrize("name", CONFUSABLE)
    def test_confusability_is_symmetric_by_construction(self, name):
        assert_graph_symmetric(graphs.confusability_of(CONFUSABLE[name]))

    @pytest.mark.parametrize("name", REVERSIBLE)
    def test_reverse_matches_loop(self, name):
        f = REVERSIBLE[name]
        assert graphs.is_reversible(f)
        assert_family_equal(graphs._reverse(f).blocks, loop_reverse(f))

    @pytest.mark.parametrize("kind", ["permutation", "two-per-column"])
    def test_held_families_map_the_nonzero_pattern_in_key_order(self, kind):
        """On n = 64 classical channels a held family maps exactly the
        pairs with a nonzero block, in key order, whether born from Kraus
        maps (kraus()), read off the cuts (to_kraus), composed or reversed."""
        n = 64
        r = np.random.default_rng(1031)
        p = np.eye(n)[r.permutation(n)]
        if kind == "two-per-column":
            p = (p + np.roll(p, 1, axis=0)) / 2
        q = np.eye(n)[r.permutation(n)]
        f, g = embed_channel(p), embed_channel(q)
        fams = [(f.kraus(), p), (cpmaps.to_kraus(f), p), (cpmaps.compose(g, f).kraus(), q @ p)]
        if kind == "permutation":
            back = graphs.reverse_channel(f)
            fams += [(back.kraus(), p.T), (cpmaps.compose(back, f).kraus(), np.eye(n))]
        for got, pattern in fams:
            assert list(got) == [(i, j) for i in range(n) for j in range(n) if pattern[j, i]]

    def test_tensor_with_identity_matches_full_pair_loop(self):
        """tensor_cp over the pairs that hold maps, bitwise the Kronecker
        products of the loop over every pair of factor pairs."""
        n = 64
        perm = np.eye(n)[np.random.default_rng(1032).permutation(n)]
        f = embed_channel((perm + np.roll(perm, 1, axis=0)) / 2)
        h = cpmaps.identity_channel(systems.system((1, 2)))
        got = scc.tensor_cp(f, h)
        src, tgt = scc.tensor_system(f.source, h.source), scc.tensor_system(f.target, h.target)
        kf, kh = f.kraus(), h.kraus()
        kraus = {
            (src.pair_index(ia, ib), tgt.pair_index(ja, jb)): [
                np.kron(m, x) for m in kf.get((ia, ja), ()) for x in kh.get((ib, jb), ())]
            for (ia, ja) in f.blocks for (ib, jb) in h.blocks
        }
        ref = cpmaps.from_kraus(kraus, src.product, tgt.product)
        assert_family_equal(got.blocks, dict(ref.blocks))
        assert list(got.kraus()) == list(ref.kraus()) == sorted(k for k, ops in kraus.items() if ops)
        for key, ops in ref.kraus().items():
            assert len(got.kraus()[key]) == len(ops), key
            assert all(np.array_equal(a, b) for a, b in zip(got.kraus()[key], ops)), key

    @pytest.mark.parametrize("seed", range(6))
    def test_compose_through_one_and_many_dim_middles(self, seed):
        r = np.random.default_rng(seed)
        for dims in (
            # 1x1 output blocks reached through a 1-dim middle, through the
            # 2-dim middle only, or not at all.
            ((1, 1, 2), (1, 2, 1), (1, 2, 1)),
            # Classes of several 2x2 and 2x3 output blocks whose members have
            # unequal product counts, through 1-, 2- and 3-dim middles.
            ((2, 1, 2, 2), (2, 3, 1, 2, 3), (2, 3, 2, 1)),
        ):
            a, mid, b = (systems.system(d) for d in dims)
            p = rand_relation(r, a, mid, density=0.6)
            q = rand_relation(r, mid, b, density=0.6)
            got = relations.compose(q, p)
            p_frames, q_frames = loop_projection_frames(p), loop_projection_frames(q)
            _assert_frames_equal(p, p_frames)
            _assert_frames_equal(q, q_frames)
            blocks, frames = loop_rel_compose(q_frames, p_frames, *dims)
            assert_family_equal(got.blocks, blocks)
            _assert_frames_equal(got, frames)
            _assert_frames_equal(relations.converse(p),
                                 loop_converse_frames(p_frames, dims[0], dims[1]))

    @pytest.mark.parametrize("dims, reordered", [
        # Middle classes 1, 2, 3 run in factor order: no reorder.
        (((2, 1, 2), (1, 2, 2, 3), (3, 2, 2)), False),
        # Middle class 1 holds factors 0 and 2, class 2 factor 1: reordered.
        (((2, 1), (1, 2, 1), (1, 2)), True),
    ], ids=["ascending", "reordered"])
    @pytest.mark.parametrize("seed", range(3))
    def test_compose_in_and_out_of_factor_order(self, dims, reordered, seed, monkeypatch):
        """compose gathers the products into (j, a, b) order only when the
        middle classes do not already run in factor order; either way the
        result is bitwise the per-block loop's."""
        r = np.random.default_rng(seed)
        a, mid, b = (systems.system(d) for d in dims)
        p = rand_relation(r, a, mid, density=1.0)
        q = rand_relation(r, mid, b, density=1.0)
        p_frames, q_frames = loop_projection_frames(p), loop_projection_frames(q)
        _assert_frames_equal(p, p_frames)
        _assert_frames_equal(q, q_frames)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        got = relations.compose(q, p)
        monkeypatch.undo()
        assert bool(sorts) == reordered
        blocks, frames = loop_rel_compose(q_frames, p_frames, *dims)
        assert_family_equal(got.blocks, blocks)
        _assert_frames_equal(got, frames)


def test_is_reversible_support_projections_do_not_grow_with_n(monkeypatch):
    """One support kernel per is_reversible, of either kind: a classical
    channel is born from Kraus maps, so its support is spanned by span_frames
    (support_projection cuts Choi-born blocks)."""
    calls = []
    for name in ("support_projection", "span_frames"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda m, kernel=kernel, **kw:
                            calls.append(np.shape(m)) or kernel(m, **kw))
    counts = []
    for n in (16, 64):
        calls.clear()
        assert graphs.is_reversible(embed_channel(_injective_stochastic(n, n)))
        counts.append(len(calls))
    assert counts == [1, 1]


@pytest.mark.parametrize("name", CHANNELS)
def test_confusability_eighs_are_the_choi_support_cuts(name, monkeypatch):
    # One eigh per class of f's Choi blocks (none for 1x1 classes) in total,
    # in either order of the readers: the support, to_kraus, kraus() and
    # dump_channel all read the one cut of each class that f keeps, and the
    # graph needs none, since compose's frames span it and no cut recovers a
    # basis of a projection the supports already held.
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kw):
        calls.append(a.shape)
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for support_first in (True, False):
        f = choi_born(CHANNELS[name])
        n_cut = sum(klass.n > 1 for klass in f.blocks.layout.classes)
        supports = [lambda: relations.support_of(f), lambda: graphs.confusability_of(f)]
        kraus = [lambda: cpmaps.to_kraus(f), f.kraus, lambda: bundle.dump_channel(f, "A", "B")]
        calls.clear()
        for read in supports + kraus if support_first else kraus + supports:
            read()
        assert len(calls) == n_cut, support_first
        # A negative block is cut once too, and every read of it raises,
        # naming its pair.
        blocks = dict(f.blocks)
        key = [key for key, blk in blocks.items() if blk.any()][-1]
        blocks[key] = -blocks[key]
        neg = cpmaps.CpMorphism(f.source, f.target,
                                systems.block_store(f.source, f.target, blocks, "Choi"))
        readers = [relations.support_of, cpmaps.to_kraus]
        calls.clear()
        for read in (readers if support_first else readers[::-1]) * 2:
            with pytest.raises(NegativeSpectrum, match=re.escape(str(key))):
                read(neg)
        assert held(neg, relations.support_of) is None
        assert len(calls) == n_cut, support_first


def test_frames_are_orthonormal_and_span_their_blocks():
    f = CHANNELS["m123"]
    sys = f.source
    gamma = graphs.confusability_of(f)
    rels = {
        "discrete": relations.discrete(sys),
        "complete": relations.complete(sys, systems.system((2, 1))),
        "zero": relations.zero_relation(sys),
        "confusability": gamma.relation,
        "complement": graphs.complement(gamma).relation,
        "converse-of-lazy": relations.converse(graphs.complement(gamma).relation),
        "compose": relations.compose(gamma.relation, relations.support_of(f)),
    }
    for name, rel in rels.items():
        for (klass, stack), fr in zip(rel.blocks.classes(), rel.frames(), strict=True):
            assert fr.vecs.shape[:2] == (len(klass.keys), klass.n), name
            for s, key in enumerate(klass.keys):
                cols = fr.member(s)
                assert not fr.vecs[s, :, fr.ranks[s]:].any(), (name, key)
                assert np.allclose(cols.conj().T @ cols, np.eye(cols.shape[1]),
                                   atol=1e-12), (name, key)
                assert np.allclose(cols @ cols.conj().T, stack[s], atol=1e-12), (name, key)


class TestSatelliteLoops:
    """Index loops replaced by batched products, against the loops they replace."""

    @pytest.mark.parametrize("kind", ["classical64", "m123", "m123-choi"])
    def test_cp_compose_matches_full_index_loop(self, kind):
        if kind == "classical64":
            sys = systems.classical_system(64)
            f = embed_channel(rand_stochastic(rng, 64, 64))
            g = embed_channel(rand_stochastic(rng, 64, 64))
        else:
            sys = systems.system((1, 2, 3))
            f, g = rand_cp(rng, sys, sys), rand_cp(rng, sys, sys, kraus_per_pair=1)
            if kind == "m123-choi":
                # A Choi-born g that keeps its cuts multiplies its maps.
                f, g = choi_born(f), choi_born(g)
                g.kraus()
        got = cpmaps.compose(g, f)
        ref = cpmaps.from_kraus(loop_cp_compose_kraus(g, f), sys, sys)
        assert_family_equal(got.blocks, dict(ref.blocks))
        for key, ops in ref.kraus().items():
            assert len(got.kraus()[key]) == len(ops), key
            assert all(np.array_equal(a, b) for a, b in zip(got.kraus()[key], ops)), key

    @pytest.mark.parametrize("kind", ["classical64", "m123-choi", "m12-m213-m12"])
    def test_choi_born_compose_matches_conjugation_loop(self, kind):
        """A Choi-born g that keeps no cut is conjugated by f's held maps:
        bitwise the per-(i, j, k, m) loop, a Choi-born composite, and no
        cut kept on g."""
        if kind == "classical64":
            f = embed_channel(np.eye(64)[rng.permutation(64)])
            g = graphs.reverse_channel(f)
        elif kind == "m123-choi":
            sys = systems.system((1, 2, 3))
            f, g = rand_cp(rng, sys, sys), rand_cp(rng, sys, sys, kraus_per_pair=1)
            f, g = choi_born(f), choi_born(g)
        else:
            outer, mid = systems.system((1, 2)), systems.system((2, 1, 3))
            f, g = choi_born(rand_cp(rng, outer, mid, 2)), choi_born(rand_cp(rng, mid, outer, 2))
        got = cpmaps.compose(g, f)
        assert got.kraus_stacks is None
        assert not groups.is_kept(g, cpmaps.CpMorphism.cut)
        assert_family_equal(got.blocks, loop_cp_compose_choi(g, f))

    @pytest.mark.parametrize("kind", ["c2-classical", "m123-z2"])
    def test_tensor_system_unitaries_match_kron(self, kind):
        if kind == "c2-classical":
            n = 8
            swap = groups.permutation_action(
                groups.cyclic_group(2), (1,) * n, [range(n), [i ^ 1 for i in range(n)]]
            )
            left = right = systems.classical_system(n, swap)
        else:
            left = _z2_sign_system((1, 2, 3), ([-1.0], [1.0, -1.0], [1.0, -1.0, 1.0]))
            right = _z2_sign_system((2, 1), ([-1.0, 1.0], [-1.0]))
        ts = scc.TensorSystem(left, right)
        for g, units in enumerate(kron_tensor_unitaries(left, right)):
            for pair, u in enumerate(units):
                assert np.array_equal(unitary(ts.product.action, g, pair), u), (g, pair)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_conjugation_action_matches_loop(self, extra):
        for sys in (_z2_sign_system((1, 2, 3), ([-1.0], [1.0, -1.0], [1.0, -1.0, 1.0])),
                    _s3_system()):
            action = graphs._conjugation_action(sys.action, extra)
            for g, u in enumerate(loop_conjugation_unitaries(sys, extra)):
                assert np.array_equal(unitary(action, g, 0), u), g

    def test_dilation_components_match_loop(self):
        for oa in (_z2_sign_system((1, 2, 3), ([-1.0], [1.0, -1.0], [1.0, -1.0, 1.0])),
                   _s3_system()):
            nz = total_matrix_dim(oa) + 1
            pperp = {
                (a, b): rand_complex(rng, da * db, da * db)
                for a, da in enumerate(oa.dims) for b, db in enumerate(oa.dims)
            }
            got = scc._dilation_components(oa, pperp, nz)
            ref = loop_dilation_components(oa, pperp, nz)
            for u in (0, 1):
                for (a, t), (b, r) in zip(got[u], ref[u], strict=True):
                    assert a == b and np.array_equal(t, r)


def _partial(blocks, keep):
    """Copies of the blocks whose key satisfies keep, so that classes have
    absent members."""
    return {key: np.array(blk) for key, blk in blocks.items() if keep(key)}


def _rand_kraus(src, tgt):
    """Kraus maps on about two thirds of the pairs, with counts from 1 to
    d_i e_j (at most 3), so that one class splits into groups by count."""
    kraus = {}
    for i, d in enumerate(src.dims):
        for j, e in enumerate(tgt.dims):
            if rng.random() < 0.67:
                count = int(rng.integers(1, min(3, d * e) + 1))
                kraus[(i, j)] = [rand_complex(rng, e, d) for _ in range(count)]
    return kraus


def _c2_swap_json(n):
    return {"factors": [1] * n, "action": {"perms": {"1": [i ^ 1 for i in range(n)]},
                                           "unitaries": {}}}


def _z2_sign_json(dims, signs):
    units = [bundle.matrix_to_json(np.diag(sg)) for sg in signs]
    return {"factors": list(dims), "action": {"perms": {"1": list(range(len(dims)))},
                                              "unitaries": {"1": units}}}


class TestChecksAtTheBoundary:
    """Input from outside is copied, scanned and checked once per class.  The
    stacks must hold bitwise the values of the per-item paths in genutil, and
    a bad input must be named as the per-item checks name it."""

    @pytest.mark.parametrize("name", CHANNELS)
    def test_validated_dict_store_matches_per_block(self, name):
        f = CHANNELS[name]
        src, tgt = f.source, f.target
        choi = _partial(f.blocks, lambda key: sum(key) % 3 != 1)
        rel = _partial(relations.support_of(f).blocks, lambda key: key[0] != 1)
        for got, given in ((cpmaps.CpMorphism(src, tgt, choi), choi),
                           (relations.QuantumRelation(src, tgt, rel), rel)):
            assert_family_equal(got.blocks, loop_block_store(src, tgt, given))
            for key, blk in given.items():
                assert not np.shares_memory(got.blocks[key], blk), (name, key)
                assert not got.blocks[key].flags.writeable

    @pytest.mark.parametrize("name", CHANNELS)
    def test_from_kraus_matches_per_pair(self, name):
        src, tgt = CHANNELS[name].source, CHANNELS[name].target
        kraus = _rand_kraus(src, tgt)
        got = cpmaps.from_kraus(kraus, src, tgt)
        blocks, held = loop_from_kraus(kraus)
        assert_family_equal(got.blocks, loop_block_store(src, tgt, blocks))
        assert list(got.kraus()) == sorted(held)
        for key, maps in got.kraus().items():
            assert len(maps) == len(held[key]), key
            for m, ref, given in zip(maps, held[key], kraus[key]):
                assert np.array_equal(m, ref) and not m.flags.writeable, key
                assert not np.shares_memory(m, given), key

    @pytest.mark.parametrize("shape", [(16, 16), (24, 16), (3, 5)])
    def test_embed_channel_matches_from_kraus_loop(self, shape):
        p = rand_stochastic(rng, *shape)
        got = embed_channel(p)
        blocks, held = loop_from_kraus(loop_embed_kraus(p))
        assert_family_equal(got.blocks, loop_block_store(got.source, got.target, blocks))
        for key, maps in got.kraus().items():
            assert len(maps) == len(held.get(key, ())), key
            assert all(np.array_equal(m, r) for m, r in zip(maps, held.get(key, ()))), key
        # Born from its maps: one stored (1, 1) group of one map per pair.
        ((c, slots, maps),) = got.kraus_stacks
        keys = [got.blocks.layout.classes[c].keys[s] for s in slots.tolist()]
        assert keys == sorted(held) and maps.shape == (len(keys), 1, 1, 1)
        assert not maps.flags.writeable
        assert all(np.array_equal(m, held[key][0]) for key, m in zip(keys, maps[:, 0])), keys

    def test_action_stacks_match_per_unitary(self):
        z2, s3 = groups.cyclic_group(2), groups.symmetric_group(3)
        signs = ([-1.0], [1.0, -1.0], [1.0, -1.0, 1.0])
        sign_units = (tuple(np.eye(len(sg)) for sg in signs), tuple(np.diag(sg) for sg in signs))
        cases = [
            (bundle.system_from_json(_c2_swap_json(16), z2).action,
             [[np.eye(1)] * 16] * 2),
            (bundle.system_from_json(_z2_sign_json((1, 2, 3), signs), z2).action, sign_units),
            (groups.AlgebraAction(z2, (1, 2, 3), ((0, 1, 2),) * 2, sign_units), sign_units),
            (groups.trivial_action(s3, (1, 2, 3)),
             [[np.eye(d) for d in (1, 2, 3)]] * 6),
            (groups.permutation_action(s3, (2, 2, 2), symmetric_group_perms(3)),
             [[np.eye(2)] * 3] * 6),
        ]
        for action, units in cases:
            ref = loop_unitary_stacks(action.dims, units)
            got = action.factor_classes()
            assert list(got) == list(ref)
            for d, (idx, stack) in got.items():
                assert np.array_equal(stack, ref[d]) and not stack.flags.writeable, d
                assert list(idx) == [i for i, di in enumerate(action.dims) if di == d]
            for g in action.group.elements:
                for i in range(action.nfactors):
                    assert np.array_equal(unitary(action, g, i), units[g][i]), (g, i)

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 2, 2, 3)])
    def test_first_nonprojection_is_named(self, dims):
        sys = systems.system(dims)
        rel = relations.complete(sys)
        lay = rel.blocks.layout
        blocks = {key: np.array(blk) for key, blk in rel.blocks.items()}
        # Two bad members of one class and one of another, in reverse key order.
        big = max(lay.classes, key=lambda klass: len(klass.keys))
        bad = [lay.classes[-1].keys[-1], big.keys[-1], big.keys[1]]
        for key in bad:
            blocks[key] = 0.5 * blocks[key]
        blocks = dict(reversed(list(blocks.items())))
        first = loop_first_nonprojection(blocks, lay.keys)
        assert first == min(bad)
        with pytest.raises(ShapeMismatch, match=re.escape(f"relation block {first} ")):
            relations.QuantumRelation(sys, sys, blocks)

    def test_first_bad_block_and_map_in_dict_order(self):
        sys = systems.system((1, 2))
        nan = np.full((4, 4), np.nan)
        for given, kind in (({(0, 0): [[1.0]], (1, 1): nan, (1, 0): np.eye(3)}, DimensionMismatch),
                            ({(0, 0): [[1.0]], (1, 0): np.eye(3), (1, 1): nan}, ShapeMismatch)):
            with pytest.raises(kind, match=r"\(1, 0\)" if kind is ShapeMismatch else "finite"):
                cpmaps.CpMorphism(sys, sys, given)
        row = np.ones((1, 2))  # a map H_1 -> K_0 of pair (1, 0)
        nan_col = np.full((2, 1), np.nan)  # a non-finite map H_0 -> K_1 of pair (0, 1)
        for given, kind in (({(1, 0): [row, row], (0, 1): [nan_col], (1, 1): [np.eye(3)]},
                             DimensionMismatch),
                            ({(1, 0): [row, np.eye(2)], (0, 1): [nan_col]}, ShapeMismatch)):
            with pytest.raises(kind, match=r"pair \(1, 0\)" if kind is ShapeMismatch else "finite"):
                cpmaps.from_kraus(given, sys, sys)

    def test_library_maps_are_shape_checked(self):
        """Maps the library builds go through from_kraus too, which has no
        switch for its checks: a transposed or ragged map is named."""
        sys = systems.system((1, 2))
        row = np.ones((1, 2))  # a map H_1 -> K_0 of pair (1, 0)
        for given in ({(0, 0): [[[1.0]]], (1, 0): [row.T]}, {(1, 0): [row, np.eye(2)]}):
            with pytest.raises(ShapeMismatch, match=r"pair \(1, 0\) has shape \(2, 1\)|"
                                                    r"pair \(1, 0\) has shape \(2, 2\)"):
                cpmaps.from_kraus(given, sys, sys)
        assert list(inspect.signature(cpmaps.from_kraus).parameters) == ["kraus", "src", "tgt"]

    @pytest.mark.parametrize("stacked", [False, True])
    def test_first_nonunitary_is_named(self, stacked):
        z2 = groups.cyclic_group(2)
        dims = (2, 3, 2, 1)
        units = [[np.eye(d) for d in dims], [np.eye(d) for d in dims]]
        units[1][1] = 2 * np.eye(3)
        units[1][2] = np.array([[1.0, 1.0], [0.0, 1.0]])
        units[1][3] = 3 * np.eye(1)
        g, i = loop_first_nonunitary(dims, units)
        given = loop_unitary_stacks(dims, units) if stacked else units
        with pytest.raises(ActionShapeMismatch, match=re.escape(f"unitaries[{g}][{i}] is not")):
            groups.AlgebraAction(z2, dims, (tuple(range(4)),) * 2, given)
        assert (g, i) == (1, 2)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("case", ["z2-rotation", "s3-unitary", "s3-perms"])
    def test_first_homomorphism_failure_is_named(self, case, stacked):
        if case == "z2-rotation":
            group, dims = groups.cyclic_group(2), (1, 2, 2)
            perms = [(0, 1, 2), (0, 2, 1)]
            c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
            units = [[np.eye(d) for d in dims],
                     [np.eye(1), np.eye(2), np.array([[c, -s], [s, c]])]]
        else:
            group, dims = groups.symmetric_group(3), (2, 2, 2)
            perms = symmetric_group_perms(3)
            units = [[np.eye(2)] * 3 for _ in range(6)]
            if case == "s3-unitary":
                units[4] = [np.eye(2), rand_unitary(rng, 2), np.eye(2)]
            else:
                perms = perms[:3] + [perms[4], perms[3]] + perms[5:]
        g, h, i = loop_first_hom_failure(group, dims, perms, units)
        given = loop_unitary_stacks(dims, units) if stacked else units
        where = f"({g},{h})" + ("" if i is None else f", factor {i}")
        with pytest.raises(ActionShapeMismatch, match=re.escape(f"at {where}")):
            groups.AlgebraAction(group, dims, tuple(map(tuple, perms)), given)


def test_only_systems_stacks_block_families():
    src = pathlib.Path(covgraphs.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "systems.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name != "stack":
                continue
            for arg in ast.walk(ast.Module(body=[ast.Expr(a) for a in node.args], type_ignores=[])):
                if isinstance(arg, ast.Attribute) and arg.attr == "blocks":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_one_failure_rule():
    """No module but linalg catches DimensionMismatch and ShapeMismatch
    together: the owners of families given from outside (blocks, Kraus
    maps, action unitaries) raise their first failure through
    linalg.as_complex_groups."""
    src = pathlib.Path(covgraphs.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {getattr(n, "id", None) or getattr(n, "attr", None)
                          for n in ast.walk(node.type)}
                if {"DimensionMismatch", "ShapeMismatch"} <= caught:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_one_numeric_rule_in_bundle():
    """Every number a bundle document holds is read by bundle._numbers: in
    bundle.py np.asarray is called only there and in the writer
    matrix_to_json, and no except clause outside _numbers names
    OverflowError."""
    tree = ast.parse((pathlib.Path(covgraphs.__file__).parent / "bundle.py").read_text())

    def inside(name):
        return {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == name for node in ast.walk(fn)}

    numbers, writer = inside("_numbers"), inside("matrix_to_json")
    offenders = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray"
                and id(node) not in numbers | writer):
            offenders.append(f"np.asarray at line {node.lineno}")
        if (isinstance(node, ast.ExceptHandler) and node.type is not None
                and "OverflowError" in {getattr(n, "id", None) for n in ast.walk(node.type)}
                and id(node) not in numbers):
            offenders.append(f"except OverflowError at line {node.lineno}")
    assert not offenders


def test_one_spectrum_rule_in_cpmaps():
    """cpmaps.py calls no numpy eigen routine (eigh, eigvalsh, eig, eigvals):
    a Choi block's spectrum comes only from CpMorphism.cut, which the PSD
    check at construction and every later reader read."""
    tree = ast.parse((pathlib.Path(covgraphs.__file__).parent / "cpmaps.py").read_text())
    offenders = [
        f"{node.func.attr} at line {node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("eigh", "eigvalsh", "eig", "eigvals")
    ]
    assert not offenders


def _numpy_random_users() -> set:
    """module.function (class methods as module.Class.method, module level
    as the module) of every reference to numpy.random in src/covgraphs."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                or isinstance(node, ast.Import)
                and any(alias.name.startswith("numpy.random") for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module is not None
                and (node.module.startswith("numpy.random") or node.module == "numpy"
                     and any(alias.name == "random" for alias in node.names))):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(pathlib.Path(covgraphs.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_ssfa_defects_draws_from_numpy_random():
    """No function in src/covgraphs draws from numpy.random but
    systems.ssfa_defects, whose random probes its docstring states: group
    and action checks are exhaustive, and every other verdict is
    deterministic."""
    assert _numpy_random_users() <= {"systems.ssfa_defects"}


def test_one_exit_rule_in_cli():
    """cli.main alone maps an exception to an exit code.  No other function
    of cli.py reads EXIT_INPUT or EXIT_INTERNAL, or has an except clause
    naming TheoremViolation, CovGraphsError or Exception, but for _load's,
    which re-raises as CovGraphsError; no SystemExit is raised; and every
    return of a cmd_* function is EXIT_OK, EXIT_FALSE or a conditional of
    the two."""
    tree = ast.parse((pathlib.Path(covgraphs.__file__).parent / "cli.py").read_text())

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def verdict(node):
        if isinstance(node, ast.IfExp):
            return verdict(node.body) and verdict(node.orelse)
        return isinstance(node, ast.Name) and node.id in ("EXIT_OK", "EXIT_FALSE")

    offenders = [f"raise SystemExit at line {node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Raise) and "SystemExit" in names(node)]
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in ("EXIT_INPUT", "EXIT_INTERNAL"):
                offenders.append(f"{fn.name} reads {node.id} at line {node.lineno}")
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and names(node.type) & {"TheoremViolation", "CovGraphsError", "Exception"}
                    and not (fn.name == "_load" and [type(n) for n in node.body] == [ast.Raise]
                             and node.body[0].exc.func.id == "CovGraphsError")):
                offenders.append(f"{fn.name} catches at line {node.lineno}")
            if (fn.name.startswith("cmd_") and isinstance(node, ast.Return)
                    and not verdict(node.value)):
                offenders.append(f"{fn.name} returns at line {node.lineno}")
    assert not offenders


def test_bundle_only_parses():
    """bundle hands parsed keyed stacks and dicts to the owners of the block
    store and the actions, which group them by class: it names none of the
    store's class layout."""
    tree = ast.parse((pathlib.Path(covgraphs.__file__).parent / "bundle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"BlockStore", "layout", "dim_classes"}


def test_kraus_blocks_are_formed_only_by_the_store():
    """cpmaps defines no ALONE_N and _from_stacks forms no product: the blocks
    V V† of a Kraus-born morphism are formed by its block store, on first read."""
    tree = ast.parse((pathlib.Path(covgraphs.__file__).parent / "cpmaps.py").read_text())
    assert "ALONE_N" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_from_stacks"]
    products = [
        node.lineno for node in ast.walk(fn)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr == "matmul"
        or isinstance(node, ast.Name) and node.id == "matmul"
    ]
    assert not products


def test_kraus_born_constructors_form_no_block_and_run_no_cut():
    """cpmaps._from_stacks and classical.embed_channel only store the maps:
    they call no gram, _block_kraus, spectral_cut or stack."""
    root = pathlib.Path(covgraphs.__file__).parent
    for path, name in (("cpmaps.py", "_from_stacks"), ("classical.py", "embed_channel")):
        (fn,) = [node for node in ast.walk(ast.parse((root / path).read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == name]
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                  for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert not called & {"gram", "_block_kraus", "spectral_cut", "stack"}, name


def _called_names(path: pathlib.Path) -> list:
    """(name, "file:line") of every call in a source file, by the called
    function's own name: f(...) and x.f(...) both give f."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            out.append((name, f"{path.name}:{node.lineno}"))
    return out


def test_one_eigh_call_site():
    """np.linalg.eigh runs at one site: canonical_eigh's stacked kernel."""
    src = pathlib.Path(covgraphs.__file__).parent
    sites = [at for path in sorted(src.glob("*.py"))
             for name, at in _called_names(path) if name == "eigh"]
    assert len(sites) == 1 and sites[0].startswith("linalg.py:"), sites


def test_graphs_calls_no_cut():
    """graphs.py calls no support_projection, spectral_cut or
    projection_frames: a graph the library makes is cut only by the kernel
    that made it."""
    path = pathlib.Path(covgraphs.__file__).parent / "graphs.py"
    cuts = ("support_projection", "spectral_cut", "projection_frames")
    assert not [at for name, at in _called_names(path) if name in cuts]


def test_cpmaps_calls_no_eigh():
    """No module but linalg calls an eigh: cpmaps, relations and scc read
    their eigenpairs from linalg.spectral_cut.  Within linalg, only
    spectral_cut, psd_sqrt and inv_sqrt_psd call canonical_eigh, besides
    its own stack recursion."""
    src = pathlib.Path(covgraphs.__file__).parent
    assert not [at for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
                for name, at in _called_names(path) if name in ("eigh", "canonical_eigh")]
    tree = ast.parse((src / "linalg.py").read_text())
    callers = {
        fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "canonical_eigh"
    }
    assert callers == {"canonical_eigh", "spectral_cut", "psd_sqrt", "inv_sqrt_psd"}, callers


def _spy_gram(monkeypatch) -> list:
    """Record the block dimension n of every stack of V V† formed from here on."""
    formed, real = [], linalg.gram

    def spy(vs):
        formed.append(vs.shape[1])
        return real(vs)

    monkeypatch.setattr(linalg, "gram", spy)
    return formed


def _lazy_families():
    """Kraus families by how their pairs fill the classes of the layout:
    (source, target, pair -> maps)."""
    r = np.random.default_rng(1212)

    def maps(d, e, count):
        return [rand_complex(r, e, d) for _ in range(count)]

    a, b = systems.system((1, 2)), systems.system((2, 1))
    big = systems.system((8, 8, 1))
    return {
        # Two maps on every pair: one group covers each class in slot order.
        "whole": (a, b, {(i, j): maps(d, e, 2)
                         for i, d in enumerate(a.dims) for j, e in enumerate(b.dims)}),
        # Absent pairs, and two map counts in one class, out of slot order.
        "partial": (systems.system((1, 2, 2)), systems.system((2, 2)), {
            (2, 1): maps(2, 2, 2), (1, 0): maps(2, 2, 1), (2, 0): maps(2, 2, 2),
            (0, 0): maps(1, 2, 1)}),
        # Multi-member classes of 64 x 64 blocks, whole and partly filled.
        "n64-whole": (systems.system((8, 8)), systems.system((8,)), {
            (0, 0): maps(8, 8, 2), (1, 0): maps(8, 8, 2)}),
        "n64-partial": (big, systems.system((8, 8)), {
            (1, 0): maps(8, 8, 2), (0, 0): maps(8, 8, 2), (0, 1): maps(8, 8, 1),
            (2, 1): maps(1, 8, 3)}),
        # Pairs with more maps than d e next to pairs with fewer.
        "over": (a, systems.system((2, 2)), {
            (0, 0): maps(1, 2, 3), (0, 1): maps(1, 2, 1), (1, 0): maps(2, 2, 5),
            (1, 1): maps(2, 2, 2)}),
    }


LAZY = _lazy_families()


class TestLazyKrausBlocks:
    @pytest.mark.parametrize("name", list(LAZY))
    def test_blocks_match_per_pair_loop(self, name):
        src, tgt, kraus = LAZY[name]
        ref = loop_block_store(src, tgt, loop_from_kraus(kraus)[0])
        assert_family_equal(cpmaps.from_kraus(kraus, src, tgt).blocks, ref)

    def test_blocks_are_formed_on_first_read_of_their_class(self, monkeypatch):
        formed = _spy_gram(monkeypatch)
        src, tgt, kraus = LAZY["partial"]
        f = cpmaps.from_kraus(kraus, src, tgt)
        assert formed == []
        f.blocks[(2, 1)]
        assert formed == [4, 4]  # class (2, 2): one product per map count
        f.blocks[(1, 1)]
        f.blocks.classes()
        assert formed == [4, 4, 2]
        src, tgt, kraus = LAZY["over"]
        formed.clear()
        f = cpmaps.from_kraus(kraus, src, tgt)
        assert formed == []
        f.kraus()
        assert formed == [2, 2, 4, 4]  # both classes hold a pair given too many maps

    @pytest.mark.parametrize("name", ["partial", "n64-partial"])
    def test_second_read_returns_the_same_read_only_arrays(self, name):
        src, tgt, kraus = LAZY[name]
        f = cpmaps.from_kraus(kraus, src, tgt)
        first = {key: f.blocks[key] for key in f.blocks}
        pairs = f.blocks.classes()
        assert f.blocks.classes() is pairs
        for c, (klass, stack) in enumerate(pairs):
            assert f.blocks.stack(c) is stack and not stack.flags.writeable
            for key in klass.keys:
                assert np.array_equal(f.blocks[key], first[key]), key
                assert np.shares_memory(f.blocks[key], stack), key
                assert not f.blocks[key].flags.writeable, key

    def test_composite_forms_no_lifted_block(self, monkeypatch):
        oa = systems.system((3,))
        src = scc.source_from_graph(graphs.discrete_graph(oa))
        ident = cpmaps.identity_channel(oa)
        formed = _spy_gram(monkeypatch)
        scc._composite(src, ident, ident)
        assert max(formed, default=0) < 64
        # The lifted (N∘E) ⊗ id_{O_B} has 900 x 900 blocks, formed when read.
        lifted = scc.tensor_cp(cpmaps.compose(ident, ident), cpmaps.identity_channel(src.ob_system))
        lifted.blocks.classes()
        assert max(formed) == 900

    @pytest.mark.parametrize("name", list(LAZY))
    def test_held_maps_are_views_of_the_stored_maps(self, name):
        """A pair with at most d e maps holds read-only views of kraus_stacks,
        the one stored copy of the maps."""
        src, tgt, kraus = LAZY[name]
        f = cpmaps.from_kraus(kraus, src, tgt)
        lay, held = f.blocks.layout, f.kraus()
        for c, slots, maps in f.kraus_stacks:
            klass = lay.classes[c]
            assert not maps.flags.writeable
            if maps.shape[1] > klass.n:
                continue
            for s, stored in zip(slots.tolist(), maps):
                ops = held[klass.keys[s]]
                assert len(ops) == len(stored), klass.keys[s]
                for m, ref in zip(ops, stored):
                    assert np.shares_memory(m, maps) and not m.flags.writeable, klass.keys[s]
                    assert np.array_equal(m, ref), klass.keys[s]

    def test_over_count_family_is_cut_on_first_kraus(self, monkeypatch):
        """from_kraus of a family with pairs given more than d e maps forms
        no block and runs no eigh; the first kraus() cuts those pairs'
        blocks, bitwise the per-block eigh of the per-pair loop's blocks."""
        src, tgt, kraus = LAZY["over"]
        formed = _spy_gram(monkeypatch)
        eighs, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: eighs.append(a.shape)
                            or eigh(a, *args, **kw))
        f = cpmaps.from_kraus(kraus, src, tgt)
        assert formed == [] and eighs == []
        held = f.kraus()
        assert formed and eighs
        blocks, given = loop_from_kraus(kraus)
        lay = f.blocks.layout
        for key in lay.keys:
            d, e = lay.classes[lay.where[key][0]].dims
            if len(kraus.get(key, ())) > d * e:
                (ref,) = loop_block_kraus([key], [blocks[key]], d, e).values()
            else:
                ref = given.get(key, ())
            assert len(held[key]) == len(ref), key
            assert all(m.tobytes() == r.tobytes() for m, r in zip(held[key], ref)), key

    def test_failed_form_leaves_the_class_to_form_again(self, monkeypatch):
        src, tgt, kraus = LAZY["n64-partial"]
        real, calls = linalg.gram, []

        def failing(vs):
            calls.append(vs.shape[1])
            if len(calls) <= 2:
                raise MemoryError("no room for the stack")
            return real(vs)

        monkeypatch.setattr(linalg, "gram", failing)
        f = cpmaps.from_kraus(kraus, src, tgt)
        for read in (lambda: f.blocks[(1, 0)], lambda: f.blocks.classes()):
            with pytest.raises(MemoryError):
                read()
        ref = loop_block_store(src, tgt, loop_from_kraus(kraus)[0])
        assert_family_equal(f.blocks, ref)

    @pytest.mark.parametrize("kind", ["dense16", "permutation32", "two-per-column16", "dense3"])
    def test_commutative_compose_matches_index_loop(self, kind):
        """compose between commutative systems, bitwise the products of the
        index loop: every pair holding a map (dense16, dense3), one map per
        pair (permutation32), and one or two (two-per-column16)."""
        n = int(kind[-2:]) if kind != "dense3" else 3
        sys = systems.classical_system(n)
        if kind == "permutation32":
            f = embed_channel(np.eye(n)[rng.permutation(n)])
            g = embed_channel(np.eye(n)[rng.permutation(n)])
        elif kind == "two-per-column16":
            # f sends point c to s(c) and s(c) + 1, g sends m to t(m) and
            # t(m - 1) (mod n), so g∘f reaches t(s(c)) along two paths and
            # t(s(c) ± 1) along one.
            r = np.random.default_rng(1006)
            p, q = r.permutation(n), r.permutation(n)
            f = embed_channel((np.eye(n)[p] + np.eye(n)[np.roll(p, 1)]) / 2)
            g = embed_channel((np.eye(n)[q] + np.eye(n)[(q + 1) % n]) / 2)
        else:
            f = embed_channel(rng.dirichlet(np.ones(n), size=n).T)
            g = embed_channel(rng.dirichlet(np.ones(n), size=n).T)
        got = cpmaps.compose(g, f)
        if kind == "two-per-column16":
            assert {maps.shape[1] for _, _, maps in got.kraus_stacks} == {1, 2}  # maps per pair
        ref = cpmaps.from_kraus(loop_cp_compose_kraus(g, f), sys, sys)
        assert_family_equal(got.blocks, dict(ref.blocks))
        for key, ops in ref.kraus().items():
            assert len(got.kraus()[key]) == len(ops), key
            assert all(np.array_equal(a, b) for a, b in zip(got.kraus()[key], ops)), key

    def test_one_by_one_minimal_maps_bitwise_equal_eigh(self):
        """A 1x1 block c with more maps than its dimension holds √c, bitwise
        the map read off the 1x1 eigh, down to the sign of the zero
        imaginary part; blocks of zero norm or real part hold none."""
        vals = np.concatenate([
            rng.random(40) * 10.0 ** rng.integers(-12, 3, 40),
            [0.0, 1e-170, 5e-324, 1e-300, 2.0, 1.0],
        ])
        stack = (vals + 1j * np.where(np.arange(vals.size) % 3 == 0, 1e-20, 0.0)).reshape(-1, 1, 1)
        stack[-1, 0, 0] = 1e-30j  # zero real part, nonzero norm
        keys = [(s, 0) for s in range(len(stack))]
        got = cpmaps._block_kraus(keys, linalg.spectral_cut(stack), 1, 1)
        ref = loop_block_kraus(keys, stack, 1, 1)
        assert list(got) == [key for key in keys if ref[key]]
        for key, maps in got.items():
            assert len(maps) == len(ref[key]), key
            for m, r in zip(maps, ref[key]):
                assert m.shape == (1, 1) and not m.flags.writeable
                assert m.tobytes() == r.tobytes(), key
        assert (len(stack) - 1, 0) not in got and (len(stack) - 5, 0) not in got

    def test_dense_commutative_compose_reads_no_eigh(self, monkeypatch):
        """Dense commutative compose gives every pair more maps than its 1x1
        block dimension: their minimal maps come without an eigh."""
        n = 16
        f, g = (embed_channel(rng.dirichlet(np.ones(n), size=n).T) for _ in range(2))
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape)
                            or eigh(a, *args, **kw))
        got = cpmaps.compose(g, f)
        assert calls == []
        assert all(len(ops) == 1 for ops in got.kraus().values())


def _spy_projections(monkeypatch) -> list:
    """Record every Frames whose projections are formed from here on."""
    formed, real = [], linalg.Frames.projections
    monkeypatch.setattr(linalg.Frames, "projections", lambda fr: formed.append(fr) or real(fr))
    return formed


def _born_from_frames(kind):
    sys = systems.system((1, 2, 3))
    f = rand_cp(np.random.default_rng(41), sys, sys)
    if kind == "support":
        return relations.support_of(f)  # Kraus-born f: its frames from a thin SVD
    if kind == "compose":
        rf = relations.support_of(f)
        return relations.compose(relations.converse(rf), rf)
    return relations.discrete.__wrapped__(sys)


class TestProjectionsMadeFromFrames:
    """A relation born from frames (compose, support_of of a Kraus-born
    morphism, discrete) forms the projections of a class from its frames on
    the first read of that class, once."""

    @pytest.mark.parametrize("kind", ["support", "compose", "discrete"])
    def test_no_projection_before_the_first_read_of_a_class(self, kind, monkeypatch):
        formed = _spy_projections(monkeypatch)
        rel = _born_from_frames(kind)
        frames = rel.frames()
        assert not [fr for fr in formed if any(fr is own for own in frames)]
        for c, fr in enumerate(frames):
            stack = rel.blocks.stack(c)
            assert rel.blocks.stack(c) is stack and not stack.flags.writeable, c
            assert sum(made is fr for made in formed) <= 1, c
            assert np.array_equal(stack, linalg.Frames.projections(fr)), c
        for c, (klass, stack) in enumerate(rel.blocks.classes()):
            assert stack is rel.blocks.stack(c)
            for s, key in enumerate(klass.keys):
                assert np.array_equal(rel.blocks[key], stack[s]) and not rel.blocks[key].flags.writeable

    def test_a_projection_that_raised_is_made_again(self, monkeypatch):
        real, failed = linalg.Frames.projections, []

        def once(fr):
            if not failed:
                failed.append(fr)
                raise MemoryError("no room for the stack")
            return real(fr)

        monkeypatch.setattr(linalg.Frames, "projections", once)
        rel = _born_from_frames("support")
        c = rel.blocks.layout.index[(2, 3)]
        with pytest.raises(MemoryError):
            rel.blocks[(1, 2)]
        stack = rel.blocks.stack(c)
        assert len(failed) == 1 and not stack.flags.writeable
        assert np.array_equal(stack, real(rel.frames()[c]))
        assert np.shares_memory(rel.blocks[(1, 2)], stack)

    def test_an_adjoint_image_that_raised_is_made_again(self, monkeypatch):
        rel = _born_from_frames("support")
        conv = relations.converse(rel)
        real, calls = linalg.adjoint_image, []

        def once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("no room for the stack")
            return real(*args)

        monkeypatch.setattr(linalg, "adjoint_image", once)
        with pytest.raises(MemoryError):
            conv.blocks[(2, 1)]
        blk = conv.blocks[(2, 1)]
        assert len(calls) == 2 and not blk.flags.writeable
        assert np.array_equal(blk, real(rel.blocks[(1, 2)], 2, 3))
        assert conv.blocks[(2, 1)] is not blk and np.shares_memory(conv.blocks[(2, 1)], blk)
        assert len(calls) == 2
