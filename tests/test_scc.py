import numpy as np
import pytest

from covgraphs import cpmaps, graphs, groups, linalg, relations, scc, systems
from covgraphs.classical import embed_channel, extract_graph, oracle_source_graph
from covgraphs.errors import GroupMismatch, NotValid, RoundTripFailure, SourceInvalid

from genutil import (
    assert_blocks_close,
    choi_born,
    classical_source,
    complete_graph,
    functional,
    loop_source_graph_blocks,
    loop_source_span_vectors,
    quantum_source,
    rand_channel,
    rand_conf_graph,
    rand_cp,
    rand_stochastic,
    rand_system,
    rand_unitary,
    symmetric_group_perms,
    tensor_element,
)

rng = np.random.default_rng(707)


class TestTensor:
    def test_classical_product(self):
        ts = scc.tensor_system(systems.classical_system(2), systems.classical_system(3))
        assert ts.product.dims == (1,) * 6
        assert ts.product.weights == (1.0,) * 6

    def test_unit_law(self):
        b = systems.system((2,))
        ts = scc.tensor_system(b, systems.classical_system(1))
        assert ts.product.dims == (2,)
        assert ts.product.weights == (2.0,)

    def test_stochastic_kron(self):
        p = rand_stochastic(rng, 2, 2)
        q = rand_stochastic(rng, 3, 2)
        fp, fq = embed_channel(p), embed_channel(q)
        tens = scc.tensor_cp(fp, fq)
        expected = embed_channel(
            np.kron(p, q),
            scc.tensor_system(fp.source, fq.source).product,
            scc.tensor_system(fp.target, fq.target).product,
        )
        assert cpmaps.cp_norm_diff(tens, expected) < 1e-12

    def test_tensor_of_channels_is_channel(self):
        a, b = rand_system(rng, 2, 2), rand_system(rng, 2, 2)
        c, d = rand_system(rng, 2, 2), rand_system(rng, 2, 2)
        f = rand_channel(rng, a, c)
        g = rand_channel(rng, b, d)
        assert cpmaps.is_channel(scc.tensor_cp(f, g))

    def test_group_mismatch(self):
        s2 = groups.symmetric_group(2)
        act = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
        with pytest.raises(GroupMismatch):
            scc.tensor_system(systems.classical_system(2, act), systems.classical_system(2))

    def test_trace_coherence(self):
        a, b = systems.system((2,)), systems.system((3,))
        ts = scc.tensor_system(a, b)
        for _ in range(10):
            x = systems.random_element(a, rng)
            y = systems.random_element(b, rng)
            lhs = functional(ts.product, tensor_element(ts, x, y))
            rhs = functional(a, x) * functional(b, y)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestKrausPath:
    def test_tensor_matches_choi_path(self):
        for _ in range(8):
            a, b, c, d = (rand_system(rng, 2, 3) for _ in range(4))
            f = rand_cp(rng, a, c, int(rng.integers(1, 3)))
            g = rand_cp(rng, b, d, int(rng.integers(1, 3)))
            assert_blocks_close(scc.tensor_cp(f, g),
                                scc.tensor_cp(choi_born(f), choi_born(g)))

    def test_composite_matches_choi_path(self):
        oa = systems.system((2,))
        src = scc.source_from_graph(rand_conf_graph(rng, oa))
        n_chan = rand_channel(rng, oa, oa)
        e_chan = cpmaps.identity_channel(oa)
        ne = cpmaps.compose(choi_born(n_chan), choi_born(e_chan))
        lifted = scc.tensor_cp(choi_born(ne), choi_born(cpmaps.identity_channel(src.ob_system)))
        ref = cpmaps.compose(choi_born(lifted), choi_born(src.channel))
        assert_blocks_close(scc._composite(src, n_chan, e_chan), ref)

    def test_composite_eigh_stays_small(self, monkeypatch):
        oa = systems.system((3,))
        src = scc.source_from_graph(rand_conf_graph(rng, oa))
        ident = cpmaps.identity_channel(oa)
        sizes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        scc._composite(src, ident, cpmaps.identity_channel(oa))
        noisy = cpmaps.channelize(rand_cp(rng, oa, oa, 3))
        scc._composite(src, noisy, ident)
        assert max(sizes, default=0) <= 30

    def test_verify_scheme_cuts_no_block_of_the_decoder(self, monkeypatch):
        """The decoder_for decoder is Choi-born: verify_scheme conjugates
        its blocks by the composite's maps, with no eigh of a decoder block
        and no cut kept on it."""
        oa = systems.system((2,))
        src = scc.source_from_graph(rand_conf_graph(rng, oa))
        ident = cpmaps.identity_channel(oa)
        d_chan = scc.decoder_for(ident, src, ident)
        blocks = [linalg.hermitize(blk) for blk in d_chan.blocks.values()]
        cut, eigh = [], np.linalg.eigh

        def recording(a, *args, **kwargs):
            cut.extend(m for m in np.reshape(a, (-1,) + np.shape(a)[-2:]) for blk in blocks
                       if m.shape == blk.shape and np.allclose(m, blk))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        assert scc.verify_scheme(src, ident, ident, d_chan)
        assert cut == []
        assert not groups.is_kept(d_chan, cpmaps.CpMorphism.cut)


class TestSourceGraph:
    def test_no_side_info_discrete(self):
        # injective deterministic C onto O_A with trivial O_B: every pair of
        # Alice symbols must stay distinguishable.
        src, _ = classical_source(rng, 2, 2, 1, full_side_info=False)
        # force the bijective no-side-info source
        s = systems.classical_system(2)
        oa = systems.classical_system(2)
        ob = systems.classical_system(1)
        ts = scc.tensor_system(oa, ob)
        chan = embed_channel(np.eye(2), s, ts.product)
        src = scc.Source(s, oa, ob, chan)
        g = scc.source_confusability_graph(src)
        assert relations.relations_equal(g.relation, graphs.discrete_graph(oa).relation)

    def test_full_side_info_complete(self):
        s = systems.classical_system(2)
        oa = systems.classical_system(2)
        ob = systems.classical_system(2)
        ts = scc.tensor_system(oa, ob)
        p = np.zeros((4, 2))
        p[0 * 2 + 0, 0] = 1.0
        p[1 * 2 + 1, 1] = 1.0
        chan = embed_channel(p, s, ts.product)
        src = scc.Source(s, oa, ob, chan)
        g = scc.source_confusability_graph(src)
        assert relations.relations_equal(g.relation, complete_graph(oa).relation)

    def test_classical_oracle_random(self):
        for _ in range(25):
            ns = int(rng.integers(1, 4))
            na = int(rng.integers(1, 4))
            nb = int(rng.integers(1, 3))
            if na * nb < ns:
                continue
            src, p = classical_source(rng, ns, na, nb)
            g = scc.source_confusability_graph(src)
            assert np.array_equal(extract_graph(g), oracle_source_graph(p, na, nb))

    def test_always_confusability(self):
        for _ in range(5):
            src = quantum_source(rng, 2, 2, 2)
            g = scc.source_confusability_graph(src)
            assert graphs.classify(g)["is_confusability"]

    def test_invalid_source_rejected(self):
        s = systems.classical_system(2)
        oa = systems.classical_system(1)
        ob = systems.classical_system(1)
        ts = scc.tensor_system(oa, ob)
        merge = embed_channel(np.array([[1.0, 1.0]]), s, ts.product)
        with pytest.raises(SourceInvalid):
            scc.Source(s, oa, ob, merge)


class TestEncodingValidity:
    def test_full_side_info_any_channel(self):
        s = systems.classical_system(2)
        oa = systems.classical_system(2)
        ob = systems.classical_system(2)
        ts = scc.tensor_system(oa, ob)
        p = np.zeros((4, 2))
        p[0, 0] = 1.0
        p[3, 1] = 1.0
        src = scc.Source(s, oa, ob, embed_channel(p, s, ts.product))
        a1 = systems.classical_system(1)
        n_chan = embed_channel(np.array([[1.0, 1.0]]), oa, a1)  # useless
        e_chan = cpmaps.identity_channel(oa)
        # encoder must target the channel source; re-type the useless channel
        assert scc.encoding_is_valid(e_chan, src, n_chan)
        d = scc.decoder_for(e_chan, src, n_chan)
        assert scc.verify_scheme(src, n_chan, e_chan, d)

    def test_no_side_info_depolarizing_invalid(self):
        s = systems.classical_system(2)
        oa = systems.classical_system(2)
        ob = systems.classical_system(1)
        ts = scc.tensor_system(oa, ob)
        src = scc.Source(s, oa, ob, embed_channel(np.eye(2), s, ts.product))
        n_chan = embed_channel(np.array([[1.0, 1.0]]), oa, systems.classical_system(1))
        e_chan = cpmaps.identity_channel(oa)
        assert not scc.encoding_is_valid(e_chan, src, n_chan)
        with pytest.raises(NotValid):
            scc.decoder_for(e_chan, src, n_chan)

    def test_trivial_everything(self):
        s = systems.classical_system(1)
        oa = systems.classical_system(1)
        ob = systems.classical_system(1)
        ts = scc.tensor_system(oa, ob)
        src = scc.Source(s, oa, ob, embed_channel(np.eye(1), s, ts.product))
        n_chan = cpmaps.identity_channel(oa)
        e_chan = cpmaps.identity_channel(oa)
        assert scc.encoding_is_valid(e_chan, src, n_chan)
        d = scc.decoder_for(e_chan, src, n_chan)
        assert scc.verify_scheme(src, n_chan, e_chan, d)

    def test_classical_worked_example(self):
        # 3-symbol source, one side-info bit, 2-input channel: symbols 0,1
        # share side-info bit 0 with distinct Alice letters; symbol 2 is
        # disambiguated by side info.
        s = systems.classical_system(3)
        oa = systems.classical_system(2)
        ob = systems.classical_system(2)
        ts = scc.tensor_system(oa, ob)
        p = np.zeros((4, 3))
        p[0 * 2 + 0, 0] = 1.0  # s=0 -> (a=0, b=0)
        p[1 * 2 + 0, 1] = 1.0  # s=1 -> (a=1, b=0)
        p[0 * 2 + 1, 2] = 1.0  # s=2 -> (a=0, b=1)
        src = scc.Source(s, oa, ob, embed_channel(p, s, ts.product))
        n_chan = cpmaps.identity_channel(oa)
        e_chan = cpmaps.identity_channel(oa)
        assert scc.encoding_is_valid(e_chan, src, n_chan)
        d = scc.decoder_for(e_chan, src, n_chan)
        assert scc.verify_scheme(src, n_chan, e_chan, d)

    def test_isometry_channel_scheme(self):
        src = quantum_source(rng, 2, 2, 2)
        oa = src.oa_system
        b4 = systems.system((4,))
        v = rand_unitary(rng, 4)[:, :2]
        n_chan = cpmaps.from_kraus({(0, 0): [np.sqrt(2.0 / 4.0) * v]}, oa, b4)
        e_chan = cpmaps.identity_channel(oa)
        assert scc.encoding_is_valid(e_chan, src, n_chan)
        d = scc.decoder_for(e_chan, src, n_chan)
        assert scc.verify_scheme(src, n_chan, e_chan, d)

    def test_perturbed_decoder_fails(self):
        s = systems.classical_system(2)
        oa = systems.classical_system(2)
        ob = systems.classical_system(1)
        ts = scc.tensor_system(oa, ob)
        src = scc.Source(s, oa, ob, embed_channel(np.eye(2), s, ts.product))
        n_chan = cpmaps.identity_channel(oa)
        e_chan = cpmaps.identity_channel(oa)
        d = scc.decoder_for(e_chan, src, n_chan)
        mixed = {k: 0.5 * v for k, v in d.blocks.items()}
        bts = scc.tensor_system(n_chan.target, ob)
        unif = embed_channel(np.full((2, 2), 0.5), bts.product, s)
        dbad = cpmaps.CpMorphism(
            d.source, d.target,
            {k: mixed[k] + 0.5 * unif.blocks[k] for k in mixed},
        )
        assert cpmaps.is_channel(dbad)
        assert not scc.verify_scheme(src, n_chan, e_chan, dbad)


class TestCovariantScc:
    def _swap_world(self):
        s2 = groups.symmetric_group(2)
        perms = symmetric_group_perms(2)
        act = groups.permutation_action(s2, (1, 1), perms)
        s_sys = systems.classical_system(2, act)
        oa = systems.classical_system(2, act)
        ob = systems.classical_system(2, act)
        return s2, s_sys, oa, ob

    def test_full_side_info_covariant_scheme(self):
        s2, s_sys, oa, ob = self._swap_world()
        ts = scc.tensor_system(oa, ob)
        p = np.zeros((4, 2))
        p[0 * 2 + 0, 0] = 1.0
        p[1 * 2 + 1, 1] = 1.0
        c_chan = embed_channel(p, s_sys, ts.product)
        assert groups.is_covariant_cp(c_chan)
        src = scc.Source(s_sys, oa, ob, c_chan)
        assert groups.is_covariant_relation(
            scc.source_confusability_graph(src).relation
        )
        # covariant but useless communication channel
        b_triv = systems.classical_system(1, groups.trivial_action(s2, (1,)))
        n_chan = embed_channel(np.array([[1.0, 1.0]]), oa, b_triv)
        assert groups.is_covariant_cp(n_chan)
        e_chan = cpmaps.identity_channel(oa)
        assert scc.encoding_is_valid(e_chan, src, n_chan)
        d_chan = scc.decoder_for(e_chan, src, n_chan)
        assert groups.is_covariant_cp(d_chan)
        assert scc.verify_scheme(src, n_chan, e_chan, d_chan)

    def test_no_side_info_covariant_useless_channel_invalid(self):
        s2, s_sys, oa, _ = self._swap_world()
        ob = systems.classical_system(1, groups.trivial_action(s2, (1,)))
        ts = scc.tensor_system(oa, ob)
        c_chan = embed_channel(np.eye(2), s_sys, ts.product)
        assert groups.is_covariant_cp(c_chan)
        src = scc.Source(s_sys, oa, ob, c_chan)
        b_triv = systems.classical_system(1, groups.trivial_action(s2, (1,)))
        n_chan = embed_channel(np.array([[1.0, 1.0]]), oa, b_triv)
        e_chan = cpmaps.identity_channel(oa)
        assert not scc.encoding_is_valid(e_chan, src, n_chan)

    def test_covariant_source_from_graph(self):
        _, _, oa, _ = self._swap_world()
        g = complete_graph(oa)
        src = scc.source_from_graph(g)
        assert groups.is_covariant_cp(src.channel)
        got = scc.source_confusability_graph(src)
        assert relations.relations_equal(got.relation, g.relation)


class TestSourceFromGraph:
    def test_complete_two_points(self):
        oa = systems.classical_system(2)
        src = scc.source_from_graph(complete_graph(oa))
        assert src.s_system.dims == (1, 1)
        g = scc.source_confusability_graph(src)
        assert relations.relations_equal(g.relation, complete_graph(oa).relation)

    def test_discrete(self):
        oa = systems.classical_system(2)
        src = scc.source_from_graph(graphs.discrete_graph(oa))
        assert relations.relations_equal(
            scc.source_confusability_graph(src).relation, graphs.discrete_graph(oa).relation
        )

    def test_random_quantum(self):
        for dims in [(2,), (2, 1), (3,)]:
            sys = systems.system(dims)
            g = rand_conf_graph(rng, sys)
            src = scc.source_from_graph(g)
            got = scc.source_confusability_graph(src)
            assert relations.relation_defect(got.relation, g.relation) < 1e-7

    def test_round_trip_gate_refuses_a_source_that_misses_its_graph(self, monkeypatch):
        """A source whose graph does not read g back is refused, with the defect."""
        monkeypatch.setattr(scc, "relation_defect", lambda got, want: 1.0)
        with pytest.raises(RoundTripFailure, match=r"^source graph round trip defect 1\.00e\+00$"):
            scc.source_from_graph(complete_graph(systems.system((2,))))

    def test_span_vectors_match_loop(self):
        swap = TestCovariantScc()._swap_world()[2]
        local = np.random.default_rng(708)
        sources = [scc.source_from_graph(g) for g in (
            complete_graph(systems.classical_system(2)),
            graphs.discrete_graph(systems.classical_system(2)),
            complete_graph(swap),
        )]
        sources += [scc.source_from_graph(rand_conf_graph(local, systems.system(dims)))
                    for dims in [(2,), (2, 1), (3,)]]
        sources += [classical_source(local, 2, 2, 2)[0], quantum_source(local, 2, 2, 2)]
        for src in sources:
            got, ref = scc._source_span_vectors(src), loop_source_span_vectors(src)
            assert list(got) == list(ref)
            for key, vs in ref.items():
                assert len(got[key]) == len(vs), key
                assert all(np.array_equal(v, r) for v, r in zip(got[key], vs)), key

    def test_source_graph_matches_per_pair_spans(self):
        """The class-batched spans of _source_graph are bitwise the per-pair
        orthonormal_span reference, on the sources of
        test_span_vectors_match_loop, a 2-point S -> 16-point O_A one and a
        classical one on which the span floor decides an edge."""
        swap = TestCovariantScc()._swap_world()[2]
        local = np.random.default_rng(708)
        sources = [scc.source_from_graph(g) for g in (
            complete_graph(systems.classical_system(2)),
            graphs.discrete_graph(systems.classical_system(2)),
            complete_graph(swap),
        )]
        sources += [scc.source_from_graph(rand_conf_graph(local, systems.system(dims)))
                    for dims in [(2,), (2, 1), (3,)]]
        sources += [classical_source(local, 2, 2, 2)[0], quantum_source(local, 2, 2, 2)]
        sources.append(classical_source(local, 2, 16, 1)[0])
        # Symbol 0 puts 2.5e-13 on letter 2, so at tol 1e-4 the floor, not
        # the relative cut, decides whether letters 1 and 2 are confusable.
        s_sys, oa, ob = (systems.classical_system(n) for n in (2, 3, 1))
        faint = np.array([[1 - 2.5e-13, 0.0], [0.0, 1.0], [2.5e-13, 0.0]])
        sources.append(scc.Source(s_sys, oa, ob, embed_channel(
            faint, s_sys, scc.tensor_system(oa, ob).product)))
        for src in sources:
            for tol in (linalg.TOL_PROJ, 1e-4):
                got = scc._source_graph(src, tol).relation.blocks
                ref = loop_source_graph_blocks(src, tol)
                assert list(got) == list(ref)
                for key, blk in ref.items():
                    assert got[key].tobytes() == blk.tobytes(), (src.oa_system.dims, tol, key)

    def test_rejects_simple(self):
        sys = systems.system((2,))
        with pytest.raises(SourceInvalid):
            scc.source_from_graph(graphs.complement(complete_graph(sys)))


class TestTheorem:
    def test_random_classical_instances(self):
        agreements = 0
        for _ in range(30):
            ns = int(rng.integers(1, 4))
            na = int(rng.integers(1, 4))
            nb = int(rng.integers(1, 3))
            if na * nb < ns:
                continue
            src, _ = classical_source(rng, ns, na, nb)
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            a_sys = systems.classical_system(m)
            b_sys = systems.classical_system(n)
            n_chan = embed_channel(rand_stochastic(rng, n, m), a_sys, b_sys)
            e_chan = embed_channel(rand_stochastic(rng, m, na), src.oa_system, a_sys)
            valid = scc.encoding_is_valid(e_chan, src, n_chan)  # asserts both sides agree
            if valid:
                d = scc.decoder_for(e_chan, src, n_chan)
                assert scc.verify_scheme(src, n_chan, e_chan, d)
            agreements += 1
        assert agreements >= 20

    def test_random_quantum_instances(self):
        count = 0
        for _ in range(10):
            src = quantum_source(rng, 2, 2, 2)
            a_sys = rand_system(rng, 1, 3)
            b_sys = rand_system(rng, 1, 3)
            n_chan = rand_channel(rng, a_sys, b_sys)
            e_chan = rand_channel(rng, src.oa_system, a_sys)
            scc.encoding_is_valid(e_chan, src, n_chan)  # assertion inside
            count += 1
        assert count == 10


class TestSourceMemos:
    """A source keeps its graph per tol and its last checked scheme, so the
    pipeline encoding_is_valid -> decoder_for -> verify_scheme computes each
    piece once."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"_source_span_vectors": 0, "is_reversible": 0, "_composite": 0}
        for name in calls:
            real = getattr(scc, name)

            def counting(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(scc, name, counting)
        return calls

    def test_pipeline_computes_each_piece_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        oa = systems.system((2,))
        src = scc.source_from_graph(rand_conf_graph(np.random.default_rng(709), oa))
        # The round-trip gate, and the source channel's reversibility gate.
        assert calls == {"_source_span_vectors": 1, "is_reversible": 1, "_composite": 0}
        ident = cpmaps.identity_channel(oa)
        assert scc.encoding_is_valid(ident, src, ident)
        d_chan = scc.decoder_for(ident, src, ident)
        assert scc.verify_scheme(src, ident, ident, d_chan)
        assert calls == {"_source_span_vectors": 1, "is_reversible": 2, "_composite": 1}
        assert scc.source_confusability_graph(src) is scc.source_confusability_graph(src)

    def test_other_encoder_or_tol_computes_again(self, monkeypatch):
        calls = self._counted(monkeypatch)
        oa = systems.system((2,))
        src = scc.source_from_graph(rand_conf_graph(np.random.default_rng(710), oa))
        assert calls == {"_source_span_vectors": 1, "is_reversible": 1, "_composite": 0}
        ident = cpmaps.identity_channel(oa)
        valid, comp = scc._checked_composite(ident, src, ident)
        other = cpmaps.from_kraus({(0, 0): [np.eye(2)]}, oa, oa)
        assert other is not ident
        assert scc._checked_composite(other, src, ident)[1] is not comp
        assert calls == {"_source_span_vectors": 1, "is_reversible": 3, "_composite": 2}
        loose = 10 * linalg.TOL_PROJ
        assert scc.encoding_is_valid(other, src, ident, loose) == valid
        assert calls == {"_source_span_vectors": 2, "is_reversible": 4, "_composite": 2}
        assert scc.source_confusability_graph(src, loose) is not scc.source_confusability_graph(src)
        # The composite does not depend on tol: the new tol read it, and so
        # does verify_scheme.
        d_chan = scc.decoder_for(other, src, ident, loose)
        assert scc.verify_scheme(src, ident, other, d_chan)
        assert calls["_composite"] == 2
        assert scc.verify_scheme(src, ident, ident, d_chan)
        assert calls["_composite"] == 3
