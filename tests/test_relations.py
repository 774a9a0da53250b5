import gc
import weakref

import numpy as np
import pytest

from covgraphs import cpmaps, graphs, linalg, relations, systems
from covgraphs.classical import embed_channel, extract_relation
from covgraphs.errors import NegativeSpectrum, NoChannel, NotAChannel, SystemMismatch

from genutil import (
    choi_born,
    embed_relation,
    held,
    loop_converse_frames,
    loop_projection_frames,
    oracle_compose,
    rand_balanced_relation,
    rand_channel,
    rand_complex,
    rand_cp,
    rand_relation,
    rand_system,
    rand_unitary,
    unshared_system,
)

rng = np.random.default_rng(505)


class TestSupportOf:
    def test_classical_pattern(self):
        p = np.array([[0.5, 0.0], [0.5, 1.0]])
        rel = relations.support_of(embed_channel(p))
        assert np.array_equal(extract_relation(rel), (p.T > 0))

    def test_unitary_channel(self):
        sys = systems.system((3,))
        u = rand_unitary(rng, 3)
        f = cpmaps.from_kraus({(0, 0): [u]}, sys, sys)
        rel = relations.support_of(f)
        v = linalg.vec(u.conj().T)
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(rel.blocks[(0, 0)] - np.outer(v, v.conj())) < 1e-9

    def test_identity_is_discrete(self):
        sys = systems.system((2, 3))
        rel = relations.support_of(cpmaps.identity_channel(sys))
        assert relations.relations_equal(rel, relations.discrete(sys))

    def test_idempotent(self):
        sys = rand_system(rng, 2, 3)
        r = rand_relation(rng, sys, sys)
        again = relations.support_of(relations.relation_as_cp(r))
        assert relations.relations_equal(again, r)

    def test_all_zero_class_of_choi_born_morphism(self):
        """A class of two n = 4 Choi blocks, both zero: the support and the
        confusability graph are the zero relation, exactly."""
        src, tgt = systems.system((2, 2)), systems.system((2,))
        f = cpmaps.CpMorphism(src, tgt, {(0, 0): np.zeros((4, 4)), (1, 0): np.zeros((4, 4))})
        rel = relations.support_of(f)
        assert relations.relation_defect(rel, relations.zero_relation(src, tgt)) == 0.0
        conf = graphs.confusability_of(f).relation
        assert relations.relation_defect(conf, relations.zero_relation(src)) == 0.0

    def test_skewed_choi_block_is_cut_by_its_hermitian_part(self):
        """support_of cuts the Hermitian part of an unchecked Choi block:
        a lone 0.5j entry (skew norm 0.71) raises nothing, and the support
        is that of the Hermitian part."""
        sys = systems.system((2,))
        blk = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        blk[0, 1] = 0.5j
        store = systems.block_store(sys, sys, {(0, 0): blk}, "Choi")
        rel = relations.support_of(cpmaps.CpMorphism(sys, sys, store))
        ref = relations.support_of(cpmaps.CpMorphism(sys, sys, {(0, 0): linalg.hermitize(blk)}))
        assert rel.rank(0, 0) == 2
        assert np.array_equal(rel.blocks[(0, 0)], ref.blocks[(0, 0)])
        assert np.array_equal(rel.frame(0, 0), ref.frame(0, 0))


class TestMapBornSupport:
    """support_of of a morphism born from Kraus maps spans the held vec(M†)
    stacks by a thin SVD; it must equal the eigh support of the same Choi
    blocks."""

    def test_slots_follow_the_layout_not_the_kraus_dict(self):
        # Keys in a bundle's JSON string order ("10,0" before "2,0"), map
        # counts 0 to d e + 1 drawn per pair: absent pairs, mixed counts in
        # one class, pairs with more maps than d e, and a 1x1 class.
        src = systems.system((2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2))
        tgt = systems.system((2, 1))
        r = np.random.default_rng(11)
        lay = systems.layout(src.dims, tgt.dims)
        kraus = {}
        for key in sorted(lay.keys, key=lambda k: f"{k[0]},{k[1]}"):
            d, e = src.dims[key[0]], tgt.dims[key[1]]
            count = int(r.integers(0, d * e + 2))
            if count:
                kraus[key] = [rand_complex(r, e, d) for _ in range(count)]
        kraus[(3, 0)] = [kraus[(3, 0)][0], 2j * kraus[(3, 0)][0]]  # rank below count
        counts = {}
        for key, ops in kraus.items():
            counts.setdefault(lay.where[key][0], {})[key] = len(ops)
        assert list(kraus) != sorted(kraus) and len(kraus) < len(lay.keys)
        assert any(len(set(c.values())) > 1 for c in counts.values())
        assert any(n > lay.classes[c].n for c, cs in counts.items() for n in cs.values())
        assert lay.index[(1, 1)] in counts

        f = cpmaps.from_kraus(kraus, src, tgt)
        assert f.kraus_stacks is not None
        got, ref = relations.support_of(f), relations.support_of(choi_born(f))
        assert got.ranks() == ref.ranks()
        assert relations.relation_defect(got, ref) <= linalg.TOL_PROJ
        assert got.rank(3, 0) == 1
        for key in lay.keys:
            cols = got.frame(*key)
            assert np.allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-12), key
            assert np.allclose(cols @ cols.conj().T, got.blocks[key], atol=1e-12), key

    @pytest.mark.parametrize("side", [1 + 1e-3, 1 - 1e-3])
    def test_singular_value_cut_is_the_eigenvalue_cut(self, side):
        # V = [vec(M_t†)] has singular values 1, 1/2 and side·√TOL_SPEC: the
        # SVD of V and the eigh of V V† keep the third one on the same side.
        assert linalg.TOL_SPEC_SV ** 2 == pytest.approx(linalg.TOL_SPEC, rel=1e-15)
        r = np.random.default_rng(12)
        u = np.linalg.qr(rand_complex(r, 6, 3))[0]
        w = np.linalg.qr(rand_complex(r, 3, 3))[0]
        v = (u * [1.0, 0.5, side * linalg.TOL_SPEC_SV]) @ w.conj().T
        maps = [linalg.unvec(col, 2, 3).conj().T for col in v.T]
        f = cpmaps.from_kraus({(0, 0): maps}, systems.system((2,)), systems.system((3,)))
        rank = 3 if side > 1 else 2
        assert relations.support_of(f).ranks() == [rank]
        assert relations.support_of(choi_born(f)).ranks() == [rank]

    def test_no_eigh_for_map_born_and_no_kraus_for_choi_born(self, monkeypatch):
        sys = systems.system((1, 2, 3))
        f = rand_cp(np.random.default_rng(13), sys, sys)
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kw):
            calls.append(a.shape)
            return eigh(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        relations.support_of(f)
        assert calls == []

        def refuse(_):
            raise AssertionError("support_of read the Kraus family of a Choi-born morphism")

        monkeypatch.setattr(cpmaps, "to_kraus", refuse)
        g = choi_born(f)
        relations.support_of(g)
        assert held(g, cpmaps.CpMorphism.kraus) is None and calls


def _assert_read_only(rel):
    for key in rel.blocks:
        assert not rel.blocks[key].flags.writeable, key
        with pytest.raises(ValueError):
            rel.blocks[key][0, 0] = 0.0
    for fr in rel.frames():
        assert not fr.vecs.flags.writeable and not fr.ranks.flags.writeable
    for key in rel.blocks:
        assert not rel.frame(*key).flags.writeable, key


class TestMorphismMemos:
    """support_of and confusability_of are computed once per morphism and
    kept on it; what they return is shared, so it is read-only."""

    @pytest.mark.parametrize("born", ["kraus", "choi"])
    def test_repeated_calls_return_the_same_read_only_object(self, born, monkeypatch):
        sys = systems.system((1, 2))
        f = rand_cp(np.random.default_rng(21), sys, sys)
        if born == "choi":
            f = choi_born(f)
        assert (f.kraus_stacks is None) == (born == "choi")
        spans = []
        for name in ("span_frames", "support_projection"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name,
                                lambda *a, real=real, **k: spans.append(1) or real(*a, **k))
        rel = relations.support_of(f)
        made = len(spans)
        assert made and relations.support_of(f) is rel
        assert len(spans) == made
        _assert_read_only(rel)
        gamma = graphs.confusability_of(f)
        made = len(spans)
        assert graphs.confusability_of(f) is gamma and len(spans) == made
        assert relations.support_of(f) is rel
        _assert_read_only(gamma.relation)

    def test_a_morphism_that_is_not_psd_raises_on_every_call(self):
        sys = systems.system((2,))
        f = cpmaps.CpMorphism(sys, sys, systems.block_store(sys, sys, {(0, 0): -np.eye(4)}, "Choi"))
        for call in (relations.support_of, relations.support_of,
                     graphs.confusability_of, graphs.confusability_of):
            with pytest.raises(NegativeSpectrum):
                call(f)


def _kept_check_builders(born):
    """Builders of fresh morphisms from fixed Kraus maps on (1, 2) -> (1, 2):
    a reversible and a non-reversible channel, both scaled by 1 + 1e-10 so
    that is_channel flips between tol 1e-12 and TOL_PROJ, and a map that is
    no channel at any tol below 1."""
    sys = systems.system((1, 2))
    u = rand_unitary(np.random.default_rng(31), 2)
    maps = {
        "reversible": {(0, 0): [np.eye(1)], (1, 1): [u]},
        "non-reversible": cpmaps.to_kraus(rand_channel(np.random.default_rng(32), sys, sys)),
        "not-a-channel": {(0, 0): [np.eye(1)], (1, 1): [u, u]},
    }
    grow = np.sqrt(1 + 1e-10)

    def build(kraus):
        f = cpmaps.from_kraus({k: [grow * m for m in ms] for k, ms in kraus.items()}, sys, sys)
        return f if born == "kraus" else choi_born(f)

    return {name: (lambda kraus=kraus: build(kraus)) for name, kraus in maps.items()}


def _verdict(check, f, tol):
    try:
        return check(f, tol)
    except NotAChannel:
        return NotAChannel


class TestKeptChecks:
    """is_channel, is_reversible and norm read numbers kept on the morphism
    (its norm, marginal defects and discreteness defect), compared with each
    call's own tol: one marginal per morphism, and every verdict the one a
    fresh morphism gives."""

    TOLS = (1e-12, 1e-8, 1e-3, 1e3)

    @pytest.mark.parametrize("born", ["kraus", "choi"])
    def test_one_marginal_per_morphism_through_the_reversal(self, born, monkeypatch):
        f = _kept_check_builders(born)["reversible"]()
        assert (f.kraus_stacks is None) == (born == "choi")
        seen = []
        real = cpmaps.choi_marginal
        monkeypatch.setattr(cpmaps, "choi_marginal", lambda g: seen.append(g) or real(g))
        frob_calls = []
        real_frobs = linalg.frobs
        monkeypatch.setattr(linalg, "frobs", lambda m: frob_calls.append(1) or real_frobs(m))
        assert cpmaps.is_channel(f) and graphs.is_reversible(f)
        graphs.reverse_channel(f)
        assert cpmaps.is_channel(f) and graphs.is_reversible(f, 1e-3)
        assert sum(x is f for x in seen) == 1
        made = len(frob_calls)
        assert f.norm() == f.norm() and len(frob_calls) == made

    @pytest.mark.parametrize("born", ["kraus", "choi"])
    @pytest.mark.parametrize("name", ["reversible", "non-reversible", "not-a-channel"])
    @pytest.mark.parametrize("order", [1, -1])
    def test_verdicts_at_every_tol_equal_a_fresh_morphism(self, born, name, order):
        build = _kept_check_builders(born)[name]
        f = build()
        for tol in self.TOLS[::order]:
            for check in (graphs.is_reversible, cpmaps.is_channel):
                assert _verdict(check, f, tol) == _verdict(check, build(), tol), (check, tol)

    @pytest.mark.parametrize("born", ["kraus", "choi"])
    def test_each_verdict_flips_within_the_tols(self, born):
        builders = _kept_check_builders(born)
        chan = [cpmaps.is_channel(builders["reversible"](), tol) for tol in self.TOLS]
        assert chan == [False, True, True, True]
        rev = [_verdict(graphs.is_reversible, builders["non-reversible"](), tol)
               for tol in self.TOLS]
        assert rev == [NotAChannel, False, False, True]
        assert [_verdict(graphs.is_reversible, builders["reversible"](), tol)
                for tol in self.TOLS] == [NotAChannel, True, True, True]

    @pytest.mark.parametrize("born", ["kraus", "choi"])
    def test_a_map_that_is_no_channel_raises_on_every_call(self, born):
        f = _kept_check_builders(born)["not-a-channel"]()
        for tol in (1e-8, 1e-8, 1e-3, 1e-8):
            assert not cpmaps.is_channel(f, tol)
            with pytest.raises(NotAChannel):
                graphs.is_reversible(f, tol)
            with pytest.raises(NotAChannel):
                graphs.reverse_channel(f, tol)
        assert held(f, graphs._discreteness) is None


class TestDiscrete:
    def test_shared_per_system_and_read_only(self):
        a, b = systems.system((1, 2, 2)), unshared_system((1, 2, 2))
        assert a is not b and a == b
        d = relations.discrete(a)
        assert relations.discrete(b) is d
        assert relations.discrete(systems.system((2, 2))) is not d
        _assert_read_only(d)
        assert graphs.discrete_graph(a).relation is d

    def test_classical(self):
        sys = systems.classical_system(3)
        d = relations.discrete(sys)
        assert np.array_equal(extract_relation(d), np.eye(3, dtype=bool))

    def test_matrix_block(self):
        sys = systems.system((2,))
        d = relations.discrete(sys)
        v = linalg.vec(np.eye(2)) / np.sqrt(2)
        assert np.linalg.norm(d.blocks[(0, 0)] - np.outer(v, v.conj())) < 1e-12

    def test_unit_law(self):
        src = rand_system(rng, 2, 3)
        tgt = rand_system(rng, 2, 3)
        p = rand_relation(rng, src, tgt)
        assert relations.relations_equal(
            relations.compose(relations.discrete(tgt), p), p
        )
        assert relations.relations_equal(
            relations.compose(p, relations.discrete(src)), p
        )


class TestCompose:
    def test_classical_oracle(self):
        r = np.array([[1, 1, 0], [0, 0, 0]], dtype=bool)
        s = np.array([[1, 0], [0, 0], [0, 1]], dtype=bool)
        pr = embed_relation(r)
        ps = embed_relation(s)
        comp = relations.compose(ps, pr)
        assert np.array_equal(extract_relation(comp), oracle_compose(r, s))

    def test_pauli_span(self):
        sys = systems.system((2,))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        v = linalg.vec(x) / np.linalg.norm(linalg.vec(x))
        px = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        comp = relations.compose(px, px)
        vi = linalg.vec(np.eye(2)) / np.sqrt(2)
        assert np.linalg.norm(comp.blocks[(0, 0)] - np.outer(vi, vi.conj())) < 1e-9

    def test_associative(self):
        a, b, c, d = (rand_system(rng, 2, 2) for _ in range(4))
        p = rand_relation(rng, a, b)
        q = rand_relation(rng, b, c)
        r = rand_relation(rng, c, d)
        lhs = relations.compose(r, relations.compose(q, p))
        rhs = relations.compose(relations.compose(r, q), p)
        assert relations.relation_defect(lhs, rhs) < 1e-7

    def test_matches_support_route(self):
        # span-of-products composition agrees with support of CP composites
        for _ in range(10):
            a, b, c = (rand_system(rng, 2, 2) for _ in range(3))
            f = rand_cp(rng, a, b)
            g = rand_cp(rng, b, c)
            lhs = relations.support_of(cpmaps.compose(g, f))
            rhs = relations.compose(relations.support_of(g), relations.support_of(f))
            assert relations.relation_defect(lhs, rhs) < 1e-7

    def test_matches_projection_product_route(self):
        # ... and with the support of the product of the projections read as
        # CP morphisms, the iterated-support route the span formula avoids.
        for _ in range(10):
            a, b, c = (rand_system(rng, 2, 2) for _ in range(3))
            p = rand_relation(rng, a, b)
            q = rand_relation(rng, b, c)
            direct = relations.compose(q, p)
            via_cp = relations.support_of(
                cpmaps.compose(relations.relation_as_cp(q), relations.relation_as_cp(p))
            )
            assert relations.relation_defect(direct, via_cp) < 1e-7


class TestConverse:
    def test_classical_swap(self):
        r = np.array([[1, 0], [1, 1]], dtype=bool)
        pr = embed_relation(r)
        assert np.array_equal(extract_relation(relations.converse(pr)), r.T)

    def test_unitary_span(self):
        sys = systems.system((2,))
        u = rand_unitary(rng, 2)
        v = linalg.vec(u) / np.sqrt(2)
        p = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        vd = linalg.vec(u.conj().T) / np.sqrt(2)
        assert np.linalg.norm(
            relations.converse(p).blocks[(0, 0)] - np.outer(vd, vd.conj())
        ) < 1e-12

    def test_involution_and_contravariance(self):
        a, b, c = (rand_system(rng, 2, 2) for _ in range(3))
        p = rand_relation(rng, a, b)
        q = rand_relation(rng, b, c)
        assert relations.relations_equal(relations.converse(relations.converse(p)), p)
        lhs = relations.converse(relations.compose(q, p))
        rhs = relations.compose(relations.converse(p), relations.converse(q))
        assert relations.relation_defect(lhs, rhs) < 1e-7

    def test_unitarity_of_support(self):
        src = rand_system(rng, 2, 3)
        tgt = rand_system(rng, 2, 3)
        f = rand_cp(rng, src, tgt)
        lhs = relations.support_of(cpmaps.dagger(f))
        rhs = relations.converse(relations.support_of(f))
        assert relations.relation_defect(lhs, rhs) < 1e-7

    def test_kept_for_a_relation_with_held_frames(self):
        sys = systems.system((1, 2, 3))
        rf = relations.support_of(rand_cp(np.random.default_rng(31), sys, sys))
        c = relations.converse(rf)
        assert relations.converse(rf) is c
        # The converse's own frames are made on first read; from then on its
        # converse is kept too.
        assert relations.converse(c) is not relations.converse(c)
        ref = loop_converse_frames(
            {key: rf.frame(*key) for key in rf.blocks}, sys.dims, sys.dims)
        for key, cols in ref.items():
            assert np.array_equal(c.frame(*key), cols), key
        assert relations.converse(c) is relations.converse(c)

    def test_plain_projections_get_a_new_converse_with_their_frames(self):
        src, tgt = systems.system((2, 1, 2)), systems.system((1, 3))
        p = rand_relation(np.random.default_rng(32), src, tgt)
        first, again = relations.converse(p), relations.converse(p)
        assert first is not again
        ref = loop_converse_frames(loop_projection_frames(p), src.dims, tgt.dims)
        for c in (first, again):
            for key, cols in ref.items():
                assert np.array_equal(c.frame(*key), cols), key
            assert relations.relations_equal(relations.converse(c), p)


@pytest.mark.parametrize("born", ["kernel", "projections"])
def test_relations_and_their_converses_make_no_reference_cycles(born):
    """Relations, their kept converses and the memos of a morphism are freed
    by reference counting alone: with the cyclic collector off, nothing is
    left once the last reference goes."""
    gc.disable()
    try:
        sys = systems.system((1, 2))
        f = rand_channel(np.random.default_rng(33), sys, sys)
        rel = relations.support_of(f)
        if born == "projections":
            rel = relations.QuantumRelation(sys, sys, dict(rel.blocks.items()))
        gamma = graphs.confusability_of(f)
        assert graphs.is_homomorphism(f, gamma, graphs.discrete_graph(sys))
        conv = relations.converse(rel)
        comp = relations.compose(conv, rel)
        # A kept converse whose frames are never read, and a relation given
        # as projections whose frames are never read.
        relations.converse(comp)
        unread = relations.QuantumRelation(sys, sys, dict(gamma.relation.blocks.items()))
        refs = [weakref.ref(x) for x in (f, rel, conv, comp, gamma.relation, unread)]
        del f, rel, gamma, conv, comp, unread
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


class TestLeq:
    def test_reflexive(self):
        sys = rand_system(rng, 2, 3)
        p = rand_relation(rng, sys, sys)
        assert relations.leq(p, p)

    def test_zero_below_everything(self):
        sys = rand_system(rng, 2, 3)
        p = rand_relation(rng, sys, sys)
        assert relations.leq(relations.zero_relation(sys, sys), p)

    def test_discrete_below_complete(self):
        sys = systems.system((2, 1))
        assert relations.leq(relations.discrete(sys), relations.complete(sys))

    def test_mismatch(self):
        with pytest.raises(SystemMismatch):
            relations.leq(
                relations.discrete(systems.system((2,))),
                relations.discrete(systems.system((3,))),
            )


class TestPartialFunctionFlags:
    def test_classical_function(self):
        c3, c2 = systems.classical_system(3), systems.classical_system(2)
        rel = embed_relation(np.array([[0, 1], [0, 1], [1, 0]], dtype=bool), c3, c2)
        pf, fn, _ = relations.partial_function_flags(rel)
        assert pf and fn

    def test_classical_subfunction(self):
        c3, c2 = systems.classical_system(3), systems.classical_system(2)
        rel = embed_relation(np.array([[0, 1], [0, 1], [0, 0]], dtype=bool), c3, c2)
        pf, fn, _ = relations.partial_function_flags(rel)
        assert pf and not fn

    def test_complete_neither(self):
        c2 = systems.classical_system(2)
        pf, fn, _ = relations.partial_function_flags(relations.complete(c2))
        assert not pf and not fn

    def test_unitary_function(self):
        sys = systems.system((2,))
        u = rand_unitary(rng, 2)
        v = linalg.vec(u.conj().T) / np.sqrt(2)
        p = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        pf, fn, _ = relations.partial_function_flags(p)
        assert pf and fn

    def test_quantum_rank_one_not_partial(self):
        sys = systems.system((2,))
        v = linalg.vec(np.diag([1.0, 0.0]))
        p = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        pf, fn, _ = relations.partial_function_flags(p)
        assert not pf and not fn

    def test_zero_relation_partial_not_function(self):
        sys = systems.system((2,))
        pf, fn, _ = relations.partial_function_flags(relations.zero_relation(sys))
        assert pf and not fn

    def test_block_embedding_function(self):
        # The quantum function B(C^2 ⊕ C^2-summand) -> B(C^2) that forgets a
        # classical bit: stored ops are the two scaled embeddings.
        a, b = systems.system((4,)), systems.system((2,))
        i1 = np.zeros((4, 2), dtype=complex)
        i1[:2, :] = np.eye(2)
        i2 = np.zeros((4, 2), dtype=complex)
        i2[2:, :] = np.eye(2)
        blk = linalg.orthonormal_span([linalg.vec(i1), linalg.vec(i2)], dim=8)
        p = relations.QuantumRelation(a, b, {(0, 0): blk})
        pf, fn, _ = relations.partial_function_flags(p)
        assert pf and fn


class TestChannelFromRelation:
    def test_classical_all_inputs_related(self):
        c2 = systems.classical_system(2)
        rel = embed_relation(np.array([[1, 1], [0, 1]], dtype=bool), c2, c2)
        assert relations.channel_exists(rel)
        f = relations.channel_from_relation(rel)
        assert cpmaps.is_channel(f)
        assert relations.relations_equal(relations.support_of(f), rel)

    def test_classical_unrelated_input(self):
        c2 = systems.classical_system(2)
        rel = embed_relation(np.array([[1, 1], [0, 0]], dtype=bool), c2, c2)
        assert not relations.channel_exists(rel)
        with pytest.raises(NoChannel):
            relations.channel_from_relation(rel)

    def test_quantum_singular_marginal(self):
        sys = systems.system((2,))
        v = linalg.vec(np.diag([1.0, 0.0]))
        rel = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        assert not relations.channel_exists(rel)

    def test_balanced_quantum_relations(self):
        for _ in range(20):
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            rel = rand_balanced_relation(rng, src, tgt)
            if not relations.channel_exists(rel):
                continue
            f = relations.channel_from_relation(rel)
            assert cpmaps.is_channel(f)
            assert relations.relation_defect(relations.support_of(f), rel) < 1e-9

    def test_unbalanced_rank_one_boundary(self):
        # Rank-1 relation spanned by an invertible non-coisometric operator:
        # the marginal is invertible (the partial-trace criterion holds) yet
        # the only PSD element with that exact support has marginal aa†
        # which is not a multiple of the identity, so no exactly-supported
        # channel exists and the constructive branch reports it.
        sys = systems.system((2,))
        a = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.sqrt(3.0)
        v = linalg.vec(a)
        rel = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        assert relations.channel_exists(rel)  # the necessary criterion
        with pytest.raises(NoChannel):
            relations.channel_from_relation(rel)


def test_fullness():
    sys = rand_system(rng, 2, 3)
    p = rand_relation(rng, sys, sys)
    f = relations.relation_as_cp(p)
    assert relations.relations_equal(relations.support_of(f), p)


def test_classical_reduction_exhaustive_small():
    # compose/converse/leq agree with the boolean oracles: exhaustively on all
    # relation pairs at 2x2, exhaustively for converse at 3x3, and on random
    # pairs up to 4x4.
    from itertools import product

    c2 = systems.classical_system(2)
    rels2 = []
    for bits in product([0, 1], repeat=4):
        rels2.append(np.array(bits, dtype=bool).reshape(2, 2))
    for r in rels2:
        pr = embed_relation(r, c2, c2)
        assert np.array_equal(extract_relation(relations.converse(pr)), r.T)
        for s in rels2:
            ps = embed_relation(s, c2, c2)
            comp = relations.compose(ps, pr)
            assert np.array_equal(extract_relation(comp), oracle_compose(r, s))
            leq_classical = bool(np.all(~r | s))
            assert relations.leq(pr, ps) == leq_classical

    c3 = systems.classical_system(3)
    for bits in product([0, 1], repeat=9):
        r = np.array(bits, dtype=bool).reshape(3, 3)
        pr = embed_relation(r, c3, c3)
        assert np.array_equal(extract_relation(relations.converse(pr)), r.T)

    for _ in range(60):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        r = rng.random((m, n)) > 0.5
        s = rng.random((m, n)) > 0.4
        cm, cn = systems.classical_system(m), systems.classical_system(n)
        pr, ps = embed_relation(r, cm, cn), embed_relation(s, cm, cn)
        assert relations.leq(pr, ps) == bool(np.all(~r | s))
