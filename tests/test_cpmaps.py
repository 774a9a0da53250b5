import re

import numpy as np
import pytest

from covgraphs import cpmaps, graphs, groups, linalg, relations, systems
from covgraphs.classical import embed_channel
from covgraphs.errors import NegativeSpectrum, ShapeMismatch, SystemMismatch

from genutil import (
    adjoint_element,
    adjointness_defect,
    assert_blocks_close,
    choi_born,
    loop_block_kraus,
    multiply,
    psd_factor,
    rand_channel,
    rand_complex,
    rand_cp,
    rand_system,
    rand_unitary,
)

rng = np.random.default_rng(404)


class TestFromKraus:
    def test_identity_choi_rank_one(self):
        for d in (2, 3):
            sys = systems.system((d,))
            f = cpmaps.identity_channel(sys)
            blk = f.blocks[(0, 0)]
            w = np.linalg.eigvalsh(blk)
            assert abs(w[-1] - d) < 1e-12 and abs(w[-2]) < 1e-12
            v = linalg.vec(np.eye(d))
            assert np.linalg.norm(blk - np.outer(v, v.conj())) < 1e-12

    def test_classical_blocks_are_probabilities(self):
        p = np.array([[0.25, 0.5], [0.75, 0.5]])
        f = embed_channel(p)
        for i in range(2):
            for j in range(2):
                assert abs(f.blocks[(i, j)][0, 0] - p[j, i]) < 1e-12

    def test_zero_family(self):
        src, tgt = systems.system((2,)), systems.system((2,))
        f = cpmaps.from_kraus({(0, 0): []}, src, tgt)
        assert np.allclose(f.blocks[(0, 0)], 0)

    def test_shape_check(self):
        src, tgt = systems.system((2,)), systems.system((3,))
        with pytest.raises(ShapeMismatch):
            cpmaps.from_kraus({(0, 0): [np.eye(2)]}, src, tgt)


class TestToKraus:
    def test_identity_single_kraus(self):
        sys = systems.system((3,))
        ops = cpmaps.to_kraus(cpmaps.identity_channel(sys))[(0, 0)]
        assert len(ops) == 1
        m = ops[0]
        assert np.linalg.norm(m / m[0, 0] - np.eye(3)) < 1e-9

    def test_rank_counts(self):
        src = systems.system((2,))
        u = rand_unitary(rng, 2)
        f = cpmaps.from_kraus({(0, 0): [np.eye(2), u]}, src, src)
        ops = cpmaps.to_kraus(f)[(0, 0)]
        expected_rank = 2 if np.linalg.norm(u - np.eye(2)) > 1e-9 else 1
        assert len(ops) == expected_rank

    def test_roundtrip_action(self):
        for _ in range(15):
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            f = rand_cp(rng, src, tgt)
            g = cpmaps.from_kraus(cpmaps.to_kraus(f), src, tgt)
            assert cpmaps.cp_norm_diff(f, g) < 1e-9 * max(1.0, f.norm())
            x = systems.random_element(src, rng)
            ya = cpmaps.apply(f, x)
            yb = cpmaps.apply(g, x)
            assert max(np.linalg.norm(a - b) for a, b in zip(ya, yb)) < 1e-9

    @pytest.mark.parametrize("tgt_dims,neg", [
        ((1, 1), [[-1.0]]),
        ((1, 1), [[-1e-18]]),
        ((2,), [[1.0, 0.0], [0.0, -1.0]]),
    ])
    def test_negative_block_is_named(self, tgt_dims, neg):
        """A Choi-born morphism handed over as a store, so unchecked, whose
        block (1, 0) is negative among positive ones of its class: to_kraus
        names the block and its least eigenvalue."""
        src, tgt = systems.system((1, 1)), systems.system(tgt_dims)
        blocks = dict(rand_cp(rng, src, tgt).blocks)
        blocks[(1, 0)] = np.array(neg, dtype=complex)
        f = cpmaps.CpMorphism(src, tgt, systems.block_store(src, tgt, blocks, "Choi"))
        low = np.linalg.eigvalsh(blocks[(1, 0)])[0]
        with pytest.raises(NegativeSpectrum,
                           match=re.escape(f"Choi block (1, 0): eigenvalue {low:.3e}")):
            cpmaps.to_kraus(f)

    @pytest.mark.parametrize("bad, error, text", [
        ({(1, 0): [[0.0, 1.0], [0.0, 0.0]]}, ShapeMismatch, "Choi block (1, 0) is not Hermitian"),
        ({(1, 0): -np.eye(2)}, NegativeSpectrum, "Choi block (1, 0): eigenvalue -1.000e+00"),
        ({(0, 1): -np.eye(2), (1, 1): -np.eye(4)}, NegativeSpectrum,
         "Choi block (0, 1): eigenvalue -1.000e+00"),
        ({(1, 1): -np.eye(4), (0, 1): [[0.0, 1.0], [0.0, 0.0]]}, ShapeMismatch,
         "Choi block (0, 1) is not Hermitian"),
    ])
    def test_validation_names_the_first_bad_block(self, bad, error, text):
        """CpMorphism checks every Choi block Hermitian and PSD; with bad
        blocks in two classes, the first in key order is named."""
        sys = systems.system((1, 2))
        blocks = {(i, j): np.eye(d * e) for i, d in enumerate(sys.dims)
                  for j, e in enumerate(sys.dims)}
        blocks.update({key: np.array(m, dtype=complex) for key, m in bad.items()})
        with pytest.raises(error, match=re.escape(text)):
            cpmaps.CpMorphism(sys, sys, blocks)

    @pytest.mark.parametrize("d,e", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_minimal_maps_bitwise_equal_per_block_eigh(self, d, e):
        """The maps of one stacked cut are bitwise those of one eigh per
        block, over zero, rank-deficient and full blocks."""
        n = d * e
        factors = [rand_complex(rng, n, r) for r in (0, 1, n, 2, 0, n)]
        stack = np.array([a @ a.conj().T for a in factors])
        keys = [(s, 0) for s in range(len(stack))]
        got = cpmaps._block_kraus(keys, linalg.spectral_cut(stack), d, e)
        ref = loop_block_kraus(keys, stack, d, e)
        assert list(got) == [key for key in keys if ref[key]]
        for key, maps in got.items():
            assert len(maps) == len(ref[key]), key
            assert all(m.tobytes() == r.tobytes() for m, r in zip(maps, ref[key])), key


def _band_block() -> np.ndarray:
    """|vec I><vec I| − 5e-8 w w† with w = (1, 0, 0, −1)/√2: its least
    eigenvalue, −5e-8, is within the old load-time slack (−2e-7) and
    below the cut every reader applies (−2e-9)."""
    v = linalg.vec(np.eye(2))
    w = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    return np.outer(v, v.conj()) - 5e-8 * np.outer(w, w)


BAND_TEXT = "Choi block (0, 0): eigenvalue -5.000e-08"


class TestOnePsdRule:
    def test_a_block_that_loads_can_be_read(self):
        """The constructor refuses the band block with the text every
        reader gives; handed over as a store, every read raises it, on
        every call."""
        q2 = systems.system((2,))
        with pytest.raises(NegativeSpectrum, match=re.escape(BAND_TEXT)):
            cpmaps.CpMorphism(q2, q2, {(0, 0): _band_block()})
        f = cpmaps.CpMorphism(q2, q2, systems.block_store(q2, q2, {(0, 0): _band_block()}, "Choi"))
        readers = [cpmaps.to_kraus, cpmaps.CpMorphism.kraus, relations.support_of,
                   graphs.confusability_of]
        for read in readers * 2:
            with pytest.raises(NegativeSpectrum, match=f"^{re.escape(BAND_TEXT)}$"):
                read(f)

    def test_one_cut_per_class(self, monkeypatch):
        """A dict-given Choi morphism cuts each class once, across its
        construction, its support and its held family, and runs no other
        eigen-decomposition."""
        sys = systems.system((1, 2, 3))
        blocks = dict(rand_channel(rng, sys, sys).blocks)
        calls = []
        real = linalg.spectral_cut
        monkeypatch.setattr(linalg, "spectral_cut", lambda s: calls.append(1) or real(s))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append("eigvalsh"))
        f = cpmaps.CpMorphism(sys, sys, blocks)
        relations.support_of(f)
        f.kraus()
        assert calls == [1] * len(f.blocks.layout.classes) and len(calls) == 9

    def test_an_over_count_pair_cuts_its_own_class(self, monkeypatch):
        """One 1x1 pair of (1, 2, 3) given three maps: the first kraus()
        cuts that pair's class alone, and holds its √c."""
        calls = []
        real = linalg.spectral_cut
        monkeypatch.setattr(linalg, "spectral_cut", lambda s: calls.append(1) or real(s))
        sys = systems.system((1, 2, 3))
        kraus = {(i, i): [np.eye(d, dtype=complex)] for i, d in enumerate(sys.dims)}
        kraus[(0, 0)] = [np.array([[0.6]]), np.array([[0.0]]), np.array([[0.8]])]
        held = cpmaps.from_kraus(kraus, sys, sys).kraus()
        assert len(calls) == 1
        assert len(held[(0, 0)]) == 1 and np.isclose(held[(0, 0)][0][0, 0], 1.0)
        assert [np.array_equal(held[(i, i)][0], np.eye(d)) for i, d in ((1, 2), (2, 3))] == [
            True, True]


class TestApply:
    def test_identity(self):
        sys = systems.system((2, 1))
        f = cpmaps.identity_channel(sys)
        x = systems.random_element(sys, rng)
        y = cpmaps.apply(f, x)
        assert max(np.linalg.norm(a - b) for a, b in zip(x, y)) < 1e-12

    def test_classical_action_is_matrix_product(self):
        p = np.array([[0.2, 0.9], [0.8, 0.1]])
        f = embed_channel(p)
        v = np.array([0.4, 0.6])
        y = cpmaps.apply(f, [np.array([[v[0]]]), np.array([[v[1]]])])
        assert np.allclose([blk[0, 0].real for blk in y], p @ v)

    def test_depolarizing(self):
        sys = systems.system((2,))
        kraus = [np.outer(np.eye(2)[:, a], np.eye(2)[:, b]) / np.sqrt(2)
                 for a in range(2) for b in range(2)]
        f = cpmaps.from_kraus({(0, 0): kraus}, sys, sys)
        assert cpmaps.is_channel(f)
        rho = rand_complex(rng, 2, 2)
        rho = rho @ rho.conj().T
        rho = rho / np.trace(rho)
        y = cpmaps.apply(f, [rho])
        assert np.linalg.norm(y[0] - np.eye(2) / 2) < 1e-12

    def test_representation_independent(self):
        src, tgt = systems.system((2,)), systems.system((2,))
        f = rand_cp(rng, src, tgt)
        # recombine the Kraus family by a random unitary
        ops = cpmaps.to_kraus(f)[(0, 0)]
        k = len(ops)
        u = rand_unitary(rng, k)
        mixed = [sum(u[a, b] * ops[b] for b in range(k)) for a in range(k)]
        g = cpmaps.from_kraus({(0, 0): mixed}, src, tgt)
        x = systems.random_element(src, rng)
        ya, yb = cpmaps.apply(f, x), cpmaps.apply(g, x)
        assert max(np.linalg.norm(a - b) for a, b in zip(ya, yb)) < 1e-9

    def test_two_psd_factorizations_agree(self):
        # An independent factorization of the same Choi blocks (rows of the
        # PSD factor rather than scaled eigenvectors) gives the same action.
        src, tgt = systems.system((2, 1)), systems.system((2,))
        f = rand_cp(rng, src, tgt)
        kraus = {}
        for (i, j), blk in f.blocks.items():
            d, e = src.dims[i], tgt.dims[j]
            r = psd_factor(blk)
            kraus[(i, j)] = [linalg.unvec(row.conj(), d, e).conj().T for row in r]
        g = cpmaps.from_kraus(kraus, src, tgt)
        assert cpmaps.cp_norm_diff(f, g) < 1e-9 * max(1.0, f.norm())
        x = systems.random_element(src, rng)
        ya, yb = cpmaps.apply(f, x), cpmaps.apply(g, x)
        assert max(np.linalg.norm(a - b) for a, b in zip(ya, yb)) < 1e-9

    def test_positivity(self):
        for _ in range(10):
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            f = rand_cp(rng, src, tgt)
            x = systems.random_element(src, rng)
            psd = multiply(src, adjoint_element(src, x), x)
            y = cpmaps.apply(f, psd)
            for blk in y:
                assert float(np.linalg.eigvalsh(linalg.hermitize(blk))[0]) > -1e-9


class TestCompose:
    def test_identity_unit(self):
        src = rand_system(rng, 2, 3)
        tgt = rand_system(rng, 2, 3)
        f = rand_cp(rng, src, tgt)
        assert cpmaps.cp_norm_diff(cpmaps.compose(cpmaps.identity_channel(tgt), f), f) < 1e-9
        assert cpmaps.cp_norm_diff(cpmaps.compose(f, cpmaps.identity_channel(src)), f) < 1e-9

    def test_classical_matrix_product(self):
        p = np.array([[0.2, 0.9], [0.8, 0.1]])
        q = np.array([[1.0, 0.3], [0.0, 0.7]])
        fp, fq = embed_channel(p), embed_channel(q)
        comp = cpmaps.compose(fq, fp)
        expected = embed_channel(q @ p)
        assert cpmaps.cp_norm_diff(comp, expected) < 1e-12

    def test_kraus_counts_multiply(self):
        sys = systems.system((2,))
        f = cpmaps.from_kraus({(0, 0): [rand_complex(rng, 2, 2) for _ in range(2)]}, sys, sys)
        g = cpmaps.from_kraus({(0, 0): [rand_complex(rng, 2, 2) for _ in range(2)]}, sys, sys)
        # products before minimization: 4 = 2 * 2; the composite Choi then has
        # rank at most 4, and generically exactly 4.
        kf = cpmaps.to_kraus(f)[(0, 0)]
        kg = cpmaps.to_kraus(g)[(0, 0)]
        assert len(kf) * len(kg) == 4
        comp = cpmaps.compose(g, f)
        assert len(cpmaps.to_kraus(comp)[(0, 0)]) == 4

    def test_associative(self):
        a, b, c, d = (rand_system(rng, 2, 2) for _ in range(4))
        f = rand_cp(rng, a, b)
        g = rand_cp(rng, b, c)
        h = rand_cp(rng, c, d)
        lhs = cpmaps.compose(h, cpmaps.compose(g, f))
        rhs = cpmaps.compose(cpmaps.compose(h, g), f)
        assert cpmaps.cp_norm_diff(lhs, rhs) < 1e-8 * max(1.0, lhs.norm())

    def test_channel_closure(self):
        a, b, c = (rand_system(rng, 2, 2) for _ in range(3))
        f = rand_channel(rng, a, b)
        g = rand_channel(rng, b, c)
        assert cpmaps.is_channel(cpmaps.compose(g, f))

    def test_system_mismatch(self):
        f = rand_cp(rng, systems.system((2,)), systems.system((3,)))
        g = rand_cp(rng, systems.system((2,)), systems.system((2,)))
        with pytest.raises(SystemMismatch):
            cpmaps.compose(g, f)


class TestHeldKraus:
    def test_compose_matches_choi_path(self):
        for _ in range(12):
            a, b, c = (rand_system(rng, 3, 3) for _ in range(3))
            f = rand_cp(rng, a, b, int(rng.integers(1, 4)))
            g = rand_cp(rng, b, c, int(rng.integers(1, 4)))
            assert_blocks_close(cpmaps.compose(g, f),
                                cpmaps.compose(choi_born(g), choi_born(f)))
            # a Choi-born g is conjugated by f's maps, the Kraus-born product's blocks
            assert_blocks_close(cpmaps.compose(choi_born(g), f), cpmaps.compose(g, f))

    def test_reverse_channel_composes_with_no_eigh(self, monkeypatch):
        """compose(reverse_channel(f), f) conjugates the reverse's blocks by
        f's maps: no eigh runs, none of the reverse's cuts is kept, and the
        composite is the identity channel."""
        src, tgt = systems.system((1, 2)), systems.system((3,))
        u = rand_unitary(rng, 3)
        f = cpmaps.from_kraus({(0, 0): [np.sqrt(1 / 3) * u[:, :1]],
                               (1, 0): [np.sqrt(2 / 3) * u[:, 1:]]}, src, tgt)
        g = graphs.reverse_channel(f)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape)
                            or eigh(a, *args, **kw))
        back = cpmaps.compose(g, f)
        assert calls == [] and back.kraus_stacks is None
        assert not groups.is_kept(g, cpmaps.CpMorphism.cut)
        assert cpmaps.cp_norm_diff(back, cpmaps.identity_channel(src)) < 1e-12

    def test_family_bounded_by_block_dimension(self):
        src, tgt = systems.system((1, 2)), systems.system((2,))
        f = rand_cp(rng, src, tgt, kraus_per_pair=5)
        for (i, j), ops in f.kraus().items():
            assert len(ops) <= src.dims[i] * tgt.dims[j]
        # the held family still reproduces the blocks built from all five maps
        assert_blocks_close(cpmaps.from_kraus(dict(f.kraus()), src, tgt), f)
        h = f
        for _ in range(4):
            h = cpmaps.compose(cpmaps.compose(f, cpmaps.dagger(f)), h)
            for (i, j), ops in h.kraus().items():
                assert len(ops) <= src.dims[i] * tgt.dims[j]

    def test_input_arrays_are_copied(self):
        sys = systems.system((2, 1))
        ops = {(i, j): [rand_complex(rng, e, d) for _ in range(2)]
               for i, d in enumerate(sys.dims) for j, e in enumerate(sys.dims)}
        f = cpmaps.from_kraus(ops, sys, sys)
        x = systems.random_element(sys, rng)
        applied = cpmaps.apply(f, x)
        composed = cpmaps.compose(f, f)
        for maps in ops.values():
            for m in maps:
                m[...] = 7.0
        assert all(np.array_equal(a, b) for a, b in zip(cpmaps.apply(f, x), applied))
        again = cpmaps.compose(f, f)
        assert all(np.array_equal(again.blocks[k], composed.blocks[k]) for k in f.blocks)
        held = f.kraus()[(0, 0)][0]
        with pytest.raises(ValueError):
            held[0, 0] = 1.0
        with pytest.raises(TypeError):
            f.kraus()[(0, 0)] = ()


class TestDagger:
    def test_classical_transpose(self):
        p = np.array([[0.2, 0.9], [0.8, 0.1]])
        f = embed_channel(p)
        fd = cpmaps.dagger(f)
        for i in range(2):
            for j in range(2):
                assert abs(fd.blocks[(j, i)][0, 0] - p[j, i]) < 1e-12

    def test_identity_self_adjoint(self):
        sys = systems.system((2, 1))
        f = cpmaps.identity_channel(sys)
        assert cpmaps.cp_norm_diff(cpmaps.dagger(f), f) < 1e-12

    def test_involution(self):
        src = rand_system(rng, 2, 3)
        tgt = rand_system(rng, 2, 3)
        f = rand_cp(rng, src, tgt)
        assert cpmaps.cp_norm_diff(cpmaps.dagger(cpmaps.dagger(f)), f) < 1e-12

    def test_adjointness_gate(self):
        for _ in range(10):
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            f = rand_cp(rng, src, tgt)
            assert adjointness_defect(f, rng) < 1e-8 * max(1.0, f.norm())


class TestIsChannel:
    def test_classical_stochastic(self):
        assert cpmaps.is_channel(embed_channel(np.array([[0.3, 1.0], [0.7, 0.0]])))

    def test_unitary(self):
        sys = systems.system((2,))
        u = rand_unitary(rng, 2)
        assert cpmaps.is_channel(cpmaps.from_kraus({(0, 0): [u]}, sys, sys))

    def test_doubled_identity_not_channel(self):
        sys = systems.system((2,))
        f = cpmaps.from_kraus({(0, 0): [np.eye(2), np.eye(2)]}, sys, sys)
        assert not cpmaps.is_channel(f)


class TestHomomorphisms:
    def test_diagonal_embedding(self):
        c1, c2 = systems.classical_system(1), systems.classical_system(2)
        f = cpmaps.from_kraus({(0, 0): [np.eye(1)], (0, 1): [np.eye(1)]}, c1, c2)
        assert cpmaps.is_star_homomorphism(f)
        assert cpmaps.is_star_cohomomorphism(cpmaps.dagger(f))

    def test_cohom_implies_channel(self):
        c1, c2 = systems.classical_system(1), systems.classical_system(2)
        f = cpmaps.from_kraus({(0, 0): [np.eye(1)], (0, 1): [np.eye(1)]}, c1, c2)
        fd = cpmaps.dagger(f)
        assert cpmaps.is_star_cohomomorphism(fd)
        assert cpmaps.is_channel(fd)

    def test_depolarizing_neither(self):
        sys = systems.system((2,))
        kraus = [np.outer(np.eye(2)[:, a], np.eye(2)[:, b]) / np.sqrt(2)
                 for a in range(2) for b in range(2)]
        f = cpmaps.from_kraus({(0, 0): kraus}, sys, sys)
        assert not cpmaps.is_star_homomorphism(f)
        assert not cpmaps.is_star_cohomomorphism(f)

    def test_unitary_conjugation_is_hom_and_cohom(self):
        sys = systems.system((2,))
        u = rand_unitary(rng, 2)
        f = cpmaps.from_kraus({(0, 0): [u]}, sys, sys)
        assert cpmaps.is_star_homomorphism(f)
        assert cpmaps.is_star_cohomomorphism(f)


def test_minimal_dilation_span_uniqueness():
    # Two runs of to_kraus give families spanning identical operator
    # subspaces per block (uniqueness of the minimal dilation up to unitary).
    src = rand_system(rng, 2, 3)
    tgt = rand_system(rng, 2, 3)
    f = rand_cp(rng, src, tgt)
    k1 = cpmaps.to_kraus(f)
    k2 = cpmaps.to_kraus(cpmaps.from_kraus(k1, src, tgt))
    for key in k1:
        ops1, ops2 = k1[key], k2[key]
        assert len(ops1) == len(ops2)
        if not len(ops1):
            continue
        s1 = linalg.orthonormal_span([linalg.vec(m) for m in ops1])
        s2 = linalg.orthonormal_span([linalg.vec(m) for m in ops2])
        assert np.linalg.norm(s1 - s2) < 1e-8
