import ast
import inspect
from itertools import product

import numpy as np
import pytest

from covgraphs import bundle, classical, cpmaps, graphs, relations, systems
from covgraphs.errors import DimensionMismatch, ShapeMismatch

from genutil import (
    choi_born,
    complete_graph,
    embed_graph,
    embed_relation,
    loop_extract_channel,
    loop_oracle_confusability,
    loop_oracle_source_graph,
    loop_oracle_stochastic_hom,
    oracle_compose,
    rand_stochastic,
)

rng = np.random.default_rng(808)


class TestEmbeddings:
    def test_identity_permutation(self):
        f = classical.embed_channel(np.eye(3))
        assert cpmaps.cp_norm_diff(f, cpmaps.identity_channel(f.source)) < 1e-12

    def test_complete_graph(self):
        adj = np.ones((3, 3), dtype=bool)
        g = embed_graph(adj)
        assert relations.relations_equal(g.relation, complete_graph(g.system).relation)

    def test_column_vector_channel(self):
        f = classical.embed_channel(np.array([[1.0], [0.0]]))
        assert cpmaps.is_channel(f)
        assert f.source.nfactors == 1 and f.target.nfactors == 2

    def test_channel_roundtrip_exhaustive_small(self):
        for _ in range(10):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = rng.random((n, m))
            p = p / p.sum(axis=0, keepdims=True)
            assert np.allclose(classical.extract_channel(classical.embed_channel(p)), p)

    @pytest.mark.parametrize("n_out,n_in", [(1, 1), (3, 5), (16, 16), (40, 24), (64, 64)])
    def test_extract_channel_matches_apply_loop(self, n_out, n_in):
        f = classical.embed_channel(rand_stochastic(rng, n_out, n_in))
        for g in (f, choi_born(f)):
            assert np.array_equal(classical.extract_channel(g), loop_extract_channel(g))

    def test_extract_channel_needs_commutative_systems(self):
        f = cpmaps.identity_channel(systems.system((1, 2)))
        with pytest.raises(ShapeMismatch, match="commutative"):
            classical.extract_channel(f)

    def test_relation_roundtrip_exhaustive(self):
        for bits in product([0, 1], repeat=6):
            r = np.array(bits, dtype=bool).reshape(2, 3)
            assert np.array_equal(
                classical.extract_relation(embed_relation(r)), r
            )

    def test_graph_roundtrip(self):
        for bits in product([0, 1], repeat=3):
            adj = np.eye(3, dtype=bool)
            pairs = [(0, 1), (0, 2), (1, 2)]
            for b, (i, j) in zip(bits, pairs):
                adj[i, j] = adj[j, i] = bool(b)
            assert np.array_equal(classical.extract_graph(embed_graph(adj)), adj)

    def test_embedded_channel_is_channel(self):
        for _ in range(10):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = rng.random((n, m))
            p = p / p.sum(axis=0, keepdims=True)
            assert cpmaps.is_channel(classical.embed_channel(p))

    def test_bad_stochastic_rejected(self):
        with pytest.raises(ShapeMismatch):
            classical.check_stochastic(np.array([[0.5, 0.2], [0.6, 0.8]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stochastic_rejected(self, bad):
        # A NaN column sum passes every comparison, and embed_channel would
        # drop the NaN entry: the channel would load and fail is_channel.
        p = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            classical.check_stochastic(p)
        with pytest.raises(DimensionMismatch):
            classical.embed_channel(p)

    @pytest.mark.parametrize("src_dims, tgt_dims", [((1, 1, 1), (1, 1)), ((1, 1), (1,) * 5),
                                                    ((2,), (1, 1))])
    def test_systems_that_do_not_fit_the_matrix_rejected(self, src_dims, tgt_dims):
        p = np.array([[0.5, 1.0], [0.5, 0.0]])
        src, tgt = systems.system(src_dims), systems.system(tgt_dims)
        with pytest.raises(ShapeMismatch, match="2 x 2 stochastic matrix needs commutative"):
            classical.embed_channel(p, src, tgt)
        data = {"systems": {"S": {"factors": list(src_dims)}, "T": {"factors": list(tgt_dims)}},
                "channels": {"f": {"from": "S", "to": "T", "stochastic": p.tolist()}}}
        with pytest.raises(ShapeMismatch, match="2 x 2 stochastic matrix needs commutative"):
            bundle.load_bundle(data)


class TestOracles:
    def test_confusability_identity(self):
        adj = classical.oracle_confusability(np.eye(3))
        assert np.array_equal(adj, np.eye(3, dtype=bool))

    def test_confusability_uniform(self):
        adj = classical.oracle_confusability(np.full((2, 3), 0.5))
        assert adj.all()

    def test_confusability_disjoint(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(classical.oracle_confusability(p), np.eye(2, dtype=bool))

    def test_hom_identity_on_k2(self):
        adj = np.ones((2, 2), dtype=bool)
        assert classical.oracle_stochastic_hom(np.eye(2), adj, adj)

    def test_reversible(self):
        assert classical.oracle_reversible(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert not classical.oracle_reversible(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_compose_is_boolean_product(self):
        for _ in range(20):
            r = rng.random((3, 2)) > 0.5
            s = rng.random((2, 4)) > 0.5
            direct = np.zeros((3, 4), dtype=bool)
            for i in range(3):
                for k in range(4):
                    direct[i, k] = any(r[i, j] and s[j, k] for j in range(2))
            assert np.array_equal(oracle_compose(r, s), direct)

    def test_source_graph_shapes(self):
        p = np.zeros((4, 2))
        p[0, 0] = 1.0
        p[3, 1] = 1.0
        adj = classical.oracle_source_graph(p, 2, 2)
        assert adj.all()  # full side information separates everything
        p2 = np.eye(2)
        adj2 = classical.oracle_source_graph(p2, 2, 1)
        assert np.array_equal(adj2, np.eye(2, dtype=bool))

    def test_reversible_by_support_on_round_off_negatives(self):
        """A -1e-13 entry passes check_stochastic and is outside the support,
        so the supports are disjoint and the channel is reversible, though
        the decoder's product with p is not exactly the identity."""
        p = np.array([[1.0, -1e-13], [0.0, 1.0 + 1e-13]])
        classical.check_stochastic(p)
        assert classical.oracle_reversible(p) is True
        assert np.array_equal(classical.oracle_confusability(p), np.eye(2, dtype=bool))
        assert graphs.is_reversible(classical.embed_channel(p))


def _supported(rng, n_out, n_in, most=None):
    """Column-stochastic n_out x n_in matrix whose column i has k_i outputs in
    its support, k_i drawn from 1..most (default n_out)."""
    p = np.zeros((n_out, n_in))
    for i in range(n_in):
        k = int(rng.integers(1, (most or n_out) + 1))
        p[rng.choice(n_out, size=k, replace=False), i] = rng.random(k) + 0.1
    return p / p.sum(axis=0, keepdims=True)


def _adjacency(rng, n):
    adj = rng.random((n, n)) < rng.random()
    return adj | adj.T | np.eye(n, dtype=bool)


def _same(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and np.array_equal(got, ref)


def test_oracles_match_the_loops_they_replaced():
    """Fixed-seed sweep of the array oracles against the loops of genutil:
    equal arrays of equal dtype and shape, and equal bool verdicts, on
    every m, n in 1..8, supports of 1..n outputs per input, random symmetric
    adjacencies with loops, sources with n_a, n_b and |S| in 1..3, and one
    64 x 64 channel."""
    rng = np.random.default_rng(4646)
    cases, seen = 0, set()
    channels = [(m, n, None) for m in range(1, 9) for n in range(1, 9) for _ in range(12)]
    for m, n, most in channels + [(64, 64, 3)]:
        p = _supported(rng, n, m, most)
        adj_a, adj_b = _adjacency(rng, m), _adjacency(rng, n)
        conf = loop_oracle_confusability(p)
        assert _same(classical.oracle_confusability(p), conf)
        hom = classical.oracle_stochastic_hom(p, adj_a, adj_b)
        assert type(hom) is bool and hom == loop_oracle_stochastic_hom(p, adj_a, adj_b)
        rev = classical.oracle_reversible(p)
        assert rev == np.array_equal(conf, np.eye(m, dtype=bool))
        seen |= {("hom", hom), ("rev", rev)}
        cases += 1
    for n_a, n_b, ns in product(range(1, 4), repeat=3):
        for _ in range(10):
            p = _supported(rng, n_a * n_b, ns)
            adj = loop_oracle_source_graph(p, n_a, n_b)
            assert _same(classical.oracle_source_graph(p, n_a, n_b), adj)
            seen.add(("source", bool(adj.all())))
            cases += 1
    assert cases >= 1000
    assert seen == {(kind, v) for kind in ("hom", "rev", "source") for v in (True, False)}


def test_oracle_bodies_hold_no_loop():
    """The four oracles are array products: no for, while or comprehension
    in their bodies, so a probe loop cannot come back unnoticed."""
    loops = []
    for name in ("oracle_confusability", "oracle_stochastic_hom", "oracle_reversible",
                 "oracle_source_graph"):
        tree = ast.parse(inspect.getsource(getattr(classical, name)))
        loops += [f"{name}:{node.lineno} {type(node).__name__}" for node in ast.walk(tree)
                  if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]
    assert not loops
