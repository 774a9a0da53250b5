import numpy as np
import pytest

from covgraphs import cpmaps, graphs, groups, linalg, relations, systems
from covgraphs.classical import (
    embed_channel,
    extract_graph,
    oracle_confusability,
    oracle_reversible,
    oracle_stochastic_hom,
)
from covgraphs.errors import NotAChannel, NotConfusability, NotReversible, PsdViolation

from genutil import (
    complete_graph,
    embed_graph,
    inner_action,
    phase_fixed_unitary,
    rand_channel,
    rand_conf_graph,
    rand_nonreversible_channel,
    rand_reversible_channel,
    rand_stochastic,
    rand_system,
    rand_unitary,
    symmetric_group_perms,
    total_matrix_dim,
)

rng = np.random.default_rng(606)


class TestClassify:
    def test_discrete(self):
        g = graphs.discrete_graph(systems.system((2, 1)))
        flags = graphs.classify(g)
        assert flags["is_confusability"] and not flags["is_simple"]

    def test_complete(self):
        g = complete_graph(systems.system((2,)))
        assert graphs.classify(g)["is_confusability"]

    def test_zero_simple(self):
        sys = systems.system((2,))
        g = graphs.QuantumGraph(sys, relations.zero_relation(sys), validate=False)
        flags = graphs.classify(g)
        assert flags["is_simple"] and not flags["is_confusability"]


class TestComplement:
    def test_discrete_to_complete_simple(self):
        sys = systems.system((2,))
        comp = graphs.complement(graphs.discrete_graph(sys))
        flags = graphs.classify(comp)
        assert flags["is_simple"] and not flags["is_confusability"]

    def test_complete_to_zero(self):
        sys = systems.system((2, 1))
        comp = graphs.complement(complete_graph(sys))
        assert all(np.allclose(b, 0) for b in comp.relation.blocks.values())

    def test_involutive(self):
        sys = rand_system(rng, 2, 3)
        g = rand_conf_graph(rng, sys)
        assert relations.relations_equal(
            graphs.complement(graphs.complement(g)).relation, g.relation
        )

    def test_flag_swap(self):
        for _ in range(5):
            sys = rand_system(rng, 2, 3)
            g = rand_conf_graph(rng, sys)
            flags = graphs.classify(g)
            cflags = graphs.classify(graphs.complement(g))
            assert flags["is_confusability"] == cflags["is_simple"]


class TestConfusabilityOf:
    def test_classical_matches_oracle(self):
        for _ in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = rand_stochastic(rng, n, m)
            g = graphs.confusability_of(embed_channel(p))
            assert np.array_equal(extract_graph(g), oracle_confusability(p))

    def test_unitary_discrete(self):
        sys = systems.system((3,))
        u = rand_unitary(rng, 3)
        f = cpmaps.from_kraus({(0, 0): [u]}, sys, sys)
        assert relations.relations_equal(
            graphs.confusability_of(f).relation, graphs.discrete_graph(sys).relation
        )

    def test_trace_out_complete(self):
        sys = systems.system((2,))
        tgt = systems.classical_system(1)
        kraus = [np.sqrt(2) * np.eye(2)[[k], :] for k in range(2)]
        f = cpmaps.from_kraus({(0, 0): kraus}, sys, tgt)
        assert cpmaps.is_channel(f)
        assert relations.relations_equal(
            graphs.confusability_of(f).relation, complete_graph(sys).relation
        )

    def test_contains_discrete_for_channels(self):
        for _ in range(10):
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            f = rand_channel(rng, src, tgt)
            g = graphs.confusability_of(f)
            assert graphs.classify(g)["is_confusability"]

    def test_postprocessing_monotone(self):
        for _ in range(10):
            a, b, c = (rand_system(rng, 2, 2) for _ in range(3))
            f = rand_channel(rng, a, b)
            g = rand_channel(rng, b, c)
            before = graphs.confusability_of(f)
            after = graphs.confusability_of(cpmaps.compose(g, f))
            assert relations.leq(before.relation, after.relation, 1e-7)


class TestRealizeChannel:
    def test_discrete_gives_reversible(self):
        sys = systems.system((2,))
        f, env = graphs.realize_channel(graphs.discrete_graph(sys))
        assert cpmaps.is_channel(f)
        assert graphs.is_reversible(f)
        assert relations.relations_equal(
            graphs.confusability_of(f).relation, graphs.discrete_graph(sys).relation
        )

    def test_complete_roundtrip(self):
        sys = systems.system((2,))
        g = complete_graph(sys)
        f, _ = graphs.realize_channel(g)
        assert relations.relation_defect(graphs.confusability_of(f).relation, g.relation) < 1e-7

    def test_random_roundtrips(self):
        for dims in [(2,), (3,), (2, 1), (2, 2)]:
            sys = systems.system(dims)
            g = rand_conf_graph(rng, sys)
            f, env = graphs.realize_channel(g)
            assert cpmaps.is_channel(f)
            assert relations.relation_defect(
                graphs.confusability_of(f).relation, g.relation
            ) < 1e-7

    def test_rejects_simple(self):
        sys = systems.system((2,))
        with pytest.raises(NotConfusability):
            graphs.realize_channel(graphs.complement(complete_graph(sys)))

    def test_feasible_explicit_tau_roundtrips(self):
        own = np.random.default_rng(5)  # leaves the module's generator as it was
        for dims in [(2,), (1, 2)]:
            sys = systems.system(dims)
            g = rand_conf_graph(own, sys)
            f, env = graphs.realize_channel(g, tau=0.25)
            assert cpmaps.is_channel(f) and env.dims == (total_matrix_dim(sys),)
            assert relations.relation_defect(
                graphs.confusability_of(f).relation, g.relation
            ) < 1e-7

    def test_tau_one_is_refused_as_infeasible(self):
        """At τ = 1 the blend is the graph alone, which is not positive
        definite: realize_channel names the parameter it refuses."""
        own = np.random.default_rng(9)  # leaves the module's generator as it was
        for dims in [(2,), (3,), (1, 2), (2, 2), (1, 1, 1)]:
            sys = systems.system(dims)
            for g in (rand_conf_graph(own, sys), complete_graph(sys)):
                with pytest.raises(PsdViolation, match=r"^blend parameter 1\.0 is infeasible$"):
                    graphs.realize_channel(g, tau=1.0)

    def test_bad_tau(self):
        sys = systems.system((2,))
        with pytest.raises(PsdViolation):
            graphs.realize_channel(graphs.discrete_graph(sys), tau=2.0)

    def test_covariant_graph_covariant_channel(self):
        z2 = groups.cyclic_group(2)
        act = inner_action(z2, 2, [np.eye(2), np.diag([1.0, -1.0])])
        sys = systems.system((2,), act)
        z = np.diag([1.0, -1.0]).astype(complex)
        blk = linalg.orthonormal_span([linalg.vec(np.eye(2)), linalg.vec(z)], dim=4)
        g = graphs.graph_from_blocks(sys, {(0, 0): blk})
        assert groups.is_covariant_relation(g.relation)
        f, env = graphs.realize_channel(g)
        assert groups.is_covariant_cp(f)
        assert relations.relation_defect(
            graphs.confusability_of(f).relation, g.relation
        ) < 1e-7


class TestHomomorphisms:
    def test_identity(self):
        sys = rand_system(rng, 2, 3)
        g = rand_conf_graph(rng, sys)
        assert graphs.is_homomorphism(cpmaps.identity_channel(sys), g, g)

    def test_classical_oracle_agreement(self):
        trials = 0
        for _ in range(60):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = rand_stochastic(rng, n, m)
            ga = oracle_confusability(rand_stochastic(rng, int(rng.integers(1, 4)), m))
            gb = oracle_confusability(rand_stochastic(rng, int(rng.integers(1, 4)), n))
            quantum = graphs.is_homomorphism(
                embed_channel(p), embed_graph(ga), embed_graph(gb)
            )
            classical = oracle_stochastic_hom(p, ga, gb)
            assert quantum == classical
            trials += 1
        assert trials == 60

    def test_two_points_to_one(self):
        c2, c1 = systems.classical_system(2), systems.classical_system(1)
        f = embed_channel(np.array([[1.0, 1.0]]), c2, c1)
        assert not graphs.is_homomorphism(
            f, graphs.discrete_graph(c2), graphs.discrete_graph(c1)
        )

    def test_simple_hom_equivalence(self):
        for _ in range(10):
            a = rand_system(rng, 2, 2)
            b = rand_system(rng, 2, 2)
            f = rand_channel(rng, a, b)
            ga = rand_conf_graph(rng, a)
            gb = rand_conf_graph(rng, b)
            conf_ans = graphs.is_homomorphism(f, ga, gb)
            simp_ans = graphs.is_simple_homomorphism(
                f, graphs.complement(ga), graphs.complement(gb)
            )
            assert conf_ans == simp_ans

    def test_simple_identity_and_zero(self):
        sys = rand_system(rng, 2, 2)
        g = graphs.complement(rand_conf_graph(rng, sys))
        ident = cpmaps.identity_channel(sys)
        assert graphs.is_simple_homomorphism(ident, g, g)
        zero = graphs.QuantumGraph(sys, relations.zero_relation(sys), validate=False)
        assert graphs.is_simple_homomorphism(ident, zero, g)


class TestReversibility:
    def test_classical_injective(self):
        f = rand_reversible_channel(rng, "classical")
        assert graphs.is_reversible(f)

    def test_classical_merging(self):
        c2 = systems.classical_system(2)
        f = embed_channel(np.array([[1.0, 1.0], [0.0, 0.0]]), c2, c2)
        assert not graphs.is_reversible(f)

    def test_isometry(self):
        f = rand_reversible_channel(rng, "isometry")
        assert graphs.is_reversible(f)

    def test_requires_channel(self):
        sys = systems.system((2,))
        f = cpmaps.from_kraus({(0, 0): [np.eye(2), np.eye(2)]}, sys, sys)
        with pytest.raises(NotAChannel):
            graphs.is_reversible(f)
        with pytest.raises(NotAChannel):
            graphs.reverse_channel(f)

    def test_classical_oracle_agreement(self):
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            p = rand_stochastic(rng, n, m)
            assert graphs.is_reversible(embed_channel(p)) == oracle_reversible(p)


class TestReverseChannel:
    def test_identity(self):
        sys = systems.system((2, 1))
        f = cpmaps.identity_channel(sys)
        g = graphs.reverse_channel(f)
        assert cpmaps.cp_norm_diff(cpmaps.compose(g, f), f) < 1e-9

    def test_classical_decoder(self):
        f = rand_reversible_channel(rng, "classical")
        g = graphs.reverse_channel(f)
        assert cpmaps.is_channel(g)
        ident = cpmaps.identity_channel(f.source)
        assert cpmaps.cp_norm_diff(cpmaps.compose(g, f), ident) < 1e-9

    def test_isometry_applies(self):
        f = rand_reversible_channel(rng, "isometry")
        g = graphs.reverse_channel(f)
        for _ in range(5):
            x = systems.random_element(f.source, rng)
            y = cpmaps.apply(g, cpmaps.apply(f, x))
            assert max(np.linalg.norm(a - b) for a, b in zip(x, y)) < 1e-9

    def test_mixed_factors(self):
        f = rand_reversible_channel(rng, "mixed")
        g = graphs.reverse_channel(f)
        assert cpmaps.is_channel(g)
        ident = cpmaps.identity_channel(f.source)
        assert cpmaps.cp_norm_diff(cpmaps.compose(g, f), ident) < 1e-9

    def test_nonreversible_raises(self):
        for _ in range(5):
            f = rand_nonreversible_channel(rng)
            assert not graphs.is_reversible(f)
            with pytest.raises(NotReversible):
                graphs.reverse_channel(f)

    def test_covariance_preserved(self):
        s2 = groups.symmetric_group(2)
        act2 = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
        act4 = groups.permutation_action(
            s2, (1, 1, 1, 1), [(0, 1, 2, 3), (1, 0, 3, 2)]
        )
        src = systems.classical_system(2, act2)
        tgt = systems.classical_system(4, act4)
        p = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.5]])
        f = embed_channel(p, src, tgt)
        assert groups.is_covariant_cp(f)
        assert graphs.is_reversible(f)
        g = graphs.reverse_channel(f)
        assert groups.is_covariant_cp(g)
        assert cpmaps.cp_norm_diff(
            cpmaps.compose(g, f), cpmaps.identity_channel(src)
        ) < 1e-9


def test_reverse_of_a_unitary_channel_composes_and_factors():
    """The routing term I - α_j of a full-rank α_j is exactly zero, so no
    reverse block holds round-off that compose and to_kraus read as a
    negative eigenvalue."""
    for seed in range(200):
        sys = systems.system((1, 2))
        f = cpmaps.from_kraus({(0, 0): [np.eye(1)], (1, 1): [phase_fixed_unitary(seed)]},
                              sys, sys)
        g = graphs.reverse_channel(f)
        assert cpmaps.cp_norm_diff(cpmaps.compose(g, f),
                                   cpmaps.identity_channel(f.source)) < 1e-7, seed
        cpmaps.to_kraus(g)
