import re

import numpy as np
import pytest

from covgraphs import cpmaps, graphs, groups, linalg, relations, systems
from covgraphs.classical import embed_channel
from covgraphs.errors import ActionShapeMismatch, GroupMismatch, ShapeMismatch

from genutil import (
    act,
    assert_blocks_close,
    assert_family_equal,
    choi_born,
    inner_action,
    inverse,
    kron_is_covariant_relation,
    kron_moved_blocks,
    kron_twirl_blocks,
    rand_channel,
    rand_cp,
    rand_stochastic,
    rand_system,
    rand_unitary,
    symmetric_group_perms,
    unitary,
    unshared_system,
)

rng = np.random.default_rng(202)


class TestFiniteGroup:
    def test_trivial(self):
        g = groups.trivial_group()
        assert g.order == 1 and inverse(g, 0) == 0

    def test_cyclic(self):
        g = groups.cyclic_group(4)
        assert g.table[1][3] == 0
        assert inverse(g, 1) == 3

    def test_symmetric(self):
        s3 = groups.symmetric_group(3)
        assert s3.order == 6
        for a in s3.elements:
            assert s3.table[a][inverse(s3, a)] == s3.identity

    def test_bad_table_rejected(self):
        with pytest.raises(GroupMismatch):
            groups.FiniteGroup(2, ((0, 0), (1, 1)), 0)

    def test_non_associative_rejected(self):
        # Latin square with identity that fails associativity (order 5 loop).
        table = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(GroupMismatch):
            groups.FiniteGroup(5, table, 0)

    def test_associativity_is_checked_in_full_above_order_24(self):
        """Z_26 with the intercalate at rows 1 and 14, columns 2 and 15
        swapped is a Latin square with identity 0 (a loop), and the first
        triple in row-major order at which it fails is (1,1,1): 1*1 = 2 and
        2*1 = 3, but 1*2 = 16."""
        table = [[(a + b) % 26 for b in range(26)] for a in range(26)]
        for row in (1, 14):
            table[row][2], table[row][15] = table[row][15], table[row][2]
        with pytest.raises(GroupMismatch, match=re.escape("associativity fails at (1,1,1)")):
            groups.FiniteGroup(26, tuple(map(tuple, table)), 0)

    @pytest.mark.parametrize("group", [
        groups.trivial_group(), groups.cyclic_group(2), groups.cyclic_group(6),
        groups.cyclic_group(16), groups.symmetric_group(3), groups.symmetric_group(4),
        groups.FiniteGroup(4, ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)), 0),
    ], ids=["C1", "C2", "C6", "C16", "S3", "S4", "Z2xZ2"])
    def test_generators_and_word_lengths(self, group):
        """S is greedy in element order: an element joins when the words in
        the earlier generators miss it; L(g) is the shortest positive word,
        found here by multiplying out every word of each length in turn."""
        table = group.table
        reached, gens = {group.identity}, []
        for g in group.elements:
            if g not in reached:
                gens.append(g)
                while True:
                    more = {table[a][s] for a in reached for s in gens} - reached
                    if not more:
                        break
                    reached |= more
        assert group.generators == tuple(gens)
        length, words, step = {group.identity: 0}, {group.identity}, 0
        while len(length) < group.order:
            step += 1
            words = {table[a][s] for a in words for s in gens}
            length.update({g: step for g in words if g not in length})
        assert group.mean_word_length == np.mean([length[g] for g in group.elements])
        assert group.max_word_length == max(length.values())

    def test_equality_and_hash_read_the_digest(self):
        c4 = groups.cyclic_group(4)
        twin = groups.FiniteGroup(4, tuple(tuple(row) for row in c4.table), 0)
        assert twin is not c4 and twin.exact_key == c4.exact_key
        assert twin == c4 and hash(twin) == hash(c4)
        z22 = groups.FiniteGroup(
            4, ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)), 0)
        assert z22 != c4 and z22.exact_key != c4.exact_key


class TestActions:
    def test_trivial_act(self):
        sys = systems.system((2, 1))
        x = [np.array([[1, 2], [3, 4]], dtype=complex), np.array([[5.0]])]
        y = act(sys.action, 0, x)
        assert all(np.allclose(a, b) for a, b in zip(x, y))

    def test_swap_act(self):
        s2 = groups.symmetric_group(2)
        action = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
        y = act(action, 1, [np.array([[1.0]]), np.array([[2.0]])])
        assert y[0][0, 0] == 2.0 and y[1][0, 0] == 1.0

    def test_act_refuses_wrong_shapes(self):
        """genutil.act names a wrong number of factors and a wrong block
        shape."""
        action = groups.permutation_action(groups.cyclic_group(2), (1, 1), ((0, 1), (1, 0)))
        with pytest.raises(ShapeMismatch, match="algebra element has wrong number of factors"):
            act(action, 1, [np.eye(1)])
        with pytest.raises(ShapeMismatch, match="factor 1 block has wrong shape"):
            act(action, 1, [np.eye(1), np.eye(2)])

    def test_inner_act(self):
        z2 = groups.cyclic_group(2)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        action = inner_action(z2, 2, [np.eye(2), u])
        x = [np.diag([1.0, 2.0]).astype(complex)]
        y = act(action, 1, x)
        assert np.allclose(y[0], u @ x[0] @ u.conj().T)

    def test_permutation_actions_are_shared(self):
        s2 = groups.symmetric_group(2)
        perms = symmetric_group_perms(2)
        act = groups.permutation_action(s2, (1, 1), perms)
        assert groups.permutation_action(groups.symmetric_group(2), [1, 1],
                                         [list(p) for p in perms]) is act
        assert groups.trivial_action(s2, (2, 1)) is groups.permutation_action(
            s2, (2, 1), [(0, 1), (0, 1)])

    def test_malformed_perms_raise_on_every_call(self):
        s2 = groups.symmetric_group(2)
        for _ in range(2):
            with pytest.raises(ActionShapeMismatch):
                groups.permutation_action(s2, (1, 1), [(0, 1), (0, 0)])

    def test_dim_mismatch_rejected(self):
        s2 = groups.symmetric_group(2)
        with pytest.raises(ActionShapeMismatch):
            groups.permutation_action(s2, (1, 2), symmetric_group_perms(2))

    def test_nonunitary_rejected(self):
        z2 = groups.cyclic_group(2)
        with pytest.raises(ActionShapeMismatch):
            inner_action(z2, 2, [np.eye(2), np.diag([1.0, 2.0])])

    def test_homomorphism_is_checked_for_every_pair_above_order_24(self):
        """C_26 acting on a qubit by diag(1, ω^g), with element 5's phase
        moved by 0.3: the first failing pair (g, h) in lexicographic order
        is (1,4), since 1*4 = 5."""
        c26 = groups.cyclic_group(26)
        phases = 2 * np.pi * np.arange(26) / 26
        phases[5] += 0.3
        units = [np.diag([1.0, np.exp(1j * t)]) for t in phases]
        with pytest.raises(ActionShapeMismatch, match=re.escape("phase at (1,4), factor 0")):
            inner_action(c26, 2, units)

    def test_perms_are_checked_before_unitaries(self):
        """A bad perm at element 1 is named before a NaN unitary at element
        0: the checks run by kind, perms first."""
        z2 = groups.cyclic_group(2)
        nan, one = np.full((1, 1), np.nan), np.eye(1)
        with pytest.raises(ActionShapeMismatch,
                           match=re.escape("perms[1] is not a permutation of the factors")):
            groups.AlgebraAction(z2, (1, 1), ((0, 1), (0, 0)), ((nan, one), (one, one)))

    def test_shared_actions_hash_no_group(self, monkeypatch):
        """A shared call keyed by a group reads its exact_key, so building and
        then hitting a permutation action runs FiniteGroup.__hash__ zero
        times."""
        group = groups.symmetric_group(3)
        calls = []

        def counted(self):
            calls.append(self)
            return hash(self.exact_key)

        monkeypatch.setattr(groups.FiniteGroup, "__hash__", counted)
        perms = symmetric_group_perms(3)
        first = groups.permutation_action(group, (2, 2, 2), perms)
        assert groups.permutation_action(group, (2, 2, 2), perms) is first
        assert calls == []

    def test_projective_phases_allowed(self):
        # Pauli X, Z generate a projective Z2 x Z2 action on B(C^2).
        z22 = groups.FiniteGroup(
            4,
            ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
            0,
        )
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        act = inner_action(z22, 2, [np.eye(2), x, z, x @ z])
        assert act.group.order == 4


def swap_system():
    s2 = groups.symmetric_group(2)
    act = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
    return systems.classical_system(2, act)


class TestTwirl:
    def test_trivial_group_fixes(self):
        src = rand_system(rng)
        tgt = rand_system(rng)
        f = rand_channel(rng, src, tgt)
        assert cpmaps.cp_norm_diff(groups.twirl_cp(f), f) < 1e-12

    def test_s2_classical_twirl(self):
        sys = swap_system()
        p = np.array([[0.7, 0.2], [0.3, 0.8]])
        f = embed_channel(p, sys, sys)
        t = groups.twirl_cp(f)
        expected = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert np.allclose(
            [[t.blocks[(i, j)][0, 0].real for i in range(2)] for j in range(2)],
            expected,
        )

    def test_covariant_fixed_point(self):
        sys = swap_system()
        unif = embed_channel(np.full((2, 2), 0.5), sys, sys)
        assert cpmaps.cp_norm_diff(groups.twirl_cp(unif), unif) < 1e-12

    def test_idempotent_and_covariant(self):
        sys = swap_system()
        for _ in range(10):
            f = rand_channel(rng, sys, sys)
            t = groups.twirl_cp(f)
            assert cpmaps.cp_norm_diff(groups.twirl_cp(t), t) < 1e-10
            assert groups.is_covariant_cp(t)
            assert cpmaps.is_channel(t)
            assert groups.is_covariant_relation(relations.support_of(t))

    def test_twirl_of_channel_is_channel_inner_action(self):
        z2 = groups.cyclic_group(2)
        act = inner_action(z2, 2, [np.eye(2), np.diag([1.0, -1.0])])
        sys = systems.system((2,), act)
        for _ in range(5):
            f = rand_channel(rng, sys, sys)
            t = groups.twirl_cp(f)
            assert cpmaps.is_channel(t)
            assert groups.is_covariant_cp(t)


class TestCovariantChecks:
    def test_uniform_channel_covariant(self):
        n = 3
        sn = groups.symmetric_group(n)
        actn = groups.permutation_action(sn, (1,) * n, symmetric_group_perms(n))
        cn = systems.classical_system(n, actn)
        triv = systems.classical_system(1, groups.trivial_action(sn, (1,)))
        unif = embed_channel(np.full((n, 1), 1.0 / n), triv, cn)
        assert cpmaps.is_channel(unif)
        assert groups.is_covariant_cp(unif)

    def test_nonuniform_column_not_covariant(self):
        n = 3
        sn = groups.symmetric_group(n)
        actn = groups.permutation_action(sn, (1,) * n, symmetric_group_perms(n))
        cn = systems.classical_system(n, actn)
        triv = systems.classical_system(1, groups.trivial_action(sn, (1,)))
        skew = embed_channel(np.array([[0.5], [0.3], [0.2]]), triv, cn)
        assert not groups.is_covariant_cp(skew)

    def test_relation_orbit(self):
        sys = swap_system()
        only_11 = relations.QuantumRelation(sys, sys, {(0, 0): np.eye(1)})
        assert not groups.is_covariant_relation(only_11)
        diag = relations.QuantumRelation(
            sys, sys, {(0, 0): np.eye(1), (1, 1): np.eye(1)}
        )
        assert groups.is_covariant_relation(diag)

    def test_support_of_covariant_cp_is_covariant(self):
        sys = swap_system()
        for _ in range(5):
            f = groups.twirl_cp(rand_channel(rng, sys, sys))
            assert groups.is_covariant_relation(relations.support_of(f))

    def test_trivial_group_always_covariant(self):
        src = rand_system(rng)
        tgt = rand_system(rng)
        f = rand_channel(rng, src, tgt)
        assert groups.is_covariant_cp(f)
        assert groups.is_covariant_relation(relations.support_of(f))


def _z2_sign_system(dims, signs):
    """Z2 acting on each factor by conjugation with a diagonal sign unitary."""
    z2 = groups.cyclic_group(2)
    units = (
        tuple(np.eye(d, dtype=complex) for d in dims),
        tuple(np.diag(s).astype(complex) for s in signs),
    )
    action = groups.AlgebraAction(z2, dims, (tuple(range(len(dims))),) * 2, units)
    return systems.system(dims, action)


def _transport_cases():
    """(1,2,3) with a Z2 sign action; S3 permuting three 2-dim factors; a
    map (1,2) -> (2,1), whose (1,2) and (2,1) pairs both have 2x2 blocks;
    C2 swapping neighbours on 8 classical points (one class of 64 1x1
    blocks); and Z2 acting on a qubit by a complex reflection, whose W is
    complex and not symmetric."""
    m123 = _z2_sign_system((1, 2, 3), ([-1.0], [1.0, -1.0], [1.0, -1.0, 1.0]))
    s3 = groups.symmetric_group(3)
    perm222 = systems.system(
        (2, 2, 2), groups.permutation_action(s3, (2, 2, 2), symmetric_group_perms(3))
    )
    src12 = _z2_sign_system((1, 2), ([1.0], [1.0, -1.0]))
    tgt21 = _z2_sign_system((2, 1), ([-1.0, 1.0], [-1.0]))
    z2 = groups.cyclic_group(2)
    swap8 = systems.classical_system(
        8, groups.permutation_action(z2, (1,) * 8, [range(8), [i ^ 1 for i in range(8)]])
    )
    flip = np.array([[0, np.exp(0.3j)], [np.exp(-0.3j), 0]])
    q2 = systems.system((2,), inner_action(z2, 2, [np.eye(2), flip]))
    return {"m123": (m123, m123), "perm222": (perm222, perm222), "12to21": (src12, tgt21),
            "swap8": (swap8, swap8), "q2": (q2, q2)}


TRANSPORT_CASES = _transport_cases()


class TestStackedTransport:
    """The class-stacked transport against the per-block kron loops of
    genutil, bitwise."""

    @pytest.mark.parametrize("src,tgt", TRANSPORT_CASES.values(), ids=TRANSPORT_CASES.keys())
    def test_act_twirl_and_relation_match_kron_loop(self, src, tgt):
        f = rand_cp(rng, src, tgt)
        for g in src.group.elements:
            assert_family_equal(
                groups.act_on_cp(f, g).blocks,
                kron_moved_blocks(src.action, tgt.action, g, f.blocks),
            )
        t = groups.twirl_cp(f)
        assert_family_equal(t.blocks, kron_twirl_blocks(f))
        for p in (relations.support_of(f), relations.support_of(t)):
            assert groups.is_covariant_relation(p) == kron_is_covariant_relation(p)
        assert groups.is_covariant_relation(relations.support_of(t))
        assert groups.is_covariant_cp(t) and not groups.is_covariant_cp(f)

    def test_twirl_builds_no_kron(self, monkeypatch):
        """A cold twirl builds its W stacks with at most one kron_stack per
        (class, element), each call covering the whole class: no kron per
        block."""
        n = 16
        z2 = groups.cyclic_group(2)
        swap = groups.permutation_action(z2, (1,) * n, [range(n), [i ^ 1 for i in range(n)]])
        sys = systems.classical_system(n, swap)
        f = embed_channel(rand_stochastic(rng, n, n), sys, sys)
        plan = groups.TransportPlan(sys.action, sys.action)
        monkeypatch.setattr(groups, "transport_plan", lambda src, tgt: plan)
        calls = []
        kron_stack = linalg.kron_stack

        def counting_kron_stack(a, b):
            calls.append((a.shape, b.shape))
            return kron_stack(a, b)

        monkeypatch.setattr(linalg, "kron_stack", counting_kron_stack)
        t = groups.twirl_cp(f)
        assert groups.is_covariant_cp(t)
        classes = f.blocks.layout.classes
        assert 0 < len(calls) <= len(classes) * z2.order
        members = {len(klass.keys) for klass in classes}
        assert all(a[0] == b[0] and a[0] in members for a, b in calls), calls


def _point_and_matrix_system(group, perm_of):
    """Three points permuted by perm_of(g) and a qutrit conjugated by the
    permutation matrix of perm_of(g): dims (1, 1, 1, 3)."""
    perms, units = [], []
    for g in group.elements:
        p = perm_of(g)
        perms.append(tuple(p) + (3,))
        units.append((np.eye(1),) * 3 + (np.eye(3)[:, list(p)],))
    return systems.system((1, 1, 1, 3), groups.AlgebraAction(group, (1, 1, 1, 3), perms, units))


def _relabelled(sys, sigma):
    """sys with group element g relabelled sigma[g]: the table read in the new
    labels, through shared_group, and each element's perms and unitaries
    carried to its new label."""
    action, group = sys.action, sys.group
    n = group.order
    old = np.argsort(sigma)  # old[a]: the element relabelled a
    table = tuple(tuple(int(sigma[group.table[old[a]][old[b]]]) for b in range(n))
                  for a in range(n))
    relabelled = groups.shared_group(n, table, int(sigma[group.identity]))
    return systems.system(sys.dims, groups.AlgebraAction(
        relabelled, sys.dims,
        tuple(action.perms[old[a]] for a in range(n)),
        tuple(tuple(unitary(action, old[a], i) for i in range(action.nfactors))
              for a in range(n)),
    ))


def _relabelling_cases():
    """C3 relabelled by g -> g⁻¹ and S3 by conjugation with a transposition,
    both automorphisms of the table."""
    c3 = groups.cyclic_group(3)
    s3 = groups.symmetric_group(3)
    perms = symmetric_group_perms(3)
    tau = perms.index((1, 0, 2))
    return {
        "C3-inverse": (_point_and_matrix_system(c3, lambda g: [(x + g) % 3 for x in range(3)]),
                       [inverse(c3, g) for g in c3.elements]),
        "S3-conjugate": (_point_and_matrix_system(s3, lambda g: perms[g]),
                         [s3.table[s3.table[tau][g]][inverse(s3, tau)] for g in s3.elements]),
    }


RELABELLING_CASES = _relabelling_cases()


class TestTransportPlan:
    """One plan of W stacks and images per action pair, read by every
    transport."""

    @pytest.mark.parametrize("src,tgt", TRANSPORT_CASES.values(), ids=TRANSPORT_CASES.keys())
    def test_warm_plan_builds_no_kron(self, src, tgt, monkeypatch):
        groups.twirl_cp(rand_cp(rng, src, tgt))
        f = rand_cp(rng, src, tgt)
        support = relations.support_of(f)
        calls = []
        kron_stack = linalg.kron_stack

        def counting_kron_stack(a, b):
            calls.append((a.shape, b.shape))
            return kron_stack(a, b)

        monkeypatch.setattr(linalg, "kron_stack", counting_kron_stack)
        groups.twirl_cp(f)
        groups.is_covariant_cp(f)
        for g in src.group.elements:
            groups.act_on_cp(f, g)
        groups.is_covariant_relation(support)
        assert calls == []

    def test_steps_are_built_when_first_read(self, monkeypatch):
        """act_on_cp along one element builds that element's step alone; the
        twirl then builds the other elements' steps."""
        c3 = groups.cyclic_group(3)
        x = np.exp(0.4j) * np.roll(np.eye(3), 1, axis=0)
        act = inner_action(c3, 3, [np.eye(3), x, x @ x])
        sys = systems.system((3,), act)
        f = rand_cp(rng, sys, sys)
        calls = []
        kron_stack = linalg.kron_stack

        def counting_kron_stack(a, b):
            calls.append((a.shape, b.shape))
            return kron_stack(a, b)

        monkeypatch.setattr(linalg, "kron_stack", counting_kron_stack)
        groups.act_on_cp(f, 1)
        groups.act_on_cp(f, 1)
        assert len(calls) == 1
        groups.twirl_cp(f)
        assert len(calls) == 3

    def test_phase_on_the_identity_is_moved_not_skipped(self):
        """An identity element acting by e^{iθ}·I moves every block by its own
        W, which is not exactly I, like every other element."""
        c3 = groups.cyclic_group(3)
        x = np.roll(np.eye(3), 1, axis=0)
        act = inner_action(c3, 3, [np.exp(0.7j) * np.eye(3), x, x @ x])
        sys = systems.system((3,), act)
        plan = groups.transport_plan(act, act)
        f = rand_cp(rng, sys, sys)
        (klass, stack), = f.blocks.classes()
        w, _ = plan.step(c3.identity, klass)
        assert not np.array_equal(w, np.eye(9)[None])
        moved = plan.transport(c3.identity, klass, stack)
        assert np.array_equal(moved, w @ stack @ w.conj().swapaxes(1, 2))
        assert_family_equal(groups.twirl_cp(f).blocks, kron_twirl_blocks(f))

    @pytest.mark.parametrize("sys,sigma", RELABELLING_CASES.values(),
                             ids=RELABELLING_CASES.keys())
    def test_relabelling_elements_by_an_automorphism(self, sys, sigma):
        """Relabelled by an automorphism, the group is the same table and the
        plan's steps are the same, at the new labels; covariance, channel and
        reversibility verdicts and support ranks are identical, and twirls
        agree within round-off (the sum runs in another order)."""
        other = _relabelled(sys, sigma)
        assert other.group is sys.group and other.action.exact_key != sys.action.exact_key
        plan = groups.transport_plan(sys.action, sys.action)
        moved = groups.transport_plan(other.action, other.action)
        for klass in systems.layout(sys.dims, sys.dims).classes:
            for g in sys.group.elements:
                for a, b in zip(plan.step(g, klass), moved.step(sigma[g], klass)):
                    assert np.array_equal(a, b), g
        chan = rand_channel(rng, sys, sys)
        for f in (chan, groups.twirl_cp(chan), cpmaps.identity_channel(sys)):
            g = cpmaps.CpMorphism.stacked(other, other, f.blocks.classes())
            assert groups.is_covariant_cp(g) == groups.is_covariant_cp(f)
            assert cpmaps.is_channel(g) == cpmaps.is_channel(f)
            assert graphs.is_reversible(g) == graphs.is_reversible(f)
            ranks = [
                [relations.support_of(h).frame(*key).shape[1] for key in h.blocks] for h in (f, g)
            ]
            assert ranks[0] == ranks[1]
            assert_blocks_close(groups.twirl_cp(g), groups.twirl_cp(f))


def _reflection(v):
    v = v / np.linalg.norm(v)
    return np.eye(len(v)) - 2 * np.outer(v, v.conj())


class TestActionIdentity:
    def test_caller_arrays_are_copied_read_only(self):
        z2 = groups.cyclic_group(2)
        z = np.diag([1.0, -1.0]).astype(complex)
        act = inner_action(z2, 2, [np.eye(2), z])
        z[1, 1] = 5.0
        held = unitary(act, 1, 0)
        assert np.array_equal(held, np.diag([1.0, -1.0]))
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[1, 1] = 5.0

    def test_a_caller_class_stack_is_copied(self):
        """A class stack the caller can still write is copied before the
        checks: writing to it afterwards changes neither the action's
        unitaries nor its exact_key."""
        arr = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)[:, None]
        act = groups.AlgebraAction(groups.cyclic_group(2), (2,), ((0,), (0,)), {2: arr})
        key = act.exact_key
        arr[1, 0] = np.diag([5.0, 7.0])
        assert np.array_equal(act.unitaries[2][1, 0], np.diag([1.0, -1.0]))
        assert act.exact_key == key
        assert act.exact_key == groups.AlgebraAction(
            groups.cyclic_group(2), (2,), ((0,), (0,)),
            {2: np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)[:, None]}).exact_key

    def test_systems_are_hashable_dict_keys(self):
        a, b = systems.system((2, 1)), unshared_system((2, 1))
        assert a is not b and a == b and hash(a) == hash(b)
        names = {a: "A", systems.system((1, 2)): "C"}
        assert names[b] == "A"
        assert systems.classical_system(2) not in names

    def test_roundoff_close_actions_are_equal_and_hash_equal(self):
        z2 = groups.cyclic_group(2)
        u = _reflection(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        close = u + 1e-13 * rand_unitary(rng, 3)
        a = inner_action(z2, 3, [np.eye(3), u])
        b = inner_action(z2, 3, [np.eye(3), close])
        assert a.exact_key != b.exact_key
        assert a == b and hash(a) == hash(b)
        assert systems.system((3,), a) == systems.system((3,), b)
        far = inner_action(z2, 3, [np.eye(3), _reflection(np.ones(3, dtype=complex))])
        assert a != far

    def test_equality_has_no_relative_slack(self):
        """== allows TOL_ROUNDOFF per entry and nothing relative: a Hadamard
        reflection conjugated by a 1e-6 rotation (1.4e-6 away) gives another
        action and another system, one conjugated by a 1e-13 rotation the
        same."""
        z2 = groups.cyclic_group(2)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)

        def rotated(theta):
            r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            return inner_action(z2, 2, [np.eye(2), r @ h @ r.T])

        a, far, near = rotated(0.0), rotated(1e-6), rotated(1e-13)
        assert np.abs(unitary(far, 1, 0) - h).max() > 1e-6
        assert a != far and systems.system((2,), a) != systems.system((2,), far)
        assert a == near and systems.system((2,), a) == systems.system((2,), near)

    def test_two_classes_compared_by_stack(self):
        """Equal keys, different digests: the second class decides."""
        z2 = groups.cyclic_group(2)
        sign = np.diag([1.0, -1.0]).astype(complex)
        first = [np.eye(1), np.eye(1)]

        def action(u):
            return groups.AlgebraAction(z2, (1, 2), ((0, 1),) * 2,
                                        tuple(zip(first, [np.eye(2), u])))

        a = action(sign)
        close, far = action(sign * np.exp(1e-14j)), action(sign * np.exp(1e-3j))
        assert a.exact_key != close.exact_key and a.exact_key != far.exact_key
        assert a == close and a != far

    def test_equality_reads_keys_and_unitaries(self):
        """Raw-built actions with equal bytes are ==, as is a round-off-close
        one; other perms are not, and a non-action compares unequal."""
        z2 = groups.cyclic_group(2)
        u = _reflection(np.array([1.0, 2.0, 0.5j]))
        a = inner_action(z2, 3, [np.eye(3), u])
        twin = inner_action(z2, 3, [np.eye(3), u.copy()])
        assert a is not twin and a.exact_key == twin.exact_key and a == twin
        close = inner_action(z2, 3, [np.eye(3), u + 1e-14 * rand_unitary(rng, 3)])
        assert a.exact_key != close.exact_key and a == close
        eye = np.eye(1)
        swap = groups.AlgebraAction(z2, (1, 1), ((0, 1), (1, 0)), ((eye, eye),) * 2)
        fixed = groups.AlgebraAction(z2, (1, 1), ((0, 1), (0, 1)), ((eye, eye),) * 2)
        assert swap != fixed
        assert (a == 3) is False and a.__eq__(3) is NotImplemented

    def test_key_decides_inequality(self):
        s2 = groups.symmetric_group(2)
        swap = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
        fixed = groups.trivial_action(s2, (1, 1))
        assert swap != fixed and swap == groups.permutation_action(
            s2, (1, 1), symmetric_group_perms(2)
        )


def _generator_systems():
    """C2 on a qubit by a complex reflection; C3 on a qutrit by the cyclic
    shift, and with the identity acting by a phase; S3 permuting three 2-dim
    factors; C16 shifting 16 classical points, and on a qubit by
    diag(1, ω^g)."""
    z2, c3, c16 = groups.cyclic_group(2), groups.cyclic_group(3), groups.cyclic_group(16)
    flip = np.array([[0, np.exp(0.3j)], [np.exp(-0.3j), 0]])
    x = np.roll(np.eye(3), 1, axis=0)
    return {
        "C2": systems.system((2,), inner_action(z2, 2, [np.eye(2), flip])),
        "C3": systems.system((3,), inner_action(c3, 3, [np.eye(3), x, x @ x])),
        "C3-phase": systems.system(
            (3,), inner_action(c3, 3, [np.exp(0.7j) * np.eye(3), x, x @ x])),
        "S3": TRANSPORT_CASES["perm222"][0],
        "C16": systems.classical_system(16, groups.permutation_action(
            c16, (1,) * 16, [[(i + g) % 16 for i in range(16)] for g in c16.elements])),
        "C16-qubit": systems.system((2,), inner_action(
            c16, 2, [np.diag([1.0, np.exp(2j * np.pi * g / 16)]) for g in c16.elements])),
    }


GENERATOR_SYSTEMS = _generator_systems()
# Where a perturbation puts the twirl distance D_T (maps) or the largest
# block defect (relations), in units of the threshold θ.  Exactly at θ the
# verdict is round-off's; θ(1 ± 1e-3) sits inside the band of every case,
# where the twirl or the full element loop decides, clear of round-off.
PLACEMENTS = (0.3, 1 - 1e-3, 1.0, 1 + 1e-3, 3.0)


def _twirl_verdict(f, tol=linalg.TOL_PROJ):
    """is_covariant_cp as the twirl comparison alone decides it."""
    return cpmaps.cp_norm_diff(groups.twirl_cp(f), f) < tol * max(1.0, f.norm())


def _map_sweep(sys, seed):
    """(placement, map): the twirl t of a rank-one map, exactly covariant
    (placement 0), and t + ε w for a random CP map w, with ε putting D_T at
    each placement of θ."""
    r = np.random.default_rng(seed)
    t = groups.twirl_cp(rand_cp(r, sys, sys, kraus_per_pair=1))
    w = rand_cp(r, sys, sys)
    unit = linalg.TOL_PROJ * max(1.0, t.norm()) / cpmaps.cp_norm_diff(groups.twirl_cp(w), w)
    return [(0.0, t)] + [(c, cpmaps.add(t, w, 1.0, c * unit)) for c in PLACEMENTS]


def _rotated(p, key, h, eps):
    """p with block key turned by exp(iεh)."""
    w, q = np.linalg.eigh(h)
    v = (q * np.exp(1j * eps * w)) @ q.conj().T
    blocks = {k: blk for k, blk in p.blocks.items() if np.any(blk)}
    blocks[key] = v @ blocks[key] @ v.conj().T
    return relations.QuantumRelation(p.source, p.target, blocks)


def _defect_ratio(p):
    """Largest block defect of p over the elements, over its bound, by the
    per-block kron loop: kron_is_covariant_relation(p) iff it is at most 1."""
    action_src, action_tgt = p.source.action, p.target.action
    return max(
        np.linalg.norm(blk - p.blocks[key])
        / (linalg.TOL_PROJ * max(1.0, np.linalg.norm(p.blocks[key])))
        for g in p.source.group.elements
        for key, blk in kron_moved_blocks(action_src, action_tgt, g, p.blocks).items())


def _relation_sweep(sys, seed):
    """(placement, relation): the support p of a twirled rank-one map,
    exactly covariant (placement 0), and p with its first block of rank
    strictly between 0 and its size turned by a random rotation, the angle
    putting the largest block defect at each placement of its bound."""
    r = np.random.default_rng(seed)
    p = relations.support_of(groups.twirl_cp(rand_cp(r, sys, sys, kraus_per_pair=1)))
    key = next(k for k, blk in p.blocks.items() if 0 < np.linalg.matrix_rank(blk) < len(blk))
    n = len(p.blocks[key])
    h = rand_unitary(r, n)
    h = h + h.conj().T
    unit = 1e-6 / _defect_ratio(_rotated(p, key, h, 1e-6))
    return [(0.0, p)] + [(c, _rotated(p, key, h, c * unit)) for c in PLACEMENTS]


def _twirl_spy(monkeypatch) -> list:
    """Record every twirl_cp call from here on."""
    calls, real = [], groups.twirl_cp
    monkeypatch.setattr(groups, "twirl_cp", lambda f: calls.append(f) or real(f))
    return calls


class TestGeneratorChecks:
    """Covariance decided on the generators gives the twirl's verdict and the
    full element loop's, on both sides of the threshold and inside the band."""

    @pytest.mark.parametrize("name", GENERATOR_SYSTEMS)
    def test_groups_and_actions_admit_the_band(self, name):
        sys = GENERATOR_SYSTEMS[name]
        assert sys.action.defect <= linalg.TOL_ROUNDOFF
        group = sys.group
        assert len(group.generators) == (2 if group.order == 6 else 1)

    @pytest.mark.parametrize("name", GENERATOR_SYSTEMS)
    def test_map_verdicts_are_the_twirls(self, name, monkeypatch):
        sys = GENERATOR_SYSTEMS[name]
        twirls = _twirl_spy(monkeypatch)
        for c, f in _map_sweep(sys, 4800):
            expected = _twirl_verdict(f)
            twirls.clear()
            assert groups.is_covariant_cp(f) == expected, c
            assert expected == (c < 1) or c == 1.0, c
            if 1 - 1e-2 < c < 1 + 1e-2:  # inside the band: the twirl decides
                assert len(twirls) == 1, c
            elif name == "C2":  # L̄ = 1/2 and D_S = 2 D_T: decided outside θ(1 ± 1e-2)
                assert twirls == [], c

    @pytest.mark.parametrize("name", [n for n in GENERATOR_SYSTEMS if n != "C16"])
    def test_relation_verdicts_are_the_element_loops(self, name):
        sys = GENERATOR_SYSTEMS[name]
        for c, p in _relation_sweep(sys, 4801):
            expected = kron_is_covariant_relation(p)
            assert groups.is_covariant_relation(p) == expected, c
            assert expected == (c <= 1) or c == 1.0, c

    @pytest.mark.parametrize("name", GENERATOR_SYSTEMS)
    def test_verdicts_do_not_depend_on_birth(self, name):
        """The same verdict on f, its Choi-born twin and the Kraus-born
        from_kraus(f.kraus()), off exactly θ, where the births' round-off
        differences could decide."""
        for c, f in _map_sweep(GENERATOR_SYSTEMS[name], 4802):
            if c == 1.0:
                continue
            verdict = groups.is_covariant_cp(f)
            assert groups.is_covariant_cp(choi_born(f)) == verdict, c
            kraus_born = cpmaps.from_kraus(f.kraus(), f.source, f.target)
            assert groups.is_covariant_cp(kraus_born) == verdict, c

    def test_a_decided_verdict_reads_only_the_generators(self, monkeypatch):
        """On C16 shifting 16 points, decided verdicts twirl nothing and
        transport along the generator alone, and a plan that is only checked
        holds one step per class; a twirl then builds the other 15."""
        sys = GENERATOR_SYSTEMS["C16"]
        group = sys.group
        r = np.random.default_rng(4803)
        t = groups.twirl_cp(rand_cp(r, sys, sys, kraus_per_pair=1))
        w = rand_cp(r, sys, sys)
        supports = (relations.support_of(t),
                    relations.QuantumRelation(sys, sys, {(0, 0): np.eye(1)}))
        plan = groups.TransportPlan(sys.action, sys.action)
        monkeypatch.setattr(groups, "transport_plan", lambda src, tgt: plan)
        moved, transport = [], groups.TransportPlan.transport
        monkeypatch.setattr(groups.TransportPlan, "transport",
                            lambda self, g, klass, stack: moved.append(g) or transport(
                                self, g, klass, stack))
        twirls = _twirl_spy(monkeypatch)
        assert groups.is_covariant_cp(t) and not groups.is_covariant_cp(w)
        assert groups.is_covariant_relation(supports[0])
        assert not groups.is_covariant_relation(supports[1])
        assert twirls == [] and set(moved) == set(group.generators) == {1}
        classes = [klass.dims for klass, _ in t.blocks.classes()]
        assert sorted(plan._steps) == [(dims, s) for dims in classes for s in group.generators]
        groups.twirl_cp(w)
        assert len(plan._steps) == group.order * len(classes)

    def test_an_action_past_round_off_runs_the_twirl(self, monkeypatch):
        """A Hadamard given to eight digits passes the unitarity check at
        TOL_PROJ, but its defect is past TOL_ROUNDOFF, so the band argument,
        which needs isometries composing to round-off, is not used."""
        z2 = groups.cyclic_group(2)
        h = np.full((2, 2), 0.70710678)
        h[1, 1] = -h[1, 1]
        sys = systems.system((2,), inner_action(z2, 2, [np.eye(2), h]))
        assert linalg.TOL_ROUNDOFF < sys.action.defect <= linalg.TOL_PROJ
        f = groups.twirl_cp(rand_cp(np.random.default_rng(4804), sys, sys))
        expected = _twirl_verdict(f)
        twirls = _twirl_spy(monkeypatch)
        assert groups.is_covariant_cp(f) == expected
        assert len(twirls) == 1
