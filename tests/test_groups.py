import numpy as np
import pytest

from covgraphs import cpmaps, groups, linalg, relations, systems
from covgraphs.classical import embed_channel
from covgraphs.errors import ActionShapeMismatch, GroupMismatch

from genutil import (
    kron_is_covariant_relation,
    kron_moved_blocks,
    kron_twirl_blocks,
    rand_channel,
    rand_cp,
    rand_stochastic,
    rand_system,
    rand_unitary,
)

rng = np.random.default_rng(202)


class TestFiniteGroup:
    def test_trivial(self):
        g = groups.trivial_group()
        assert g.order == 1 and g.inv(0) == 0

    def test_cyclic(self):
        g = groups.cyclic_group(4)
        assert g.mul(1, 3) == 0
        assert g.inv(1) == 3

    def test_symmetric(self):
        s3 = groups.symmetric_group(3)
        assert s3.order == 6
        for a in s3.elements:
            assert s3.mul(a, s3.inv(a)) == s3.identity

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


class TestActions:
    def test_trivial_act(self):
        sys = systems.system((2, 1))
        x = [np.array([[1, 2], [3, 4]], dtype=complex), np.array([[5.0]])]
        y = groups.act(sys.action, 0, x)
        assert all(np.allclose(a, b) for a, b in zip(x, y))

    def test_swap_act(self):
        s2 = groups.symmetric_group(2)
        act = groups.permutation_action(s2, (1, 1), groups.symmetric_group_perms(2))
        y = groups.act(act, 1, [np.array([[1.0]]), np.array([[2.0]])])
        assert y[0][0, 0] == 2.0 and y[1][0, 0] == 1.0

    def test_inner_act(self):
        z2 = groups.cyclic_group(2)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        act = groups.inner_action(z2, 2, [np.eye(2), u])
        x = [np.diag([1.0, 2.0]).astype(complex)]
        y = groups.act(act, 1, x)
        assert np.allclose(y[0], u @ x[0] @ u.conj().T)

    def test_permutation_actions_are_shared(self):
        s2 = groups.symmetric_group(2)
        perms = groups.symmetric_group_perms(2)
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
            groups.permutation_action(s2, (1, 2), groups.symmetric_group_perms(2))

    def test_nonunitary_rejected(self):
        z2 = groups.cyclic_group(2)
        with pytest.raises(ActionShapeMismatch):
            groups.inner_action(z2, 2, [np.eye(2), np.diag([1.0, 2.0])])

    def test_projective_phases_allowed(self):
        # Pauli X, Z generate a projective Z2 x Z2 action on B(C^2).
        z22 = groups.FiniteGroup(
            4,
            ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
            0,
        )
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        act = groups.inner_action(z22, 2, [np.eye(2), x, z, x @ z])
        assert act.group.order == 4


def swap_system():
    s2 = groups.symmetric_group(2)
    act = groups.permutation_action(s2, (1, 1), groups.symmetric_group_perms(2))
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
        act = groups.inner_action(z2, 2, [np.eye(2), np.diag([1.0, -1.0])])
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
        actn = groups.permutation_action(sn, (1,) * n, groups.symmetric_group_perms(n))
        cn = systems.classical_system(n, actn)
        triv = systems.classical_system(1, groups.trivial_action(sn, (1,)))
        unif = embed_channel(np.full((n, 1), 1.0 / n), triv, cn)
        assert cpmaps.is_channel(unif)
        assert groups.is_covariant_cp(unif)

    def test_nonuniform_column_not_covariant(self):
        n = 3
        sn = groups.symmetric_group(n)
        actn = groups.permutation_action(sn, (1,) * n, groups.symmetric_group_perms(n))
        cn = systems.classical_system(n, actn)
        triv = systems.classical_system(1, groups.trivial_action(sn, (1,)))
        skew = embed_channel(np.array([[0.5], [0.3], [0.2]]), triv, cn)
        assert not groups.is_covariant_cp(skew)

    def test_relation_orbit(self):
        sys = swap_system()
        only_11 = relations.QuantumRelation(sys, sys, {(0, 0): np.eye(1)}, validate=False)
        assert not groups.is_covariant_relation(only_11)
        diag = relations.QuantumRelation(
            sys, sys, {(0, 0): np.eye(1), (1, 1): np.eye(1)}, validate=False
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
    """(1,2,3) with a Z2 sign action; S3 permuting three 2-dim factors; and a
    map (1,2) -> (2,1), whose (1,2) and (2,1) pairs both have 2x2 blocks."""
    m123 = _z2_sign_system((1, 2, 3), ([-1.0], [1.0, -1.0], [1.0, -1.0, 1.0]))
    s3 = groups.symmetric_group(3)
    perm222 = systems.system(
        (2, 2, 2), groups.permutation_action(s3, (2, 2, 2), groups.symmetric_group_perms(3))
    )
    src12 = _z2_sign_system((1, 2), ([1.0], [1.0, -1.0]))
    tgt21 = _z2_sign_system((2, 1), ([-1.0, 1.0], [-1.0]))
    return {"m123": (m123, m123), "perm222": (perm222, perm222), "12to21": (src12, tgt21)}


TRANSPORT_CASES = _transport_cases()


def _assert_family_close(got: dict, ref: dict):
    scale = max(1.0, max(np.linalg.norm(b) for b in ref.values()))
    assert got.keys() == ref.keys()
    for key, blk in ref.items():
        assert np.linalg.norm(got[key] - blk) <= 1e-12 * scale, key


class TestStackedTransport:
    """The class-stacked transport against the per-block kron loops of genutil."""

    @pytest.mark.parametrize("src,tgt", TRANSPORT_CASES.values(), ids=TRANSPORT_CASES.keys())
    def test_act_twirl_and_relation_match_kron_loop(self, src, tgt):
        f = rand_cp(rng, src, tgt)
        for g in src.group.elements:
            _assert_family_close(
                dict(groups.act_on_cp(f, g).blocks),
                kron_moved_blocks(src.action, tgt.action, g, f.blocks),
            )
        t = groups.twirl_cp(f)
        _assert_family_close(dict(t.blocks), kron_twirl_blocks(f))
        for p in (relations.support_of(f), relations.support_of(t)):
            assert groups.is_covariant_relation(p) == kron_is_covariant_relation(p)
        assert groups.is_covariant_relation(relations.support_of(t))
        assert groups.is_covariant_cp(t) and not groups.is_covariant_cp(f)

    def test_twirl_builds_no_kron(self, monkeypatch):
        n = 16
        z2 = groups.cyclic_group(2)
        swap = groups.permutation_action(z2, (1,) * n, [range(n), [i ^ 1 for i in range(n)]])
        sys = systems.classical_system(n, swap)
        f = embed_channel(rand_stochastic(rng, n, n), sys, sys)
        calls = []
        kron = linalg.kron

        def counting_kron(a, b):
            calls.append((a.shape, b.shape))
            return kron(a, b)

        monkeypatch.setattr(linalg, "kron", counting_kron)
        t = groups.twirl_cp(f)
        assert groups.is_covariant_cp(t)
        assert not calls


def _reflection(v):
    v = v / np.linalg.norm(v)
    return np.eye(len(v)) - 2 * np.outer(v, v.conj())


class TestActionIdentity:
    def test_caller_arrays_are_copied_read_only(self):
        z2 = groups.cyclic_group(2)
        z = np.diag([1.0, -1.0]).astype(complex)
        act = groups.inner_action(z2, 2, [np.eye(2), z])
        z[1, 1] = 5.0
        held = act.unitaries[1][0]
        assert np.array_equal(held, np.diag([1.0, -1.0]))
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[1, 1] = 5.0

    def test_systems_are_hashable_dict_keys(self):
        a, b = systems.system((2, 1)), systems.system((2, 1))
        assert a is not b and a == b and hash(a) == hash(b)
        names = {a: "A", systems.system((1, 2)): "C"}
        assert names[b] == "A"
        assert systems.classical_system(2) not in names

    def test_roundoff_close_actions_are_equal_and_hash_equal(self):
        z2 = groups.cyclic_group(2)
        u = _reflection(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        close = u + 1e-13 * rand_unitary(rng, 3)
        a = groups.inner_action(z2, 3, [np.eye(3), u])
        b = groups.inner_action(z2, 3, [np.eye(3), close])
        assert a._digest != b._digest
        assert a == b and hash(a) == hash(b)
        assert systems.system((3,), a) == systems.system((3,), b)
        far = groups.inner_action(z2, 3, [np.eye(3), _reflection(np.ones(3, dtype=complex))])
        assert a != far

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
        assert a._digest != close._digest and a._digest != far._digest
        assert a == close and a != far

    def test_key_decides_inequality(self):
        s2 = groups.symmetric_group(2)
        swap = groups.permutation_action(s2, (1, 1), groups.symmetric_group_perms(2))
        fixed = groups.trivial_action(s2, (1, 1))
        assert swap != fixed and swap == groups.permutation_action(
            s2, (1, 1), groups.symmetric_group_perms(2)
        )
