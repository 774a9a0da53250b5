import numpy as np
import pytest

from covgraphs import cpmaps, groups, relations, systems
from covgraphs.errors import ActionShapeMismatch, ShapeMismatch

from genutil import (
    act,
    adjoint_element,
    element_from_coords,
    functional,
    inner,
    inner_action,
    multiply,
    phi_basis,
    rand_channel,
    symmetric_group_perms,
    system_dimension,
    zero,
)

rng = np.random.default_rng(303)


class TestSeparableStandard:
    def test_commutative_weights(self):
        sys = systems.classical_system(4)
        assert sys.weights == (1.0,) * 4
        x = [np.array([[v]]) for v in (0.1, 0.2, 0.3, 0.4)]
        assert abs(functional(sys, x) - 1.0) < 1e-12

    def test_matrix_factor_weight_solves_separability(self):
        # Oracle: m ∘ m†(x) = (d/w) x on a single factor, so separability
        # (m ∘ m† = id) pins w = d.  Solve numerically and compare.
        d = 2
        for w_try in (1.0, 2.0, 3.0):
            scale = _mmdag_scale(d, w_try)
            assert abs(scale - d / w_try) < 1e-9
        sys = systems.system((2,))
        assert sys.weights == (2.0,)

    def test_mixed_factors(self):
        sys = systems.system((2, 1))
        assert sys.weights == (2.0, 1.0)

    def test_orbit_constancy_enforced(self):
        s2 = groups.symmetric_group(2)
        act = groups.permutation_action(s2, (1, 1), symmetric_group_perms(2))
        with pytest.raises(ActionShapeMismatch):
            systems.System((1, 1), act, (1.0, 2.0))

    def test_action_shape_mismatch(self):
        act = groups.trivial_action(groups.trivial_group(), (2,))
        with pytest.raises(ActionShapeMismatch):
            systems.System((3,), act, (3.0,))


def _mmdag_scale(d, w):
    """Return c with m ∘ m† = c id for the weight-w functional on B(C^d)."""
    sys = systems.System(
        (d,),
        groups.trivial_action(groups.trivial_group(), (d,)),
        (w,),
    )
    basis = phi_basis(sys)
    x = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
    acc = zero(sys)
    for (_, _, _, a) in basis:
        for (_, _, _, b) in basis:
            c = inner(sys, multiply(sys, a, b), x)
            ab = multiply(sys, a, b)
            acc = [t + c * s for t, s in zip(acc, ab)]
    ratios = acc[0] / x[0]
    return float(np.mean(ratios).real)


class TestFunctional:
    def test_probability_vector(self):
        sys = systems.classical_system(2)
        assert abs(functional(sys, [np.array([[0.3]]), np.array([[0.7]])]) - 1.0) < 1e-12

    def test_matrix_identity(self):
        sys = systems.system((2,))
        assert abs(functional(sys, sys.identity()) - 4.0) < 1e-12

    def test_zero(self):
        sys = systems.system((2, 3))
        assert functional(sys, zero(sys)) == 0

    def test_invariance(self):
        z2 = groups.cyclic_group(2)
        action = inner_action(z2, 2, [np.eye(2), np.diag([1.0, -1.0])])
        sys = systems.system((2,), action)
        for (_, _, _, u) in phi_basis(sys):
            for g in sys.group.elements:
                lhs = functional(sys, act(sys.action, g, u))
                assert abs(lhs - functional(sys, u)) < 1e-12

    def test_shape_mismatch(self):
        sys = systems.system((2,))
        with pytest.raises(ShapeMismatch):
            functional(sys, [np.eye(3)])


class TestTraceEnd:
    def test_classical_identity(self):
        sys = systems.classical_system(5)
        assert abs(functional(sys, sys.identity()) - 5.0) < 1e-12

    def test_matrix_identity(self):
        sys = systems.system((2,))
        assert abs(functional(sys, sys.identity()) - 4.0) < 1e-12

    def test_system_dimension(self):
        sys = systems.system((2, 3, 1))
        assert abs(system_dimension(sys) - (4 + 9 + 1)) < 1e-12

    def test_faithful_positive(self):
        sys = systems.system((2, 1))
        for _ in range(10):
            x = systems.random_element(sys, rng)
            psd = multiply(sys, adjoint_element(sys, x), x)
            val = functional(sys, psd)
            assert val.real > 0 and abs(val.imag) < 1e-12

    def test_tracial_per_factor(self):
        sys = systems.system((3,))
        for _ in range(10):
            x = systems.random_element(sys, rng)
            y = systems.random_element(sys, rng)
            lhs = functional(sys, multiply(sys, x, y))
            rhs = functional(sys, multiply(sys, y, x))
            assert abs(lhs - rhs) < 1e-9


class TestSsfa:
    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1), (2, 2), (3, 1)])
    def test_axioms(self, dims):
        sys = systems.system(dims)
        defects = systems.ssfa_defects(sys, rng=np.random.default_rng(1))
        for name, val in defects.items():
            assert val < 1e-8, (name, val)

    def test_covariant_axioms(self):
        z2 = groups.cyclic_group(2)
        act = inner_action(z2, 2, [np.eye(2), np.diag([1.0, -1.0])])
        sys = systems.system((2,), act)
        defects = systems.ssfa_defects(sys, rng=np.random.default_rng(2))
        assert max(defects.values()) < 1e-8

    def test_wrong_weight_breaks_separability(self):
        sys = systems.System(
            (2,),
            groups.trivial_action(groups.trivial_group(), (2,)),
            (1.0,),
        )
        defects = systems.ssfa_defects(sys, rng=np.random.default_rng(3))
        assert defects["separability"] > 0.1


def test_coords_roundtrip():
    sys = systems.system((2, 3))
    x = systems.random_element(sys, rng)
    v = systems.coords(sys, x)
    y = element_from_coords(sys, v)
    assert max(np.linalg.norm(a - b) for a, b in zip(x, y)) < 1e-12
    with pytest.raises(ShapeMismatch, match="coordinate vector has wrong length"):
        element_from_coords(systems.system((2,)), np.zeros(3))
    # φ-orthonormality of the basis
    basis = phi_basis(sys)
    for k, (_, _, _, u) in enumerate(basis[:6]):
        c = systems.coords(sys, u)
        expected = np.zeros(len(basis))
        expected[k] = 1.0
        assert np.linalg.norm(c - expected) < 1e-12


def test_twirl_preserves_channel_property_cross_check():
    # Weights constant on orbits make the twirl of a channel a channel.
    s2 = groups.symmetric_group(2)
    act = groups.permutation_action(s2, (2, 2), symmetric_group_perms(2))
    sys = systems.system((2, 2), act)
    from covgraphs import cpmaps, groups as g

    for _ in range(5):
        f = rand_channel(rng, sys, sys)
        assert cpmaps.is_channel(g.twirl_cp(f))


class TestBlockFamily:
    def test_unvalidated_blocks_are_read_only_copies(self):
        """A store is taken unchecked; the one block_store built from a dict
        holds read-only copies, and the caller's array stays as it was."""
        sys = systems.system((2,))
        for make in (cpmaps.CpMorphism, relations.QuantumRelation):
            a = np.eye(4, dtype=complex)
            store = make(sys, sys, systems.block_store(sys, sys, {(0, 0): a}, "Choi")).blocks
            blk = store[(0, 0)]
            assert not np.shares_memory(blk, a) and not blk.flags.writeable
            assert a.flags.writeable and np.array_equal(a, np.eye(4))
            a[0, 0] = 5.0
            assert blk[0, 0] == 1.0
            assert store.classes() is store.classes()

    def test_unvalidated_blocks_are_made_complex(self):
        sys = systems.system((2,))
        for make in (cpmaps.CpMorphism, relations.QuantumRelation):
            store = systems.block_store(sys, sys, {(0, 0): np.eye(4)}, "Choi")
            blk = make(sys, sys, store).blocks[(0, 0)]
            assert blk.dtype == complex and np.array_equal(blk, np.eye(4))

    def test_validated_blocks_are_copied(self):
        """A dict's blocks are checked and copied into read-only complex
        class stacks, and the caller's array stays as it was."""
        sys = systems.system((2,))
        for make in (cpmaps.CpMorphism, relations.QuantumRelation):
            a = np.eye(4, dtype=complex)
            store = make(sys, sys, {(0, 0): a}).blocks
            blk = store[(0, 0)]
            assert not np.shares_memory(blk, a) and not blk.flags.writeable
            assert a.flags.writeable and np.array_equal(a, np.eye(4))
            a[0, 0] = 5.0
            assert blk[0, 0] == 1.0
            assert store.classes() is store.classes()
            real = make(sys, sys, {(0, 0): np.eye(4)}).blocks[(0, 0)]
            assert real.dtype == complex and np.array_equal(real, np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_weights_are_refused(bad):
    dims = (1, 2)
    action = groups.trivial_action(groups.trivial_group(), dims)
    with pytest.raises(ShapeMismatch, match="one finite positive weight per factor"):
        systems.System(dims, action, (1.0, bad))
