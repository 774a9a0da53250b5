"""Finite groups, algebra actions, twirling and covariance checks.

A group is a plain multiplication table.  An action on a multi-factor algebra
``⊕_i B(H_i)`` assigns to each group element a permutation of the factors and
one unitary per factor: element ``g`` sends the block ``x_i`` to
``U[g][i] x_i U[g][i]†`` placed at slot ``perms[g][i]``.  The per-element data
need only be a homomorphism up to phase; every check below goes through the
induced algebra automorphisms, which compose exactly.

Transport is stacked.  The block store of a CP morphism or relation holds one
stack per dimension class (d_i, e_j) of factor pairs, and α_g moves a whole
class with one batched product W B W† (transport); act_on_cp, twirl_cp and
is_covariant_relation go through it.  An action holds its
unitaries as read-only stacks, one per factor dimension, which the
construction checks (unitarity, homomorphism) also read in batches.

Two actions are equal when they share group table, dims and perms (the key)
and their unitaries agree within TOL_ROUNDOFF.  Identical objects, different
keys and equal digests of the unitaries' bytes decide equality at once; only
equal keys with different bytes compare the unitaries.  The hash covers the
key alone, never the digest, because equality tolerates round-off; so actions
and the systems that carry them can key dicts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .errors import ActionShapeMismatch, GroupMismatch, ShapeMismatch
from .linalg import TOL_PROJ, TOL_ROUNDOFF


@dataclass(frozen=True)
class FiniteGroup:
    """Group given by its multiplication table: table[g][h] = g*h."""

    order: int
    table: tuple
    identity: int = 0

    def __post_init__(self):
        n = self.order
        t = np.asarray(self.table, dtype=int)
        if t.shape != (n, n):
            raise GroupMismatch("multiplication table must be order x order")
        for row in range(n):
            if sorted(t[row]) != list(range(n)) or sorted(t[:, row]) != list(range(n)):
                raise GroupMismatch("multiplication table is not a Latin square")
        e = self.identity
        if not (np.all(t[e] == np.arange(n)) and np.all(t[:, e] == np.arange(n))):
            raise GroupMismatch("identity row/column must be trivial")
        # Associativity: exhaustive for small orders, sampled above 24.
        if n <= 24:
            triples = product(range(n), repeat=3)
        else:
            rng = np.random.default_rng(0)
            triples = (tuple(rng.integers(0, n, 3)) for _ in range(5000))
        for a, b, c in triples:
            if t[t[a, b], c] != t[a, t[b, c]]:
                raise GroupMismatch(f"associativity fails at ({a},{b},{c})")
        for g in range(n):
            if not np.any(t[g] == e):
                raise GroupMismatch(f"element {g} has no inverse")
        object.__setattr__(self, "table", tuple(tuple(int(x) for x in row) for row in t))

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        row = self.table[g]
        return row.index(self.identity)

    @property
    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and self.table == other.table
            and self.identity == other.identity
        )

    def __hash__(self):
        return hash((self.order, self.identity))


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), 0)


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(n, table, 0)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements the permutations of range(n) in lexicographic order."""
    from itertools import permutations

    perms = list(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    # Composition convention: (p*q)(x) = p(q(x)).
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(len(perms), table, index[tuple(range(n))])


def symmetric_group_perms(n: int):
    from itertools import permutations

    return [tuple(p) for p in permutations(range(n))]


def dim_classes(dims):
    """Factors grouped by dimension, d -> [factors of dimension d] in
    first-factor order, and each factor's position within its group."""
    groups = {}
    for i, d in enumerate(dims):
        groups.setdefault(d, []).append(i)
    pos = np.zeros(len(dims), dtype=int)
    for idx in groups.values():
        pos[idx] = np.arange(len(idx))
    return groups, pos


@dataclass(frozen=True, eq=False)
class AlgebraAction:
    """Action of a finite group on the factors of a quantum set.

    The unitaries are held as read-only copies: one (|G|, k, d, d) stack per
    factor dimension d, of which unitaries[g][i] is a view.
    """

    group: FiniteGroup
    dims: tuple
    perms: tuple          # perms[g][i] = image slot of factor i
    unitaries: tuple      # unitaries[g][i] : d_i x d_i unitary

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        n = self.group.order
        if len(self.perms) != n or len(self.unitaries) != n:
            raise ActionShapeMismatch("need one permutation and unitary family per element")
        perms = []
        given = []
        for g in range(n):
            p = tuple(int(x) for x in self.perms[g])
            if sorted(p) != list(range(len(dims))):
                raise ActionShapeMismatch(f"perms[{g}] is not a permutation of the factors")
            us = []
            for i, d in enumerate(dims):
                if dims[p[i]] != d:
                    raise ActionShapeMismatch(f"perms[{g}] maps factor {i} to unequal dimension")
                u = linalg.as_complex(self.unitaries[g][i])
                if u.shape != (d, d):
                    raise ActionShapeMismatch(f"unitaries[{g}][{i}] has wrong shape")
                us.append(u)
            perms.append(p)
            given.append(us)
        # classes[d] = (factors of dimension d, their unitaries stacked over g);
        # slot[i] is the position of factor i within its class.
        factors, slot = dim_classes(dims)
        classes = {}
        for d, idx in factors.items():
            stack = np.array([[given[g][i] for i in idx] for g in range(n)], dtype=complex)
            flat = stack.reshape(-1, d, d)
            bad = linalg.frobs(flat @ flat.conj().swapaxes(1, 2) - np.eye(d)) > TOL_PROJ * max(1.0, d)
            if bad.any():
                g, s = divmod(int(np.argmax(bad)), len(idx))
                raise ActionShapeMismatch(f"unitaries[{g}][{idx[s]}] is not unitary")
            stack.setflags(write=False)
            classes[d] = (np.array(idx), stack)
        object.__setattr__(self, "perms", tuple(perms))
        object.__setattr__(self, "unitaries", tuple(
            tuple(classes[d][1][g, slot[i]] for i, d in enumerate(dims)) for g in range(n)
        ))
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_slot", slot)
        e = self.group.identity
        if self.perms[e] != tuple(range(len(dims))):
            raise ActionShapeMismatch("identity element must fix the factor slots")
        _check_homomorphism(self)
        # Identity: equal keys are necessary for equality, and equal bytes of
        # the unitaries sufficient; only the hash of the key is kept, because
        # equality tolerates TOL_ROUNDOFF in the unitaries.
        key = (n, self.group.table, e, dims, self.perms)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_digest", hashlib.blake2b(
            b"".join(stack.tobytes() for _, stack in classes.values())
        ).digest())

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def factor_classes(self) -> dict:
        """Factor dimension d -> (factors of dimension d, read-only (|G|, k, d, d)
        stack of their unitaries), in first-factor order."""
        return self._classes

    def unitary_stack(self, g: int, factors) -> np.ndarray:
        """(k, d, d) stack of unitaries[g][i] for the given factors, which
        share one dimension d."""
        _, stack = self._classes[self.dims[factors[0]]]
        return stack[g, self._slot[np.asarray(factors)]]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraAction):
            return NotImplemented
        if self._key != other._key:
            return False
        if self._digest == other._digest:
            return True
        return all(
            np.allclose(self.unitaries[g][i], other.unitaries[g][i], atol=TOL_ROUNDOFF)
            for g in self.group.elements
            for i in range(self.nfactors)
        )

    def __hash__(self):
        return self._hash


def _check_homomorphism(action: AlgebraAction):
    """α_g ∘ α_h must equal α_{gh} as algebra automorphisms (phases drop out).

    On each factor i, U_g[π_h(i)] U_h[i] must be U_gh[i] times a phase: one
    batched product per factor dimension and element pair; exhaustive over
    element pairs for |G| <= 24, sampled above.
    """
    g_order = action.group.order
    if g_order <= 24:
        pairs = list(product(range(g_order), repeat=2))
    else:
        rng = np.random.default_rng(1)
        pairs = [tuple(rng.integers(0, g_order, 2)) for _ in range(800)]
    perms = np.array(action.perms)
    for g, h in pairs:
        gh = action.group.mul(g, h)
        if not np.array_equal(perms[g][perms[h]], perms[gh]):
            raise ActionShapeMismatch(f"perms are not a homomorphism at ({g},{h})")
        for d, (idx, stack) in action._classes.items():
            lhs = stack[g, action._slot[perms[h][idx]]] @ stack[h]
            # Ad(lhs) = Ad(U_gh) iff lhs† U_gh is a phase.
            x = lhs.conj().swapaxes(1, 2) @ stack[gh]
            tr = np.trace(x, axis1=1, axis2=2)
            phase_defect = linalg.frobs(x - (tr / d)[:, None, None] * np.eye(d)) + np.abs(
                np.abs(tr) / d - 1.0
            )
            bad = phase_defect > TOL_PROJ * max(1.0, d)
            if bad.any():
                raise ActionShapeMismatch(
                    f"action is not a homomorphism up to phase at ({g},{h}), "
                    f"factor {idx[np.argmax(bad)]}"
                )


def trivial_action(group: FiniteGroup, dims) -> AlgebraAction:
    dims = tuple(int(d) for d in dims)
    perms = tuple(tuple(range(len(dims))) for _ in range(group.order))
    units = tuple(tuple(np.eye(d, dtype=complex) for d in dims) for _ in range(group.order))
    return AlgebraAction(group, dims, perms, units)


def permutation_action(group: FiniteGroup, dims, perms) -> AlgebraAction:
    """Action that only permutes factors (identity unitaries)."""
    dims = tuple(int(d) for d in dims)
    units = tuple(tuple(np.eye(d, dtype=complex) for d in dims) for _ in range(group.order))
    return AlgebraAction(group, dims, tuple(tuple(p) for p in perms), units)


def inner_action(group: FiniteGroup, dim: int, unitaries) -> AlgebraAction:
    """Single-factor action by conjugation with the given projective unitaries."""
    perms = tuple((0,) for _ in range(group.order))
    return AlgebraAction(group, (dim,), perms, tuple((u,) for u in unitaries))


def act(action: AlgebraAction, g: int, x) -> list:
    """Apply α_g to an algebra element (list of per-factor blocks)."""
    if len(x) != action.nfactors:
        raise ShapeMismatch("algebra element has wrong number of factors")
    out = [None] * action.nfactors
    for i, d in enumerate(action.dims):
        xi = linalg.as_complex(x[i])
        if xi.shape != (d, d):
            raise ShapeMismatch(f"factor {i} block has wrong shape")
        u = action.unitaries[g][i]
        out[action.perms[g][i]] = u @ xi @ u.conj().T
    return out


def transport(action_src: AlgebraAction, action_tgt: AlgebraAction, g: int,
              klass, stack: np.ndarray) -> np.ndarray:
    """α_g on one (d_i, e_j) class of blocks on vec(Hom(K_j, H_i)), given as
    a block-store class and its stack; returns the moved stack in the same
    key order.

    The action sends an operator a to U_src[g][i] a U_tgt[g][j]†, i.e. the
    vec-space unitary W = kron(conj(U_tgt[g][j]), U_src[g][i]), and moves the
    block (i, j) to W B W† at (perms_src[g][i], perms_tgt[g][j]), a key of the
    same class.  One batched product moves the class; W comes from
    linalg.kron_stack, so every moved block is bitwise the one a per-block
    kron loop gives.
    """
    w = linalg.kron_stack(action_tgt.unitary_stack(g, klass.cols).conj(),
                          action_src.unitary_stack(g, klass.rows))
    image = klass.slots(np.asarray(action_src.perms[g])[klass.rows],
                        np.asarray(action_tgt.perms[g])[klass.cols])
    moved = np.empty(stack.shape, dtype=complex)
    moved[image] = w @ stack @ w.conj().swapaxes(1, 2)
    return moved


def act_on_cp(f, g: int):
    """Transport a CP morphism along group element g: α_{B,g} ∘ f ∘ α_{A,g}⁻¹."""
    from .cpmaps import CpMorphism
    from .systems import BlockStore

    parts = [
        (klass, transport(f.source.action, f.target.action, g, klass, stack))
        for klass, stack in f.blocks.classes()
    ]
    return CpMorphism(f.source, f.target, BlockStore.stacked(f.source, f.target, parts),
                      validate=False)


def twirl_cp(f):
    """Group-average a CP morphism: the projector onto covariant maps."""
    from .cpmaps import CpMorphism
    from .systems import BlockStore

    if f.source.action.group != f.target.action.group:
        raise GroupMismatch("source and target actions must share one group")
    group = f.source.action.group
    parts = []
    for klass, stack in f.blocks.classes():
        acc = np.zeros(stack.shape, dtype=complex)
        for g in group.elements:
            acc += transport(f.source.action, f.target.action, g, klass, stack)
        parts.append((klass, acc / group.order))
    return CpMorphism(f.source, f.target, BlockStore.stacked(f.source, f.target, parts),
                      validate=False)


def is_covariant_cp(f, tol: float = TOL_PROJ) -> bool:
    """True iff the twirl leaves f unchanged in blockwise Frobenius norm."""
    from .cpmaps import cp_norm_diff

    return cp_norm_diff(twirl_cp(f), f) < tol * max(1.0, f.norm())


def is_covariant_relation(p) -> bool:
    """Projector-family invariance under the induced conjugation action."""
    a_act = p.source.action
    b_act = p.target.action
    if a_act.group != b_act.group:
        raise GroupMismatch("source and target actions must share one group")
    for klass, stack in p.blocks.classes():
        bound = TOL_PROJ * np.maximum(1.0, linalg.frobs(stack))
        for g in a_act.group.elements:
            if np.any(linalg.frobs(transport(a_act, b_act, g, klass, stack) - stack) > bound):
                return False
    return True
