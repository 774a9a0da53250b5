"""Finite groups, algebra actions, twirling and covariance checks.

A group is a plain multiplication table.  An action on a multi-factor algebra
``⊕_i B(H_i)`` assigns to each group element a permutation of the factors and
one unitary per factor: element ``g`` sends the block ``x_i`` to
``U[g][i] x_i U[g][i]†`` placed at slot ``perms[g][i]``.  The per-element data
need only be a homomorphism up to phase; every check below goes through the
induced algebra automorphisms, which compose exactly.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class AlgebraAction:
    """Action of a finite group on the factors of a quantum set."""

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
        units = []
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
                if linalg.frob(u @ u.conj().T - np.eye(d)) > TOL_PROJ * max(1.0, d):
                    raise ActionShapeMismatch(f"unitaries[{g}][{i}] is not unitary")
                us.append(u)
            perms.append(p)
            units.append(tuple(us))
        object.__setattr__(self, "perms", tuple(perms))
        object.__setattr__(self, "unitaries", tuple(units))
        e = self.group.identity
        if self.perms[e] != tuple(range(len(dims))):
            raise ActionShapeMismatch("identity element must fix the factor slots")
        _check_homomorphism(self)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def __eq__(self, other):
        if not isinstance(other, AlgebraAction):
            return NotImplemented
        if self.group != other.group or self.dims != other.dims or self.perms != other.perms:
            return False
        return all(
            np.allclose(self.unitaries[g][i], other.unitaries[g][i], atol=TOL_ROUNDOFF)
            for g in self.group.elements
            for i in range(self.nfactors)
        )


def _check_homomorphism(action: AlgebraAction):
    """α_g ∘ α_h must equal α_{gh} as algebra automorphisms (phases drop out).

    Checked on the matrix-unit spanning set of each factor; exhaustive over
    element pairs for |G| <= 24, sampled above.
    """
    g_order = action.group.order
    if g_order <= 24:
        pairs = list(product(range(g_order), repeat=2))
    else:
        rng = np.random.default_rng(1)
        pairs = [tuple(rng.integers(0, g_order, 2)) for _ in range(800)]
    for g, h in pairs:
        gh = action.group.mul(g, h)
        for i, d in enumerate(action.dims):
            lhs_u = action.unitaries[g][action.perms[h][i]] @ action.unitaries[h][i]
            rhs_u = action.unitaries[gh][i]
            if action.perms[g][action.perms[h][i]] != action.perms[gh][i]:
                raise ActionShapeMismatch(f"perms are not a homomorphism at ({g},{h})")
            # Compare Ad(lhs_u) with Ad(rhs_u): equal iff lhs_u† rhs_u is a phase.
            x = lhs_u.conj().T @ rhs_u
            phase_defect = linalg.frob(x - (np.trace(x) / d) * np.eye(d)) + abs(
                abs(np.trace(x)) / d - 1.0
            )
            if phase_defect > TOL_PROJ * max(1.0, d):
                raise ActionShapeMismatch(
                    f"action is not a homomorphism up to phase at ({g},{h}), factor {i}"
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
    units = tuple((linalg.as_complex(u),) for u in unitaries)
    return AlgebraAction(group, (dim,), perms, units)


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


def induced_block_unitary(action_src: AlgebraAction, action_tgt: AlgebraAction,
                          g: int, i: int, j: int) -> np.ndarray:
    """Unitary induced on vec(Hom(K_j, H_i)) by α_g on source and target.

    The stored subspace for the factor pair (i, j) lies in Hom(K_j, H_i); the
    action sends an operator a to U_src[g][i] a U_tgt[g][j]†, i.e. the vec-space
    unitary kron(conj(U_tgt), U_src), and relocates the block to
    (perms_src[g][i], perms_tgt[g][j]).
    """
    return linalg.kron(action_tgt.unitaries[g][j].conj(), action_src.unitaries[g][i])


def act_on_cp(f, g: int):
    """Transport a CP morphism along group element g: α_{B,g} ∘ f ∘ α_{A,g}⁻¹."""
    from .cpmaps import CpMorphism

    a_act = f.source.action
    b_act = f.target.action
    blocks = {}
    for (i, j), blk in f.blocks.items():
        w = induced_block_unitary(a_act, b_act, g, i, j)
        blocks[(a_act.perms[g][i], b_act.perms[g][j])] = w @ blk @ w.conj().T
    return CpMorphism(f.source, f.target, blocks, validate=False)


def twirl_cp(f):
    """Group-average a CP morphism: the projector onto covariant maps."""
    from .cpmaps import CpMorphism

    if f.source.action.group != f.target.action.group:
        raise GroupMismatch("source and target actions must share one group")
    group = f.source.action.group
    acc = {key: np.zeros_like(blk) for key, blk in f.blocks.items()}
    for g in group.elements:
        moved = act_on_cp(f, g)
        for key, blk in moved.blocks.items():
            acc[key] = acc[key] + blk
    n = group.order
    return CpMorphism(f.source, f.target, {k: v / n for k, v in acc.items()}, validate=False)


def is_covariant_cp(f, tol: float = TOL_PROJ) -> bool:
    """True iff the twirl leaves f unchanged in blockwise Frobenius norm."""
    t = twirl_cp(f)
    defect = max(
        linalg.frob(t.blocks[key] - f.blocks[key]) for key in f.blocks
    )
    return defect < tol * max(1.0, f.norm())


def is_covariant_relation(p) -> bool:
    """Projector-family invariance under the induced conjugation action."""
    a_act = p.source.action
    b_act = p.target.action
    if a_act.group != b_act.group:
        raise GroupMismatch("source and target actions must share one group")
    for g in a_act.group.elements:
        for (i, j), blk in p.blocks.items():
            w = induced_block_unitary(a_act, b_act, g, i, j)
            moved = w @ blk @ w.conj().T
            target = p.blocks[(a_act.perms[g][i], b_act.perms[g][j])]
            if linalg.frob(moved - target) > TOL_PROJ * max(1.0, linalg.frob(target)):
                return False
    return True
