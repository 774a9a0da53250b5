"""Finite groups, algebra actions, twirling and covariance checks, and the
one sharing rule and the one memo rule.

A group is a plain multiplication table, checked in full when built, at
every order: order x order, a Latin square (one sort per axis), an identity
inside the group, and associative over every triple, one row a at a time
as array operations (|G|³ table reads in all: some 0.9 s for S6, order
720, on a 2-vCPU host).  Its exact_key is the digest of order, table and
identity, which its equality and hash read.

Groups, actions, systems and the channels on them never change once built,
so shared(make) builds make's object once per exact key of its arguments
and hands every later caller that object.  The exact key of a group,
action or system is its exact_key, a 32-byte blake2b digest set once with
its owner: of order, table and identity for a group, of the key below and
the unitaries' bytes for an action, of dims, weights and the action's
exact_key for a system, so a shared key hashes in C.  It is never the
round-off equality below, so a shared object is bitwise the one its
caller would have built.  The shared objects: groups (shared_group),
permutation and trivial actions, transport plans, bundle actions given
with unitaries, systems, the conjugation action (graphs), identity
channels (cpmaps), discrete relations (relations), and tensor products
and complete simple graphs (scc).

For the same reason what a check derives from one object without a
tolerance never changes: kept(derive) stores derive(owner, *args) on the
owner once per tuple of positional arguments, and every later call returns
that same object.  A call that raises keeps nothing, and the memo dies with
its owner; no module-level store is keyed by an owner, and no module writes
another's memo; is_kept only reads one (compose reads whether a morphism
keeps a cut).  Kept are what cpmaps, relations, graphs and scc derive
from a morphism, relation or source.

An action on a multi-factor algebra
``⊕_i B(H_i)`` assigns to each group element a permutation of the factors and
one unitary per factor: element ``g`` sends the block ``x_i`` to
``U[g][i] x_i U[g][i]†`` placed at slot ``perms[g][i]``.  The per-element data
need only be a homomorphism up to phase; every check below goes through the
induced algebra automorphisms, which compose exactly.

Transport is stacked and planned once per action pair.  The block store of
a CP morphism or relation holds one stack per dimension class (d_i, e_j) of
factor pairs, and α_g moves a whole class with one batched product W B W†
(TransportPlan.transport).  W = kron(conj U_tgt[g], U_src[g]) per member
and the image slots depend only on the two actions, g and the class, so a
TransportPlan builds them for an element and class the first time they are
read and keeps them in one dict keyed by (class dims, g); plans are shared
per action pair (transport_plan), and act_on_cp, twirl_cp, is_covariant_cp
and is_covariant_relation all move blocks through one.  act_on_cp and
twirl_cp build through type(f).stacked and is_covariant_cp compares block
stores, so this module imports nothing from the modules above it.  A plan's
memory grows with the elements read: a twirl reads |G| steps per class, so
its plan then holds |G| W stacks per class (C_n permuting n classical
points: n³ entries of W and n³ image slots), while a covariance check reads
the |S| steps of the group's generators, so a plan that is only checked, as
at every bundle load, holds |S| (C_n: one, n² entries).

Covariance is decided on the generators.  A group derives from its table a
generating set S, greedy in element order, and the mean L̄ and largest
L_max over G of the length of the shortest positive word in S.  With
θ = tol·max(1, ‖f‖), D_T = ‖twirl(f) − f‖ and D_S = max_{s∈S} ‖α_s f − f‖
in the blockwise-max Frobenius norm, every α_g is an isometry, so
D_S ≤ 2·D_T and D_T ≤ L̄·D_S: is_covariant_cp returns False at
D_S ≥ 2θ + 3m and True at L̄·(D_S + m) + m < θ, m = BAND_GUARD·max(1, ‖f‖)
the round-off allowed each computed distance, and only inputs between the
two (the band), or on actions that are unitary and homomorphic only past
TOL_ROUNDOFF, are twirled and compared as before.  is_covariant_relation
returns False when a generator moves a block past its bound (an element
that fails), True when L_max·(D_S + m) + m is below the smallest bound, and
otherwise checks every element.  No verdict differs from the twirl's or
the element loop's.

An action holds its unitaries once, as the read-only mapping unitaries
from each factor dimension d to the (|G|, k, d, d) stack of its k
factors; the library's own constructions (trivial and permutation
actions, tensor products, the conjugation action) hand them over as such
stacks, and the bundle per element.  The construction checks run by kind,
each in full at every order, and the first failing kind raises: perms,
identity, unitaries (shape and finiteness), unitarity, homomorphism.  The
homomorphism test visits every element pair, one element g at a time
against all h, so its cost is |G|² Σ k d³ (some 2.5 s for S6 permuting
six qubits on a 2-vCPU host).

Two actions are equal when they share group, dims and perms (the key)
and their unitaries agree within TOL_ROUNDOFF.  Identical objects and
different keys decide equality at once; equal keys compare the unitaries,
which is rare, since the library shares one action per exact key.
The hash covers the key alone, never exact_key, because equality tolerates
round-off; so actions and the systems that carry them can key dicts.
"""

from __future__ import annotations

import hashlib
import inspect
import marshal
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import permutations
from types import MappingProxyType

import numpy as np

from . import linalg
from .errors import ActionShapeMismatch, GroupMismatch, ShapeMismatch
from .linalg import BAND_GUARD, TOL_PROJ, TOL_ROUNDOFF


_UNSET = object()


def shared(make):
    """make, shared per exact key of its arguments (see the module
    docstring): the tuple of each argument's exact_key if it has one, and
    of the argument itself otherwise.  One dict of at most 128 keys per
    shared function, least recently used first: a hit moves its key to the
    end, and a miss builds with the first caller's arguments and then drops
    the oldest key of a full dict; a call that raises shares nothing.  The
    key is read from positional arguments, so a shared function has no
    defaults, and a call that passes keywords is bound to make's signature
    first."""
    signature = inspect.signature(make)
    built = {}

    @wraps(make)
    def call(*args, **kwargs):
        if kwargs:
            args = signature.bind(*args, **kwargs).args
        key = tuple([getattr(arg, "exact_key", arg) for arg in args])
        value = built.pop(key, _UNSET)
        if value is _UNSET:
            value = make(*args)
            if len(built) >= 128:
                del built[next(iter(built))]
        built[key] = value
        return value

    return call


def kept(derive):
    """derive, kept on its owner (see the module docstring) in the dict
    owner._kept by derive and the positional arguments after the owner; like
    shared, a kept function has no defaults.  Misses outnumber hits, so no
    read raises, and object.__setattr__ sets the memo (on frozen owners too):
    going through vars(owner) would slow every attribute read of the owner."""

    @wraps(derive)
    def call(owner, *args):
        memo = getattr(owner, "_kept", None)
        if memo is None:
            memo = {}
            object.__setattr__(owner, "_kept", memo)
        value = memo.get((call, args), _UNSET)
        if value is _UNSET:
            memo[call, args] = value = derive(owner, *args)
        return value

    return call


def is_kept(owner, derive, *args) -> bool:
    """Whether owner keeps a value of the kept function derive, for the
    given arguments, or for any when none are given: read off owner's memo,
    which it leaves as it is."""
    return any(key[0] is derive and (not args or key[1] == args)
               for key in getattr(owner, "_kept", ()))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group given by its multiplication table: table[g][h] = g*h.

    Checked in full when built (see the module docstring); afterwards table
    is a tuple of int tuples and exact_key the digest of order, table and
    identity, which equality and the hash read.  generators is a generating
    set S, greedy in element order, and mean_word_length and
    max_word_length are the mean L̄ and largest L_max over G of the length
    of the shortest positive word in S for each element (0 for the
    identity), which the covariance checks read."""

    order: int
    table: tuple
    identity: int = 0

    def __post_init__(self):
        n = self.order
        try:
            square = len(self.table) == n and all(len(row) == n for row in self.table)
        except TypeError:  # a row that is no sequence
            square = False
        t = np.asarray(self.table, dtype=int) if square else None
        if t is None or t.shape != (n, n):
            raise GroupMismatch("multiplication table must be order x order")
        elements = np.arange(n)
        if not ((np.sort(t, axis=1) == elements).all()
                and (np.sort(t, axis=0) == elements[:, None]).all()):
            raise GroupMismatch("multiplication table is not a Latin square")
        e = self.identity
        if not 0 <= e < n:
            raise GroupMismatch(f"identity {e} is not an element of a group of order {n}")
        if not (np.all(t[e] == elements) and np.all(t[:, e] == elements)):
            raise GroupMismatch("identity row/column must be trivial")
        # Associativity over every triple, one row a at a time: (ab)c is
        # t[t[a]][b, c] and a(bc) is t[a][t][b, c].
        for a in range(n):
            bad = t[t[a]] != t[a][t]
            if bad.any():
                b, c = divmod(int(bad.argmax()), n)
                raise GroupMismatch(f"associativity fails at ({a},{b},{c})")
        object.__setattr__(self, "table", tuple(map(tuple, t.tolist())))
        object.__setattr__(self, "exact_key", hashlib.blake2b(
            np.array([n, e], dtype=np.int64).tobytes() + t.astype(np.int64).tobytes(),
            digest_size=32).digest())
        gens, length = _generated(t, e)
        for name, value in (("generators", gens), ("mean_word_length", float(length.mean())),
                            ("max_word_length", int(length.max()))):
            object.__setattr__(self, name, value)

    @property
    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.exact_key == other.exact_key

    def __hash__(self):
        return hash(self.exact_key)


def _generated(t: np.ndarray, e: int) -> tuple:
    """S and L for the group with table t and identity e: an element joins S
    when the positive words in S so far miss it, and L(g) is the length of
    the shortest positive word for g, breadth-first from e by right
    multiplication with S (|S| searches of |S| · |G| table reads each)."""
    n = len(t)
    gens, length = [], np.zeros(n, dtype=int)
    for g in range(n):
        if g != e and not length[g]:
            gens.append(g)
            length[:] = 0
            frontier, steps = np.array([e]), 0
            while frontier.size:
                steps += 1
                hit = np.zeros(n, dtype=bool)
                hit[t[frontier][:, gens]] = True
                hit[e] = False
                frontier = np.flatnonzero(hit & (length == 0))
                length[frontier] = steps
    return tuple(gens), length


@shared
def shared_group(order: int, table: tuple, identity: int) -> FiniteGroup:
    """FiniteGroup(order, table, identity), given as ints and a tuple of int
    tuples, shared (see shared)."""
    return FiniteGroup(order, table, identity)


def trivial_group() -> FiniteGroup:
    return shared_group(1, ((0,),), 0)


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return shared_group(n, table, 0)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements the permutations of range(n) in lexicographic order."""
    perms = list(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    # Composition convention: (p*q)(x) = p(q(x)).
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return shared_group(len(perms), table, index[tuple(range(n))])


@lru_cache(maxsize=256)
def dim_classes(dims: tuple):
    """Factors grouped by dimension, d -> [factors of dimension d] in
    first-factor order, and each factor's position within its group.  Calls
    share the result, so the mapping and the array are read-only and the
    lists are not to be modified."""
    groups = {}
    for i, d in enumerate(dims):
        groups.setdefault(d, []).append(i)
    pos = np.zeros(len(dims), dtype=int)
    for idx in groups.values():
        pos[idx] = np.arange(len(idx))
    pos.setflags(write=False)
    return MappingProxyType(groups), pos


@dataclass(frozen=True, eq=False)
class AlgebraAction:
    """Action of a finite group on the factors of a quantum set.

    ``unitaries`` is given per element, unitaries[g][i] the d_i x d_i
    unitary of factor i, or as what the action holds afterwards: the
    read-only mapping from each factor dimension d to the (|G|, k, d, d)
    stack of its k factors in factor order, always copied, so that the
    caller cannot change it after the checks.  The checks run by kind (see
    the module docstring): perms, identity, unitaries (shape and
    finiteness, through linalg.as_complex_groups), unitarity, homomorphism.
    perm_array is perms as a read-only (|G|, nfactors) array, exact_key
    the digest of the key and the stacks' bytes, and defect the largest
    unitarity and homomorphism defect the checks measured (0 for a
    permutation action).
    """

    group: FiniteGroup
    dims: tuple
    perms: tuple          # perms[g][i] = image slot of factor i
    unitaries: Mapping    # d -> (|G|, k, d, d) stack, once built

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        perms, perm_array = _checked_perms(self.group, dims, self.perms)
        factors, slot = dim_classes(dims)
        unitaries, unitarity = _checked_unitaries(self.group.order, factors, self.unitaries)
        for name, value in (("dims", dims), ("perms", perms), ("perm_array", perm_array),
                            ("unitaries", MappingProxyType(unitaries)), ("_slot", slot)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "defect", max(unitarity, _check_homomorphism(self, factors)))
        # Identity: equal keys are necessary for equality and the hash reads
        # the key alone, because equality tolerates TOL_ROUNDOFF in the
        # unitaries.  exact_key, the digest of the key and the unitaries'
        # bytes, is equal exactly when the actions are bitwise equal;
        # marshal's version 2 writes the key by value, with no references.
        key = (self.group.exact_key, dims, perms)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "exact_key", hashlib.blake2b(b"".join(
            [marshal.dumps(key, 2)] + [stack.tobytes() for stack in unitaries.values()]),
            digest_size=32).digest())

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def factor_classes(self) -> dict:
        """Factor dimension d -> (factors of dimension d as an array, the
        read-only (|G|, k, d, d) stack of their unitaries), in first-factor
        order."""
        factors, _ = dim_classes(self.dims)
        return {d: (np.array(idx), self.unitaries[d]) for d, idx in factors.items()}

    def unitary_stack(self, g: int, factors) -> np.ndarray:
        """(k, d, d) stack of the unitaries of element g on the given
        factors, which share one dimension d."""
        return self.unitaries[self.dims[factors[0]]][g, self._slot[np.asarray(factors)]]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraAction):
            return NotImplemented
        if self._key != other._key:
            return False
        return all(
            np.allclose(stack, other.unitaries[d], rtol=0, atol=TOL_ROUNDOFF)
            for d, stack in self.unitaries.items()
        )

    def __hash__(self):
        return self._hash


def _checked_perms(group: FiniteGroup, dims: tuple, given) -> tuple:
    """given as a tuple of int tuples and a read-only (|G|, nfactors) array,
    once it is one permutation of the factors per element, onto factors of
    equal dimension, the identity's fixing every slot."""
    n, nf = group.order, len(dims)
    if len(given) != n:
        raise ActionShapeMismatch("need one permutation and unitary family per element")
    perms = tuple(tuple(map(int, p)) for p in given)
    for g, p in enumerate(perms):
        if sorted(p) != list(range(nf)):
            raise ActionShapeMismatch(f"perms[{g}] is not a permutation of the factors")
    perm_array = np.array(perms, dtype=int).reshape(n, nf)
    dim = np.array(dims, dtype=int)
    bad = dim[perm_array] != dim
    if bad.any():
        g, i = divmod(int(bad.argmax()), nf)
        raise ActionShapeMismatch(f"perms[{g}] maps factor {i} to unequal dimension")
    if perms[group.identity] != tuple(range(nf)):
        raise ActionShapeMismatch("identity element must fix the factor slots")
    perm_array.setflags(write=False)
    return perms, perm_array


def _checked_unitaries(n: int, factors, given) -> tuple:
    """d -> read-only (n, k, d, d) stack of the unitaries of the k factors of
    dimension d, from per-element families or class stacks, once every
    member has its shape, is finite (the least (g, i) failing raises) and is
    unitary (the first failure in class order raises); and the largest
    unitarity defect ‖U U† − I‖ seen."""
    nf = sum(map(len, factors.values()))
    if isinstance(given, Mapping):
        if set(given) != set(factors):
            raise ActionShapeMismatch("need one unitary stack per factor dimension")
        for d, idx in factors.items():
            if np.shape(given[d]) != (n, len(idx), d, d):
                raise ActionShapeMismatch(
                    f"unitary stack of dimension {d} has shape {np.shape(given[d])}, "
                    f"expected {(n, len(idx), d, d)}")
        members = {d: np.reshape(np.array(given[d]), (-1, d, d)) for d in factors}
    else:
        if len(given) != n:
            raise ActionShapeMismatch("need one permutation and unitary family per element")
        for g, family in enumerate(given):
            if len(family) != nf:
                raise ActionShapeMismatch(
                    f"unitaries[{g}] has {len(family)} entries, expected {nf}")
        members = {d: [family[i] for family in given for i in idx] for d, idx in factors.items()}

    def name(group, exc):
        g, s = divmod(exc.member, len(group[2]))
        i = group[2][s]
        if isinstance(exc, ShapeMismatch):
            exc = ActionShapeMismatch(f"unitaries[{g}][{i}] has wrong shape")
        return (g, i), exc

    groups = [(members[d], (d, d), idx) for d, idx in factors.items()]
    stacks, worst = {}, 0.0
    for (d, idx), flat in zip(factors.items(), linalg.as_complex_groups(groups, [], name)):
        defect = linalg.frobs(flat @ flat.conj().swapaxes(1, 2) - np.eye(d))
        bad = defect > TOL_PROJ * max(1.0, d)
        if bad.any():
            g, s = divmod(int(bad.argmax()), len(idx))
            raise ActionShapeMismatch(f"unitaries[{g}][{idx[s]}] is not unitary")
        stacks[d] = flat.reshape(n, len(idx), d, d)
        stacks[d].setflags(write=False)
        worst = max(worst, float(defect.max(initial=0.0)))
    return stacks, worst


def _check_homomorphism(action: AlgebraAction, factors) -> float:
    """α_g ∘ α_h must equal α_{gh} as algebra automorphisms (phases drop out).

    Every pair is checked, one element g at a time against every h: the
    perms, and on each factor i that U_g[π_h(i)] U_h[i] is U_gh[i] times a
    phase, one gathered product per factor dimension, so a step holds
    O(|G| · Σ k d²) entries.  The first failing pair (g, h) raises: its
    perms, else its first failing factor in class order.  Returns the
    largest defect seen.
    """
    table = np.array(action.group.table)
    perms = action.perm_array
    # at[d][h, s]: position in class d of the image slot π_h of its factor s.
    at = {d: action._slot[perms[:, idx]] for d, idx in factors.items()}
    named = [None] + [i for idx in factors.values() for i in idx]
    worst = 0.0
    for g in action.group.elements:
        gh = table[g]
        bad = [(perms[g][perms] != perms[gh]).any(axis=1)[:, None]]
        for d, stack in action.unitaries.items():
            # Ad(lhs) = Ad(U_gh) iff lhs† U_gh is a phase.
            x = ((stack[g, at[d]] @ stack).conj().swapaxes(-1, -2) @ stack[gh]).reshape(-1, d, d)
            tr = x.trace(axis1=1, axis2=2)
            defect = linalg.frobs(x - (tr / d)[:, None, None] * np.eye(d)) + np.abs(
                np.abs(tr) / d - 1.0)
            bad.append((defect > TOL_PROJ * max(1.0, d)).reshape(len(gh), -1))
            worst = max(worst, float(defect.max(initial=0.0)))
        bad = np.hstack(bad)  # bad[h]: the perms, then each factor in class order
        if bad.any():
            h, col = divmod(int(bad.argmax()), bad.shape[1])
            if not col:
                raise ActionShapeMismatch(f"perms are not a homomorphism at ({g},{h})")
            raise ActionShapeMismatch(
                f"action is not a homomorphism up to phase at ({g},{h}), factor {named[col]}")
    return worst


def trivial_action(group: FiniteGroup, dims) -> AlgebraAction:
    """The action fixing every factor: permutation_action with identity perms."""
    dims = tuple(map(int, dims))
    return _permutation_action(group, dims, (tuple(range(len(dims))),) * group.order)


def permutation_action(group: FiniteGroup, dims, perms) -> AlgebraAction:
    """Action that only permutes factors (identity unitaries), shared per
    group, dims and perms (see shared)."""
    return _permutation_action(group, tuple(map(int, dims)),
                               tuple(tuple(map(int, p)) for p in perms))


@shared
def _permutation_action(group: FiniteGroup, dims: tuple, perms: tuple) -> AlgebraAction:
    # Identity unitaries as read-only broadcast views, one per class.
    factors, _ = dim_classes(dims)
    return AlgebraAction(group, dims, perms, {
        d: np.broadcast_to(np.eye(d, dtype=complex), (group.order, len(idx), d, d))
        for d, idx in factors.items()
    })


class TransportPlan:
    """α_g on every class of the source x target layout of one action pair.
    step(g, klass) is (W, image): W = kron(conj(U_tgt[g][j]), U_src[g][i])
    per member of the class (from linalg.kron_stack) and image the member
    positions of the moved pairs, both read-only.  Each step is built the
    first time it is read and kept, so a plan read for every element (a
    twirl) holds |G| W stacks and images per class: |G| · Σ_c k_c n_c²
    complex entries and |G| · Σ_c k_c slots, for k_c members of n_c x n_c
    blocks in class c."""

    __slots__ = ("_src", "_tgt", "_steps")

    def __init__(self, src: AlgebraAction, tgt: AlgebraAction):
        if src.group != tgt.group:
            raise GroupMismatch("source and target actions must share one group")
        self._src, self._tgt = src, tgt
        self._steps = {}  # (class dims, g) -> (W, image)

    def step(self, g: int, klass) -> tuple:
        step = self._steps.get((klass.dims, g))
        if step is None:
            w = linalg.kron_stack(self._tgt.unitary_stack(g, klass.cols).conj(),
                                  self._src.unitary_stack(g, klass.rows))
            image = klass.slots(self._src.perm_array[g][klass.rows],
                                self._tgt.perm_array[g][klass.cols])
            for a in (w, image):
                a.setflags(write=False)
            self._steps[klass.dims, g] = step = w, image
        return step

    def transport(self, g: int, klass, stack: np.ndarray) -> np.ndarray:
        """α_g on one (d_i, e_j) class of blocks on vec(Hom(K_j, H_i)), given
        as a block-store class and its stack; returns the moved stack in the
        same key order.

        The action sends an operator a to U_src[g][i] a U_tgt[g][j]†, i.e. the
        vec-space unitary W, and moves the block (i, j) to W B W† at
        (perms_src[g][i], perms_tgt[g][j]), a key of the same class.  One
        batched product moves the class; W comes from linalg.kron_stack, so
        every moved block is bitwise the one a per-block kron loop gives.
        """
        w, image = self.step(g, klass)
        moved = np.empty(stack.shape, dtype=complex)
        moved[image] = w @ stack @ w.conj().swapaxes(1, 2)
        return moved


@shared
def transport_plan(action_src: AlgebraAction, action_tgt: AlgebraAction) -> TransportPlan:
    """The transport plan of an action pair, shared (see shared)."""
    return TransportPlan(action_src, action_tgt)


def act_on_cp(f, g: int):
    """Transport a CP morphism along group element g: α_{B,g} ∘ f ∘ α_{A,g}⁻¹."""
    plan = transport_plan(f.source.action, f.target.action)
    parts = [(klass, plan.transport(g, klass, stack)) for klass, stack in f.blocks.classes()]
    return type(f).stacked(f.source, f.target, parts)


def twirl_cp(f):
    """Group-average a CP morphism: the projector onto covariant maps."""
    plan = transport_plan(f.source.action, f.target.action)
    group = f.source.action.group
    parts = []
    for klass, stack in f.blocks.classes():
        acc = np.zeros(stack.shape, dtype=complex)
        for g in group.elements:
            acc += plan.transport(g, klass, stack)
        parts.append((klass, acc / group.order))
    return type(f).stacked(f.source, f.target, parts)


def is_covariant_cp(f, tol: float = TOL_PROJ) -> bool:
    """True iff the twirl leaves f unchanged: D_T = ‖twirl(f) − f‖ < θ =
    tol · max(1, ‖f‖), in the blockwise-max Frobenius norm of cp_norm_diff;
    decided on the generators S where the band argument below allows.

    Every α_g is an isometry of that norm and α_s fixes twirl(f), so
    D_S = max_{s∈S} ‖α_s f − f‖ ≤ 2·D_T; and α_g f − f telescopes along the
    shortest positive word of g in S, so D_T ≤ L̄·D_S.  A computed distance
    is within m = BAND_GUARD · max(1, ‖f‖) of the exact one: a transport
    W B W† of an n x n block errs by about n ε ‖B‖ (2e-13 at n = 900), the
    twirl's mean of |G| of them by about |G| ε ‖f‖ more (3e-14 at C_128),
    and an action whose defect is at most TOL_ROUNDOFF (one unitary and a
    homomorphism to round-off, as action equality allows) composes within a
    few TOL_ROUNDOFF per step.  So a computed D_S ≥ 2θ + 3m means a computed
    D_T ≥ θ (False), and L̄·(D_S + m) + m < θ a computed D_T < θ (True).
    Inside that band, or for an action of larger defect, the twirl is
    compared as the definition reads, so every verdict is the twirl's."""
    src, tgt = f.source.action, f.target.action
    scale = max(1.0, f.norm())
    theta = tol * scale
    if max(src.defect, tgt.defect) <= TOL_ROUNDOFF:
        plan, group = transport_plan(src, tgt), src.group
        classes = list(f.blocks.classes())
        d_s = max((float(linalg.frobs(plan.transport(s, klass, stack) - stack).max())
                   for s in group.generators for klass, stack in classes), default=0.0)
        m = BAND_GUARD * scale
        if d_s >= 2 * theta + 3 * m:
            return False
        if group.mean_word_length * (d_s + m) + m < theta:
            return True
    return twirl_cp(f).blocks.distance(f.blocks) < theta


def is_covariant_relation(p) -> bool:
    """Projector-family invariance under the induced conjugation action:
    every element moves each block within TOL_PROJ · max(1, its norm).

    A generator that moves a block further is a failing element, so its
    False is exact.  Otherwise every block of α_g p − p is within L(g)·D_S
    of 0, D_S the generators' largest block defect (the telescoping of
    is_covariant_cp), so L_max·(D_S + m) + m below the smallest bound, m as
    there, is True; else every element is checked."""
    src, tgt = p.source.action, p.target.action
    plan = transport_plan(src, tgt)
    group = src.group
    classes = [(klass, stack, np.maximum(1.0, linalg.frobs(stack)))
               for klass, stack in p.blocks.classes()]

    def defect(g) -> float:
        """g's largest block defect, inf once a block exceeds its bound."""
        worst = 0.0
        for klass, stack, norm in classes:
            moved = linalg.frobs(plan.transport(g, klass, stack) - stack)
            if np.any(moved > TOL_PROJ * norm):
                return np.inf
            worst = max(worst, float(moved.max()))
        return worst

    d_s = max(map(defect, group.generators), default=0.0)
    if d_s == np.inf:
        return False
    if max(src.defect, tgt.defect) <= TOL_ROUNDOFF:
        m = BAND_GUARD * max(float(norm.max()) for *_, norm in classes)
        least = TOL_PROJ * min(float(norm.min()) for *_, norm in classes)
        if group.max_word_length * (d_s + m) + m < least:
            return True
    return all(defect(g) < np.inf for g in group.elements)
