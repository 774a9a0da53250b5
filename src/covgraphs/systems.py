"""Finite quantum sets and G-C*-algebras with their separable standard functional.

A system is a finite direct sum of matrix factors ``⊕_i B(H_i)`` carrying a
group action and per-factor weights.  The separable standard functional is the
unnormalized weighted trace

    φ(x) = Σ_i w_i Tr(x_i),   w_i = d_i,

which is the unique choice making the induced Frobenius structure separable
(m ∘ m† = id) and standard; with it the commutative reduction turns channels
into exactly column-stochastic matrices and the identity map into a channel.
Algebra elements are plain lists of per-factor complex matrices.

A system never changes once built: system, classical_system and the
bundle build it through one constructor shared (groups.shared) per dims,
weights and the action's exact_key, validated on its first build; the
system's own exact_key is the digest of those three.
System(...) is the raw constructor, new on every call.  Its φ-basis
coordinates lay the factors out in order, d_i² each (offsets).

Block families of maps between systems (Choi blocks, relation projections)
live in a BlockStore, the one owner of their representation: one (k, n, n)
stack per class (d_i, e_j) of factor pairs, behind a read-only mapping from
(i, j) to the block.  Each class holds a stack, None (a zero class, never
allocated) or a function that makes the stack on its first read.  A family
given from outside, a dict from factor pair to entry or a KeyedStack, is
grouped by class (located), checked once per class by
linalg.as_complex_groups and copied into the class stacks (class_stack).

One trust rule holds at this boundary, read off the input's type: a dict
or a KeyedStack is always checked (scanned for non-finite entries and
shape-checked here, and PSD- or projection-checked by the CpMorphism and
QuantumRelation constructors); a BlockStore, which only the library
builds, is taken as it is.  No argument switches a check off but one:
graphs.QuantumGraph's validate=False, for a graph the library built
symmetric, since symmetry does not show in a relation's type.
"""

from __future__ import annotations

import hashlib
import marshal
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ActionShapeMismatch, ShapeMismatch
from .groups import (
    AlgebraAction,
    FiniteGroup,
    dim_classes,
    shared,
    trivial_action,
    trivial_group,
)


def _factor_dims(dims) -> tuple:
    dims = tuple(map(int, dims))
    if not dims or any(d < 1 for d in dims):
        raise ShapeMismatch("a quantum set needs at least one factor of dim >= 1")
    return dims


@dataclass(frozen=True)
class System:
    dims: tuple
    action: AlgebraAction
    weights: tuple

    def __post_init__(self):
        dims = _factor_dims(self.dims)
        if self.action.dims != dims:
            raise ActionShapeMismatch("action factor dims do not match the quantum set")
        w = tuple(map(float, self.weights))
        if len(w) != len(dims) or not all(0 < x < np.inf for x in w):
            raise ShapeMismatch("need one finite positive weight per factor")
        wa = np.array(w)
        if (np.abs(wa[self.action.perm_array] - wa) > linalg.TOL_ROUNDOFF).any():
            raise ActionShapeMismatch("weights must be constant on action orbits")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", w)
        # Dims, weights and the action's exact key: equal exactly when the
        # systems are bitwise equal, unlike ==, which tolerates round-off.
        object.__setattr__(self, "exact_key", hashlib.blake2b(
            marshal.dumps((dims, w), 2) + self.action.exact_key, digest_size=32).digest())

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def identity(self) -> list:
        return [np.eye(d, dtype=complex) for d in self.dims]

    def check_element(self, x) -> list:
        if len(x) != self.nfactors:
            raise ShapeMismatch("element has wrong number of factor blocks")
        out = []
        for d, blk in zip(self.dims, x):
            b = linalg.as_complex(blk)
            if b.shape != (d, d):
                raise ShapeMismatch(f"factor block has shape {b.shape}, expected ({d},{d})")
            out.append(b)
        return out

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, System)
            and self.dims == other.dims
            and self.weights == other.weights
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.dims, self.weights, self.action))


@shared
def _shared_system(dims: tuple, weights: tuple, action: AlgebraAction) -> System:
    """System(dims, action, weights), validated on its first build and
    shared (groups.shared) per dims, weights and the action's exact_key."""
    return System(dims, action, weights)


def system(dims, action: AlgebraAction | None = None) -> System:
    """System with the separable standard weights w_i = d_i and, by default,
    the trivial group's action (_shared_system)."""
    dims = _factor_dims(dims)
    if action is None:
        action = trivial_action(trivial_group(), dims)
    return _shared_system(dims, tuple(map(float, dims)), action)


def classical_system(n: int, action: AlgebraAction | None = None) -> System:
    return system((1,) * n, action)


@lru_cache(maxsize=128)
def offsets(dims: tuple) -> np.ndarray:
    """Read-only offset of each factor's d x d coordinates in φ-basis order
    (coords), and N = Σ_i d_i², the total, after the last."""
    off = np.cumsum((0,) + tuple(d * d for d in dims))
    off.setflags(write=False)
    return off


class BlockClass:
    """One dimension class (d, e) of a block layout: every factor pair (i, j)
    with d_i = d and e_j = e, a full grid of the rows (source factors of
    dimension d) by the cols (target factors of dimension e), in key order.
    Its blocks are n x n with n = d e."""

    __slots__ = ("dims", "n", "keys", "rows", "cols", "shape", "_row_pos", "_col_pos")

    def __init__(self, dims, rows, cols, row_pos, col_pos):
        self.dims = dims
        self.n = dims[0] * dims[1]
        self.shape = (len(rows), len(cols))
        self.keys = tuple((i, j) for i in rows for j in cols)
        self.rows = np.repeat(np.array(rows, dtype=int), len(cols))
        self.cols = np.tile(np.array(cols, dtype=int), len(rows))
        self._row_pos = row_pos
        self._col_pos = col_pos

    def slots(self, rows, cols) -> np.ndarray:
        """Member positions of the pairs (rows[s], cols[s]) of this class."""
        return self._row_pos[rows] * self.shape[1] + self._col_pos[cols]

    def transposed(self, members: np.ndarray) -> np.ndarray:
        """Per-member values in key order, reordered to the key order of the
        transposed class: the value of pair (i, j) moves to the slot of (j, i)."""
        a, b = self.shape
        return members.reshape((a, b) + members.shape[1:]).swapaxes(0, 1).reshape(members.shape)


class Layout:
    """Factor pairs of source x target: keys in key order (i major), their
    dimension classes in first-key order, and where[key] = (class, slot).
    row_groups maps each source dimension to its factors; col_pos[j] is the
    position of target factor j among the target factors of its dimension.
    codes[i, j] is class * len(keys) + slot of pair (i, j), -1 off the layout
    (pairs past its edge are clipped to the table's last row or column);
    entry_shapes[maps] holds each class's block or map shape."""

    __slots__ = ("src_dims", "tgt_dims", "keys", "classes", "where", "index",
                 "row_groups", "col_pos", "codes", "entry_shapes")

    def __init__(self, src_dims: tuple, tgt_dims: tuple):
        self.src_dims = src_dims
        self.tgt_dims = tgt_dims
        self.keys = tuple((i, j) for i in range(len(src_dims)) for j in range(len(tgt_dims)))
        self.row_groups, row_pos = dim_classes(src_dims)
        col_groups, self.col_pos = dim_classes(tgt_dims)
        # Groups are in first-factor order, so this is first-key order.
        self.classes = tuple(
            BlockClass((d, e), rows, cols, row_pos, self.col_pos)
            for d, rows in self.row_groups.items()
            for e, cols in col_groups.items()
        )
        self.index = {cls.dims: c for c, cls in enumerate(self.classes)}
        self.where = {
            key: (c, s) for c, cls in enumerate(self.classes) for s, key in enumerate(cls.keys)
        }
        self.codes = np.full((max(len(src_dims), len(tgt_dims)) + 1,) * 2, -1)
        for c, cls in enumerate(self.classes):
            self.codes[cls.rows, cls.cols] = c * len(self.keys) + np.arange(len(cls.keys))
        self.entry_shapes = (tuple((cls.n, cls.n) for cls in self.classes),
                             tuple(cls.dims[::-1] for cls in self.classes))


@lru_cache(maxsize=128)
def layout(src_dims: tuple, tgt_dims: tuple) -> Layout:
    return Layout(src_dims, tgt_dims)


@lru_cache(maxsize=128)
def _zero(n: int) -> np.ndarray:
    z = np.zeros((n, n), dtype=complex)
    z.setflags(write=False)
    return z


@lru_cache(maxsize=128)
def _zero_stack(k: int, n: int) -> np.ndarray:
    """Read-only (k, n, n) zero stack; a broadcast view, so it allocates nothing."""
    return np.broadcast_to(_zero(n), (k, n, n))


class BlockStore(Mapping):
    """Read-only block family on the factor pairs of a layout.

    The blocks live in one (k, n, n) stack per dimension class; classes()
    yields (class, stack) pairs, which the batched kernels read, and
    stack(c) the stack of class c alone.  As a mapping, store[(i, j)] is the
    block of pair (i, j), iterated in key order.

    It holds one entry per class, in class order: a stack, made read-only;
    None, a zero class, whose rows are the one shared zero block; or a
    function of no arguments that makes the stack on the first read of the
    class, kept read-only, or called again on the next read if it raised.
    """

    __slots__ = ("layout", "_stacks", "_pairs")

    def __init__(self, lay: Layout, stacks):
        self.layout = lay
        self._stacks = list(stacks)
        for stack in self._stacks:
            if stack is not None and not callable(stack):
                stack.setflags(write=False)
        self._pairs = None  # ((class, stack), ...) in class order, once read

    @classmethod
    def stacked(cls, source: System, target: System, parts) -> "BlockStore":
        """Store of (class, stack) pairs of the source x target layout, each
        stack in its class's key order; classes not given are zero."""
        lay = layout(source.dims, target.dims)
        stacks = [None] * len(lay.classes)
        for klass, stack in parts:
            stacks[lay.index[klass.dims]] = stack
        return cls(lay, stacks)

    def __getitem__(self, key):
        c, s = self.layout.where[key]
        if self._stacks[c] is None:
            return _zero(self.layout.classes[c].n)
        return self.stack(c)[s]

    def __iter__(self):
        return iter(self.layout.keys)

    def __len__(self):
        return len(self.layout.keys)

    def stack(self, c: int) -> np.ndarray:
        """Read-only (k, n, n) stack of class index c."""
        stack = self._stacks[c]
        if stack is None:
            klass = self.layout.classes[c]
            return _zero_stack(len(klass.keys), klass.n)
        if callable(stack):
            stack = stack()
            stack.setflags(write=False)
            self._stacks[c] = stack
        return stack

    def classes(self) -> tuple:
        """(class, read-only (k, n, n) stack) for every dimension class, in
        first-key order."""
        if self._pairs is None:
            self._pairs = tuple(zip(self.layout.classes, map(self.stack, range(len(self._stacks)))))
        return self._pairs

    def transposed(self) -> list:
        """(class, stack) over the target x source layout: class (e, d) holds
        block (i, j) of this store at the slot of (j, i)."""
        tl = layout(self.layout.tgt_dims, self.layout.src_dims)
        return [
            (tl.classes[tl.index[klass.dims[::-1]]], klass.transposed(stack))
            for klass, stack in self.classes()
        ]

    def distance(self, other: "BlockStore") -> float:
        """Largest Frobenius norm of a block difference with a store of the
        same layout: one batched norm per class."""
        return max(float(linalg.frobs(a - b).max())
                   for (_, a), (_, b) in zip(self.classes(), other.classes()))

    def keyed(self, per_class) -> np.ndarray:
        """Per-class arrays of one value per member, gathered into key order."""
        lay = self.layout
        out = np.empty(len(lay.keys), dtype=float)
        nt = len(lay.tgt_dims)
        for klass, vals in zip(lay.classes, per_class):
            out[klass.rows * nt + klass.cols] = vals
        return out


def class_stack(klass: BlockClass, parts, form=np.asarray) -> np.ndarray:
    """The (k, n, n) stack of a class from (slots, payload) parts, form(payload)
    the blocks at those slots: the one part's if it holds every slot in slot
    order, else zeros with each part's at its slots."""
    k, n = len(klass.keys), klass.n
    if len(parts) == 1 and np.array_equal(parts[0][0], np.arange(k)):
        return form(parts[0][1])
    stack = np.zeros((k, n, n), dtype=complex)
    for slots, payload in parts:
        stack[slots] = form(payload)
    return stack


class KeyedStack(NamedTuple):
    """A family keyed by factor pair, as two arrays: member s is the entry
    stack[s] of pair (pairs[s, 0], pairs[s, 1]).  Its pairs are distinct
    and nonnegative; some may fall outside a layout."""

    pairs: np.ndarray  # (k, 2) int
    stack: np.ndarray  # (k,) + entry shape


def located(lay: Layout, family, what: str, maps: bool = False):
    """A KeyedStack (one gather from lay.codes) or dict (lay.where; a None
    entry is zero: a zero block, no maps) grouped by class, and with ``maps``
    (entries are lists of maps) by map count, for linalg.as_complex_groups: (groups, fails).
    A group is (members, member shape, class index, count, slots,
    positions): the count entries of each pair at the slots, in turn, and
    the pairs' input positions; fails holds the first pair off the layout."""
    shapes = lay.entry_shapes[maps]
    if isinstance(family, KeyedStack):
        pairs, stack = family.pairs, family.stack
        codes = lay.codes[tuple(np.minimum(pairs, len(lay.codes) - 1).T)]
        b = int(codes.argmin())
        fails = [] if codes[b] >= 0 else [
            ((b, -1), ShapeMismatch(f"{what} {tuple(pairs[b].tolist())} out of range"))]
        count = stack.shape[1] if maps else 1
        if not count:
            return [], fails
        of, runs = codes // len(lay.keys), []
        for c in range(len(lay.classes)):
            at = np.flatnonzero(of == c)
            if at.size:
                runs.append((c, codes[at] - c * len(lay.keys), at,
                             stack if at.size == len(of) else stack[at]))
        return [(members.reshape((-1,) + members.shape[2:]) if maps else members, shapes[c],
                 c, count, slots, at) for c, slots, at, members in runs], fails
    groups, fails = {}, []
    for pos, (key, entry) in enumerate(family.items()):
        if entry is None:
            continue
        loc = lay.where.get(key)
        if loc is None:
            fails.append(((pos, -1), ShapeMismatch(f"{what} {key} out of range")))
            break
        c, count = loc[0], len(entry) if maps else 1
        if count:
            group = groups.get((c, count)) or groups.setdefault(
                (c, count), ([], shapes[c], c, count, [], []))
            group[0].extend(entry if maps else (entry,))
            group[4].append(loc[1])
            group[5].append(pos)
    return list(groups.values()), fails


def failure_at(lay: Layout, what: str, group, exc):
    """(input position, error) of the failing member of a located group:
    member t of the group's p-th pair is at (position of the pair, t), and
    one of another shape is named "{what} (i, j) has shape ..."."""
    _, shape, c, count, slots, positions = group
    p, t = divmod(exc.member, count)
    if isinstance(exc, ShapeMismatch):
        exc = ShapeMismatch(f"{what} {lay.classes[c].keys[slots[p]]} has shape {exc.shape}, "
                            f"expected ({shape[0]},{shape[1]})")
    return (positions[p], t), exc


def block_store(source: System, target: System, blocks, kind: str) -> BlockStore:
    """Block family of a CP morphism or relation on source x target.

    The input's type is the trust rule.  A BlockStore is the library's own
    (only the library builds one): it is kept as it is, not scanned, once
    its layout is source x target.  A KeyedStack, or a dict (i, j) ->
    (d_i e_j) x (d_i e_j) block, comes from outside and is always checked:
    grouped by class (located) into one linalg.as_complex per class, which
    scans for non-finite entries and checks shapes; the first failing block
    in input order, or pair outside the layout, raises, named by ``kind``.
    Pairs missing from it are zero.  The store holds the class stacks; a
    dict's blocks are copied into them, so the caller's arrays stay as they
    were.
    """
    if isinstance(blocks, BlockStore):
        if (blocks.layout.src_dims, blocks.layout.tgt_dims) != (source.dims, target.dims):
            raise ShapeMismatch(f"{kind} blocks are laid out for other systems")
        return blocks
    lay = layout(source.dims, target.dims)
    groups, fails = located(lay, blocks, f"{kind} block index")
    stacks = linalg.as_complex_groups(groups, fails, failure_at, lay, f"{kind} block")
    entries = [None] * len(lay.classes)  # located makes one group per class
    for (_, _, c, _, slots, _), stack in zip(groups, stacks):
        entries[c] = class_stack(lay.classes[c], [(slots, stack)])
    return BlockStore(lay, entries)


def coords(sys: System, x) -> np.ndarray:
    """Coordinates of an algebra element in the φ-orthonormal basis."""
    x = sys.check_element(x)
    parts = [np.sqrt(w) * b.reshape(-1) for w, b in zip(sys.weights, x)]
    return np.concatenate(parts)


def random_element(sys: System, rng) -> list:
    out = []
    for d in sys.dims:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append(m)
    return out


def ssfa_defects(sys: System, rng=None) -> dict:
    """Numerical validity checks for the separable standard Frobenius data.

    Returns the worst defect per axiom.  Associativity and unitality: six
    rounds of random x, y, z, one stacked product per factor.  Invariance:
    |φ(α_g(u)) - φ(u)| on the φ-basis, one batched conjugate-and-trace per
    factor over every group element, from the action's class stacks.
    Separability, Frobenius and standardness are read from the structure
    constants u_k u_l = c u_m (_structure_constants), with no table of N³
    entries (N = Σ_i d_i²):
      * m ∘ m† is diagonal, its entry at m the sum of |c|² of the products
        landing on u_m, so separability (m ∘ m† = id) is one bincount;
      * Frobenius, (id ⊗ m)(m† ⊗ id) = m† m = (m ⊗ id)(id ⊗ m†), on 24
        random index quadruples, through the N x N tables of m and c;
      * standardness, (C C†)ᵀ = C† C with C[k, l] = conj(φ(u_k u_l)).
    """
    if rng is None:
        rng = np.random.default_rng(7)
    draws = [random_element(sys, rng) for _ in range(18)]
    assoc = unital = 0.0
    for i, d in enumerate(sys.dims):
        x, y, z = (np.stack([e[i] for e in draws[r::3]]) for r in range(3))
        one = np.eye(d, dtype=complex)
        assoc = max(assoc, float(linalg.frobs((x @ y) @ z - x @ (y @ z)).max()))
        unital = max(unital, float(linalg.frobs(one @ x - x).max()),
                     float(linalg.frobs(x @ one - x).max()))

    nb = int(offsets(sys.dims)[-1])
    k, l, m, c = _structure_constants(sys)
    root_w = np.sqrt(np.repeat(sys.weights, np.square(sys.dims)))
    mmdag = np.bincount(m, weights=c.real * c.real + c.imag * c.imag, minlength=nb)
    sep = float((np.abs(mmdag - 1.0) / root_w).max())

    # prod[k, l] = m and coef[k, l] = c where u_k u_l = c u_m; -1 and 0
    # where u_k u_l = 0.  On index quadruples (a, b, c, d):
    #   mid   = <u_a u_b, u_c u_d>
    #   left  = Σ_l <u_a u_l, u_c> <u_b, u_l u_d>
    #   right = Σ_k <u_a, u_c u_k> <u_k u_b, u_d>
    prod = np.full((nb, nb), -1)
    prod[k, l] = m
    coef = np.zeros((nb, nb), dtype=complex)
    coef[k, l] = c
    qa, qb, qc, qd = rng.integers(0, nb, size=(24, 4)).T
    hit = (prod[qa, qb] >= 0) & (prod[qa, qb] == prod[qc, qd])
    mid = np.where(hit, coef[qa, qb].conj() * coef[qc, qd], 0)
    left = ((coef[qa] * (prod[qa] == qc[:, None])).conj()
            * (coef[:, qd] * (prod[:, qd] == qb)).T).sum(axis=1)
    right = ((coef[qc] * (prod[qc] == qa[:, None]))
             * (coef[:, qb] * (prod[:, qb] == qd)).T.conj()).sum(axis=1)
    frobdef = float(max(np.abs(mid - left).max(), np.abs(mid - right).max()))

    cmat = np.zeros((nb, nb), dtype=complex)
    cmat[k, l] = (c * coords(sys, sys.identity())[m]).conj()
    std = linalg.frob((cmat @ cmat.conj().T).T - cmat.conj().T @ cmat)

    invdef = 0.0
    _, slot = dim_classes(sys.dims)
    image_weights = np.asarray(sys.weights)[sys.action.perm_array]
    for i, (d, w) in enumerate(zip(sys.dims, sys.weights)):
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d) * (1.0 / np.sqrt(w))
        base = w * np.trace(units, axis1=1, axis2=2)
        u = sys.action.unitaries[d][:, slot[i], None]
        moved = np.trace(u @ units @ u.conj().swapaxes(2, 3), axis1=2, axis2=3)
        invdef = max(invdef, float(np.abs(image_weights[:, i, None] * moved - base).max()))
    return {"associativity": assoc, "unitality": unital, "separability": sep,
            "frobenius": frobdef, "standardness": std, "invariance": invdef}


def _structure_constants(sys: System) -> tuple:
    """The Σ_i d_i³ nonzero products u_k u_l = c u_m of the φ-basis, with
    k = (i, p, q), l = (i, q, s) and m = (i, p, s), as flat arrays (k, l, m,
    c) of coordinate indices and complex constants.  c_i = √w_i (1/√w_i)²
    is the one nonzero entry of coords(u_k u_l), bitwise."""
    ks, ls, ms, cs = [], [], [], []
    for off, d, w in zip(offsets(sys.dims), sys.dims, sys.weights):
        p, q, s = np.indices((d, d, d)).reshape(3, -1)
        unit = 1.0 / np.sqrt(w)
        ks.append(off + p * d + q)
        ls.append(off + q * d + s)
        ms.append(off + p * d + s)
        cs.append(np.full(d ** 3, np.sqrt(w) * complex(unit * unit)))
    return tuple(map(np.concatenate, (ks, ls, ms, cs)))


def _diff(x, y) -> float:
    return max(linalg.frob(a - b) for a, b in zip(x, y))
