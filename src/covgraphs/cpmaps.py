"""CP morphisms and channels between systems.

A CP morphism f: A -> B is stored by its Choi blocks: for each factor pair
(i, j) a Hermitian PSD matrix on vec(Hom(K_j, H_i)), whose support spans the
vectorized *adjoints* of the Kraus maps H_i -> K_j.  The normalization is
pinned so that

  * a Kraus family {M_ijk} gives block (i,j) = Σ_k |vec(M†)><vec(M†)|,
  * the identity channel has the rank-1 blocks |vec(I_d)><vec(I_d)|,
  * a classical column-stochastic matrix p embeds with 1x1 blocks exactly
    p_ji.

The blocks are the one representation that apply, channel tests, norms and
equality read.  They live in a systems.BlockStore: one stack per (d_i, e_j)
class of factor pairs, which dagger, the marginal, add, channelize and the
norms read with one batched kernel per class, behind a read-only (i, j) ->
block mapping; dagger weights the store's adjoint image (BlockStore.adjoint)
by w_j / w_i.  Next to the blocks a morphism holds a read-only Kraus family
(CpMorphism.kraus), which tensor products Kronecker instead of
diagonalizing Choi blocks.  compose reads what its left factor g holds: a
g that holds maps (born from Kraus maps, or keeping a cut of its blocks)
multiplies them with the right factor's held maps, and a Choi-born g that
keeps no cut is conjugated block by block by the right factor's held
maps, giving a Choi-born composite with no cut of a block of g.  A held
family maps each pair that has maps, in key order, to the read-only
(count, e, d) stack of its maps; a pair without maps is absent:

  * a morphism born from Kraus maps (from_kraus for maps from outside;
    CpMorphism.held for the library's own: compose of a g that holds maps,
    tensor products, identity channels, realized channels, sources and
    classical.embed_channel) stores its maps once, as read-only stacks per
    class and map count (CpMorphism.kraus_stacks).  Everything else is
    derived from them when first read: its blocks V V†, with V the stack of
    vec(M†), on the first read of their class, so a morphism that is only
    composed further never forms them; relations.support_of from a thin SVD
    of V; and its held family on the first call of kraus(), each pair's
    row of the stacks;
  * a morphism born as Choi blocks (bundle "choi" input, dagger, channelize,
    add, twirls, reverse channels, compose of a Choi-born g that keeps no
    cut) gets the minimal to_kraus family of its blocks on first use, from
    the one cut of each class (CpMorphism.cut), which its support reads
    too, each pair's maps a prefix of its row of one stack per class;
  * a factor pair given more Kraus maps than its block dimension d_i e_j
    holds its to_kraus maps instead, read off the kept cut of its own
    class, so families do not grow along chains of compositions.

The held family need not be minimal or canonical; to_kraus always is: one
map per eigenpair that linalg.spectral_cut keeps, at every block size.

The self-checks read the blocks, not the φ-basis pushed through apply: the
Choi marginal, per source dimension (choi_marginal, which is_channel and
channelize read), or its reshape into basis images (basis_images).  The
*-homomorphism equations (_hom_defects) take the unit and star defects
exactly and decide multiplicativity from two bounds read off the basis
images in O(N_A e³) per target factor: a lower bound, the exact defects of
the diagonal pairs (u_a†, u_a) and of one row of pairs per source factor,
and an upper bound from Choi's Schwarz inequality, widened by what the
blocks lack of complete positivity; only an input between them runs the
N_A² pair loop.
What a morphism derives without a tolerance is kept on it (groups.kept).

One trust rule holds for blocks and Kraus maps (see systems): Choi blocks
given as a dict or a KeyedStack are scanned, shape-checked, and PSD-checked
by the kept cut every later reader reads (CpMorphism.cut), and a
BlockStore (CpMorphism.stacked) is the library's own, taken as it is; a
Kraus family from outside goes through from_kraus, which scans and
shape-checks it, and the library's own maps through CpMorphism.held, which
checks nothing.

Channels preserve the separable standard functional: for every source factor
i, Σ_{j,k} w_j M_ijk† M_ijk = w_i I.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache, partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    NegativeSpectrum,
    PsdViolation,
    ShapeMismatch,
    SystemMismatch,
)
from .groups import dim_classes, is_kept, kept, shared
from .linalg import FUNCTIONAL_SLACK, PRODUCT_GUARD, TOL_PROJ, VALIDATE_SLACK
from .systems import (
    BlockStore,
    System,
    _diff,
    block_store,
    class_stack,
    failure_at,
    layout,
    located,
    offsets,
)

class CpMorphism:
    """Immutable CP morphism given by source, target and Choi blocks: a
    dict or KeyedStack, checked Hermitian PSD, or a BlockStore, unchecked.

    A morphism born from Kraus maps also holds kraus_stacks, the one stored
    copy of its maps: per class and map count, (class index, slots of its
    pairs in the class, read-only (p, count, e, d) stack of their maps).  It
    is None for a morphism born as Choi blocks.

    What it derives without a tolerance is kept on it (groups.kept): norm,
    cuts, kraus, support, confusability graph and defects.  A negative cut
    is kept too, and every reader raises on it again (_psd_cut).
    """

    def __init__(self, source: System, target: System, blocks):
        self.source = source
        self.target = target
        self.blocks = block_store(source, target, blocks, "Choi")
        self.kraus_stacks = None
        if not isinstance(blocks, BlockStore):
            self._check_psd()

    @classmethod
    def stacked(cls, source: System, target: System, parts) -> "CpMorphism":
        """Kernel-born morphism from (class, stack) pairs of the source x target
        layout (classes not given are zero)."""
        return cls(source, target, BlockStore.stacked(source, target, parts))

    @classmethod
    def held(cls, source: System, target: System, maps) -> "CpMorphism":
        """Kraus-born morphism of the library's own maps, the Kraus twin of
        stacked, scanning and shape-checking nothing.  ``maps`` is the parts
        kraus_stacks holds, (class, slots of its pairs in the class,
        (p, count, e, d) maps) triples, or a mapping from pair to (count, e,
        d) maps, as kraus() returns, grouped by class and map count in its
        order, one np.array copy per group, a pair with no maps absent.  The
        parts, made read-only, are the one stored copy (kraus_stacks); the
        store forms block (i, j) = V V† on the first read of its class."""
        lay = layout(source.dims, target.dims)
        if isinstance(maps, Mapping):
            groups = {}
            for key, ms in maps.items():
                c, s = lay.where[key]
                groups.setdefault((c, len(ms)), []).append((s, ms))
            maps = [(c, np.array([s for s, _ in got]), np.array([m for _, m in got], dtype=complex))
                    for (c, count), got in groups.items() if count]
        parts = [[] for _ in lay.classes]
        for c, slots, stack in maps:
            stack.setflags(write=False)
            parts[c].append((slots, stack))
        f = cls(source, target, BlockStore(lay, [
            partial(class_stack, klass, got, _choi_blocks) if got else None
            for klass, got in zip(lay.classes, parts)]))
        f.kraus_stacks = tuple(maps)
        return f

    def _check_psd(self):
        """Every block Hermitian within the validator slack, one Frobenius
        defect per class, and PSD by the cut of its class, as every reader
        reads it (_psd_cut); the first failing block in key order raises."""
        scale = max(1.0, self.norm())
        lay = self.blocks.layout
        skew = self.blocks.keyed(linalg.frobs(stack - stack.conj().swapaxes(1, 2))
                                 for _, stack in self.blocks.classes())
        neg = self.blocks.keyed(np.isin(np.arange(cut.size), cut.live[cut.neg])
                                for cut in map(self.cut, range(len(lay.classes))))
        not_herm = skew > VALIDATE_SLACK * TOL_PROJ * scale
        bad = np.flatnonzero(not_herm | (neg > 0))
        if bad.size:
            key = lay.keys[bad[0]]
            if not_herm[bad[0]]:
                raise ShapeMismatch(f"Choi block {key} is not Hermitian")
            c = lay.where[key][0]
            _psd_cut(lay.classes[c].keys, self.cut(c))

    @kept
    def norm(self) -> float:
        """Largest Frobenius norm of a Choi block."""
        return max(float(linalg.frobs(stack).max()) for _, stack in self.blocks.classes())

    @kept
    def cut(self, c: int) -> linalg.Cut:
        """linalg.spectral_cut of the Hermitian part of class c's stack: the
        one cut of the class that the PSD check at construction, to_kraus
        (held family or over-count pairs) and relations.support_of of a
        Choi-born morphism read, each through _psd_cut."""
        return linalg.spectral_cut(linalg.hermitize(self.blocks.stack(c)))

    @kept
    def kraus(self):
        """Held Kraus family: each factor pair (i, j) that has maps -> the
        read-only (count, e_j, d_i) stack of its maps, count at most d_i e_j,
        in key order; a pair without maps is absent.  From kraus_stacks
        (_stacked_kraus) for a morphism born from Kraus maps, else from
        to_kraus; the family bundle.dump_channel writes."""
        return MappingProxyType(to_kraus(self) if self.kraus_stacks is None
                                else _stacked_kraus(self))


def _psd_cut(keys, cut: linalg.Cut) -> linalg.Cut:
    """cut, the linalg.Cut of Choi blocks of the factor pairs ``keys``, as
    every reader reads it: the first negative block raises NegativeSpectrum
    naming its pair and least eigenvalue."""
    if cut.neg.any():
        s = int(cut.neg.argmax())
        raise NegativeSpectrum(f"Choi block {keys[cut.live[s]]}: eigenvalue {cut.w[s, -1]:.3e}")
    return cut


def _block_kraus(keys, cut: linalg.Cut, d: int, e: int) -> dict:
    """Minimal Kraus maps of the linalg.Cut of a stack of Choi blocks of the
    factor pairs ``keys``, all d e x d e: one map per eigenpair the cut
    keeps (a 1x1 block c: √c iff Re c > 0).  A block whose cut is negative
    raises (_psd_cut).  Each pair that keeps a map, in the order of ``keys``,
    gets the read-only, C-contiguous (rank, e, d) prefix of its row of one
    (live, r, e, d) stack; a pair that keeps none is absent."""
    _psd_cut(keys, cut)
    r = int(cut.rank.max(initial=0))
    # Map k is unvec(√w_k v_k)† = conj(√w_k v_k) read row-major as e x d.
    roots = np.sqrt(np.maximum(cut.w[:, None, :r], 0.0))
    maps = np.ascontiguousarray((roots * cut.v[:, :, :r]).conj().swapaxes(1, 2))
    maps = maps.reshape(len(maps), r, e, d)
    maps.setflags(write=False)
    return {keys[s]: m[:rank] for s, rank, m in zip(cut.live.tolist(), cut.rank.tolist(), maps)
            if rank}


def from_kraus(kraus, src: System, tgt: System) -> CpMorphism:
    """CP morphism of a Kraus family from outside: factor pairs (i, j) mapped
    to lists of e_j x d_i matrices H_i -> K_j, as a dict or as a
    systems.KeyedStack of (k, count, e, d) maps.

    Either form is grouped by class and map count (systems.located) and
    scanned and shape-checked once per group: the first failing map in
    input order, or pair outside the layout, raises.  The checked groups go
    to CpMorphism.held, which stores read-only views of them once, as
    kraus_stacks: copies of a dict's maps, a KeyedStack's maps as they are.
    It forms no Choi block and runs no cut until one is read.
    """
    lay = layout(src.dims, tgt.dims)
    groups, fails = located(lay, kraus, "Kraus index", maps=True)
    stacks = linalg.as_complex_groups(groups, fails, failure_at, lay, "Kraus map for pair")
    return CpMorphism.held(src, tgt, [
        (c, np.asarray(slots), stack.reshape((len(slots), count) + shape))
        for (_, shape, c, count, slots, _), stack in zip(groups, stacks)
    ])


def choi_vecs(maps: np.ndarray) -> np.ndarray:
    """The (p, e d, count) stack V of a (p, count, e, d) stack of maps:
    column t of V is vec(M_t†) = conj(M_t) read row-major."""
    p, count, e, d = maps.shape
    return np.ascontiguousarray(maps.reshape(p, count, e * d).conj().swapaxes(1, 2))


def _choi_blocks(maps: np.ndarray) -> np.ndarray:
    """The Choi blocks V V† of a (p, count, e, d) stack of maps."""
    return linalg.gram(choi_vecs(maps))


def _stacked_kraus(f: CpMorphism) -> dict:
    """Held family of a morphism born from Kraus maps: each pair with maps,
    in key order, to its row of kraus_stacks; a pair with more maps than
    d_i e_j holds the to_kraus maps of its own class's cut instead."""
    lay = f.blocks.layout
    held = {}
    for c, slots, maps in f.kraus_stacks:
        klass = lay.classes[c]
        keys = [klass.keys[s] for s in slots.tolist()]
        if maps.shape[1] > klass.n:
            minimal = _block_kraus(klass.keys, f.cut(c), *klass.dims)
            held.update((key, minimal[key]) for key in keys if key in minimal)
        else:
            held.update(zip(keys, maps))
    return {key: held[key] for key in sorted(held)}


def to_kraus(f: CpMorphism) -> dict:
    """Minimal Kraus family, read off the cut f keeps of each class: one map
    per retained eigenpair, as a read-only (rank, e, d) stack per pair that
    keeps one, in key order; a pair that keeps none is absent."""
    kraus = {}
    for c, klass in enumerate(f.blocks.layout.classes):
        kraus.update(_block_kraus(klass.keys, f.cut(c), *klass.dims))
    return {key: kraus[key] for key in sorted(kraus)}


def apply(f: CpMorphism, x) -> list:
    """Apply the CP morphism to an algebra element of the source."""
    x = f.source.check_element(x)
    out = []
    for j, e in enumerate(f.target.dims):
        acc = np.zeros((e, e), dtype=complex)
        for i, d in enumerate(f.source.dims):
            blk = f.blocks[(i, j)]
            if d == 1 and e == 1:
                acc[0, 0] += blk[0, 0].conjugate() * x[i][0, 0]
                continue
            b4 = blk.reshape(e, d, e, d)
            # block = Σ |vec M†><vec M†| gives Σ M x M† = einsum below.
            acc += np.einsum("iajb,ab->ij", b4.conj(), x[i])
        out.append(acc)
    return out


@shared
def identity_channel(sys: System) -> CpMorphism:
    """The identity channel of sys, one map I per factor, shared per system
    (groups.shared) with what is kept on it."""
    return CpMorphism.held(sys, sys, {(i, i): np.eye(d, dtype=complex)[None]
                                      for i, d in enumerate(sys.dims)})


def add(f: CpMorphism, g: CpMorphism, cf: float = 1.0, cg: float = 1.0) -> CpMorphism:
    """cf f + cg g, a nonnegative combination of Choi blocks, class by
    class.  A negative or non-finite coefficient raises PsdViolation, naming
    it, before any block is formed."""
    for name, c in (("cf", cf), ("cg", cg)):
        if not 0 <= c < np.inf:
            raise PsdViolation(f"add: coefficient {name} = {c} is not finite and nonnegative")
    if f.source != g.source or f.target != g.target:
        raise SystemMismatch("can only add CP morphisms with equal types")
    parts = [
        (klass, cf * a + cg * b) for (klass, a), (_, b) in zip(f.blocks.classes(), g.blocks.classes())
    ]
    return CpMorphism.stacked(f.source, f.target, parts)


def compose(g: CpMorphism, f: CpMorphism) -> CpMorphism:
    """Composite g ∘ f (f first), read off what g holds.

    A g that holds maps (born from Kraus maps, or keeping a cut of its
    blocks, groups.is_kept) multiplies its held family with f's: the held
    families hold only the pairs (i, j) of f and (j, k) of g that have
    maps, in key order, so only those are visited; each pair (i, k)
    collects its products n @ m with j ascending, then m, then n, and the
    composite is born from Kraus maps.

    A Choi-born g that keeps no cut is conjugated by f's held maps, with no
    cut of its blocks: block (i, k) of g ∘ f is
    Σ_j Σ_m (I ⊗ M†) G_(j,k) (I ⊗ M†)† over the maps M of f's pair (i, j),
    j ascending, then m (_conjugated), and the composite is Choi-born.
    """
    if f.target != g.source:
        raise SystemMismatch("compose: target of f must equal source of g")
    if g.kraus_stacks is None and not is_kept(g, CpMorphism.cut):
        return _conjugated(g, f)
    g_rows = {}
    for (j, k), ns in g.kraus().items():
        g_rows.setdefault(j, []).append((k, ns))
    kraus = {}
    for (i, j), ms in f.kraus().items():
        for k, ns in g_rows.get(j, ()):
            kraus.setdefault((i, k), []).extend(n @ m for m in ms for n in ns)
    return CpMorphism.held(f.source, g.target, kraus)


def _conjugated(g: CpMorphism, f: CpMorphism) -> CpMorphism:
    """g ∘ f from g's blocks and f's held maps: block (i, k) is the sum over
    j ascending, then over the maps M (e_j x d_i) of pair (i, j), of
    X G_(j,k) X†, X = I_{c_k} ⊗ M†.  Each term is two steps A -> (A (I ⊗ M))†,
    one product with M of A read as rows of length e_j each.

    f's pairs are batched by (d_i, e_j, map count), and a batch meets each
    class (e_j, c) of g in one stacked product per step.  The terms join
    the sums in rounds, round r holding the r-th pair of each source factor
    i, so that the pairs of one batch in one round reach distinct blocks."""
    lay, glay = layout(f.source.dims, g.target.dims), g.blocks.layout
    src_pos, mid_pos = dim_classes(f.source.dims)[1], dim_classes(f.target.dims)[1]
    batches, last, r = {}, None, 0
    for (i, j), maps in f.kraus().items():
        r = r + 1 if i == last else 0
        last = i
        batch = batches.setdefault((f.source.dims[i], f.target.dims[j], len(maps)),
                                   ([], [], [], []))
        for part, value in zip(batch, (i, j, r, maps)):
            part.append(value)
    acc = [None] * len(lay.classes)
    sums = []  # (round, output stack, output slots, terms)
    for (d, e, count), (rows, mids, rounds, maps) in batches.items():
        m = np.array(maps)[:, :, None]  # (p, count, 1, e, d)
        rounds = np.array(rounds)
        for gc, gk in enumerate(glay.classes):
            if gk.dims[0] != e:
                continue
            (a, b), c = gk.shape, gk.dims[1]
            # Blocks G_(j,k) of the batch's j and every k, read as rows of length e.
            z = g.blocks.stack(gc).reshape(a, b, c * c * e, e)[mid_pos[mids]][:, None] @ m
            z = np.ascontiguousarray(z.reshape(-1, count, b, c * e, c * d).conj().swapaxes(3, 4))
            z = (z.reshape(-1, count, b, c * d * c, e) @ m).reshape(-1, count, b, c * d, c * d)
            terms = z.conj().swapaxes(3, 4)
            oc = lay.index[(d, c)]
            if acc[oc] is None:
                acc[oc] = np.zeros((len(lay.classes[oc].keys), c * d, c * d), dtype=complex)
            at = src_pos[rows][:, None] * b + np.arange(b)
            sums += [(r, acc[oc], at[rounds == r], terms[rounds == r])
                     for r in set(rounds.tolist())]
    for _, out, at, terms in sorted(sums, key=lambda part: part[0]):
        for t in range(terms.shape[1]):
            out[at] += terms[:, t]
    return CpMorphism.stacked(f.source, g.target, [
        (klass, stack) for klass, stack in zip(lay.classes, acc) if stack is not None])


def dagger(f: CpMorphism) -> CpMorphism:
    """Hermitian adjoint with respect to the functional inner products.

    Block (j, i) of f† is the weighted adjoint image of block (i, j):
    (w_j / w_i) times the vec-space image under a -> a† (BlockStore.adjoint,
    which relations.converse reads unweighted), so that functional
    adjointness <y, f(x)>_B = <f†(y), x>_A holds.
    """
    sw, tw = np.array(f.source.weights), np.array(f.target.weights)
    lay = f.blocks.layout
    tl = layout(lay.tgt_dims, lay.src_dims)
    return CpMorphism(f.target, f.source, BlockStore(tl, [
        (tw[k.rows] / sw[k.cols])[:, None, None] * f.blocks.adjoint(lay.index[k.dims[::-1]])
        for k in tl.classes]))


def choi_marginal(f: CpMorphism) -> list:
    """Per source dimension, in layout.row_groups order: (factors i, stack of
    their Choi marginals Σ_j w_j Tr_outer(block_ij) = Σ_{j,k} w_j M† M)."""
    return _marginals(f.blocks, f.target.weights)


def _marginals(store: BlockStore, coeffs) -> list:
    """Per source dimension, in layout.row_groups order: (factors i, stack of
    Σ_j coeffs[j] Tr_outer(block_ij)); choi_marginal passes the target
    weights, relations.marginal the target dimensions.

    One batched trace per class; the sum runs over j ascending for all
    source factors of one dimension at once, as the per-factor sum would.
    """
    lay = store.layout
    coeffs = np.array(coeffs)
    terms = {}
    for klass, stack in store.classes():
        d, e = klass.dims
        t = coeffs[klass.cols][:, None, None] * linalg.trace_outer(stack, e, d)
        terms[klass.dims] = t.reshape(klass.shape + (d, d))
    col_pos = lay.col_pos.tolist()
    groups = []
    for d, rows in lay.row_groups.items():
        acc = np.zeros((len(rows), d, d), dtype=complex)
        for j, e in enumerate(lay.tgt_dims):
            acc += terms[(d, e)][:, col_pos[j]]
        groups.append((rows, acc))
    return groups


def is_channel(f: CpMorphism, tol: float = TOL_PROJ) -> bool:
    """Counit preservation: Σ_{j,k} w_j M†M = w_i I per source factor.

    The verdict is the conjunction of the Choi-marginal form and functional
    preservation on the φ-basis, both read off the marginal: on u = E_pq / √w_i,
    φ_B(f(u)) − φ_A(u) is entry (q, p) of (marg_i − w_i I) / √w_i, so on
    weights below 1 the functional test is the stricter one.

    Neither defect depends on tol: both are kept on f (_marginal_defects),
    and every call compares them with its own tol, Frobenius first.
    """
    scale = max(1.0, f.norm())
    frob, worst = _marginal_defects(f)
    if frob >= tol * scale:
        return False
    return bool(worst < tol * scale * FUNCTIONAL_SLACK)


@kept
def _marginal_defects(f: CpMorphism) -> tuple:
    """(largest Frobenius norm, largest entry over √w_i) of marg_i − w_i I
    over the source factors i."""
    sw = np.array(f.source.weights)
    defects = [
        (marg - sw[rows][:, None, None] * np.eye(marg.shape[1]), sw[rows])
        for rows, marg in choi_marginal(f)
    ]
    frob = max(linalg.frobs(m).max() for m, _ in defects)
    worst = max((np.abs(m).max(axis=(1, 2)) / np.sqrt(w)).max() for m, w in defects)
    return float(frob), float(worst)


def is_star_homomorphism(f: CpMorphism) -> bool:
    """Multiplicative, unital and star-preserving on a spanning set."""
    return _hom_defects(f)[0] < TOL_PROJ


def is_star_cohomomorphism(f: CpMorphism) -> bool:
    """Comultiplicative, counital and star-preserving; equivalently the dagger
    is a star-homomorphism.  Implies is_channel."""
    sw, tw = np.array(f.source.weights), np.array(f.target.weights)
    # Block (j, i) of f† is w_j / w_i times an antiunitary image of block (i, j).
    return _hom_defects(dagger(f), _negative_parts(f).T * tw[:, None] / sw)[0] < TOL_PROJ


def basis_images(f: CpMorphism) -> list:
    """Per target factor j, the images f(u)_j of the φ-basis u = E_pq / √w_i
    of the source as an (N_A, e_j, e_j) stack in φ-basis order
    (`systems.coords`): f(E_pq)_j is the conjugate of block (i, j) read as
    (e, d, e, d) at [:, p, :, q]."""
    images = basis_image_matrix(f)
    out, pos = [], 0
    for e in f.target.dims:
        rows = images[pos:pos + e * e]
        out.append(np.ascontiguousarray(rows.T).reshape(len(rows.T), e, e))
        pos += e * e
    return out


def basis_image_matrix(f: CpMorphism) -> np.ndarray:
    """The basis images as one (N_B, N_A) matrix: column k holds f(u_k) with
    its target factors in order, each e_j x e_j image read row-major.  One
    reshape, scale and transpose per class, placed by one gather of its
    rows (target factors) and columns (source factors)."""
    src_off, tgt_off = offsets(f.source.dims), offsets(f.target.dims)
    inv = 1.0 / np.sqrt(np.array(f.source.weights))
    out = np.empty((tgt_off[-1], src_off[-1]), dtype=complex)
    for klass, stack in f.blocks.classes():
        d, e = klass.dims
        a, b = klass.shape
        rows, cols = klass.rows[::b], klass.cols[:b]
        imgs = stack.reshape(a, b, e, d, e, d).conj() * inv[rows].reshape(a, 1, 1, 1, 1, 1)
        at = _coords(tgt_off, cols, e * e), _coords(src_off, rows, d * d)
        if not isinstance(at[0], slice) and not isinstance(at[1], slice):
            at = np.ix_(*at)
        # (i, j, r, p, s, q) -> (j, r, s, i, p, q): f(E_pq)_j[r, s] of source factor i.
        out[at] = imgs.transpose(1, 2, 4, 0, 3, 5).reshape(b * e * e, a * d * d)
    return out


def _coords(off: np.ndarray, factors: np.ndarray, size: int):
    """The coordinates of the given factors, ascending and each of ``size``
    coordinates: a slice when the factors are consecutive."""
    first, last = int(factors[0]), int(factors[-1])
    if last - first == len(factors) - 1:
        return slice(int(off[first]), int(off[last]) + size)
    return (off[factors, None] + np.arange(size)).ravel()


def _hom_defects(f: CpMorphism, neg=None):
    """(max over all three equations, (multiplicativity, unit, star)): the
    largest Frobenius norm, over φ-basis pairs and target factors, of
    D_f(u_a, u_b) = f(u_a u_b) − f(u_a) f(u_b), of f(1) − 1 and of
    f(u_a)† − f(u_a†), read off the basis images by u_a u_b = δ_ii' δ_qr E_ps / w_i
    for u_a = E_pq / √w_i, u_b = E_rs / √w_i'.  Unit and star are exact;
    multiplicativity is decided from two bounds, O(N_A e³) per target
    factor of dimension e, and only an input between them runs the
    N_A² pair loop (_pair_defects).

    Lower bound L: the largest exact pair defect over the N_A diagonal
    pairs (u_a†, u_a) and over the row (u_h, u_b), every b, of each source
    factor, h its first basis element E_00 / √w_i (_pair_plan).

    Upper bound U (Choi's Schwarz inequality read through Stinespring): for
    a CP map g, per target factor, with c = max(1, λ_max(g(1))), g / c = W† π(·) W
    with ‖W‖ ≤ 1 and T = 1 − W W† ⪰ 0.  Then
    D_{g/c}(x, y) = W† π(x) T π(y) W = G_{x†}† G_y with G_z = T^{1/2} π(z) W, so
    ‖D_{g/c}(u_a, u_b)‖_F ≤ ‖G_{u_a†}‖_F ‖G_{u_b}‖_F and ‖G_z‖_F² = tr D_{g/c}(z†, z);
    u ↦ u† permutes the φ-basis, so every pair is at most t = max_a
    tr D_{g/c}(u_a†, u_a).  As D_g = c D_{g/c} − (c − 1)/c · g(x) g(y),
    U(g) = c t + (c − 1)/c · max_a ‖g(u_a)‖_F².

    f is CP only as far as its blocks are: a block given from outside
    passes the PSD check with a least eigenvalue down to −TOL_SPEC times its
    top, and the Hermitian check with a skew part.  So f = g + δ with g CP,
    its blocks the Hermitian parts of f's plus ε_ij 1, ε_ij the negative part
    of block (i, j)'s least eigenvalue (neg, by default _negative_parts(f)),
    and δ = k − τ 1: k the skew part, ‖k(u_a)‖_F = ‖f(u_a)† − f(u_a†)‖_F / 2,
    and τ(x) = Σ_i ε_ij tr x_i.  With Δ_a ≥ ‖δ(u_a)‖_F, Δ = max_a Δ_a and
    S = max_a ‖f(u_a)‖_F,
    D_f(x, y) = D_g(x, y) + δ(xy) − δ(x) f(y) − f(x) δ(y) + δ(x) δ(y), so the
    multiplicativity defect is at most U = U(g) + max_a Δ_a / √w_i + 2 Δ S + Δ²,
    U(g) read off f's traces and norms shifted by τ and Δ (_upper_bound).
    A library-made morphism has ε = 0 and a skew part of round-off.

    Each pair defect of L, U and the loop's defect are within
    linalg.PRODUCT_GUARD · e times the magnitudes they sum of their exact
    values: L less its pair's guard ≥ TOL_PROJ reports L (multiplicative
    fails, exactly: L is a pair defect) and U plus its guard < TOL_PROJ
    reports U (holds); the multiplicativity reported is the bound that
    decided, or the loop's exact value.  A t_a below minus the guard
    means g is not CP after all (a map derived from a not-quite-CP input,
    whose ε no kept cut records), and sends f to the loop."""
    src = f.source
    plan = _pair_plan(src.dims, src.weights)
    ones = apply(f, src.identity())
    unit = _diff(ones, f.target.identity())
    images = basis_images(f)
    stars = []
    for imgs in images:
        # The plan's first N_A left indices are those of u_a†.
        adj = imgs.conj().transpose(0, 2, 1) - imgs[plan.left[:len(imgs)]]
        stars.append(np.linalg.norm(adj.reshape(len(adj), -1), axis=1))
    star = float(max(s.max() for s in stars))
    low, sure_low, moments = _lower_bound(plan, images)
    if sure_low >= TOL_PROJ:
        mult = low
    else:
        neg = _negative_parts(f) if neg is None else neg
        high, sure_high = _upper_bound(plan, moments, ones, stars, neg)
        mult = high if sure_high < TOL_PROJ else _pair_defects(src, images)
    return max(mult, unit, star), (mult, unit, star)


def _negative_parts(f: CpMorphism) -> np.ndarray:
    """(source factors, target factors) array: per Choi block, the negative
    part of the least eigenvalue of its Hermitian part, read off the cut of
    its class where f keeps one (a morphism whose blocks came from outside
    keeps every cut, from its PSD check), else 0: a block of a class with no
    kept cut is the library's own, PSD to round-off."""
    neg = np.zeros((f.source.nfactors, f.target.nfactors))
    for c, klass in enumerate(f.blocks.layout.classes):
        if is_kept(f, CpMorphism.cut, c):
            cut = f.cut(c)
            i, j = np.array(klass.keys).reshape(-1, 2)[cut.live].T
            neg[i, j] = np.maximum(0.0, -cut.w[:, -1])
    return neg


class _PairPlan(NamedTuple):
    """The φ-basis pairs (left[k], right[k]) whose exact defects
    _hom_defects' bounds read: first the diagonal pairs (u_a†, u_a), one
    per basis element a in φ-basis order, then the row (u_h, u_b) over
    every b of each source factor i, h = (i, 0, 0) its first element.  A
    pair whose product is nonzero, own_pair[k], has
    u_left u_right = u_own[k] / own_roots[k]: u_a† u_a = u_(i, q, q) / √w_i
    for a = (i, p, q), and u_h u_b = u_(i, 0, s) / √w_i for b = (i, 0, s);
    the diagonal pairs come first there too.  Per basis element a =
    (i, p, q), factor[a] is i and diagonal[a] whether p = q."""

    left: np.ndarray
    right: np.ndarray
    own_pair: np.ndarray
    own: np.ndarray
    own_roots: np.ndarray
    factor: np.ndarray
    diagonal: np.ndarray


@lru_cache(maxsize=128)
def _pair_plan(dims: tuple, weights: tuple) -> _PairPlan:
    """The read-only _PairPlan of a system's dims and weights."""
    off = offsets(dims)
    n = int(off[-1])
    grids = [o + np.arange(d * d).reshape(d, d) for o, d in zip(off, dims)]
    roots = np.sqrt(np.array(weights))
    row_at = np.concatenate([o + np.arange(d) for o, d in zip(off, dims)])
    row_of = np.repeat(np.arange(len(dims)), dims)
    plan = _PairPlan(
        np.concatenate([g.T.ravel() for g in grids] + [np.repeat(off[:-1], n)]),
        np.concatenate([np.arange(n), np.tile(np.arange(n), len(dims))]),
        np.concatenate([np.arange(n), n + row_of * n + row_at]),
        np.concatenate([np.tile(g.diagonal(), d) for g, d in zip(grids, dims)] + [row_at]),
        np.concatenate([np.repeat(roots, np.square(dims)), roots[row_of]])[:, None, None],
        np.repeat(np.arange(len(dims)), np.square(dims)),
        np.concatenate([np.eye(d, dtype=bool).ravel() for d in dims]),
    )
    for part in plan:
        part.setflags(write=False)
    return plan


def _lower_bound(plan: _PairPlan, images: list) -> tuple:
    """(L, the largest pair defect less its guard, moments) of _hom_defects
    from the basis images: L the largest exact defect of the plan's pairs
    (x, y), each guarded by PRODUCT_GUARD · e · max(1, ‖f(x)‖_F ‖f(y)‖_F +
    ‖f(xy)‖_F), and per target factor the moments _upper_bound reads,
    (Re tr f(u_a† u_a), ‖f(u_a)‖_F) per a."""
    low, sure, moments = 0.0, -np.inf, []
    for imgs in images:
        n, e = imgs.shape[:2]
        norms = linalg.frobs(imgs)
        prods = imgs[plan.left] @ imgs[plan.right]
        own = imgs[plan.own] / plan.own_roots
        prods[plan.own_pair] -= own
        sizes = norms[plan.left] * norms[plan.right]
        sizes[plan.own_pair] += linalg.frobs(own)
        defects = linalg.frobs(prods)
        low = max(low, float(defects.max()))
        sure = max(sure, float((defects - PRODUCT_GUARD * e * np.maximum(1.0, sizes)).max()))
        moments.append((np.einsum("aii->a", own[:n]).real, norms))
    return low, sure, moments


def _upper_bound(plan: _PairPlan, moments: list, ones: list, stars: list,
                 neg: np.ndarray) -> tuple:
    """(U, U plus its guard) of _hom_defects from the moments of
    _lower_bound, f(1), the star defects per basis element and the negative
    parts ε, per target factor j of dimension e, for a = (i, p, q):
    Δ_a = star_a / 2 + √e ε_ij δ_pq / √w_i ≥ ‖δ(u_a)‖_F;
    c = max(1, λ_max(f(1)) + Σ_i ε_ij d_i) ≥ λ_max(g(1));
    t_a = tr g(u_a† u_a) / c − (‖f(u_a)‖_F − Δ_a)₊² / c² ≥ tr D_{g/c}(u_a†, u_a),
    with tr g(u_a† u_a) = Re tr f(u_a† u_a) + e ε_ij / w_i; and
    U = c max_a t_a + (c − 1)/c (S + Δ)² + max_a Δ_a / √w_i + 2 Δ S + Δ².
    The guard is PRODUCT_GUARD · e · (1 + max_a (|tr g(u_a† u_a)| +
    ‖f(u_a)‖_F² / c) + 2 (S + Δ)² + max_a ‖f(u_a)‖_F / √w_i): the traces and
    squares t sums, the error of λ_max times ∂U/∂c ≤ 2 S² / c², and the own
    terms the loop subtracts.  A c t_a below minus the guard gives
    (inf, inf)."""
    roots = plan.own_roots[:len(plan.factor), 0, 0]  # √w_i of each basis element's factor
    high = sure = 0.0
    for (trace, norms), one, star, eps in zip(moments, ones, stars, neg.T):
        e = len(one)
        eps = eps[plan.factor]
        delta = star / 2 + np.sqrt(e) * np.where(plan.diagonal, eps / roots, 0.0)
        c = max(1.0, linalg.top_eigenvalue(one) + float(eps[plan.diagonal].sum()))
        trace = trace + e * eps / roots ** 2
        t = trace / c - np.maximum(norms - delta, 0.0) ** 2 / c ** 2
        most, size = delta.max(), (norms.max() + delta.max()) ** 2
        guard = PRODUCT_GUARD * e * (1 + (np.abs(trace) + norms ** 2 / c).max() + 2 * size
                                     + (norms / roots).max())
        if c * t.min() < -guard:
            return np.inf, np.inf
        u = (c * max(0.0, t.max()) + (c - 1) / c * size + (delta / roots).max()
             + 2 * most * norms.max() + most ** 2)
        high, sure = max(high, u), max(sure, u + guard)
    return float(high), float(sure)


def _pair_defects(src: System, images: list) -> float:
    """The exact multiplicativity defect over all N_A² φ-basis pairs, from
    the basis images of each target factor of dimension e: all products
    f(u_a) f(u_b) come from one (N_A e x e) @ (e x N_A e) product, entry
    (a, r, b, t) holding (f(u_a) f(u_b))[r, t]; the own-factor terms
    f(u_ps) / √w_i are subtracted in place, per source factor i and q,
    from the d x d grid of pairs (a, b) = ((p, q), (q, s))."""
    roots = np.sqrt(np.array(src.weights))
    mult = 0.0
    for imgs in images:
        n, e = imgs.shape[:2]
        rows, cols = imgs.reshape(n * e, e), imgs.transpose(1, 0, 2).reshape(e, n * e)
        prod = (rows @ cols).reshape(n, e, n, e)
        for i, (off, d) in enumerate(zip(offsets(src.dims), src.dims)):
            own = imgs[off:off + d * d].reshape(d, d, e, e)
            scaled = own.transpose(0, 2, 1, 3) / roots[i]  # (p, r, s, t)
            for q in range(d):
                prod[off + q:off + d * d:d, :, off + q * d:off + q * d + d] -= scaled
        # Σ_rt |z|² per pair (a, b), read as floats: each z is (re, im).
        sq = prod.view(float).reshape(n, e, n, 2 * e)
        mult = max(mult, float(np.sqrt(np.einsum("arbt,arbt->ab", sq, sq).max())))
    return mult


def cp_norm_diff(f: CpMorphism, g: CpMorphism) -> float:
    if f.source != g.source or f.target != g.target:
        raise SystemMismatch("cannot compare CP morphisms of different types")
    return f.blocks.distance(g.blocks)


def channelize(f: CpMorphism) -> CpMorphism:
    """Rescale a CP morphism into a channel by conjugating each source factor
    with the inverse square root of its Choi marginal (must be invertible)."""
    roots = {i: linalg.inv_sqrt_psd(linalg.hermitize(m / f.source.weights[i]))
             for rows, marg in choi_marginal(f) for i, m in zip(rows, marg)}
    parts = []
    for klass, stack in f.blocks.classes():
        d, e = klass.dims
        b = klass.shape[1]
        s = np.repeat(np.stack([roots[i] for i in klass.rows[::b]]), b, axis=0)
        conj = linalg.kron_stack(np.eye(e, dtype=complex), s)  # kron(I_e, s) per member
        parts.append((klass, conj @ stack @ conj.conj().swapaxes(1, 2)))
    return CpMorphism.stacked(f.source, f.target, parts)
