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
block mapping.  Next to the blocks a morphism holds a read-only Kraus family
(CpMorphism.kraus), which tensor products Kronecker instead of
diagonalizing Choi blocks.  compose reads what its left factor g holds: a
g that holds maps (born from Kraus maps, or keeping a cut of its blocks)
multiplies them with the right factor's held maps, and a Choi-born g that
keeps no cut is conjugated block by block by the right factor's held
maps, giving a Choi-born composite with no cut of a block of g.  A held
family maps each pair that has maps, in key order, to the read-only
(count, e, d) stack of its maps; a pair without maps is absent:

  * a morphism born from Kraus maps (from_kraus, which scans and
    shape-checks them once per class and map count, compose of a g that
    holds maps, tensor products, identity channels and
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
channelize read), or its reshape into basis images (basis_images).
What a morphism derives without a tolerance is kept on it (groups.kept).

The input's type is the one trust rule (see systems): Choi blocks given as a
dict or a KeyedStack are scanned, shape-checked, and PSD-checked by the kept
cut every later reader reads (CpMorphism.cut), a BlockStore is the
library's own and taken as it is, and every Kraus family goes through
from_kraus, which scans and shape-checks it, but classical.embed_channel's:
its 1x1 maps go to _from_stacks unscanned, being square roots of entries
that check_stochastic has scanned.

Channels preserve the separable standard functional: for every source factor
i, Σ_{j,k} w_j M_ijk† M_ijk = w_i I.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType

import numpy as np

from . import linalg
from .errors import (
    NegativeSpectrum,
    PsdViolation,
    ShapeMismatch,
    SystemMismatch,
)
from .groups import dim_classes, is_kept, kept, shared
from .linalg import FUNCTIONAL_SLACK, TOL_PROJ, VALIDATE_SLACK
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
    """CP morphism of a Kraus family: factor pairs (i, j) mapped to lists of
    e_j x d_i matrices H_i -> K_j, as a dict or as a systems.KeyedStack of
    (k, count, e, d) maps.

    Either form is grouped by class and map count (systems.located) and
    scanned and shape-checked once per group, whoever built it: the first
    failing map in input order, or pair outside the layout, raises.  The
    morphism stores read-only views of the group stacks once, as
    kraus_stacks: copies of a dict's maps, a KeyedStack's maps as they are.
    It forms no Choi block and runs no cut until one is read.
    """
    lay = layout(src.dims, tgt.dims)
    groups, fails = located(lay, kraus, "Kraus index", maps=True)
    stacks = linalg.as_complex_groups(groups, fails, failure_at, lay, "Kraus map for pair")
    return _from_stacks(src, tgt, lay, [
        (c, np.asarray(slots), stack.reshape((len(slots), count) + shape))
        for (_, shape, c, count, slots, _), stack in zip(groups, stacks)
    ])


def _from_stacks(src: System, tgt: System, lay, stacks) -> CpMorphism:
    """Morphism of Kraus maps stacked per class and map count: ``stacks`` holds
    (class index, slots of the pairs in the class, (p, count, e, d) maps)
    triples.

    The triples, their maps made read-only, are the one stored copy
    (kraus_stacks); the store forms block (i, j) = V V† from them on the
    first read of its class, and kraus() the held family on its first call.
    """
    parts = [[] for _ in lay.classes]
    for c, slots, maps in stacks:
        maps.setflags(write=False)
        parts[c].append((slots, maps))
    f = CpMorphism(src, tgt, BlockStore(lay, [
        partial(class_stack, klass, got, _choi_blocks) if got else None
        for klass, got in zip(lay.classes, parts)]))
    f.kraus_stacks = tuple(stacks)
    return f


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
    kraus = {(i, i): [np.eye(d, dtype=complex)] for i, d in enumerate(sys.dims)}
    return from_kraus(kraus, sys, sys)


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
    return from_kraus(kraus, f.source, g.target)


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
    (w_j / w_i) times the vec-space image under a -> a†, so that
    functional adjointness <y, f(x)>_B = <f†(y), x>_A holds.
    """
    sw, tw = np.array(f.source.weights), np.array(f.target.weights)
    parts = []
    for klass, stack in f.blocks.transposed():
        e, d = klass.dims
        w = tw[klass.rows] / sw[klass.cols]
        parts.append((klass, w[:, None, None] * linalg.adjoint_image(stack, d, e)))
    return CpMorphism.stacked(f.target, f.source, parts)


def choi_marginal(f: CpMorphism) -> list:
    """Per source dimension, in layout.row_groups order: (factors i, stack of
    their Choi marginals Σ_j w_j Tr_outer(block_ij) = Σ_{j,k} w_j M† M).

    One batched trace per class; the sum runs over j ascending for all
    source factors of one dimension at once, as the per-factor sum would.
    """
    lay = f.blocks.layout
    tw = np.array(f.target.weights)
    terms = {}
    for klass, stack in f.blocks.classes():
        d, e = klass.dims
        t = tw[klass.cols][:, None, None] * linalg.trace_outer(stack, e, d)
        terms[klass.dims] = t.reshape(klass.shape + (d, d))
    col_pos = lay.col_pos.tolist()
    groups = []
    for d, rows in lay.row_groups.items():
        acc = np.zeros((len(rows), d, d), dtype=complex)
        for j, e in enumerate(f.target.dims):
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
    return _hom_defects(dagger(f))[0] < TOL_PROJ


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


def _hom_defects(f: CpMorphism):
    """(max over all three equations, (multiplicativity, unit, star)): the
    largest Frobenius norm, over φ-basis pairs and target factors, of
    f(u_a u_b) − f(u_a) f(u_b) and f(u_a)† − f(u_a†), read off the basis images
    by u_a u_b = δ_ii' δ_qr E_ps / w_i for u_a = E_pq / √w_i, u_b = E_rs / √w_i'.

    Per target factor of dimension e, all N_A² products f(u_a) f(u_b) come
    from one (N_A e x e) @ (e x N_A e) product, entry (a, r, b, t) holding
    (f(u_a) f(u_b))[r, t]; the own-factor terms f(u_ps) / √w_i are
    subtracted in place, per source factor i and q, from the d x d grid of
    pairs (a, b) = ((p, q), (q, s))."""
    src = f.source
    roots = np.sqrt(np.array(src.weights))
    mult = star = 0.0
    for imgs in basis_images(f):
        n, e = imgs.shape[:2]
        rows, cols = imgs.reshape(n * e, e), imgs.transpose(1, 0, 2).reshape(e, n * e)
        prod = (rows @ cols).reshape(n, e, n, e)
        adj = imgs.conj().transpose(0, 2, 1)
        for i, (off, d) in enumerate(zip(offsets(src.dims), src.dims)):
            own = imgs[off:off + d * d].reshape(d, d, e, e)
            scaled = own.transpose(0, 2, 1, 3) / roots[i]  # (p, r, s, t)
            for q in range(d):
                prod[off + q:off + d * d:d, :, off + q * d:off + q * d + d] -= scaled
            adj[off:off + d * d] -= own.transpose(1, 0, 2, 3).reshape(d * d, e, e)
        # Σ_rt |z|² per pair (a, b), read as floats: each z is (re, im).
        sq = prod.view(float).reshape(n, e, n, 2 * e)
        mult = max(mult, float(np.sqrt(np.einsum("arbt,arbt->ab", sq, sq).max())))
        star = max(star, float(np.max(np.linalg.norm(adj.reshape(-1, e * e), axis=1))))
    unit = _diff(apply(f, src.identity()), f.target.identity())
    return max(mult, unit, star), (mult, unit, star)


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
