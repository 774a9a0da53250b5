"""Quantum relations: the possibilistic shadow of CP morphisms.

A relation A -> B stores one orthogonal projection per factor pair (i, j),
acting on vec(Hom(K_j, H_i)): the subspace spans the adjoints of the Kraus
maps of any CP representative.  The projections live in the block store, one
(k, n, n) stack per (d_i, e_j) class, and beside them the relation carries
an orthonormal frame of every block: per class, linalg.Frames with the
vectorized operators a_r whose span the block projects onto.

Frames come from the kernel that made the block.  support_of keeps the
left singular vectors of the vec(M†) stack of the maps a Kraus-born
morphism stores, and the eigenvectors of the kept cut of a Choi-born one
(CpMorphism.cut, which its PSD check read); compose keeps the left
singular vectors of its span, and so does the confusability graph, which
is ℜ(f)† ∘ ℜ(f) as compose spans it, symmetric by construction up to
round-off; converse maps each frame by a -> a†, and discrete and complete
have closed forms.  Where the kernel
holds only frames, the relation forms the projections of a class from them
on the first read of that class (QuantumRelation.stacked).  A relation
given as plain projections takes its frames on first read, by one batched
eigh per class.  By the one trust rule (see systems), projections given as
a dict or a KeyedStack are scanned, shape-checked and projection-checked;
a BlockStore is the library's own and taken as it is, and frames come only
with one.

Composition is the span of the operator products over the middle factors.
A relation keeps the frame operators of each class (operators, through
groups.kept), and the index arrays of compose are built once per triple of
dims (_plan).  Per output class and middle class, every product a @ b of
frame operators comes from one batched matmul; the members with equal
product counts then share one batched SVD, and a class of one member spans
its family with no grouping.  Between 1x1 blocks through 1-dim middles it
is the boolean product of the support patterns.  Supports, converses,
containment and defects run one batched kernel per class.

A relation whose frames are held keeps its converse, so the ℜ(f)† of the
confusability graph, the homomorphism pullback and the reverse channel is
made once per support relation.  The converse forms its blocks and frames
on first read, from p's, not from p, so the two make no reference cycle,
and a compose, which reads only frames, forms no block of either; each of
its classes is p's store's adjoint image (BlockStore.adjoint), the one the
dagger of a CP morphism weights.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from . import linalg
from .cpmaps import CpMorphism, _hom_defects, _marginals, _psd_cut, channelize, choi_vecs
from .cpmaps import dagger as cp_dagger, is_channel
from .errors import (
    CharacterizationMismatch,
    NoChannel,
    ShapeMismatch,
    SystemMismatch,
)
from .groups import kept, shared
from .linalg import TOL_PROJ, TOL_ROUNDTRIP, TOL_SPEC, TOL_SPEC_SV, VALIDATE_SLACK, Frames
from .systems import BlockStore, System, block_store, layout


class QuantumRelation:
    """Immutable family of projections on the vectorized operator spaces,
    with an orthonormal frame of each (see frames); blocks and frames are
    read-only, so a relation can be shared.  Frames are taken only with a
    BlockStore, the library's own blocks: projections from outside are
    checked, and their frames made from them."""

    def __init__(self, source: System, target: System, blocks, frames=None):
        if frames is not None and not isinstance(blocks, BlockStore):
            raise TypeError("frames are taken only with a BlockStore, the library's own blocks")
        self.source = source
        self.target = target
        self.blocks = block_store(source, target, blocks, "relation")
        # A tuple of read-only Frames in class order, a function that makes
        # it, or None: frames of the projections, made on first read.
        self._frames = frames if frames is None or callable(frames) else _read_only(frames)
        self._converse = None
        if not isinstance(blocks, BlockStore):
            defects = self.blocks.keyed(
                linalg.projection_defects(stack) for _, stack in self.blocks.classes()
            )
            bad = np.flatnonzero(defects > VALIDATE_SLACK * TOL_PROJ)
            if bad.size:
                raise ShapeMismatch(
                    f"relation block {self.blocks.layout.keys[bad[0]]} is not a projection "
                    f"(defect {defects[bad[0]]:.2e})"
                )

    @classmethod
    def stacked(cls, source: System, target: System, frames, blocks=None) -> "QuantumRelation":
        """Kernel-born relation from its Frames, one for every class of the
        source x target layout, in class order.  Each class forms its
        projections from its frames on first read (none: a class that spans
        nothing is zero), unless ``blocks`` gives the projection stacks."""
        frames = tuple(frames)
        if blocks is None:
            blocks = [fr.projections if fr.vecs.shape[-1] else None for fr in frames]
        return cls(source, target, BlockStore(layout(source.dims, target.dims), blocks),
                   frames=frames)

    def frames(self) -> tuple:
        """linalg.Frames per class of the block store, in classes() order:
        member s of a class projects onto the span of its frame columns
        vec(a_r), a_r : K_j -> H_i, which are orthonormal."""
        if self._frames is None:
            self._frames = _read_only(tuple(
                linalg.projection_frames(stack) for _, stack in self.blocks.classes()))
        elif callable(self._frames):
            self._frames = _read_only(self._frames())
        return self._frames

    @kept
    def operators(self, c: int) -> tuple:
        """The frame operators of class c as compose multiplies them: the
        frame columns as read-only C-ordered (k, r, rows, cols) operators,
        and the read-only (k, r) mask of the columns within each member's
        rank."""
        fr = self.frames()[c]
        d, e = self.blocks.layout.classes[c].dims
        k, _, r = fr.vecs.shape
        ops = np.ascontiguousarray(fr.vecs.reshape(k, e, d, r).transpose(0, 3, 2, 1))
        live = np.arange(r) < fr.ranks[:, None]
        for a in (ops, live):
            a.setflags(write=False)
        return ops, live

    def frame(self, i: int, j: int) -> np.ndarray:
        """Orthonormal frame of block (i, j): its (d_i e_j, rank) columns."""
        c, s = self.blocks.layout.where[(i, j)]
        return self.frames()[c].member(s)

    def rank(self, i: int, j: int) -> int:
        return int(round(float(np.trace(self.blocks[(i, j)]).real)))

    def ranks(self) -> list:
        """rank of every block, in key order: one batched trace per class."""
        traces = self.blocks.keyed(
            np.trace(stack, axis1=1, axis2=2).real for _, stack in self.blocks.classes()
        )
        return [int(round(t)) for t in traces.tolist()]


def _read_only(frames: tuple) -> tuple:
    """frames with their arrays made read-only, as the blocks are, so that a
    relation can be shared."""
    for fr in frames:
        fr.ranks.setflags(write=False)
        fr.vecs.setflags(write=False)
    return frames


@kept
def support_of(f: CpMorphism) -> QuantumRelation:
    """Underlying relation: blockwise support projection of the Choi blocks.

    For a morphism born from Kraus maps, block (i, j) is V V† with V the
    stack of vec(M†) of the maps it stores once (f.kraus_stacks), formed
    here without forming the block; its support is the column span of V:
    one thin SVD per class and map count, cut at TOL_SPEC_SV (the
    eigenvalue cut TOL_SPEC on V V†), whose left singular vectors are the
    frames.  For a morphism born as Choi blocks, linalg.support_projection
    of the cut of the Hermitian part of each class, which f keeps
    (CpMorphism.cut) and to_kraus reads too, and whose kept eigenvectors
    are the frames; a block whose cut is negative raises NegativeSpectrum
    with the constructor's text, on every call.  Kept on f (groups.kept)."""
    return _support_of_maps(f) if f.kraus_stacks is not None else _support_of_blocks(f)


def _support_of_blocks(f: CpMorphism) -> QuantumRelation:
    """support_of from the cuts of the Choi blocks that f keeps."""
    blocks, frames = zip(*(linalg.support_projection(_psd_cut(klass.keys, f.cut(c)))
                           for c, klass in enumerate(f.blocks.layout.classes)))
    return QuantumRelation.stacked(f.source, f.target, frames, blocks)


def _support_of_maps(f: CpMorphism) -> QuantumRelation:
    """support_of from f.kraus_stacks: each member's span goes to its own slot
    of its class, whatever order the maps came in; pairs without maps span
    nothing."""
    lay = f.blocks.layout
    frames = [[] for _ in lay.classes]
    for c, slots, maps in f.kraus_stacks:
        frames[c].append((slots, linalg.span_frames(choi_vecs(maps), tol=TOL_SPEC_SV)))
    return QuantumRelation.stacked(f.source, f.target, (
        Frames.merged(len(klass.keys), klass.n, got) for klass, got in zip(lay.classes, frames)))


@shared
def discrete(sys: System) -> QuantumRelation:
    """Identity relation: diagonal blocks project onto span{vec(I_d)}.
    Shared per system (groups.shared); its blocks and frames are
    read-only."""
    frames = []
    for klass in layout(sys.dims, sys.dims).classes:
        d, e = klass.dims
        diag = klass.rows == klass.cols
        vecs = np.zeros((len(klass.keys), klass.n, int(d == e)), dtype=complex)
        if d == e:
            vecs[diag, :, 0] = linalg.vec(np.eye(d)) / np.sqrt(d)
        frames.append(Frames(diag.astype(int), vecs))
    return QuantumRelation.stacked(sys, sys, frames)


def complete(src: System, tgt: System | None = None) -> QuantumRelation:
    tgt = src if tgt is None else tgt
    # Each class's identity is its own frame; a broadcast view allocates nothing.
    eyes = [np.broadcast_to(np.eye(klass.n, dtype=complex), (len(klass.keys),) + (klass.n,) * 2)
            for klass in layout(src.dims, tgt.dims).classes]
    return QuantumRelation.stacked(src, tgt, [Frames(np.full(len(e), e.shape[1]), e)
                                              for e in eyes], eyes)


def zero_relation(src: System, tgt: System | None = None) -> QuantumRelation:
    tgt = src if tgt is None else tgt
    return QuantumRelation(src, tgt, BlockStore.stacked(src, tgt, ()))


def compose(q: QuantumRelation, p: QuantumRelation) -> QuantumRelation:
    """Composite q ∘ p (p first): spans of operator products over the middle.

    A 1x1 block (i, k) with a product through a 1-dim middle factor is [[1]]
    without forming it: every 1x1 basis operator is [[1]], so such a product
    is [[1]] and the 1-dim span of any family containing it is [[1]].  These
    blocks are the boolean product of the two 1x1 support patterns.  Every
    other block is the span of the products of the frame operators, formed
    per class by _products and spanned by one batched SVD per product count.
    """
    if p.target != q.source:
        raise SystemMismatch("compose: target of p must equal source of q")
    frames = []
    for klass, plan in zip(layout(p.source.dims, q.target.dims).classes,
                           _plan(p.source.dims, p.target.dims, q.target.dims)):
        if klass.dims == (1, 1):
            ranks = _one_dim_hits(p, q)[klass.rows, klass.cols].astype(int)
            if plan[0] and not ranks.all():  # some middle factor is not 1-dim
                miss = np.flatnonzero(ranks == 0)
                ranks[miss] = _spans(p, q, klass, plan, miss).ranks
            # Every block is [[0]] or [[1]], and is its own frame.
            frames.append(Frames(ranks, ranks.astype(complex)[:, None, None]))
        else:
            frames.append(_spans(p, q, klass, plan))
    return QuantumRelation.stacked(p.source, q.target, frames)


@lru_cache(maxsize=128)
def _plan(src_dims: tuple, mid_dims: tuple, tgt_dims: tuple) -> tuple:
    """The index arrays of compose over src -> mid -> tgt, built once per
    triple of dims.  Per output class (in class order), the pair (steps,
    ascending): a step (pk, qk, ps, qs, js) per middle class, with the
    classes pk of p and qk of q it reads, the slots ps of blocks (i, j)
    and qs of blocks (j, k) (member x middle factor), and the middle
    factors js; ascending tells whether the middle factors, step after
    step, run in factor order.  A 1x1 output class takes only the middle
    classes of dimension above 1 (see compose)."""
    pl, ql = layout(src_dims, mid_dims), layout(mid_dims, tgt_dims)
    out = []
    for klass in layout(src_dims, tgt_dims).classes:
        d, f = klass.dims
        steps, order = [], []
        for e, js in ql.row_groups.items():
            if klass.dims == (1, 1) and e == 1:
                continue
            js = np.array(js)
            pk, qk = pl.index[(d, e)], ql.index[(e, f)]
            ps = pl.classes[pk].slots(klass.rows[:, None], js[None, :])
            qs = ql.classes[qk].slots(js[None, :], klass.cols[:, None])
            steps.append((pk, qk, ps, qs, js))
            order += js.tolist()
        out.append((tuple(steps), order == sorted(order)))
    return tuple(out)


def _spans(p: QuantumRelation, q: QuantumRelation, klass, plan, members=None) -> Frames:
    """Frames of the members of an output class (all, or the given
    positions): the span of each member's products, one batched SVD per
    group of members with equal product counts.  A class of one member
    spans its one family, with no grouping."""
    n = klass.n
    vecs, live = _products(p, q, klass, plan, members)
    # Factors are Hilbert-Schmidt-normalized, so genuine products sit well
    # above roundoff; the absolute floor keeps exact zeros zero.
    if len(vecs) == 1:
        family = vecs[0][live[0]].T[None]
        if not family.shape[-1]:
            return Frames.merged(1, n, [])
        return linalg.span_frames(family, floor=TOL_SPEC)
    counts = live.sum(axis=1)
    groups = []
    for c in sorted(set(counts.tolist()) - {0}):
        sel = np.flatnonzero(counts == c)
        family = vecs[sel][live[sel]].reshape(sel.size, c, n).swapaxes(1, 2)
        groups.append((sel, linalg.span_frames(family, floor=TOL_SPEC)))
    return Frames.merged(len(vecs), n, groups)


def _products(p: QuantumRelation, q: QuantumRelation, klass, plan, members):
    """vec(a @ b) for the frame operators a of block (i, j) of p and b of
    block (j, k) of q, for each member (i, k) of the output class and each
    middle factor j of the plan's steps: one batched matmul per middle
    class.  Returns the vectors (m, S, n) and which of them are products
    of frame columns (m, S), both in (j, a, b) order, as the steps give
    them when their middle factors ascend, else reordered."""
    steps, ascending = plan
    n, m = klass.n, len(klass.keys) if members is None else len(members)
    vecs, live, order = [], [], []
    for pk, qk, ps, qs, js in steps:
        (ap, mp), (bq, mq) = p.operators(pk), q.operators(qk)
        ra, rb = ap.shape[1], bq.shape[1]
        if not (ra and rb):
            continue  # one of the two classes is zero: no products
        if members is not None:
            ps, qs = ps[members], qs[members]
        prod = ap[ps][:, :, :, None] @ bq[qs][:, :, None]
        vecs.append(prod.swapaxes(-1, -2).reshape(m, -1, n))
        live.append((mp[ps][..., :, None] & mq[qs][..., None, :]).reshape(m, -1))
        if not ascending:
            order.append(np.repeat(js, ra * rb))
    if not vecs:
        return np.zeros((m, 0, n), dtype=complex), np.zeros((m, 0), bool)
    vecs, live = np.concatenate(vecs, axis=1), np.concatenate(live, axis=1)
    if ascending:
        return vecs, live
    at = np.argsort(np.concatenate(order), kind="stable")
    return vecs[:, at], live[:, at]


def _one_dim_hits(p: QuantumRelation, q: QuantumRelation) -> np.ndarray:
    """hits[i, k]: some 1-dim middle factor j has nonzero 1x1 blocks (i, j)
    of p and (j, k) of q.  Counts of 0/1 products are exact in floats."""
    return (_pattern(p) @ _pattern(q)) > 0


def _pattern(r: QuantumRelation) -> np.ndarray:
    """1.0 where the 1x1 block (i, j) of r is nonzero (its frame is [[1]]),
    0.0 elsewhere and on every larger block."""
    pat = np.zeros((r.source.nfactors, r.target.nfactors))
    for klass, fr in zip(r.blocks.layout.classes, r.frames()):
        if klass.dims == (1, 1):
            pat[klass.rows, klass.cols] = fr.ranks > 0
    return pat


def converse(p: QuantumRelation) -> QuantumRelation:
    """Block (j, i) is the image of block (i, j) under a -> a†, and so is its
    frame, each made when first read (compose reads only the frames).  A
    relation whose frames are held keeps its converse, and every later call
    returns that same object; the converse's frame function reads p's
    frames, never p, so that keeping it makes no reference cycle.  A
    relation given as plain projections whose frames are not yet made gets
    a new converse on each call."""
    if p._converse is not None:
        return p._converse
    lay, held = p.blocks.layout, isinstance(p._frames, tuple)
    tl = layout(lay.tgt_dims, lay.src_dims)
    store = BlockStore(tl, [partial(p.blocks.adjoint, lay.index[klass.dims[::-1]])
                            for klass in tl.classes])
    frames = partial(_converse_frames, lay, p._frames) if held else (
        lambda: _converse_frames(lay, p.frames()))
    c = QuantumRelation(p.target, p.source, store, frames=frames)
    if held:
        p._converse = c
    return c


def _converse_frames(lay, frames: tuple) -> tuple:
    """Frames of the converse of a relation laid out as lay with the given
    frames: each frame column vec(a) becomes vec(a†), at the transposed slot."""
    by_dims = {
        klass.dims[::-1]: Frames(klass.transposed(fr.ranks),
                                 linalg.adjoint_vecs(klass.transposed(fr.vecs), *klass.dims))
        for klass, fr in zip(lay.classes, frames)
    }
    return tuple(by_dims[klass.dims] for klass in layout(lay.tgt_dims, lay.src_dims).classes)


def containment_failures(p: QuantumRelation, q: QuantumRelation, tol: float = TOL_PROJ):
    """Blocks where p ≤ q fails, lazily: (key, ‖q̃ p̃ − p̃‖) for every block whose
    defect exceeds tol·max(1, ‖p̃‖)."""
    if p.source != q.source or p.target != q.target:
        raise SystemMismatch("leq: relations must share source and target")
    per_class = [
        (linalg.frobs(b @ a - a), tol * np.maximum(1.0, linalg.frobs(a)))
        for (_, a), (_, b) in zip(p.blocks.classes(), q.blocks.classes())
    ]
    defects = p.blocks.keyed(defect for defect, _ in per_class)
    bounds = p.blocks.keyed(bound for _, bound in per_class)
    for pos in np.flatnonzero(defects > bounds).tolist():
        yield p.blocks.layout.keys[pos], float(defects[pos])


def leq(p: QuantumRelation, q: QuantumRelation, tol: float = TOL_PROJ) -> bool:
    """p ≤ q iff q̃ p̃ = p̃ blockwise; stops at the first failing block."""
    return next(containment_failures(p, q, tol), None) is None


def relations_equal(p: QuantumRelation, q: QuantumRelation) -> bool:
    if p.source != q.source or p.target != q.target:
        raise SystemMismatch("relations_equal: type mismatch")
    return relation_defect(p, q) <= TOL_PROJ


def relation_defect(p: QuantumRelation, q: QuantumRelation) -> float:
    return p.blocks.distance(q.blocks)


def marginal(p: QuantumRelation) -> list:
    """Partial trace onto the source side, weighted by dimension, not by the
    systems' weights.

    Per source factor s: Σ_t e_t Tr_outer(p̃_st), an operator on H_s, with
    e_t the dimension of target factor t; this is the positive element whose
    invertibility characterizes relations of channels, and whose value is a
    projection for partial functions and the identity for functions.
    """
    marg = {i: m for rows, ms in _marginals(p.blocks, p.target.dims)
            for i, m in zip(rows, linalg.hermitize(ms))}
    return [marg[i] for i in range(p.source.nfactors)]


def relation_as_cp(p: QuantumRelation) -> CpMorphism:
    """Canonical CP morphism of a relation: blocks (w_i e_j / w_j) p̃_ij.

    This weighting is the one under which the discrete relation becomes the
    identity channel, partial functions become non-counital
    star-cohomomorphisms and functions become channels, whatever the
    systems' weights: its Choi marginal Σ_j w_j Tr_outer is w_i times the
    weight-free marginal.  Under the standard weights w_j = e_j it is w_i p̃_ij.
    """
    sw, tw = np.array(p.source.weights), np.array(p.target.weights)
    te = np.array(p.target.dims)
    parts = [(klass, (sw[klass.rows] * te[klass.cols] / tw[klass.cols])[:, None, None] * stack)
             for klass, stack in p.blocks.classes()]
    return CpMorphism.stacked(p.source, p.target, parts)


def channel_exists(p: QuantumRelation) -> bool:
    """Invertibility of the source marginal (marginal, weighted by target
    dimensions, not by the systems' weights) on every factor.

    This is the partial-trace criterion for a relation to underlie a channel.
    Invertibility is necessary; the constructive branch below additionally
    verifies exact support, which is where sufficiency can fail for
    unbalanced genuinely-quantum relations (see channel_from_relation).
    """
    for m in marginal(p):
        w = np.linalg.eigvalsh(m)
        if float(w[0]) <= TOL_SPEC * max(1.0, float(w[-1])):
            return False
    return True


def channel_from_relation(p: QuantumRelation) -> CpMorphism:
    """Constructive inverse: a channel whose underlying relation is p.

    Conjugates each block by the inverse square root of the marginal t (the
    marginal of the relation read as a CP morphism), which always yields a
    channel; the conjugation preserves the support exactly when t is
    compatible with the blocks (classical relations, spans of balanced
    unitary/isometry families, functions, graph-type relations).  The output's
    support is verified and a failure raises, since a silent support change
    would return a channel for a different relation.
    """
    if not channel_exists(p):
        raise NoChannel("the source marginal is singular")
    f = channelize(relation_as_cp(p))
    defect = relation_defect(support_of(f), p)
    if defect > TOL_ROUNDTRIP:
        raise NoChannel(
            f"marginal is invertible but no exactly-supported channel was found "
            f"(support defect {defect:.2e})"
        )
    return f


def partial_function_flags(p: QuantumRelation):
    """Decide partial-function-ness and function-ness three ways each.

    Partial function (coinjectivity p∘p† ≤ Δ) is checked against the isometry
    criterion on a splitting of p̃ and against the cohomomorphism equations of
    the canonical CP morphism; function-ness (cosurjectivity Δ ≤ p†∘p) against
    the unit-marginal isometry condition and the channel property.  The
    characterizations are theorems, so disagreement raises.

    Returns (is_partial_function, is_function, witnesses).  The witness
    cohom_defects is (multiplicativity, star) of cpmaps._hom_defects: star
    exact, and multiplicativity the Schwarz bound that decided it (a lower
    bound when it fails, an upper bound when it holds), or the exact value
    when the bounds left it to the pair loop.
    """
    witnesses = {}

    # (1) coinjectivity via relation composition.
    pf1 = leq(compose(p, converse(p)), discrete(p.target))

    # (2) isometry condition on the splitting: for each source factor i the
    # map Φ_i = [sqrt(e_j) a_ijr]_{(j,r)}, the frame operators side by side,
    # must satisfy Φ_i†Φ_i = I, i.e. a_ijr† a_ij's = δ_jj' δ_rs I / e_j.  The
    # defect is the largest Frobenius norm of an e_j x e_j' block of
    # [a_ijr† a_ij's] − ⊕ I / e_j, one Gram product per source factor.
    iso_defect = 0.0
    for i, d in enumerate(p.source.dims):
        ops, unit, sizes = [], [], []
        for j, e in enumerate(p.target.dims):
            fr = p.frame(i, j)
            r = fr.shape[1]
            # Column (r, y) of the row is column y of the operator a_ijr.
            ops.append(fr.reshape(e, d, r).transpose(1, 2, 0).reshape(d, r * e))
            unit.append(np.full(r * e, 1.0 / e))
            sizes += [e] * r
        if not sizes:
            continue
        phi = np.concatenate(ops, axis=1)
        g = np.abs(phi.conj().T @ phi - np.diag(np.concatenate(unit))) ** 2
        edges = np.cumsum([0] + sizes[:-1])
        blocks = np.add.reduceat(np.add.reduceat(g, edges, axis=0), edges, axis=1)
        iso_defect = max(iso_defect, float(np.sqrt(blocks.max())))
    pf2 = iso_defect < TOL_PROJ
    witnesses["partial_isometry_defect"] = iso_defect

    # (3) non-counital cohomomorphism equations for the canonical CP morphism.
    fcp = relation_as_cp(p)
    _, (mult, _, star) = _hom_defects(cp_dagger(fcp))
    pf3 = max(mult, star) < TOL_PROJ
    witnesses["cohom_defects"] = (mult, star)

    if not (pf1 == pf2 == pf3):
        raise CharacterizationMismatch(
            f"partial-function characterizations disagree: {(pf1, pf2, pf3)}, {witnesses}"
        )
    if not pf1:
        return False, False, witnesses

    # Function characterizations (meaningful given partial-function-ness).
    fn1 = leq(discrete(p.source), compose(converse(p), p))
    marg_defect = max(
        linalg.frob(m - np.eye(p.source.dims[i])) for i, m in enumerate(marginal(p))
    )
    fn2 = marg_defect < TOL_PROJ
    witnesses["function_marginal_defect"] = marg_defect
    fn3 = is_channel(fcp)
    if not (fn1 == fn2 == fn3):
        raise CharacterizationMismatch(
            f"function characterizations disagree: {(fn1, fn2, fn3)}, {witnesses}"
        )
    return True, fn1, witnesses
