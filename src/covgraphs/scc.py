"""Covariant zero-error source-channel coding.

A source is a reversible channel C: S -> O_A ⊗ O_B splitting a message system
between Alice (O_A) and Bob's side information (O_B).  Its confusability graph
on O_A is the complement of the support of the positive element obtained by
conjugating the complete simple graph of S with the doubled dilation of C and
partial-tracing the O_B and environment legs.  An encoding E: O_A -> A is
valid for a communication channel N: A -> B precisely when it is a graph
homomorphism from the source graph to the confusability graph of N; the
equivalent operational test is reversibility of ((N∘E) ⊗ id_{O_B}) ∘ C, and
both are computed and asserted to agree.

The pipeline encoding_is_valid -> decoder_for -> verify_scheme builds each
piece once: a source keeps its graph per tol (groups.kept) and the last
scheme checked on it (Source), a morphism what its checks derive, and the
identity channels of _composite and verify_scheme, shared per system
(cpmaps.identity_channel), keep theirs across schemes and sources.  Held
Kraus families are per-pair (count, e, d) stacks, which tensor_cp
Kroneckers with one linalg.kron_stack and the span vectors multiply.

Leg-ordering convention: product systems order factor pairs (a, b) with the
left factor major, and product legs as left ⊗ right; all doubled-dilation
contractions pair a conjugated leg with its primal partner through
numpy.einsum in `_source_span_vectors`, which is the one site owning the
pairing.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .cpmaps import (
    CpMorphism,
    compose,
    cp_norm_diff,
    identity_channel,
    is_channel,
)
from .errors import (
    GroupMismatch,
    NotValid,
    RoundTripFailure,
    SourceInvalid,
    SystemMismatch,
    TheoremViolation,
)
from .graphs import (
    QuantumGraph,
    _conjugation_action,
    _reverse,
    classify,
    complement,
    confusability_of,
    discrete_graph,
    is_homomorphism,
    is_reversible,
)
from .groups import AlgebraAction, dim_classes, kept, shared, trivial_action
from .linalg import SPAN_RATIO, TOL_PROJ, TOL_ROUNDTRIP, TOL_SPEC
from .relations import QuantumRelation, relation_defect
from .systems import BlockStore, System, layout, offsets, system


class TensorSystem:
    """Product of two systems: factor pairs, multiplied weights, diagonal action."""

    def __init__(self, left: System, right: System):
        if left.group != right.group:
            raise GroupMismatch("tensor factors must carry the same group")
        self.left = left
        self.right = right
        group = left.group
        na, nb = left.nfactors, right.nfactors
        dims = tuple(
            left.dims[a] * right.dims[b] for a in range(na) for b in range(nb)
        )
        weights = tuple(
            left.weights[a] * right.weights[b] for a in range(na) for b in range(nb)
        )
        perms = tuple(
            tuple(pa * nb + pb for pa in left.action.perms[g] for pb in right.action.perms[g])
            for g in group.elements
        )
        # Factor (a, b) carries kron(U_a, U_b): one stacked product per pair
        # of factor dimensions (d_a, d_b), placed in the class stack of
        # d_a d_b at the positions of its factors.
        factors, pos = dim_classes(dims)
        stacks = {
            d: np.empty((group.order, len(idx), d, d), dtype=complex) for d, idx in factors.items()
        }
        for da, (ia, ul) in left.action.factor_classes().items():
            for db, (ib, ur) in right.action.factor_classes().items():
                prod = linalg.kron_stack(ul[:, :, None], ur[:, None])
                pairs = (ia[:, None] * nb + ib[None, :]).ravel()
                stacks[da * db][:, pos[pairs]] = prod.reshape(
                    group.order, len(pairs), da * db, da * db)
        action = AlgebraAction(group, dims, perms, stacks)
        self.product = System(dims, action, weights)

    def pair_index(self, a: int, b: int) -> int:
        return a * self.right.nfactors + b


@shared
def tensor_system(a: System, b: System) -> TensorSystem:
    """The product of a and b, shared per pair of systems (groups.shared)."""
    return TensorSystem(a, b)


def tensor_cp(f: CpMorphism, g: CpMorphism) -> CpMorphism:
    """Tensor product of CP morphisms: Kronecker products of the held Kraus
    maps of f and g, over the pairs that have maps, one linalg.kron_stack
    per pair of pairs, f's map major.  Each factor holds at most d e maps
    per pair, so the product never exceeds its own block dimension and is
    not compressed."""
    src = tensor_system(f.source, g.source)
    tgt = tensor_system(f.target, g.target)
    kg = g.kraus()
    kraus = {}
    for (ia, ja), fops in f.kraus().items():
        for (ib, jb), gops in kg.items():
            ops = linalg.kron_stack(fops[:, None], gops[None])  # (m, n, e e', d d')
            kraus[(src.pair_index(ia, ib), tgt.pair_index(ja, jb))] = ops.reshape(
                -1, *ops.shape[2:])
    return CpMorphism.held(src.product, tgt.product, kraus)


class Source:
    """Covariant source: a reversible channel S -> O_A ⊗ O_B.

    Besides its graph per tol (source_confusability_graph), a source keeps
    one slot holding the last scheme checked on it, (encoder, channel, tol)
    -> (verdict, composite), with the two channels matched by identity, so
    that it does not keep every channel it was checked against.
    decoder_for reads the verdict and composite from that slot, and
    verify_scheme the composite, which does not depend on tol.
    """

    def __init__(self, s_system: System, oa_system: System, ob_system: System,
                 channel: CpMorphism, tol: float = TOL_PROJ):
        self.s_system = s_system
        self.oa_system = oa_system
        self.ob_system = ob_system
        self.tensor = tensor_system(oa_system, ob_system)
        if channel.source != s_system or channel.target != self.tensor.product:
            raise SourceInvalid("source channel must map S to the O_A ⊗ O_B product")
        if not is_channel(channel, tol):
            raise SourceInvalid("source map is not a channel")
        if not is_reversible(channel, tol):
            raise SourceInvalid("source channel is not reversible")
        self.channel = channel
        self._checked = None  # (e_chan, n_chan, tol, verdict, composite)

    def _last_checked(self, e_chan: CpMorphism, n_chan: CpMorphism):
        """The checked-scheme slot if it holds these very channels, else None."""
        slot = self._checked
        if slot is not None and slot[0] is e_chan and slot[1] is n_chan:
            return slot
        return None


@shared
def _complete_simple_graph(s: System) -> QuantumGraph:
    """complement(discrete_graph(s)), shared per system (groups.shared)."""
    return complement(discrete_graph(s))


def _source_span_vectors(src: Source):
    """Vectors spanning the partial-traced doubled-dilation element per O_A pair.

    For every O_B factor b, source pair (u, u'), Kraus pair (k, k') and basis
    operator c of the complete simple graph of S (_complete_simple_graph),
    contributes sqrt(w_b) vec( Tr_b( M_{u,(a,b),k} c M_{u',(a',b),k'}† ) ) to
    the O_A pair (a, a'), in (c, k, k') order: one batched product and one
    einsum per (u, u', b, a, a').
    """
    s_sys = src.s_system
    oa, ob = src.oa_system, src.ob_system
    ts = src.tensor
    kraus = src.channel.kraus()
    simple_complete = _complete_simple_graph(s_sys).relation
    vecs = {
        (a, ap): []
        for a in range(oa.nfactors)
        for ap in range(oa.nfactors)
    }
    for u in range(s_sys.nfactors):
        for up in range(s_sys.nfactors):
            frame = simple_complete.frame(u, up)
            if not frame.shape[1]:
                continue
            # The unvec of each frame column, as the stack of the operators c.
            c_ops = np.ascontiguousarray(frame.T).reshape(
                -1, s_sys.dims[up], s_sys.dims[u]).swapaxes(1, 2)
            for b in range(ob.nfactors):
                wb = ob.weights[b]
                db = ob.dims[b]
                for a in range(oa.nfactors):
                    da = oa.dims[a]
                    ms = kraus.get((u, ts.pair_index(a, b)))
                    if ms is None:
                        continue
                    mc = ms[None] @ c_ops[:, None]
                    for ap in range(oa.nfactors):
                        dap = oa.dims[ap]
                        mps = kraus.get((up, ts.pair_index(ap, b)))
                        if mps is None:
                            continue
                        y = mc[:, :, None] @ mps.conj().swapaxes(1, 2)
                        y = y.reshape(-1, da, db, dap, db)
                        g = np.sqrt(wb) * np.einsum("kabcb->kac", y)
                        vecs[(a, ap)].extend(g.swapaxes(1, 2).reshape(len(g), -1))
    return vecs


def source_confusability_graph(src: Source, tol: float = TOL_PROJ) -> QuantumGraph:
    """Confusability graph of the source on O_A: the complement of the support
    of the partial-traced doubled-dilation element, kept on src per tol
    (groups.kept)."""
    return _source_graph(src, tol)


@kept
def _source_graph(src: Source, tol: float) -> QuantumGraph:
    """I − P per O_A pair, P the span of its _source_span_vectors: per class
    of the O_A x O_A layout, one linalg.span_frames of the (k, n, c) stack of
    the pairs with c vectors, for each c > 0, bitwise the per-pair
    orthonormal_span."""
    oa = src.oa_system
    vecs = _source_span_vectors(src)
    # The natural magnitude unit of the traced doubled element is the squared
    # Kraus scale of the source channel (positive, since the channel gives
    # each source factor a block of positive trace); treat anything far
    # below it as the roundoff image of an exact zero.
    unit = max(float(np.trace(stack, axis1=1, axis2=2).real.max())
               for _, stack in src.channel.blocks.classes())
    span_tol = max(tol * SPAN_RATIO, TOL_SPEC)
    floor = span_tol * unit
    parts = []
    for klass in layout(oa.dims, oa.dims).classes:
        counts = np.array([len(vecs[key]) for key in klass.keys])
        span = np.zeros((len(counts), klass.n, klass.n), dtype=complex)
        for count in set(counts[counts > 0].tolist()):
            at = np.flatnonzero(counts == count)
            fams = np.array([vecs[klass.keys[s]] for s in at]).swapaxes(1, 2)
            span[at] = linalg.span_frames(fams, span_tol, floor).projections()
        parts.append((klass, np.eye(klass.n, dtype=complex) - span))
    rel = QuantumRelation(oa, oa, BlockStore.stacked(oa, oa, parts))
    graph = QuantumGraph(oa, rel)
    flags = classify(graph, tol)
    if not flags["is_confusability"]:
        raise SourceInvalid("source graph failed the confusability gate")
    return graph


def _composite(src: Source, n_chan: CpMorphism, e_chan: CpMorphism) -> CpMorphism:
    """((N ∘ E) ⊗ id_{O_B}) ∘ C, typed S -> B ⊗ O_B."""
    ne = compose(n_chan, e_chan)
    lifted = tensor_cp(ne, identity_channel(src.ob_system))
    return compose(lifted, src.channel)


def _checked_composite(e_chan: CpMorphism, src: Source, n_chan: CpMorphism,
                       tol: float = TOL_PROJ):
    """(verdict, composite): both sides of the coding theorem, asserted to agree.

    (a) e_chan is a graph homomorphism from the source graph to the
        confusability graph of n_chan;
    (b) the composite ((N∘E) ⊗ id) ∘ C is reversible.

    The result is kept in the checked-scheme slot of src, so that asking
    again with the same encoder, channel and tol reads it; with another tol
    only the composite, which does not depend on tol, is read.
    """
    slot = src._last_checked(e_chan, n_chan)
    if slot is not None and slot[2] == tol:
        return slot[3], slot[4]
    if e_chan.source != src.oa_system:
        raise SystemMismatch("encoder must start on O_A")
    if e_chan.target != n_chan.source:
        raise SystemMismatch("encoder must feed the communication channel")
    hom = is_homomorphism(e_chan, source_confusability_graph(src, tol),
                          confusability_of(n_chan), tol)
    comp = slot[4] if slot is not None else _composite(src, n_chan, e_chan)
    rev = is_reversible(comp, tol)
    if hom != rev:
        raise TheoremViolation(
            f"homomorphism test ({hom}) and composite reversibility ({rev}) disagree"
        )
    src._checked = (e_chan, n_chan, tol, hom, comp)
    return hom, comp


def encoding_is_valid(e_chan: CpMorphism, src: Source, n_chan: CpMorphism,
                      tol: float = TOL_PROJ) -> bool:
    """Both sides of the coding theorem, asserted to agree (see
    _checked_composite); raises TheoremViolation if they do not."""
    return _checked_composite(e_chan, src, n_chan, tol)[0]


def decoder_for(e_chan: CpMorphism, src: Source, n_chan: CpMorphism,
                tol: float = TOL_PROJ) -> CpMorphism:
    """Decoding channel D: B ⊗ O_B -> S completing a valid encoding; raises
    NotValid when the encoding is not valid."""
    valid, comp = _checked_composite(e_chan, src, n_chan, tol)
    if not valid:
        raise NotValid("encoding is not valid for this source and channel")
    return _reverse(comp)


def verify_scheme(src: Source, n_chan: CpMorphism, e_chan: CpMorphism,
                  d_chan: CpMorphism, tol: float = TOL_PROJ) -> bool:
    """Full pipeline D ∘ ((N∘E) ⊗ id) ∘ C must be the identity channel on S.
    The composite is read from the checked-scheme slot of src when it holds
    e_chan and n_chan (from encoding_is_valid or decoder_for).  compose
    reads what D holds: a D that holds maps multiplies them with the
    composite's, and a Choi-born D without kept cuts, as decoder_for
    returns, is conjugated by the composite's maps, with no cut of its
    blocks; cp_norm_diff reads the pipeline's blocks."""
    slot = src._last_checked(e_chan, n_chan)
    comp = slot[4] if slot is not None else _composite(src, n_chan, e_chan)
    if d_chan.source != comp.target or d_chan.target != src.s_system:
        raise SystemMismatch("decoder must map B ⊗ O_B to S")
    pipeline = compose(d_chan, comp)
    ident = identity_channel(src.s_system)
    return cp_norm_diff(pipeline, ident) <= tol * max(1.0, ident.norm())


def source_from_graph(g: QuantumGraph) -> Source:
    """A source whose confusability graph is g.

    S is two classical points; O_B is the full matrix algebra on the
    O_A-algebra viewed as a Hilbert space; the two dilation components embed
    the identity and the complement projection of g.  Writing P for the
    complement projection, block (a, ǎ) of P acting on vec(Hom(A_ǎ, A_a)),
    the Kraus vectors of the source channel are, per O_A factor a and
    environment index m in A_a,

        M_0[a, m][n; (a, p, q)]  =  c0 δ_{n p} δ_{q m}
        M_1[a, m][n; (ǎ, p, q)]  =  c1 P_{(a, ǎ)}[(p, n), (q, m)]
        M_1[a, m][n; ζ]          =  c1 δ_{n m}

    with (ǎ, p, q) indexing the O_B leg and ζ one extra invariant O_B
    direction; the ζ term keeps the second component nonzero (P may vanish,
    e.g. for the complete graph) without touching the traced element, since
    the first component has no ζ support.  The simplicity of P makes the two
    components orthogonal (so the source is reversible) and the O_B
    contraction of the cross terms reproduces exactly the operators of P,
    which is the round-trip gate.
    """
    if not classify(g)["is_confusability"]:
        raise SourceInvalid("source_from_graph needs a confusability graph")
    oa = g.system
    group = oa.group
    s_sys = system((1, 1), trivial_action(group, (1, 1)))
    nz = int(offsets(oa.dims)[-1]) + 1
    ob = system((nz,), _conjugation_action(oa.action, 1))  # one extra direction, ζ
    ts = tensor_system(oa, ob)

    # Complement projection blocks, rebuilt rank-exactly from the frames of
    # I − P, so that a numerically-full graph block yields an exactly-zero
    # complement.
    pperp = BlockStore.stacked(oa, oa, [
        (klass, linalg.projection_frames(np.eye(klass.n) - stack).projections())
        for klass, stack in g.relation.blocks.classes()])

    kraus = {}
    raw = _dilation_components(oa, pperp, nz)

    # Normalize each component into an isometry-normalized dilation so that
    # the two-point source map is a channel: Σ_a w_(a,0) Σ_m ||M||² = 1.
    for u in (0, 1):
        total = sum(
            oa.weights[a] * float(nz) * float(np.linalg.norm(t) ** 2)
            for a, t in raw[u]
        )
        if total <= 0:
            raise SourceInvalid("degenerate dilation component")
        c = 1.0 / np.sqrt(total)
        for a, t in raw[u]:
            da = oa.dims[a]
            ops = [c * t[:, :, m].reshape(da * nz, 1) for m in range(da)]
            kraus[(u, ts.pair_index(a, 0))] = ops

    chan = CpMorphism.held(s_sys, ts.product, kraus)
    src = Source(s_sys, oa, ob, chan)
    got = source_confusability_graph(src)
    defect = relation_defect(got.relation, g.relation)
    if defect > TOL_ROUNDTRIP:
        raise RoundTripFailure(f"source graph round trip defect {defect:.2e}")
    return src


def _dilation_components(oa: System, pperp: BlockStore, nz: int) -> dict:
    """Unnormalized dilation tensors t[n, ζ, m] of source_from_graph: per
    component u and O_A factor a, the pairs (a, t) with M_u[a, m] = c t[:, :, m]."""
    raw = {0: [], 1: []}
    off = offsets(oa.dims)
    for a, da in enumerate(oa.dims):
        t0 = np.zeros((da, nz, da), dtype=complex)
        for p in range(da):
            for q in range(da):
                t0[p, off[a] + p * da + q, q] = 1.0
        t1 = np.zeros((da, nz, da), dtype=complex)
        for av, dav in enumerate(oa.dims):
            blk = pperp[(a, av)].reshape(dav, da, dav, da)
            # t1[n, off[av] + p dav + q, m] = blk[p, n, q, m]
            t1[:, off[av]:off[av + 1], :] = blk.transpose(1, 0, 2, 3).reshape(da, dav * dav, da)
        for n in range(da):
            t1[n, nz - 1, n] = 1.0
        raw[0].append((a, t0))
        raw[1].append((a, t1))
    return raw
