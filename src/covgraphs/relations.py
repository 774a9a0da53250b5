"""Quantum relations: the possibilistic shadow of CP morphisms.

A relation A -> B stores one orthogonal projection per factor pair (i, j),
acting on vec(Hom(K_j, H_i)): the subspace spans the adjoints of the Kraus
maps of any CP representative.  Composition is computed by basis products and
span closure, matching the defining span formula directly rather than by
iterated supports; between 1x1 blocks through 1-dim middle factors it is the
boolean product of the support patterns.  Supports, converses, containment
and defects run one batched kernel per (d_i, e_j) class of the block store.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .cpmaps import CpMorphism, channelize, choi_marginal, dagger as cp_dagger, is_channel
from .errors import (
    CharacterizationMismatch,
    NegativeSpectrum,
    NoChannel,
    NotHermitian,
    ShapeMismatch,
    SystemMismatch,
)
from .linalg import TOL_PROJ, TOL_ROUNDTRIP, TOL_SPEC, VALIDATE_SLACK
from .systems import BlockStore, System, block_store, layout


class QuantumRelation:
    """Immutable family of projections on the vectorized operator spaces."""

    def __init__(self, source: System, target: System, blocks: dict, validate: bool = True):
        self.source = source
        self.target = target
        self.blocks = block_store(source, target, blocks, "relation", validate)
        self._ops_cache = {}
        if validate:
            defects = self.blocks.keyed(
                linalg.projection_defects(stack) for _, stack in self.blocks.classes()
            )
            bad = np.flatnonzero(defects > VALIDATE_SLACK * TOL_PROJ)
            if bad.size:
                raise ShapeMismatch(
                    f"relation block {self.blocks.layout.keys[bad[0]]} is not a projection "
                    f"(defect {defects[bad[0]]:.2e})"
                )

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[(i, j)]

    def block_ops(self, i: int, j: int):
        """Orthonormal operator basis of block (i, j), as maps K_j -> H_i."""
        cached = self._ops_cache.get((i, j))
        if cached is None:
            d, e = self.source.dims[i], self.target.dims[j]
            cached = [
                linalg.unvec(v, d, e)
                for v in linalg.projection_basis(self.blocks[(i, j)])
            ]
            self._ops_cache[(i, j)] = cached
        return cached

    def rank(self, i: int, j: int) -> int:
        return int(round(float(np.trace(self.blocks[(i, j)]).real)))


def support_of(f: CpMorphism) -> QuantumRelation:
    """Underlying relation: blockwise support projection of the Choi blocks,
    one batched kernel per class.  A block that is not Hermitian PSD raises,
    naming its factor pair."""
    parts = []
    for klass, stack in f.blocks.classes():
        try:
            parts.append((klass, linalg.support_projection(linalg.hermitize(stack))))
        except (NotHermitian, NegativeSpectrum) as exc:
            raise type(exc)(f"Choi block {klass.keys[exc.member]}: {exc}") from None
    return QuantumRelation(f.source, f.target, BlockStore.stacked(f.source, f.target, parts),
                           validate=False)


def discrete(sys: System) -> QuantumRelation:
    """Identity relation: diagonal blocks project onto span{vec(I_d)}."""
    blocks = {}
    for i, d in enumerate(sys.dims):
        v = linalg.vec(np.eye(d, dtype=complex)) / np.sqrt(d)
        blocks[(i, i)] = np.outer(v, v.conj())
    return QuantumRelation(sys, sys, blocks, validate=False)


def complete(src: System, tgt: System | None = None) -> QuantumRelation:
    tgt = src if tgt is None else tgt
    parts = [
        (klass, np.broadcast_to(np.eye(klass.n, dtype=complex), (len(klass.keys), klass.n, klass.n)))
        for klass in layout(src.dims, tgt.dims).classes
    ]
    return QuantumRelation(src, tgt, BlockStore.stacked(src, tgt, parts), validate=False)


def zero_relation(src: System, tgt: System | None = None) -> QuantumRelation:
    return QuantumRelation(src, tgt if tgt is not None else src, {}, validate=False)


def compose(q: QuantumRelation, p: QuantumRelation) -> QuantumRelation:
    """Composite q ∘ p (p first): spans of operator products over the middle.

    A 1x1 block (i, k) with a product through a 1-dim middle factor is [[1]]
    without forming it: every 1x1 basis operator is [[1]], so such a product
    is [[1]] and the 1-dim span of any family containing it is [[1]].  These
    blocks are the boolean product of the two 1x1 support patterns.  Every
    other block is the span of its products, one block at a time.
    """
    if p.target != q.source:
        raise SystemMismatch("compose: target of p must equal source of q")
    mids = p.target.dims
    big_mids = [j for j, e in enumerate(mids) if e > 1]

    def span(i, k, middles):
        d, ek = p.source.dims[i], q.target.dims[k]
        vecs = []
        for j in middles:
            q_ops = q.block_ops(j, k)
            for a in p.block_ops(i, j):
                for b in q_ops:
                    vecs.append(linalg.vec(a @ b))
        # Factors are Hilbert-Schmidt-normalized, so genuine products sit
        # well above roundoff; the absolute floor keeps exact zeros zero.
        return linalg.orthonormal_span(vecs, dim=d * ek, floor=TOL_SPEC)

    parts = []
    for klass in layout(p.source.dims, q.target.dims).classes:
        if klass.dims == (1, 1):
            hit = _one_dim_hits(p, q)[klass.rows, klass.cols]
            stack = hit.astype(complex)[:, None, None]
            if big_mids:
                for s in np.flatnonzero(~hit):
                    stack[s] = span(*klass.keys[s], big_mids)
        else:
            stack = np.array([span(i, k, range(len(mids))) for i, k in klass.keys])
        parts.append((klass, stack))
    return QuantumRelation(p.source, q.target, BlockStore.stacked(p.source, q.target, parts),
                           validate=False)


def _one_dim_hits(p: QuantumRelation, q: QuantumRelation) -> np.ndarray:
    """hits[i, k]: some 1-dim middle factor j has nonzero 1x1 blocks (i, j)
    of p and (j, k) of q.  Counts of 0/1 products are exact in floats."""
    return (_pattern(p) @ _pattern(q)) > 0


def _pattern(r: QuantumRelation) -> np.ndarray:
    """1.0 where the 1x1 block (i, j) of r is nonzero (its operator basis is
    [[1]]), 0.0 elsewhere and on every larger block."""
    pat = np.zeros((r.source.nfactors, r.target.nfactors))
    for klass, stack in r.blocks.classes():
        if klass.dims == (1, 1):
            pat[klass.rows, klass.cols] = stack[:, 0, 0].real > 0.5
    return pat


def converse(p: QuantumRelation) -> QuantumRelation:
    """Block (j, i) is the image of block (i, j) under a -> a†."""
    parts = [
        (klass, linalg.adjoint_image(stack, klass.dims[1], klass.dims[0]))
        for klass, stack in p.blocks.transposed()
    ]
    return QuantumRelation(p.target, p.source, BlockStore.stacked(p.target, p.source, parts),
                           validate=False)


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


def relations_equal(p: QuantumRelation, q: QuantumRelation, tol: float = TOL_PROJ) -> bool:
    if p.source != q.source or p.target != q.target:
        raise SystemMismatch("relations_equal: type mismatch")
    return relation_defect(p, q) <= tol


def relation_defect(p: QuantumRelation, q: QuantumRelation) -> float:
    return max(
        float(linalg.frobs(a - b).max()) for (_, a), (_, b) in zip(p.blocks.classes(), q.blocks.classes())
    )


def marginal(p: QuantumRelation) -> list:
    """Weighted partial trace onto the source side.

    Per source factor s: Σ_t w_t Tr_outer(p̃_st), an operator on H_s; this is
    the positive element whose invertibility characterizes relations of
    channels, and whose value is a projection for partial functions.
    """
    # choi_marginal reads only source, target and blocks, which p shares.
    return [linalg.hermitize(m) for m in choi_marginal(p)]


def relation_as_cp(p: QuantumRelation) -> CpMorphism:
    """Canonical CP morphism of a relation: blocks w_i p̃_ij.

    This weighting is the one under which the discrete relation becomes the
    identity channel, partial functions become non-counital
    star-cohomomorphisms and functions become channels.
    """
    sw = np.array(p.source.weights)
    parts = [(klass, sw[klass.rows][:, None, None] * stack) for klass, stack in p.blocks.classes()]
    return CpMorphism(p.source, p.target, BlockStore.stacked(p.source, p.target, parts),
                      validate=False)


def channel_exists(p: QuantumRelation) -> bool:
    """Invertibility of the weighted source marginal on every factor.

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
        raise NoChannel("the weighted source marginal is singular")
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

    Returns (is_partial_function, is_function, witnesses).
    """
    from .cpmaps import _hom_defects

    witnesses = {}

    # (1) coinjectivity via relation composition.
    pf1 = leq(compose(p, converse(p)), discrete(p.target))

    # (2) isometry condition on the splitting: for each source factor i the
    # row-stacked map Φ_i = [sqrt(e_j) a_ijr]_{(j,r)} must satisfy Φ†Φ = I,
    # i.e. a_ijr† a_ij's = δ_jj' δ_rs I / e_j.
    iso_defect = 0.0
    ops = {
        (i, j): p.block_ops(i, j)
        for i in range(p.source.nfactors)
        for j in range(p.target.nfactors)
    }
    for i in range(p.source.nfactors):
        cols = [
            (j, a) for j in range(p.target.nfactors) for a in ops[(i, j)]
        ]
        for r, (j, a) in enumerate(cols):
            for s, (jp, b) in enumerate(cols):
                g = a.conj().T @ b
                if j == jp and r == s:
                    g = g - np.eye(p.target.dims[j]) / p.target.dims[j]
                iso_defect = max(iso_defect, linalg.frob(g))
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
