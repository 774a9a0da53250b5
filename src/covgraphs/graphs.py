"""Quantum G-graphs: confusability graphs, realization, homomorphisms, reversal.

A quantum graph is a symmetric relation on one system.  Confusability graphs
contain the discrete graph; simple graphs are orthogonal to it; complements
swap the two classes.  The two workhorse theorems realized here are:

  * every confusability graph is the confusability graph of a channel into a
    single matrix-factor environment (realize_channel), and
  * a channel is reversible precisely when its confusability graph is
    discrete, with an explicit reverse channel (reverse_channel), routed
    per target dimension from the Choi marginal of the converse support
    (cpmaps.choi_marginal, per source dimension).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .cpmaps import CpMorphism, basis_image_matrix, choi_marginal, from_kraus
from .cpmaps import is_channel
from .errors import (
    NotAChannel,
    NotConfusability,
    NotReversible,
    PsdViolation,
    ShapeMismatch,
    SystemMismatch,
)
from .groups import AlgebraAction, kept, shared
from .linalg import BLEND_FLOOR, TOL_PROJ, VALIDATE_SLACK
from .relations import (
    QuantumRelation,
    containment_failures,
    converse,
    compose as rel_compose,
    discrete,
    leq,
    relation_defect,
    support_of,
)
from .systems import BlockStore, System, offsets, system


class QuantumGraph:
    """Symmetric quantum relation on a single system, at most VALIDATE_SLACK *
    TOL_PROJ from its converse at any tol.  Symmetry does not show in a
    relation's type, so ``validate`` stays: False for a relation the
    library built symmetric, whose converse need not be formed to check it."""

    def __init__(self, sys: System, relation: QuantumRelation, validate: bool = True):
        if relation.source != sys or relation.target != sys:
            raise SystemMismatch("graph relation must live on the given system")
        if validate:
            defect = relation_defect(relation, converse(relation))
            if defect > VALIDATE_SLACK * TOL_PROJ:
                raise ShapeMismatch(f"graph relation is not symmetric (defect {defect:.2e})")
        self.system = sys
        self.relation = relation


def graph_from_blocks(sys: System, blocks: dict) -> QuantumGraph:
    return QuantumGraph(sys, QuantumRelation(sys, sys, blocks))


def discrete_graph(sys: System) -> QuantumGraph:
    return QuantumGraph(sys, discrete(sys), validate=False)


def classify(g: QuantumGraph, tol: float = TOL_PROJ) -> dict:
    """Confusability iff Δ ≤ Γ; simple iff Δ̃ Γ̃ = 0 blockwise."""
    delta = discrete(g.system)
    is_conf = leq(delta, g.relation, tol)
    simple_defect = max(
        float(linalg.frobs(a @ b).max())
        for (_, a), (_, b) in zip(delta.blocks.classes(), g.relation.blocks.classes())
    )
    return {"is_confusability": is_conf, "is_simple": simple_defect < tol}


def complement(g: QuantumGraph) -> QuantumGraph:
    parts = [(klass, np.eye(klass.n) - stack) for klass, stack in g.relation.blocks.classes()]
    blocks = BlockStore.stacked(g.system, g.system, parts)
    return QuantumGraph(g.system, QuantumRelation(g.system, g.system, blocks), validate=False)


@kept
def confusability_of(f: CpMorphism) -> QuantumGraph:
    """Underlying relation of f† ∘ f: ℜ(f)† ∘ ℜ(f) as compose spans it,
    symmetric by construction up to round-off.  Kept on f (groups.kept)."""
    rf = support_of(f)
    return QuantumGraph(f.source, rel_compose(converse(rf), rf), validate=False)


def _graph_as_cp(g: QuantumGraph, tau: float) -> CpMorphism:
    """CP morphism with Choi blocks w_i (Δ̃ + τ(Γ̃ − Δ̃)); self-adjoint for the
    functional inner product, with the discrete part equal to the identity
    channel's Choi."""
    sw = np.array(g.system.weights)
    parts = [
        (klass, sw[klass.rows][:, None, None] * (d + tau * (blk - d)))
        for (klass, d), (_, blk) in zip(discrete(g.system).blocks.classes(),
                                        g.relation.blocks.classes())
    ]
    return CpMorphism.stacked(g.system, g.system, parts)


def _superop_matrix(f: CpMorphism) -> np.ndarray:
    """Matrix of the map x -> f(x) between φ-coordinates, shaped (N_B, N_A):
    column k is coords(f(u_k)) for the k-th φ-basis element u_k of the source."""
    tgt = f.target
    scale = np.repeat(np.sqrt(np.array(tgt.weights)), [e * e for e in tgt.dims])
    return scale[:, None] * basis_image_matrix(f)


def realize_channel(g: QuantumGraph, tau: float | None = None, tol: float = TOL_PROJ):
    """Channel into a matrix-factor environment whose confusability graph is g.

    Blends the graph projection with the discrete part, f = Δ + τ(Γ − Δ),
    checks that the blend is positive definite as an operator on the algebra,
    and emits the channel x -> (1/w_E) f̂^{1/2} L̂_{w x} f̂^{1/2} whose Kraus
    maps are columns of the operator square root.  The environment is the
    algebra itself as a Hilbert space, with the action by conjugation; for the
    trivial group this is a plain Hilbert space.

    Returns (channel, environment_system).
    """
    flags = classify(g, tol)
    if not flags["is_confusability"]:
        raise NotConfusability("realize_channel needs a confusability graph")

    a_sys = g.system
    n = int(offsets(a_sys.dims)[-1])

    def blend_matrix(t: float) -> np.ndarray:
        return _superop_matrix(_graph_as_cp(g, t))

    if tau is None:
        # The blend is I + τ(G − I), G the blend at τ = 1, so its least
        # eigenvalue is 1 + τ(μ − 1) with μ the least eigenvalue of G: one
        # eigvalsh picks the first τ of the halving sequence 0.5, 0.25, ...
        # (40 steps) whose blend clears BLEND_FLOOR.
        low = float(np.linalg.eigvalsh(linalg.hermitize(blend_matrix(1.0)))[0])
        taus = 0.5 ** np.arange(1, 41)
        ok = np.flatnonzero(1.0 + taus * (low - 1.0) > BLEND_FLOOR)
        if not ok.size:
            raise PsdViolation("no feasible blend parameter found")
        tau = float(taus[ok[0]])
        fmat = linalg.hermitize(blend_matrix(tau))
    else:
        if not (0.0 < tau <= 1.0):
            raise PsdViolation("blend parameter must lie in (0, 1]")
        fmat = linalg.hermitize(blend_matrix(tau))
        if float(np.linalg.eigvalsh(fmat)[0]) <= 0.0:
            raise PsdViolation(f"blend parameter {tau} is infeasible")

    fhalf = linalg.psd_sqrt(fmat)

    # Environment: the source algebra as a Hilbert space, one matrix factor.
    env_action = _conjugation_action(a_sys.action, 0)
    env = system((n,), env_action)
    w_env = float(n)

    kraus = {}
    for i, (off, d) in enumerate(zip(offsets(a_sys.dims), a_sys.dims)):
        # Column x of map a is column E_xa of f̂^{1/2}.
        kraus[(i, 0)] = [fhalf[:, off + a:off + d * d:d] / np.sqrt(w_env) for a in range(d)]
    f = from_kraus(kraus, a_sys, env)
    return f, env


@shared
def _conjugation_action(action: AlgebraAction, extra: int) -> AlgebraAction:
    """Action of the group on the algebra-as-Hilbert-space by conjugation.

    Coordinates are the matrix units E_pq of each factor in φ-basis order
    (`systems.coords`; weights are constant on orbits, so the φ-normalization
    drops out), padded by ``extra`` invariant directions.  Shared per action
    and ``extra`` (groups.shared), so systems whose actions are bitwise equal
    share one.
    """
    off = offsets(action.dims)
    dim = int(off[-1])
    n = dim + extra
    order = action.group.order
    units = np.zeros((order, n, n), dtype=complex)
    elements = np.arange(order)[:, None, None, None]
    for d, (idx, stack) in action.factor_classes().items():
        # E_pq -> u E_pq u† placed at the image factor: column (p, q) is the
        # row-major u[:, p] u[:, q]†, i.e. kron(u, conj(u)), one kron_stack
        # for the whole class, placed at every element's (image, factor).
        span = np.arange(d * d)
        rows = off[action.perm_array[:, idx]][..., None] + span
        cols = off[idx][:, None] + span
        units[elements, rows[..., None], cols[None, :, None, :]] = linalg.kron_stack(
            stack, stack.conj())
    units[:, dim:, dim:] = np.eye(extra)
    return AlgebraAction(action.group, (n,), ((0,),) * order, {n: units[:, None]})


def homomorphism_failures(f: CpMorphism, g_a: QuantumGraph, g_b: QuantumGraph,
                          tol: float = TOL_PROJ):
    """Blocks (key, defect) where the pullback ℜ(f)† ∘ Γ_B ∘ ℜ(f) fails to lie
    in Γ_A, yielded lazily by the containment test of leq."""
    if f.source != g_a.system or f.target != g_b.system:
        raise SystemMismatch("homomorphism check: systems do not match")
    rf = support_of(f)
    pullback = rel_compose(converse(rf), rel_compose(g_b.relation, rf))
    return containment_failures(pullback, g_a.relation, tol)


def is_homomorphism(f: CpMorphism, g_a: QuantumGraph, g_b: QuantumGraph,
                    tol: float = TOL_PROJ) -> bool:
    """Channel f is a homomorphism of confusability graphs iff
    ℜ(f)† ∘ Γ_B ∘ ℜ(f) ≤ Γ_A."""
    return next(homomorphism_failures(f, g_a, g_b, tol), None) is None


def is_simple_homomorphism(f: CpMorphism, g_a: QuantumGraph, g_b: QuantumGraph) -> bool:
    """Simple-graph homomorphism: ℜ(f) ∘ Γ_A ∘ ℜ(f)† ≤ Γ_B."""
    if f.source != g_a.system or f.target != g_b.system:
        raise SystemMismatch("homomorphism check: systems do not match")
    rf = support_of(f)
    push = rel_compose(rf, rel_compose(g_a.relation, converse(rf)))
    return leq(push, g_b.relation)


def is_reversible(f: CpMorphism, tol: float = TOL_PROJ) -> bool:
    """A channel is reversible iff its confusability graph is discrete: its
    discreteness defect, kept on f once f passes the channel check
    (_discreteness), is at most tol."""
    if not is_channel(f, tol):
        raise NotAChannel("reversibility is defined for channels")
    return _discreteness(f) <= tol


@kept
def _discreteness(f: CpMorphism) -> float:
    """The distance of f's confusability graph from the discrete graph."""
    return relation_defect(confusability_of(f).relation, discrete(f.source))


def reverse_channel(f: CpMorphism, tol: float = TOL_PROJ) -> CpMorphism:
    """Left inverse of a reversible channel.

    Writes q = ℜ(f†), whose weighted marginal α_j (a projection, by the
    partial-function property of q) marks the decodable subspace of each
    output factor.  The reverse Choi blocks are

        g̃_(j,i) = w_j q̃_(j,i)  +  (w_j / dim(A)) I_{H_i*} ⊗ (I - α_j),

    the first term decoding the reachable part, the second routing the
    unreachable part uniformly; g is a channel and g ∘ f = id.  A map that is
    not a channel raises NotAChannel through is_reversible.
    """
    if not is_reversible(f, tol):
        raise NotReversible("confusability graph is not discrete")
    return _reverse(f)


def _reverse(f: CpMorphism) -> CpMorphism:
    """reverse_channel for a channel f already found reversible.  α_j, its
    projection check, full-rank test and route I - α_j run once per target
    dimension, on the stack of its factors (cpmaps.choi_marginal of q);
    member (j, i) of a class of q reads the route of j at layout.col_pos[j]."""
    q = converse(support_of(f))
    d_a = sum(w * d for w, d in zip(f.source.weights, f.source.dims))
    tw = np.array(f.target.weights)
    routes = {}
    for _, marg in choi_marginal(q):
        alphas = linalg.hermitize(marg)
        if np.any(linalg.projection_defects(alphas) > VALIDATE_SLACK * TOL_PROJ):
            raise NotReversible("marginal of the converse relation is not a projection")
        e = alphas.shape[1]
        # I - α_j is exactly zero where α_j has full rank (its trace rounds to
        # e), so that no round-off term leaves a reverse block with negative
        # eigenvalues that to_kraus and every reader of its cut would refuse.
        full = np.round(np.trace(alphas, axis1=1, axis2=2).real) == e
        routes[e] = np.where(full[:, None, None], 0, np.eye(e) - alphas)
    parts = []
    for klass, stack in q.blocks.classes():
        e, d = klass.dims
        # Member (j, i) routes I_{H_i*} ⊗ (I - α_j): kron(I_d, I_e - α_j).
        rest = routes[e][f.blocks.layout.col_pos[klass.rows]]
        spread = linalg.kron_stack(np.eye(d, dtype=complex), rest)
        w = tw[klass.rows][:, None, None]
        parts.append((klass, w * stack + (w / d_a) * spread))
    return CpMorphism.stacked(f.target, f.source, parts)
