"""Classical (commutative) oracles and embeddings.

Everything here is ground truth for the quantum constructions restricted to
commutative systems.  The oracles read a stochastic matrix only through its
support pattern R (inputs x outputs, bool) and compute with boolean and
integer array products, so they do not share the floating-point failure
modes of the path they check: confusability is R @ R.T, a homomorphism is
R @ B @ R.T contained in A, reversibility is no output with two inputs, and a
source graph counts same-b collisions of distinct symbols as integers.
numpy's bool matmul is an OR of ANDs, and the integer counts are bounded by
|S|² n_b, so every product is exact.

Relations are boolean matrices rel[i][j] over (input, output) pairs;
stochastic matrices are column-stochastic with p[j][i] the probability of
output j given input i; graphs are symmetric boolean adjacency matrices
(confusability graphs carry all loops, simple graphs none).
"""

from __future__ import annotations

import numpy as np

from .cpmaps import CpMorphism, _from_stacks
from .errors import DimensionMismatch, ShapeMismatch
from .graphs import QuantumGraph
from .linalg import TOL_ROUNDOFF
from .relations import QuantumRelation
from .systems import System, classical_system, layout


def check_stochastic(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ShapeMismatch("stochastic matrix must be 2-dimensional")
    if not np.isfinite(p).all():
        raise DimensionMismatch("matrix entries must be finite")
    if np.any(p < -TOL_ROUNDOFF):
        raise ShapeMismatch("stochastic matrix must be nonnegative")
    colsums = p.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > TOL_ROUNDOFF):
        raise ShapeMismatch("columns must sum to one")
    return p


def embed_channel(p, src: System | None = None, tgt: System | None = None) -> CpMorphism:
    """Column-stochastic matrix as a channel between commutative systems.

    Pair (i, j) holds the one Kraus map [[sqrt(p_ji)]] when p_ji > 0, so its
    1x1 Choi block is sqrt(p_ji)².  The channel is born from these maps, so
    no block is formed until read: they go to cpmaps._from_stacks as one
    (1, 1) stack.  src and tgt must be commutative systems of the matrix's
    sizes, else ShapeMismatch."""
    p = check_stochastic(p)
    n, m = p.shape
    src = src if src is not None else classical_system(m)
    tgt = tgt if tgt is not None else classical_system(n)
    if src.dims != (1,) * m or tgt.dims != (1,) * n:
        raise ShapeMismatch(f"a {n} x {m} stochastic matrix needs commutative systems "
                            f"of {m} and {n} points, got factors {src.dims} -> {tgt.dims}")
    ins, outs = np.nonzero(p.T > 0)
    roots = np.sqrt(p[outs, ins])
    maps = roots.astype(complex).reshape(-1, 1, 1, 1)
    return _from_stacks(src, tgt, layout(src.dims, tgt.dims), [(0, ins * n + outs, maps)])


def extract_channel(f: CpMorphism) -> np.ndarray:
    """Stochastic matrix of a channel between commutative systems, read off
    the 1x1 Choi blocks: f(e_i) has entry conj(block(i, j)[0, 0]) at output
    j, so p[j, i] is the real part of block(i, j)[0, 0]."""
    if any(d != 1 for d in f.source.dims) or any(d != 1 for d in f.target.dims):
        raise ShapeMismatch("extract_channel needs commutative systems")
    p = np.zeros((f.target.nfactors, f.source.nfactors))
    for klass, stack in f.blocks.classes():
        p[klass.cols, klass.rows] = stack[:, 0, 0].real
    return p


def extract_relation(p: QuantumRelation) -> np.ndarray:
    m, n = p.source.nfactors, p.target.nfactors
    rel = np.zeros((m, n), dtype=bool)
    for klass, stack in p.blocks.classes():
        rel[klass.rows, klass.cols] = stack[:, 0, 0].real > 0.5
    return rel


def extract_graph(g: QuantumGraph) -> np.ndarray:
    return extract_relation(g.relation)


def support_pattern(p) -> np.ndarray:
    """Underlying relation of a stochastic matrix: rel[i, j] iff p[j, i] > 0."""
    p = np.asarray(p, dtype=float)
    return (p.T > 0)


def oracle_confusability(p) -> np.ndarray:
    """adj[i, i'] iff some output j has p[j,i] p[j,i'] > 0; all loops present.

    The boolean product R @ R.T of the support pattern R: numpy's bool
    matmul is an OR of ANDs, so it is exact."""
    rel = support_pattern(check_stochastic(p))
    return rel @ rel.T


def oracle_stochastic_hom(p, adj_a, adj_b) -> bool:
    """Homomorphism test for confusability graphs through a stochastic matrix:
    whenever outputs of x and z can collide along an edge of the target graph,
    x and z must be adjacent in the source graph.

    The collisions are the boolean product R @ B @ R.T (exact, an OR of
    ANDs), and the test is that none falls outside A.  adj_a must be m x m
    and adj_b n x n for an n x m matrix, else ShapeMismatch."""
    rel = support_pattern(check_stochastic(p))
    adj_a = np.asarray(adj_a, dtype=bool)
    adj_b = np.asarray(adj_b, dtype=bool)
    m, n = rel.shape
    if adj_a.shape != (m, m) or adj_b.shape != (n, n):
        raise ShapeMismatch(f"a {n} x {m} stochastic matrix needs adjacencies {m} x {m} and "
                            f"{n} x {n}, got {adj_a.shape} and {adj_b.shape}")
    return not (rel @ adj_b @ rel.T & ~adj_a).any()


def oracle_reversible(p) -> bool:
    """Decoder existence: the input supports are disjoint, i.e. no output
    column of the support pattern has two inputs.  Then the decoder that
    sends each output to the input owning it inverts p, up to the round-off
    negatives that check_stochastic admits."""
    return bool((support_pattern(check_stochastic(p)).sum(axis=0) <= 1).all())


def oracle_source_graph(p_src, n_a: int, n_b: int) -> np.ndarray:
    """Confusability graph of a classical source on the O_A alphabet.

    `p_src` is column-stochastic from |S| inputs to n_a * n_b outputs indexed
    (a, b) -> a * n_b + b.  Distinct a, a' are adjacent iff NO side-information
    value b and distinct source symbols s, s' have p(a,b|s) p(a',b|s') > 0;
    loops are always present.

    With P[a, b, s] = [p(a,b|s) > 0] as integers, the collisions of a and a'
    number Σ_b (Σ_s P[a,b,s]) (Σ_s' P[a',b,s']) less the s = s' terms
    Σ_b Σ_s P[a,b,s] P[a',b,s]: two integer matrix products, exact since
    every count is at most |S|² n_b.
    """
    p = check_stochastic(p_src)
    ns = p.shape[1]
    if p.shape[0] != n_a * n_b:
        raise ShapeMismatch("source matrix rows must factor as n_a * n_b")
    hits = (p > 0).astype(np.int64).reshape(n_a, n_b, ns)
    per_b = hits.sum(axis=2)
    flat = hits.reshape(n_a, n_b * ns)
    return (per_b @ per_b.T == flat @ flat.T) | np.eye(n_a, dtype=bool)
