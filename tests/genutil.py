"""Shared random generators for the test suite."""

from __future__ import annotations

from itertools import permutations

import numpy as np

from covgraphs import cpmaps, graphs, groups, linalg, relations, scc, systems
from covgraphs.classical import check_stochastic, support_pattern
from covgraphs.errors import (
    CovGraphsError,
    DimensionMismatch,
    NegativeSpectrum,
    NotHermitian,
    ShapeMismatch,
)


class IndexOutOfRange(CovGraphsError):
    pass


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def system_dimension(sys):
    """Quantum dimension, defined (and tested) as the functional of the
    identity."""
    return functional(sys, sys.identity()).real


def symmetric_group_perms(n: int):
    return [tuple(p) for p in permutations(range(n))]


def inverse(group, g: int) -> int:
    """The inverse of element g: the h with table[g][h] the identity."""
    return group.table[g].index(group.identity)


def inner_action(group, dim: int, unitaries):
    """Single-factor action by conjugation with the given projective unitaries."""
    perms = tuple((0,) for _ in range(group.order))
    return groups.AlgebraAction(group, (dim,), perms, tuple((u,) for u in unitaries))


def complete_graph(sys):
    return graphs.QuantumGraph(sys, relations.complete(sys), validate=False)


def embed_relation(rel, src=None, tgt=None):
    rel = np.asarray(rel, dtype=bool)
    m, n = rel.shape
    src = src if src is not None else systems.classical_system(m)
    tgt = tgt if tgt is not None else systems.classical_system(n)
    blocks = {
        (i, j): np.eye(1, dtype=complex) for i in range(m) for j in range(n) if rel[i, j]
    }
    return relations.QuantumRelation(src, tgt, blocks)


def embed_graph(adj, sys=None):
    adj = np.asarray(adj, dtype=bool)
    if adj.shape[0] != adj.shape[1] or not np.array_equal(adj, adj.T):
        raise ShapeMismatch("graph adjacency must be square and symmetric")
    sys = sys if sys is not None else systems.classical_system(adj.shape[0])
    blocks = {
        (i, j): np.eye(1, dtype=complex)
        for i in range(adj.shape[0])
        for j in range(adj.shape[1])
        if adj[i, j]
    }
    return graphs.graph_from_blocks(sys, blocks)


def oracle_compose(r, s) -> np.ndarray:
    """Composite S ∘ R of boolean relations (R first): boolean matrix product."""
    r = np.asarray(r, dtype=bool)
    s = np.asarray(s, dtype=bool)
    if r.shape[1] != s.shape[0]:
        raise ShapeMismatch("relation shapes do not compose")
    return (r.astype(int) @ s.astype(int)) > 0


def loop_oracle_confusability(p) -> np.ndarray:
    """classical.oracle_confusability as the pairwise loop it replaced."""
    rel = support_pattern(check_stochastic(p))
    m = rel.shape[0]
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for ip in range(m):
            adj[i, ip] = bool(np.any(rel[i] & rel[ip]))
    return adj


def loop_oracle_stochastic_hom(p, adj_a, adj_b) -> bool:
    """classical.oracle_stochastic_hom as the four-deep loop it replaced."""
    rel = support_pattern(check_stochastic(p))
    adj_a = np.asarray(adj_a, dtype=bool)
    adj_b = np.asarray(adj_b, dtype=bool)
    m = rel.shape[0]
    for x in range(m):
        for z in range(m):
            hit = False
            for y in np.flatnonzero(rel[x]):
                for zt in np.flatnonzero(rel[z]):
                    if adj_b[y, zt]:
                        hit = True
                        break
                if hit:
                    break
            if hit and not adj_a[x, z]:
                return False
    return True


def loop_oracle_source_graph(p_src, n_a: int, n_b: int) -> np.ndarray:
    """classical.oracle_source_graph as the five-deep loop it replaced."""
    p = check_stochastic(p_src)
    ns = p.shape[1]
    if p.shape[0] != n_a * n_b:
        raise ShapeMismatch("source matrix rows must factor as n_a * n_b")
    adj = np.eye(n_a, dtype=bool)
    for a in range(n_a):
        for ap in range(n_a):
            if a == ap:
                continue
            collision = False
            for b in range(n_b):
                for s in range(ns):
                    for sp in range(ns):
                        if s != sp and p[a * n_b + b, s] > 0 and p[ap * n_b + b, sp] > 0:
                            collision = True
            adj[a, ap] = not collision
    return adj


def adjoint_element(sys, x):
    return [b.conj().T for b in sys.check_element(x)]


def tensor_element(ts, x, y):
    """Elementary tensor x ⊗ y as an element of the product system."""
    x = ts.left.check_element(x)
    y = ts.right.check_element(y)
    return [
        np.kron(x[a], y[b])
        for a in range(ts.left.nfactors)
        for b in range(ts.right.nfactors)
    ]


def inner(sys, x, y) -> complex:
    """φ-inner product <x, y> = φ(x† y)."""
    x = sys.check_element(x)
    y = sys.check_element(y)
    return complex(
        sum(w * np.trace(a.conj().T @ b) for w, a, b in zip(sys.weights, x, y))
    )


def zero(sys) -> list:
    """The zero element of sys."""
    return [np.zeros((d, d), dtype=complex) for d in sys.dims]


def functional(sys, x) -> complex:
    """φ(x) = Σ_i w_i Tr(x_i); G-invariant by the orbit condition on weights."""
    x = sys.check_element(x)
    return complex(sum(w * np.trace(b) for w, b in zip(sys.weights, x)))


def multiply(sys, x, y) -> list:
    """The product x y of two elements of sys, factor by factor."""
    x = sys.check_element(x)
    y = sys.check_element(y)
    return [a @ b for a, b in zip(x, y)]


def phi_basis(sys):
    """φ-orthonormal basis of the algebra: matrix units E_pq / sqrt(w_i).

    Returns a list of (factor, p, q, element) in a fixed deterministic order;
    the coordinate index of (i, p, q) is offset(i) + p*d_i + q, the order of
    systems.coords.
    """
    out = []
    for i, d in enumerate(sys.dims):
        s = 1.0 / np.sqrt(sys.weights[i])
        for p in range(d):
            for q in range(d):
                e = zero(sys)
                e[i][p, q] = s
                out.append((i, p, q, e))
    return out


def unitary(action, g: int, i: int) -> np.ndarray:
    """Element g's unitary on factor i, read from the action's class stack
    of dimension d_i, where factor i is the k-th factor of that dimension."""
    d = action.dims[i]
    return action.unitaries[d][g, action.dims[:i].count(d)]


def act(action, g: int, x) -> list:
    """Apply α_g to an algebra element (list of per-factor blocks): block
    x_i goes to U[g][i] x_i U[g][i]† at slot perms[g][i]."""
    if len(x) != action.nfactors:
        raise ShapeMismatch("algebra element has wrong number of factors")
    out = [None] * action.nfactors
    for i, d in enumerate(action.dims):
        xi = linalg.as_complex(x[i])
        if xi.shape != (d, d):
            raise ShapeMismatch(f"factor {i} block has wrong shape")
        u = unitary(action, g, i)
        out[action.perms[g][i]] = u @ xi @ u.conj().T
    return out


def basis_offset(sys, i: int) -> int:
    """Offset of factor i's d x d coordinates in φ-basis order: the sum of
    d_j² over the factors before it, summed here apart from systems.offsets."""
    return int(sum(d * d for d in sys.dims[:i]))


def total_matrix_dim(sys) -> int:
    """N = Σ_i d_i², the number of φ-basis coordinates."""
    return basis_offset(sys, sys.nfactors)


def element_from_coords(sys, v: np.ndarray) -> list:
    """The algebra element with coordinates v in the φ-orthonormal basis,
    the inverse of systems.coords."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != total_matrix_dim(sys):
        raise ShapeMismatch("coordinate vector has wrong length")
    out = []
    pos = 0
    for d, w in zip(sys.dims, sys.weights):
        out.append(v[pos:pos + d * d].reshape(d, d) / np.sqrt(w))
        pos += d * d
    return out


def adjointness_defect(f, rng):
    """Gate for the dagger formula: <y, f(x)>_B = <f†(y), x>_A on random pairs."""
    fd = cpmaps.dagger(f)
    worst = 0.0
    for _ in range(8):
        x = systems.random_element(f.source, rng)
        y = systems.random_element(f.target, rng)
        lhs = inner(f.target, y, cpmaps.apply(f, x))
        rhs = inner(f.source, cpmaps.apply(fd, y), x)
        worst = max(worst, abs(lhs - rhs))
    return worst


def is_hermitian(m) -> bool:
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - m.conj().T)) <= linalg.TOL_SPEC * scale


def partial_trace(m, dims, keep, weights=None):
    """Partial trace over the tensor legs not in `keep`.

    `dims` lists the leg dimensions (their product must equal the matrix
    dimension); each traced leg t is scaled by weights[t] (default 1), with
    `weights` given per traced leg in leg order.
    """
    m = linalg.as_complex(m)
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise DimensionMismatch(f"matrix is {m.shape}, dims give {n}")
    keep = sorted(set(int(k) for k in keep))
    for k in keep:
        if k < 0 or k >= len(dims):
            raise IndexOutOfRange(f"keep index {k} out of range")
    traced = [t for t in range(len(dims)) if t not in keep]
    if weights is None:
        weights = [1.0] * len(traced)
    weights = [float(w) for w in weights]
    if len(weights) != len(traced):
        raise DimensionMismatch("weights length must match traced legs")

    t = m.reshape(dims + dims)
    nlegs = len(dims)
    # Contract traced legs one at a time, highest index first so positions of
    # the remaining legs stay valid.
    scale = 1.0
    for w, leg in sorted(zip(weights, traced), key=lambda p: -p[1]):
        t = np.trace(t, axis1=leg, axis2=leg + nlegs)
        nlegs -= 1
        scale *= w
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return scale * t.reshape(kept, kept)


def psd_factor(m):
    """Factor a Hermitian PSD matrix as r† r = m with row count = rank."""
    m = linalg.as_complex(m)
    if not is_hermitian(m):
        raise NotHermitian("psd_factor: input is not Hermitian")
    w, v = linalg.canonical_eigh(m)
    scale = max(linalg.frob(m), 1.0)
    if w.size and float(w[-1]) < -linalg.TOL_SPEC * scale:
        raise NegativeSpectrum(f"psd_factor: min eigenvalue {w[-1]:.3e}")
    top = float(w[0]) if w.size else 0.0
    if top <= 0.0:
        return np.zeros((0, m.shape[0]), dtype=complex)
    keep = w > linalg.TOL_SPEC * top
    return (np.sqrt(w[keep])[:, None] * v[:, keep].conj().T)


def held(owner, derive, *args):
    """What groups.kept holds on owner for derive(owner, *args), or None
    while nothing is kept."""
    return vars(owner).get("_kept", {}).get((derive, args))


def rand_system(rng, max_factors=2, max_dim=3, action=None):
    nf = int(rng.integers(1, max_factors + 1))
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(nf))
    return systems.system(dims, action)


def rand_cp(rng, src, tgt, kraus_per_pair=2):
    kraus = {}
    for i, d in enumerate(src.dims):
        for j, e in enumerate(tgt.dims):
            kraus[(i, j)] = [rand_complex(rng, e, d) for _ in range(kraus_per_pair)]
    return cpmaps.from_kraus(kraus, src, tgt)


def choi_born(f):
    """The same morphism rebuilt from its Choi blocks alone, so that compose
    and tensor products go through to_kraus (the eigh path)."""
    return cpmaps.CpMorphism(f.source, f.target, f.blocks)


def assert_blocks_close(got, ref, rel=1e-12):
    scale = max(1.0, ref.norm())
    assert got.blocks.keys() == ref.blocks.keys()
    for key, blk in ref.blocks.items():
        assert np.linalg.norm(got.blocks[key] - blk) <= rel * scale, key


def assert_family_equal(got, ref: dict):
    """A block family (a block store, in key order) bitwise equal to a
    reference dict with the same keys."""
    assert list(got) == sorted(ref)
    for key, blk in ref.items():
        assert np.array_equal(got[key], blk), key


def rand_channel(rng, src, tgt, kraus_per_pair=None):
    # Enough Kraus maps per pair that every source-factor marginal has full
    # rank (needed for the normalization into a channel).
    if kraus_per_pair is None:
        kraus_per_pair = max(src.dims)
    return cpmaps.channelize(rand_cp(rng, src, tgt, kraus_per_pair))


def rand_stochastic(rng, n_out, n_in, zeros=0.3):
    p = rng.random((n_out, n_in)) * (rng.random((n_out, n_in)) > zeros)
    for i in range(n_in):
        if p[:, i].sum() == 0:
            p[int(rng.integers(0, n_out)), i] = 1.0
    return p / p.sum(axis=0, keepdims=True)


def rand_isometry(rng, rows, cols):
    q, _ = np.linalg.qr(rand_complex(rng, rows, cols))
    return q[:, :cols]


def rand_unitary(rng, n):
    return rand_isometry(rng, n, n)


def phase_fixed_unitary(seed, n=2):
    """An n x n unitary from its seed: the Q of the QR of a complex Gaussian,
    each column times the phase of its diagonal entry of R."""
    q, upper = np.linalg.qr(rand_complex(np.random.default_rng(seed), n, n))
    return q * (np.diag(upper) / np.abs(np.diag(upper)))


def rand_conf_graph(rng, sys, extra=1):
    """Random confusability graph: symmetric blockwise spans containing Δ."""
    blocks = {}
    nf = sys.nfactors
    for i in range(nf):
        for j in range(i, nf):
            d, e = sys.dims[i], sys.dims[j]
            vecs = []
            if i == j:
                vecs.append(linalg.vec(np.eye(d)))
            for _ in range(extra):
                x = rand_complex(rng, d, e)
                vecs.append(linalg.vec(x))
                if i == j:
                    vecs.append(linalg.vec(x.conj().T))
            p = linalg.orthonormal_span(vecs, dim=d * e)
            if i == j:
                blocks[(i, i)] = p
            else:
                blocks[(i, j)] = p
                blocks[(j, i)] = linalg.adjoint_image(p, d, e)
    return graphs.graph_from_blocks(sys, blocks)


def rand_relation(rng, src, tgt, max_rank=2, density=0.8):
    """Random relation with independent random block spans."""
    blocks = {}
    for i, d in enumerate(src.dims):
        for j, e in enumerate(tgt.dims):
            if rng.random() > density:
                continue
            r = int(rng.integers(1, max_rank + 1))
            vecs = [linalg.vec(rand_complex(rng, d, e)) for _ in range(r)]
            blocks[(i, j)] = linalg.orthonormal_span(vecs, dim=d * e)
    return relations.QuantumRelation(src, tgt, blocks)


def weyl_unitaries(d):
    """The d^2 Weyl (shift-and-clock) unitaries: a HS-orthogonal unitary basis."""
    w = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag([w ** k for k in range(d)])
    out = []
    for a in range(d):
        for b in range(d):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return out


def rand_balanced_relation(rng, src, tgt, density=0.9):
    """Relation whose blocks are spans of balanced unitary/tight-frame families.

    The weighted marginal of such a relation is a multiple of the identity on
    every source factor, so the relation-to-channel construction preserves its
    support exactly.
    """
    blocks = {}
    any_block = False
    for i, d in enumerate(src.dims):
        for j, e in enumerate(tgt.dims):
            if rng.random() > density:
                continue
            any_block = True
            if d == e:
                basis = weyl_unitaries(d)
                count = int(rng.integers(1, len(basis) + 1))
                picks = rng.choice(len(basis), size=count, replace=False)
                vecs = [linalg.vec(basis[k]) for k in picks]
            elif e == 1:
                # columns of a unitary: a tight frame on H_i
                u = rand_unitary(rng, d)
                vecs = [linalg.vec(u[:, [k]]) for k in range(d)]
            elif d == 1:
                u = rand_unitary(rng, e)
                vecs = [linalg.vec(u[[k], :]) for k in range(e)]
            else:
                # block of isometries with ranges tiling H_i when e divides d,
                # otherwise the full operator space (always balanced).
                if d % e == 0:
                    u = rand_unitary(rng, d)
                    vecs = [
                        linalg.vec(u[:, k * e:(k + 1) * e]) for k in range(d // e)
                    ]
                else:
                    vecs = [
                        linalg.vec(m)
                        for m in (rand_complex(rng, d, e) for _ in range(d * e))
                    ]
            blocks[(i, j)] = linalg.orthonormal_span(vecs, dim=d * e)
    if not any_block:
        blocks[(0, 0)] = linalg.orthonormal_span(
            [linalg.vec(m) for m in
             (rand_complex(rng, src.dims[0], tgt.dims[0]) for _ in range(src.dims[0] * tgt.dims[0]))],
            dim=src.dims[0] * tgt.dims[0],
        )
    return relations.QuantumRelation(src, tgt, blocks)


def rand_reversible_channel(rng, kind=None):
    """Random reversible channel: isometry-built or classical-injective."""
    kind = kind if kind is not None else ["isometry", "classical", "mixed"][int(rng.integers(0, 3))]
    if kind == "isometry":
        d = int(rng.integers(2, 4))
        e = int(rng.integers(d, 5))
        src = systems.system((d,))
        tgt = systems.system((e,))
        v = rand_isometry(rng, e, d)
        return cpmaps.from_kraus({(0, 0): [np.sqrt(d / e) * v]}, src, tgt)
    if kind == "classical":
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 6))
        outs = list(rng.permutation(n))
        p = np.zeros((n, m))
        for i in range(m):
            p[outs[i], i] = 1.0
        extra = [o for o in outs[m:]]
        for o in extra:
            i = int(rng.integers(0, m))
            p[o, i] = rng.random() + 0.2
        p = p / p.sum(axis=0, keepdims=True)
        from covgraphs.classical import embed_channel

        return embed_channel(p)
    # mixed: two matrix factors embedded into one big factor by isometries
    d1, d2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    e = d1 + d2 + int(rng.integers(0, 2))
    src = systems.system((d1, d2))
    tgt = systems.system((e,))
    u = rand_unitary(rng, e)
    v1 = u[:, :d1]
    v2 = u[:, d1:d1 + d2]
    kraus = {
        (0, 0): [np.sqrt(d1 / e) * v1],
        (1, 0): [np.sqrt(d2 / e) * v2],
    }
    return cpmaps.from_kraus(kraus, src, tgt)


def rand_nonreversible_channel(rng):
    """Channel that provably cannot be reversed."""
    kind = ["merge", "mixed-unitary", "trace-out"][int(rng.integers(0, 3))]
    if kind == "merge":
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        p = rand_stochastic(rng, n, m, zeros=0.0)
        # force two inputs to share an output
        j = int(rng.integers(0, n))
        p[j, 0] = max(p[j, 0], 0.5)
        p[j, 1 % m] = max(p[j, 1 % m], 0.5)
        p = p / p.sum(axis=0, keepdims=True)
        from covgraphs.classical import embed_channel

        return embed_channel(p)
    if kind == "mixed-unitary":
        d = int(rng.integers(2, 4))
        sys = systems.system((d,))
        while True:
            u, v = rand_unitary(rng, d), rand_unitary(rng, d)
            x = u.conj().T @ v
            if np.linalg.norm(x - (np.trace(x) / d) * np.eye(d)) > 0.2:
                break
        kraus = {(0, 0): [u / np.sqrt(2), v / np.sqrt(2)]}
        return cpmaps.from_kraus(kraus, sys, sys)
    d = int(rng.integers(2, 4))
    src = systems.system((d,))
    tgt = systems.system((1,))
    kraus = {(0, 0): [np.sqrt(d) * np.eye(d)[[k], :] for k in range(d)]}
    return cpmaps.from_kraus(kraus, src, tgt)


def rand_over_count_channels(rng):
    """Two channels (d,) -> (e,) whose one pair holds d e + 1 maps, more than
    its block dimension: the isometry of a reversible channel split into
    d e + 1 equal copies (reversible), and the d e + 1 row blocks of a random
    isometry, scaled by √(d/e) (not reversible in general)."""
    d = int(rng.integers(1, 4))
    e = int(rng.integers(d, 5))
    src, tgt, count = systems.system((d,)), systems.system((e,)), d * e + 1
    v = np.sqrt(d / e / count) * rand_isometry(rng, e, d)
    split = cpmaps.from_kraus({(0, 0): [v] * count}, src, tgt)
    w = np.sqrt(d / e) * rand_isometry(rng, count * e, d)
    blocks = cpmaps.from_kraus({(0, 0): list(w.reshape(count, e, d))}, src, tgt)
    return split, blocks


def basis_changed(f, us, vs):
    """f conjugated by unitaries us[i] on the source factors and vs[j] on the
    target factors, in its birth form: each map M of pair (i, j) of a
    morphism born from Kraus maps becomes vs[j] M us[i]†, and each block B
    of one born as Choi blocks becomes W B W† with W = kron(conj vs[j], us[i])."""
    if f.kraus_stacks is not None:
        kraus = {(i, j): [vs[j] @ m @ us[i].conj().T for m in maps]
                 for (i, j), maps in _oracle_kraus(f).items()}
        return cpmaps.from_kraus(kraus, f.source, f.target)
    blocks = {}
    for (i, j), blk in f.blocks.items():
        w = np.kron(vs[j].conj(), us[i])
        blocks[(i, j)] = w @ blk @ w.conj().T
    return cpmaps.CpMorphism(f.source, f.target, blocks)


def classical_source(rng, ns, na, nb, full_side_info=False):
    """Random classical source with disjoint per-symbol supports (reversible)."""
    from covgraphs.classical import embed_channel

    s_sys = systems.classical_system(ns)
    oa = systems.classical_system(na)
    ob = systems.classical_system(nb)
    ts = scc.tensor_system(oa, ob)
    p = np.zeros((na * nb, ns))
    if full_side_info and nb >= ns:
        for s in range(ns):
            a = int(rng.integers(0, na))
            p[a * nb + s, s] = 1.0
    else:
        cells = list(rng.permutation(na * nb))
        if len(cells) < ns:
            raise ValueError("need at least |S| output cells")
        for s in range(ns):
            p[cells[s], s] = 1.0
        # optionally spread some symbols over extra private cells
        for s in range(ns):
            if len(cells) > ns and rng.random() < 0.4:
                extra = cells[ns + int(rng.integers(0, len(cells) - ns))]
                if not p[extra].any():
                    p[extra, s] = 1.0
    p = p / p.sum(axis=0, keepdims=True)
    chan = embed_channel(p, s_sys, ts.product)
    return scc.Source(s_sys, oa, ob, chan), p


def quantum_source(rng, ds, da, db):
    """Source given by a single random isometry S -> O_A ⊗ O_B (reversible)."""
    s_sys = systems.system((ds,))
    oa = systems.system((da,))
    ob = systems.system((db,))
    ts = scc.tensor_system(oa, ob)
    if da * db < ds:
        raise ValueError("target too small for an isometry")
    w_ratio = np.sqrt(s_sys.weights[0] / ts.product.weights[0])
    v = rand_isometry(rng, da * db, ds)
    chan = cpmaps.from_kraus({(0, 0): [w_ratio * v]}, s_sys, ts.product)
    return scc.Source(s_sys, oa, ob, chan)


# -- oracles that share no cut code with the library ---------------------

def _oracle_kraus(f):
    """Pair (i, j) -> Kraus maps of f: the maps a morphism born from Kraus
    maps was born with (its kraus_stacks), over-count pairs included, else
    M† = unvec(√w_k v_k) for the eigenpairs of a plain np.linalg.eigh of
    block (i, j).  Eigenvalues at or below 1e-12 of the block's largest are
    the round-off of a rank-deficient block."""
    if f.kraus_stacks is not None:
        classes = f.blocks.layout.classes
        return {classes[c].keys[s]: list(ms)
                for c, slots, stack in f.kraus_stacks for s, ms in zip(slots.tolist(), stack)}
    maps = {}
    for (i, j), blk in f.blocks.items():
        d, e = f.source.dims[i], f.target.dims[j]
        w, v = np.linalg.eigh(blk)
        kept = np.flatnonzero(w > 1e-12 * max(w[-1], 0.0))
        maps[(i, j)] = [linalg.unvec(np.sqrt(w[k]) * v[:, k], d, e).conj().T for k in kept]
    return maps


def kl_reversible(f) -> bool:
    """Knill–Laflamme: a channel on ⊕ M_{d_i} is reversible iff for every
    target factor j and Kraus maps K_a on (i, j), K_b on (i′, j), K_a†K_b is
    0 when i ≠ i′ and a multiple of I when i = i′, each within
    1e-8·max(1, ‖K_a‖‖K_b‖)."""
    by_target = {}
    for (i, j), maps in _oracle_kraus(f).items():
        by_target.setdefault(j, []).extend((i, k) for k in maps)
    for maps in by_target.values():
        for i, ka in maps:
            for ip, kb in maps:
                x = ka.conj().T @ kb
                if i == ip:
                    x = x - (np.trace(x) / x.shape[0]) * np.eye(x.shape[0])
                scale = max(1.0, np.linalg.norm(ka) * np.linalg.norm(kb))
                if np.linalg.norm(x) > 1e-8 * scale:
                    return False
    return True


def assert_graph_symmetric(g):
    """The confusability graph is its own converse: equal ranks at (i, j)
    and (j, i), converse defect at most 1e-12, and the validating
    constructor accepts it."""
    rel = g.relation
    n = g.system.nfactors
    for i in range(n):
        for j in range(i):
            assert rel.rank(i, j) == rel.rank(j, i), (i, j)
    assert relations.relation_defect(rel, relations.converse(rel)) <= 1e-12
    graphs.QuantumGraph(g.system, rel, validate=True)


# -- probe references for the closed-form self-checks --------------------
# The library reads these defects off Choi blocks and structure constants; the
# loops below push φ-basis elements through apply, multiply, act and inner
# one at a time, as the defining equations are written.

def probe_superop_matrix(f):
    """Column k is coords(f(u_k)) for the k-th φ-basis element of the source."""
    basis = phi_basis(f.source)
    out = np.zeros((total_matrix_dim(f.target), len(basis)), dtype=complex)
    for k, (_, _, _, u) in enumerate(basis):
        out[:, k] = systems.coords(f.target, cpmaps.apply(f, u))
    return out


def loop_basis_images(f):
    """cpmaps.basis_images as one reshape per factor pair (i, j): per target
    factor j, the images of the source φ-basis as an (N_A, e_j, e_j) stack."""
    return [
        np.concatenate([
            (f.blocks[(i, j)].reshape(e, d, e, d).conj() * (1.0 / np.sqrt(w)))
            .transpose(1, 3, 0, 2).reshape(d * d, e, e)
            for i, (d, w) in enumerate(zip(f.source.dims, f.source.weights))
        ])
        for j, e in enumerate(f.target.dims)
    ]


def loop_superop_matrix(f):
    """graphs._superop_matrix from loop_basis_images, one target factor at a
    time."""
    return np.concatenate([
        np.sqrt(w) * imgs.reshape(len(imgs), -1).T
        for w, imgs in zip(f.target.weights, loop_basis_images(f))
    ])


def probe_hom_defects(f):
    """(max, (multiplicativity, unit, star)) of cpmaps._hom_defects, by
    N² apply calls."""
    basis = phi_basis(f.source)
    images = [cpmaps.apply(f, u) for (_, _, _, u) in basis]
    mult = star = 0.0
    for (ka, (_, _, _, ua)) in enumerate(basis):
        fa = images[ka]
        star = max(
            star,
            systems._diff([m.conj().T for m in fa],
                          cpmaps.apply(f, [m.conj().T for m in ua])),
        )
        for (kb, (_, _, _, ub)) in enumerate(basis):
            lhs = cpmaps.apply(f, multiply(f.source, ua, ub))
            rhs = multiply(f.target, fa, images[kb])
            mult = max(mult, systems._diff(lhs, rhs))
    unit = systems._diff(cpmaps.apply(f, f.source.identity()), f.target.identity())
    return max(mult, unit, star), (mult, unit, star)


def probe_ssfa_defects(sys, rng):
    """Every defect of systems.ssfa_defects by per-element loops: the same
    random elements through multiply, invariance through act and functional
    on each φ-basis element, and separability, Frobenius and standardness
    by basis loops.  ``rng`` in the state ssfa_defects is given, so the
    same elements and index quadruples are drawn."""
    basis = phi_basis(sys)
    one = sys.identity()
    assoc = unital = 0.0
    for _ in range(6):
        x, y, z = (systems.random_element(sys, rng) for _ in range(3))
        lhs = multiply(sys, multiply(sys, x, y), z)
        rhs = multiply(sys, x, multiply(sys, y, z))
        assoc = max(assoc, systems._diff(lhs, rhs))
        unital = max(unital, systems._diff(multiply(sys, one, x), x),
                     systems._diff(multiply(sys, x, one), x))

    sep = 0.0
    for (_, _, _, u) in basis:
        acc = zero(sys)
        for (_, _, _, a) in basis:
            for (_, _, _, b) in basis:
                c = inner(sys, multiply(sys, a, b), u)
                if c != 0:
                    ab = multiply(sys, a, b)
                    acc = [t + c * s for t, s in zip(acc, ab)]
        sep = max(sep, systems._diff(acc, u))

    frobdef = 0.0
    nb = len(basis)
    for _ in range(24):
        a, b, c, d = (int(rng.integers(0, nb)) for _ in range(4))
        ua, ub, uc, ud = (basis[k][3] for k in (a, b, c, d))
        mid = inner(sys, multiply(sys, ua, ub), multiply(sys, uc, ud))
        left = sum(
            inner(sys, multiply(sys, ua, ul[3]), uc)
            * inner(sys, ub, multiply(sys, ul[3], ud))
            for ul in basis
        )
        right = sum(
            inner(sys, ua, multiply(sys, uc, uk[3]))
            * inner(sys, multiply(sys, uk[3], ub), ud)
            for uk in basis
        )
        frobdef = max(frobdef, abs(mid - left), abs(mid - right))

    cmat = np.array(
        [
            [complex(functional(sys, multiply(sys, uk[3], ul[3]))).conjugate()
             for ul in basis]
            for uk in basis
        ]
    )
    std = linalg.frob((cmat @ cmat.conj().T).T - cmat.conj().T @ cmat)

    invdef = max(
        abs(functional(sys, act(sys.action, g, u)) - functional(sys, u))
        for g in sys.group.elements for (_, _, _, u) in basis
    )
    return {"associativity": assoc, "unitality": unital, "separability": sep,
            "frobenius": frobdef, "standardness": std, "invariance": invdef}


def probe_product_table(sys):
    """t[k, l] = coords(u_k u_l) over the φ-basis, by N² multiply and coords
    calls: the dense table that systems._structure_constants lists the
    nonzero entries of."""
    basis = phi_basis(sys)
    return np.array([
        [systems.coords(sys, multiply(sys, a, b)) for (_, _, _, b) in basis]
        for (_, _, _, a) in basis
    ])


# -- per-block references for the stacked group transport -----------------
# groups transports whole (d_i, e_j) classes of blocks with one batched
# product; these loops form kron(conj(U_tgt[g][j]), U_src[g][i]) for one
# block at a time, as the induced action is written.

def kron_moved_blocks(src_act, tgt_act, g, blocks):
    """α_g on a block family: block (i, j) -> W B W† at the image pair."""
    moved = {}
    for (i, j), blk in blocks.items():
        w = np.kron(unitary(tgt_act, g, j).conj(), unitary(src_act, g, i))
        moved[(src_act.perms[g][i], tgt_act.perms[g][j])] = w @ blk @ w.conj().T
    return moved


def kron_twirl_blocks(f):
    """Group average of f's blocks over the per-block transports."""
    group = f.source.action.group
    acc = {key: np.zeros_like(blk) for key, blk in f.blocks.items()}
    for g in group.elements:
        for key, blk in kron_moved_blocks(f.source.action, f.target.action, g, f.blocks).items():
            acc[key] = acc[key] + blk
    return {key: v / group.order for key, v in acc.items()}


def kron_is_covariant_relation(p):
    """Block-by-block invariance of a relation under every group element."""
    for g in p.source.action.group.elements:
        moved = kron_moved_blocks(p.source.action, p.target.action, g, p.blocks)
        for key, blk in moved.items():
            target = p.blocks[key]
            if np.linalg.norm(blk - target) > linalg.TOL_PROJ * max(1.0, np.linalg.norm(target)):
                return False
    return True


# -- per-block references for the block store --------------------------------
# The library runs these constructions as one batched kernel per (d_i, e_j)
# class of factor pairs; these loops build one block at a time through the
# single-matrix kernels, as the constructions are written.  Relation
# compositions take their operator bases from frames, as the library does:
# the kept eigenvectors or singular vectors of the support cut
# (loop_support_frames), their adjoints (loop_converse_frames), or the
# eigenvectors of a given projection (loop_projection_frames).

def loop_support_of(f):
    """Block (i, j) -> its support projection (see _loop_supports)."""
    return {key: proj for key, (proj, _) in _loop_supports(f).items()}


def loop_converse(p):
    """Block (j, i) -> adjoint image of block (i, j)."""
    return {
        (j, i): linalg.adjoint_image(blk, p.source.dims[i], p.target.dims[j])
        for (i, j), blk in p.blocks.items()
    }


def loop_support_frames(f):
    """Block (i, j) -> the (n, r) frame columns of its support cut (see
    _loop_supports)."""
    return {key: cols for key, (_, cols) in _loop_supports(f).items()}


def _loop_supports(f):
    """Block (i, j) -> (support projection, frame columns), one block at a
    time.  A morphism born as Choi blocks: the single-matrix support kernel
    on the hermitized block, keeping its eigenvectors.  A morphism born from
    Kraus maps: one thin np.linalg.svd of V = [vec(M†)] over the held maps
    of the pair, keeping the left singular vectors of singular value above
    TOL_SPEC_SV times the largest (a 1x1 block in closed form).  The held
    maps are the maps the morphism was born with, except on a pair given
    more maps than d e, which holds the minimal family of the same span."""
    if f.kraus_stacks is None:
        return {
            key: linalg.support_projection(linalg.hermitize(blk))
            for key, blk in f.blocks.items()
        }
    out = {}
    for key in f.blocks:
        ops = f.kraus().get(key, ())
        n = f.blocks[key].shape[0]
        if not len(ops):
            out[key] = (np.zeros((n, n), dtype=complex), np.zeros((n, 0), dtype=complex))
            continue
        v = np.column_stack([linalg.vec(m.conj().T) for m in ops])
        if n == 1:
            r = int(np.abs(v).max() > 0)
            out[key] = (np.full((1, 1), r, dtype=complex), np.ones((1, r), dtype=complex))
            continue
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        cols = u[:, s > linalg.TOL_SPEC_SV * s[0]]
        out[key] = (cols @ cols.conj().T, cols)
    return out


def reference_canonical_eigh(m):
    """canonical_eigh of one matrix by a per-column phase loop, kept as an
    oracle for the stacked kernel."""
    w, v = np.linalg.eigh(linalg.hermitize(m))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            v[:, k] = col / phase
    return w, v


def loop_block_kraus(keys, stack, d, e):
    """Pair -> minimal Kraus maps of its d e x d e Choi block, one
    reference_canonical_eigh per nonzero block: conj(√w v) read row-major as
    e x d for each eigenpair above TOL_SPEC times the top eigenvalue."""
    out = {}
    for key, blk in zip(keys, stack):
        if linalg.frob(blk) == 0.0:
            out[key] = ()
            continue
        w, v = reference_canonical_eigh(blk)
        kept = np.flatnonzero(w > linalg.TOL_SPEC * w[0])
        out[key] = tuple((np.sqrt(max(w[k], 0.0)) * v[:, k]).conj().reshape(e, d) for k in kept)
    return out


def loop_projection_frames(p):
    """Block (i, j) -> eigenvectors of eigenvalue above 1/2 of the projection,
    one canonical_eigh per block (a 1x1 block in closed form)."""
    out = {}
    for key, blk in p.blocks.items():
        if blk.shape == (1, 1):
            out[key] = np.ones((1, int(blk[0, 0].real > 0.5)), dtype=complex)
        else:
            w, v = linalg.canonical_eigh(blk)
            out[key] = v[:, w > 0.5]
    return out


def _columns(vecs, n):
    return np.array(vecs, dtype=complex).reshape(-1, n).T


def loop_converse_frames(frames, src_dims, tgt_dims):
    """Block (j, i) -> vec(a†) for every frame column vec(a) of block (i, j)."""
    return {
        (j, i): _columns([linalg.vec(linalg.unvec(v, src_dims[i], tgt_dims[j]).conj().T)
                          for v in fr.T], src_dims[i] * tgt_dims[j])
        for (i, j), fr in frames.items()
    }


def _operator(v, rows, cols):
    # C-ordered, the layout in which the library's batched matmul takes the
    # frame operators, so that both call BLAS alike.
    return np.ascontiguousarray(linalg.unvec(v, rows, cols))


def loop_rel_compose(q_frames, p_frames, src_dims, mid_dims, tgt_dims):
    """q ∘ p from the frames of p (src -> mid) and q (mid -> tgt): per block
    (i, k) the span of the products a @ b of frame operators, j ascending.
    Returns (blocks, frames)."""
    blocks, frames = {}, {}
    for i, d in enumerate(src_dims):
        for k, ek in enumerate(tgt_dims):
            vecs = []
            for j, e in enumerate(mid_dims):
                for a in p_frames[(i, j)].T:
                    for b in q_frames[(j, k)].T:
                        vecs.append(linalg.vec(_operator(a, d, e) @ _operator(b, e, ek)))
            if not vecs:
                blocks[(i, k)] = np.zeros((d * ek, d * ek), dtype=complex)
                frames[(i, k)] = np.zeros((d * ek, 0), dtype=complex)
                continue
            fr = linalg.span_frames(np.column_stack(vecs)[None], floor=linalg.TOL_SPEC)
            blocks[(i, k)], frames[(i, k)] = fr.projections()[0], fr.member(0)
    return blocks, frames


def loop_confusability(f):
    """ℜ(f)† ∘ ℜ(f) block by block, as compose spans it."""
    rf_frames = loop_support_frames(f)
    cv_frames = loop_converse_frames(rf_frames, f.source.dims, f.target.dims)
    return loop_rel_compose(cv_frames, rf_frames, f.source.dims, f.target.dims,
                            f.source.dims)[0]


def loop_extract_channel(f):
    """Stochastic matrix of a classical channel, column i = f(e_i) by apply."""
    m, n = f.source.nfactors, f.target.nfactors
    p = np.zeros((n, m))
    for i in range(m):
        basis = [np.zeros((1, 1), dtype=complex) for _ in range(m)]
        basis[i][0, 0] = 1.0
        p[:, i] = [blk[0, 0].real for blk in cpmaps.apply(f, basis)]
    return p


def loop_choi_marginal(f):
    """Per source factor i: Σ_j w_j Tr_outer(block_ij), j ascending."""
    out = []
    for i, d in enumerate(f.source.dims):
        acc = np.zeros((d, d), dtype=complex)
        for j, e in enumerate(f.target.dims):
            acc += f.target.weights[j] * linalg.trace_outer(f.blocks[(i, j)], e, d)
        out.append(acc)
    return out


def loop_reverse(f):
    """Reverse Choi blocks of a reversible channel, one kron per block; the
    routing term I - α_j is exactly zero where α_j has full rank."""
    rf = relations.QuantumRelation(f.source, f.target, loop_support_of(f))
    q = relations.QuantumRelation(f.target, f.source, loop_converse(rf))
    alphas = [linalg.hermitize(m) for m in loop_choi_marginal(q)]
    d_a = sum(w * d for w, d in zip(f.source.weights, f.source.dims))
    blocks = {}
    for j, e in enumerate(f.target.dims):
        w_j = f.target.weights[j]
        full = round(float(np.trace(alphas[j]).real)) == e
        route = np.zeros((e, e), dtype=complex) if full else np.eye(e) - alphas[j]
        for i, d in enumerate(f.source.dims):
            blocks[(j, i)] = w_j * q.blocks[(j, i)] + (w_j / d_a) * np.kron(np.eye(d), route)
    return blocks


def loop_cp_compose_kraus(g, f):
    """Kraus maps of g ∘ f over every (i, j, k): products n @ m, j ascending."""
    kf, kg = f.kraus(), g.kraus()
    kraus = {}
    for i in range(f.source.nfactors):
        for k in range(g.target.nfactors):
            kraus[(i, k)] = [
                n @ m
                for j in range(f.target.nfactors)
                for m in kf.get((i, j), ())
                for n in kg.get((j, k), ())
            ]
    return kraus


def loop_cp_compose_choi(g, f):
    """Choi blocks of g ∘ f conjugated over every (i, k), j ascending, then
    m: block (i, k) += X G_(j,k) X†, X = I ⊗ M†, in cpmaps._conjugated's two
    steps A -> (A (I ⊗ M))†, each a 2-D product with M of A read as rows of
    length e_j."""
    kf = f.kraus()
    blocks = {}
    for i, d in enumerate(f.source.dims):
        for k, c in enumerate(g.target.dims):
            acc = np.zeros((c * d, c * d), dtype=complex)
            for j, e in enumerate(f.target.dims):
                blk = np.ascontiguousarray(g.blocks[(j, k)])
                for m in kf.get((i, j), ()):
                    m = np.ascontiguousarray(m)
                    z = np.ascontiguousarray((blk.reshape(-1, e) @ m).reshape(c * e, c * d).conj().T)
                    acc += (z.reshape(-1, e) @ m).reshape(c * d, c * d).conj().T
            blocks[(i, k)] = acc
    return blocks


def kron_tensor_unitaries(left, right):
    """Unitaries of the product action: kron(U_a, U_b) per element and pair."""
    return [
        [np.kron(unitary(left.action, g, a), unitary(right.action, g, b))
         for a in range(left.nfactors) for b in range(right.nfactors)]
        for g in left.group.elements
    ]


def loop_conjugation_unitaries(a_sys, extra=0):
    """The conjugation action's unitaries, one matrix unit E_pq at a time."""
    dim = total_matrix_dim(a_sys)
    n = dim + extra
    units = []
    for gel in a_sys.group.elements:
        u = np.zeros((n, n), dtype=complex)
        for a, da in enumerate(a_sys.dims):
            ua = unitary(a_sys.action, gel, a)
            src = basis_offset(a_sys, a)
            tgt = basis_offset(a_sys, a_sys.action.perms[gel][a])
            for p in range(da):
                for q in range(da):
                    img = np.outer(ua[:, p], ua[:, q].conj())
                    u[tgt:tgt + da * da, src + p * da + q] = img.reshape(-1)
        u[dim:, dim:] = np.eye(extra)
        units.append(u)
    return units


def loop_dilation_components(oa, pperp, nz):
    """source_from_graph's dilation tensors, one entry of t1 at a time."""
    raw = {0: [], 1: []}
    for a, da in enumerate(oa.dims):
        t0 = np.zeros((da, nz, da), dtype=complex)
        off = basis_offset(oa, a)
        for p in range(da):
            for q in range(da):
                t0[p, off + p * da + q, q] = 1.0
        t1 = np.zeros((da, nz, da), dtype=complex)
        for av, dav in enumerate(oa.dims):
            blk = pperp[(a, av)].reshape(dav, da, dav, da)
            off = basis_offset(oa, av)
            for n in range(da):
                for m in range(da):
                    for p in range(dav):
                        for q in range(dav):
                            t1[n, off + p * dav + q, m] = blk[p, n, q, m]
        for n in range(da):
            t1[n, nz - 1, n] = 1.0
        raw[0].append((a, t0))
        raw[1].append((a, t1))
    return raw


# -- per-item references for the checks at the boundary ---------------------


def loop_block_store(source, target, blocks):
    """Validated dict blocks one block at a time: a complex copy of each given
    block, zeros elsewhere; key -> block over every factor pair."""
    return {
        (i, j): linalg.as_complex(blocks[(i, j)]).copy() if (i, j) in blocks
        else np.zeros((d * e, d * e), dtype=complex)
        for i, d in enumerate(source.dims) for j, e in enumerate(target.dims)
    }


def loop_from_kraus(kraus):
    """(blocks, held maps) of a Kraus family one pair at a time: a complex
    copy of each map, and block V V† with V the stacked vec(M†)."""
    blocks, held = {}, {}
    for key, ops in kraus.items():
        if len(ops):
            maps = [np.array(linalg.as_complex(m)) for m in ops]
            vs = np.stack([linalg.vec(m.conj().T) for m in maps], axis=1)
            blocks[key] = vs @ vs.conj().T
            held[key] = maps
    return blocks, held


def loop_embed_kraus(p):
    """Kraus family of a column-stochastic matrix: [[sqrt(p_ji)]] on every
    pair (i, j) with p_ji > 0."""
    return {
        (i, j): [np.array([[np.sqrt(p[j, i])]])]
        for i in range(p.shape[1]) for j in range(p.shape[0]) if p[j, i] > 0
    }


def loop_unitary_stacks(dims, unitaries):
    """Per factor dimension d, the (|G|, k, d, d) stack of the unitaries of
    the factors of dimension d, one matrix at a time."""
    factors = {}
    for i, d in enumerate(dims):
        factors.setdefault(d, []).append(i)
    return {
        d: np.array([[linalg.as_complex(units[i]) for i in idx] for units in unitaries])
        for d, idx in factors.items()
    }


def loop_first_nonprojection(blocks: dict, keys):
    """The first key, in the given key order, whose block is not an
    orthogonal projection within the validator slack."""
    for key in keys:
        p = np.asarray(blocks.get(key, 0.0), dtype=complex)
        defect = max(linalg.frob(p - p.conj().T), linalg.frob(p @ p - p)) if p.ndim else 0.0
        if defect > linalg.VALIDATE_SLACK * linalg.TOL_PROJ:
            return key
    return None


def loop_first_nonunitary(dims, unitaries):
    """(g, i) of the first non-unitary, factor dimensions in first-factor
    order, then elements, then factors."""
    order = list(dict.fromkeys(dims))
    for d in order:
        for g, units in enumerate(unitaries):
            for i, di in enumerate(dims):
                if di == d:
                    u = np.asarray(units[i], dtype=complex)
                    if linalg.frob(u @ u.conj().T - np.eye(d)) > linalg.TOL_PROJ * max(1.0, d):
                        return g, i
    return None


def loop_first_hom_failure(group, dims, perms, unitaries):
    """(g, h, factor) of the first element pair, in pair order, at which
    U_g[π_h(i)] U_h[i] is not U_gh[i] times a phase; factor None when the
    perms themselves fail.  Factors in first-factor order of their
    dimension class."""
    order = list(dict.fromkeys(dims))
    for g in range(group.order):
        for h in range(group.order):
            gh = group.table[g][h]
            if [perms[g][perms[h][i]] for i in range(len(dims))] != list(perms[gh]):
                return g, h, None
            for d in order:
                for i, di in enumerate(dims):
                    if di != d:
                        continue
                    lhs = (np.asarray(unitaries[g][perms[h][i]], dtype=complex)
                           @ np.asarray(unitaries[h][i], dtype=complex))
                    x = lhs.conj().T @ np.asarray(unitaries[gh][i], dtype=complex)
                    tr = np.trace(x)
                    defect = linalg.frob(x - tr / d * np.eye(d)) + abs(abs(tr) / d - 1.0)
                    if defect > linalg.TOL_PROJ * max(1.0, d):
                        return g, h, i
    return None


def loop_source_span_vectors(src):
    """scc._source_span_vectors one contribution at a time: the (u, u', b, a,
    a', c, k, k') loop, each vector sqrt(w_b) vec(Tr_b(M c M'†))."""
    s_sys, oa, ob, ts = src.s_system, src.oa_system, src.ob_system, src.tensor
    kraus = src.channel.kraus()
    simple_complete = graphs.complement(graphs.discrete_graph(s_sys)).relation
    vecs = {(a, ap): [] for a in range(oa.nfactors) for ap in range(oa.nfactors)}
    for u in range(s_sys.nfactors):
        for up in range(s_sys.nfactors):
            c_ops = [linalg.unvec(v, s_sys.dims[u], s_sys.dims[up])
                     for v in simple_complete.frame(u, up).T]
            for b, (db, wb) in enumerate(zip(ob.dims, ob.weights)):
                for a, da in enumerate(oa.dims):
                    ms = kraus.get((u, ts.pair_index(a, b)), ())
                    for ap, dap in enumerate(oa.dims):
                        mps = kraus.get((up, ts.pair_index(ap, b)), ())
                        for c in c_ops:
                            for m in ms:
                                mc = m @ c
                                for mp in mps:
                                    y4 = (mc @ mp.conj().T).reshape(da, db, dap, db)
                                    g = np.sqrt(wb) * np.einsum("abcb->ac", y4)
                                    vecs[(a, ap)].append(linalg.vec(g))
    return vecs


def unshared_system(dims, action=None):
    """A new System by the raw constructor: exactly equal to
    systems.system(dims, action), which is shared per exact key, but
    another object."""
    sys = systems.system(dims, action)
    return systems.System(sys.dims, sys.action, sys.weights)


def loop_source_graph_blocks(src, tol=linalg.TOL_PROJ):
    """The blocks of scc._source_graph one O_A pair at a time: I − P with P
    the orthonormal_span of the pair's span vectors, at the span cut and
    floor of the source graph (the floor scaled by the largest trace of a
    Choi block of the source channel)."""
    oa = src.oa_system
    unit = max(float(np.trace(blk).real) for blk in src.channel.blocks.values())
    span_tol = max(tol * linalg.SPAN_RATIO, linalg.TOL_SPEC)
    blocks = {}
    for (a, ap), vs in scc._source_span_vectors(src).items():
        n = oa.dims[a] * oa.dims[ap]
        span = linalg.orthonormal_span(vs, dim=n, tol=span_tol, floor=span_tol * unit)
        blocks[(a, ap)] = np.eye(n, dtype=complex) - span
    return blocks
