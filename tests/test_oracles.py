"""Verdicts checked against oracles that share no cut code with the library.

The Knill–Laflamme oracle decides reversibility from products of Kraus maps
alone: no support cut, no relation compose.  The exact oracles read ranks,
reversibility and homomorphism containment off Gaussian-rational Kraus maps
in sympy arithmetic, with no tolerance at all.  The metamorphic checks ask
that verdicts and ranks do not move under a change of basis or a positive
rescaling.
"""

import numpy as np
import sympy
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from covgraphs import cpmaps, graphs, groups, relations, scc, systems
from covgraphs.classical import embed_channel

from genutil import (
    assert_graph_symmetric,
    basis_changed,
    held,
    kl_reversible,
    rand_channel,
    rand_conf_graph,
    rand_nonreversible_channel,
    rand_over_count_channels,
    rand_reversible_channel,
    rand_stochastic,
    rand_system,
    rand_unitary,
    symmetric_group_perms,
)


def _sweep(seeds=200):
    """Seeds 0 to seeds - 1, each giving a reversible, a non-reversible and a
    random channel between two random systems."""
    for seed in range(seeds):
        yield rand_reversible_channel(np.random.default_rng(seed))
        yield rand_nonreversible_channel(np.random.default_rng(seed))
        r = np.random.default_rng(seed)
        yield rand_channel(r, rand_system(r), rand_system(r))


def test_knill_laflamme_agrees_with_is_reversible():
    verdicts = []
    for n, f in enumerate(_sweep()):
        got = graphs.is_reversible(f)
        assert kl_reversible(f) == got, n
        verdicts.append(got)
    assert len(verdicts) == 600 and 0 < sum(verdicts) < 600


def test_confusability_is_symmetric_by_construction():
    for f in _sweep():
        assert_graph_symmetric(graphs.confusability_of(f))


def test_knill_laflamme_agrees_on_over_count_pairs():
    """Channels whose pair holds more maps than its block dimension: the
    oracle reads the maps they were born with, not the library's cut."""
    verdicts = []
    for seed in range(50):
        for f in rand_over_count_channels(np.random.default_rng(seed)):
            oracle = kl_reversible(f)
            # The held family, cut here, was not read.
            assert held(f, cpmaps.CpMorphism.kraus) is None
            got = graphs.is_reversible(f)
            assert oracle == got, seed
            verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts) == 100


def _ranks(f):
    """(support ranks, confusability ranks) of f, block by block."""
    return relations.support_of(f).ranks(), graphs.confusability_of(f).relation.ranks()


def test_verdicts_invariant_under_basis_change():
    """Unitaries on the source and target factors, applied in the birth
    form, move no verdict and no rank; a reversible channel's reverse
    still undoes it.  A positive rescaling moves no rank."""
    for n, f in enumerate(_sweep(100)):
        rng = np.random.default_rng(n)
        us = [rand_unitary(rng, d) for d in f.source.dims]
        vs = [rand_unitary(rng, e) for e in f.target.dims]
        g = basis_changed(f, us, vs)
        assert (g.kraus_stacks is None) == (f.kraus_stacks is None), n
        ranks, rev = _ranks(f), graphs.is_reversible(f)
        assert cpmaps.is_channel(g) == cpmaps.is_channel(f), n
        assert _ranks(g) == ranks, n
        assert graphs.is_reversible(g) == rev, n
        if rev:
            back = cpmaps.compose(graphs.reverse_channel(g), g)
            assert cpmaps.cp_norm_diff(back, cpmaps.identity_channel(g.source)) <= 1e-7, n
        for c in (1e-3, 7.5):
            assert _ranks(cpmaps.add(f, f, c, 0.0)) == ranks, (n, c)


def _tolerance_cases(seed):
    """(what, decide(tol), verdict known by construction or None) of one
    seed: the reversible and non-reversible channels of genutil, a classical
    4-point homomorphism test, coding schemes on source_from_graph sources
    with 3-point classical and (2,) quantum O_A, and a C2-twirled 2-point
    channel, as it is and moved 1e-3 towards a constant channel."""
    rng = np.random.default_rng(seed)
    for kind, f in (("reversible", rand_reversible_channel(rng)),
                    ("non-reversible", rand_nonreversible_channel(rng))):
        yield f"{kind} is_channel", lambda tol, f=f: cpmaps.is_channel(f, tol), True
        yield (f"{kind} is_reversible", lambda tol, f=f: graphs.is_reversible(f, tol),
               kind == "reversible")

    def sparse(sys, n):
        return embed_channel(rand_stochastic(rng, n, n, zeros=0.6), sys, sys)

    c4 = systems.classical_system(4)
    f = sparse(c4, 4)
    ga, gb = (graphs.confusability_of(sparse(c4, 4)) for _ in range(2))
    yield "classical is_homomorphism", lambda tol: graphs.is_homomorphism(f, ga, gb, tol), None
    c3, q2 = systems.classical_system(3), systems.system((2,))
    for oa, g, n_chan in ((c3, graphs.confusability_of(sparse(c3, 3)), sparse(c3, 3)),
                          (q2, rand_conf_graph(rng, q2), rand_channel(rng, q2, q2, 1 + seed % 2))):
        src, e_chan = scc.source_from_graph(g), cpmaps.identity_channel(oa)
        yield (f"encoding_is_valid on {oa.dims}",
               lambda tol, a=(e_chan, src, n_chan): scc.encoding_is_valid(*a, tol), None)
    s2 = groups.symmetric_group(2)
    pair = systems.classical_system(2, groups.permutation_action(s2, (1, 1),
                                                                  symmetric_group_perms(2)))
    t = groups.twirl_cp(embed_channel(rand_stochastic(rng, 2, 2), pair, pair))
    moved = cpmaps.add(t, embed_channel(np.array([[1.0, 1.0], [0.0, 0.0]]), pair, pair),
                       1 - 1e-3, 1e-3)
    yield "twirled is_covariant_cp", lambda tol: groups.is_covariant_cp(t, tol), True
    yield "moved is_covariant_cp", lambda tol: groups.is_covariant_cp(moved, tol), False


def test_verdicts_stable_across_tolerance_decades():
    """Seeds 0-19, fixed in advance: each verdict is the same at tol 1e-10,
    1e-8 and 1e-6, and the one known by construction where there is one.  A
    verdict that flips is a finding for the library, not for this test."""
    verdicts = []
    for seed in range(20):
        for what, decide, known in _tolerance_cases(seed):
            got = [decide(tol) for tol in (1e-10, 1e-8, 1e-6)]
            assert len(set(got)) == 1, (seed, what, got)
            assert known is None or got[0] == known, (seed, what)
            verdicts.append(got[0])
    assert len(verdicts) == 180


RELABEL_DIMS = [(2, 2), (1, 2, 2), (2, 1, 2), (1, 1, 2), (3, 3, 1)]


def _dim_preserving(rng, dims):
    """A random permutation of the factors that moves each factor only among
    factors of its own dimension, as a list: factor i goes to perm[i]."""
    perm = list(range(len(dims)))
    for d in set(dims):
        at = [i for i, e in enumerate(dims) if e == d]
        for i, j in zip(at, rng.permutation(at).tolist()):
            perm[i] = j
    return perm


def _relabelled(f, sa, sb, src=None, tgt=None):
    """f with block (i, j) moved to (sa[i], sb[j]), in its birth form: a
    Kraus-born f moves its maps, a Choi-born one its blocks.  src and tgt
    default to f's systems."""
    src, tgt = src or f.source, tgt or f.target
    if f.kraus_stacks is not None:
        kraus = {(sa[i], sb[j]): list(maps) for (i, j), maps in f.kraus().items()}
        return cpmaps.from_kraus(kraus, src, tgt)
    blocks = {(sa[i], sb[j]): np.array(blk) for (i, j), blk in f.blocks.items()}
    return cpmaps.CpMorphism(src, tgt, blocks)


def _relabel_verdicts(f, sa, sb):
    """(is_channel, is_reversible, support ranks, confusability ranks) of f,
    the ranks as dicts keyed by the relabelled pairs (support: (sa[i],
    sb[j]); confusability, a graph on the source: (sa[i], sa[i']))."""
    chan = cpmaps.is_channel(f)
    rel, conf = relations.support_of(f), graphs.confusability_of(f).relation
    return (chan, graphs.is_reversible(f) if chan else None,
            {(sa[i], sb[j]): r for (i, j), r in zip(rel.blocks, rel.ranks())},
            {(sa[i], sa[k]): r for (i, k), r in zip(conf.blocks, conf.ranks())})


def test_verdicts_invariant_under_factor_relabelling():
    """Trivial group, seeds 0-19: moving block (i, j) to (σ_A(i), σ_B(j)),
    with σ_A and σ_B random permutations among factors of equal dimension,
    moves no verdict and no rank, on random channels with one map per pair
    and on factor-diagonal unitary channels, which are reversible."""
    cases = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for dims in RELABEL_DIMS:
            s = systems.system(dims)
            sa, sb = _dim_preserving(rng, dims), _dim_preserving(rng, dims)
            ident = list(range(len(dims)))
            diag = {(i, i): [rand_unitary(rng, d)] for i, d in enumerate(dims)}
            unitary = cpmaps.from_kraus(diag, s, s)
            for f in (rand_channel(rng, s, s, kraus_per_pair=1), unitary):
                got = _relabel_verdicts(_relabelled(f, sa, sb), ident, ident)
                assert got == _relabel_verdicts(f, sa, sb), (seed, dims, sa, sb)
                cases += 1
            assert graphs.is_reversible(unitary)
    assert cases == 200


def _c2_involution(rng, d):
    """A d x d unitary that squares to the identity: a reflection conjugated
    by a random unitary."""
    u = rand_unitary(rng, d)
    return u @ np.diag([1.0] + [-1.0] * (d - 1)) @ u.conj().T


# (dims, the nontrivial element's factor permutation, two factors of equal
# dimension to swap).
C2_RELABELS = [((1, 2, 2), (0, 2, 1), (1, 2)), ((2, 2), (0, 1), (0, 1)),
               ((2, 1, 2), (2, 1, 0), (0, 2))]


def _c2_system(rng, dims, perm):
    """A C2 action on dims: factor i goes to perm[i] under the nontrivial
    element, by an involution on a fixed factor and by v, v† on a swapped
    pair, so that the element squares to the identity."""
    units = [None] * len(dims)
    for i, j in enumerate(perm):
        if i == j:
            units[i] = _c2_involution(rng, dims[i])
        elif units[i] is None:
            units[i] = rand_unitary(rng, dims[i])
            units[j] = units[i].conj().T
    return units


def test_twirl_and_covariance_invariant_under_factor_swap():
    """C2 actions, seeds 0-19: swapping two factors of equal dimension, with
    the permutation and the unitaries conjugated to match, moves the twirl
    by at most 1e-12 at the relabelled pairs and keeps is_covariant_cp's
    verdict, on a random channel and on its twirl."""
    c2 = groups.symmetric_group(2)
    verdicts = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for dims, perm, (a, b) in C2_RELABELS:
            swap = list(range(len(dims)))
            swap[a], swap[b] = b, a
            units = _c2_system(rng, dims, perm)
            moved_perm = tuple(swap[perm[swap[i]]] for i in range(len(dims)))
            moved_units = [units[swap[i]] for i in range(len(dims))]
            s, t = (systems.system(dims, groups.AlgebraAction(
                c2, dims, (tuple(range(len(dims))), p),
                (tuple(np.eye(d, dtype=complex) for d in dims), tuple(u))))
                for p, u in ((perm, units), (moved_perm, moved_units)))
            f = rand_channel(rng, s, s, kraus_per_pair=1)
            g = _relabelled(f, swap, swap, t, t)
            tf, tg = groups.twirl_cp(f), groups.twirl_cp(g)
            diff = max(np.abs(tg.blocks[(swap[i], swap[j])] - blk).max()
                       for (i, j), blk in tf.blocks.items())
            assert diff <= 1e-12, (seed, dims)
            for x, y in ((f, g), (tf, tg)):
                assert groups.is_covariant_cp(x) == groups.is_covariant_cp(y), (seed, dims)
                verdicts.append(groups.is_covariant_cp(x))
    assert len(verdicts) == 120 and 0 < sum(verdicts) < 120


# -- exact-arithmetic oracle ----------------------------------------------
# Kraus maps c_k U_k with Σ c_k² = 1 per source factor and each U_k a
# permutation times a diagonal of {±1, ±i} times a Pythagorean rotation, so
# every entry is a Gaussian rational and sympy decides every rank exactly.

PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
COEFFICIENTS = ((1,), (sympy.Rational(3, 5), sympy.Rational(4, 5)),
                (sympy.Rational(1, 3), sympy.Rational(2, 3), sympy.Rational(2, 3)))
PHASES = (1, -1, sympy.I, -sympy.I)


def _exact_unitary(rng, d):
    """P D R: a permutation, a diagonal of {±1, ±i} and a Pythagorean
    rotation in a random coordinate plane (none for d = 1)."""
    rot = sympy.eye(d)
    if d > 1:
        a, b, c = PYTHAGOREAN[int(rng.integers(3))]
        p, q = sorted(rng.choice(d, 2, replace=False).tolist())
        rot[p, p] = rot[q, q] = sympy.Rational(a, c)
        rot[p, q], rot[q, p] = -sympy.Rational(b, c), sympy.Rational(b, c)
    phases = sympy.diag(*[PHASES[k] for k in rng.integers(4, size=d).tolist()])
    perm = rng.permutation(d).tolist()
    return sympy.Matrix(d, d, lambda r, s: int(perm[r] == s)) * phases * rot


def _exact_kraus(rng, dims, reversible):
    """{(i, j): [M]} of exact maps on dims -> dims, every factor of one
    dimension d: per source factor i, one coefficient set, and either
    (reversible) one unitary up to phases, every map to one target,
    distinct per source factor, or a unitary and a random target per map."""
    d, n = dims[0], len(dims)
    targets = rng.permutation(n).tolist()
    kraus = {}
    for i in range(n):
        u = _exact_unitary(rng, d)
        for c in COEFFICIENTS[int(rng.integers(3))]:
            if reversible:
                key, m = (i, targets[i]), c * PHASES[int(rng.integers(4))] * u
            else:
                key, m = (i, int(rng.integers(n))), c * _exact_unitary(rng, d)
            kraus.setdefault(key, []).append(m)
    return kraus


def _exact_rank(mats):
    """Rank of the span of the vectorized matrices, exactly; 0 for none."""
    if not mats:
        return 0
    return sympy.Matrix.hstack(*[m.reshape(m.rows * m.cols, 1) for m in mats]).rank()


def _exact_verdicts(kraus, n):
    """(support ranks, confusability ranks, reversible) of an exact Kraus
    family on n source and n target factors, in key order: support block
    (i, j) spans vec(M†) over its maps, confusability block (i, i′) spans
    vec(M_a† M_b) over maps M_a on (i, j) and M_b on (i′, j); reversible is
    Knill–Laflamme with no tolerance: every product M_a† M_b of one source
    factor is a multiple of I and every product across two is 0."""
    support = [_exact_rank([m.H for m in kraus.get((i, j), [])])
               for i in range(n) for j in range(n)]
    conf, reversible = [], True
    for i in range(n):
        for ip in range(n):
            prods = [a.H * b for j in range(n)
                     for a in kraus.get((i, j), []) for b in kraus.get((ip, j), [])]
            conf.append(_exact_rank(prods))
            for x in prods:
                if i == ip:
                    x = x - (x.trace() / x.rows) * sympy.eye(x.rows)
                reversible &= x.is_zero_matrix
    return support, conf, reversible


def test_exact_ranks_and_reversibility():
    """Seeds 0-9 on (2,), (3,) and (2, 2), each a reversible and a generic
    Gaussian-rational channel: support ranks, confusability ranks and
    is_reversible equal their exact values."""
    verdicts = []
    for dims in [(2,), (3,), (2, 2)]:
        sys = systems.system(dims)
        for seed in range(10):
            for reversible in (True, False):
                exact = _exact_kraus(np.random.default_rng(seed), dims, reversible)
                f = cpmaps.from_kraus({key: [np.array(m, dtype=complex) for m in maps]
                                       for key, maps in exact.items()}, sys, sys)
                support, conf, rev = _exact_verdicts(exact, len(dims))
                assert cpmaps.is_channel(f), (dims, seed, reversible)
                assert _ranks(f) == (support, conf), (dims, seed, reversible)
                assert graphs.is_reversible(f) == rev, (dims, seed, reversible)
                assert rev or not reversible, (dims, seed)
                verdicts.append(rev)
    assert len(verdicts) == 60 and 30 <= sum(verdicts) < 60


def _exact_products(kraus):
    """{(i, i′): [M_a† M_b]} over maps M_a on (i, j) and M_b on (i′, j)."""
    prods = {}
    for (i, j), ms in kraus.items():
        for (ip, jp), mps in kraus.items():
            if j == jp:
                prods.setdefault((i, ip), []).extend(a.H * b for a in ms for b in mps)
    return prods


def _exact_span_rank(mats):
    """Rank of the span of the flattened matrices over QQ_I, exactly."""
    if not mats:
        return 0
    rows = [[QQ_I.from_sympy(sympy.expand(x)) for x in m] for m in mats]
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ_I).rank()


def test_exact_homomorphism_containment():
    """Seeds 0-9 on (2,), (3,) and (2, 2): exact channels f, n and g with
    Γ_B the confusability graph of n and Γ_A the discrete graph or that of
    g.  The pullback block (i, i′) spans (N_c M_a)† (N_d M_b), the products
    of the composite n ∘ f, and f is a homomorphism exactly when every
    pullback block adds no rank to its Γ_A block; is_homomorphism agrees."""
    verdicts = []
    for dims in [(2,), (3,), (2, 2)]:
        sys = systems.system(dims)
        discrete = {(i, i): [sympy.eye(d)] for i, d in enumerate(dims)}
        for seed in range(10):
            rng = np.random.default_rng(seed)
            flags = rng.integers(2, size=2).tolist() + [0]
            exact = [_exact_kraus(rng, dims, bool(r)) for r in flags]
            f, n, g = (cpmaps.from_kraus({key: [np.array(m, dtype=complex) for m in maps]
                                          for key, maps in e.items()}, sys, sys)
                       for e in exact)
            composite = {}
            for (i, j), ms in exact[0].items():
                for (jn, k), ns in exact[1].items():
                    if jn == j:
                        composite.setdefault((i, k), []).extend(c * m for m in ms for c in ns)
            pullback = _exact_products(composite)
            for g_a, blocks in ((graphs.discrete_graph(sys), discrete),
                                (graphs.confusability_of(g), _exact_products(exact[2]))):
                want = all(_exact_span_rank(mats + blocks.get(key, []))
                           == _exact_span_rank(blocks.get(key, []))
                           for key, mats in pullback.items())
                got = graphs.is_homomorphism(f, g_a, graphs.confusability_of(n))
                assert got == want, (dims, seed, flags)
                verdicts.append(want)
    assert len(verdicts) == 60 and 0 < sum(verdicts) < 60
