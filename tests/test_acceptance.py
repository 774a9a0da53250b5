"""Acceptance suite: property-based checks of every theorem at desk scale.

One test per criterion; each prints a PASS line with its headline statistics
(run pytest with -s to see them).  Exhaustive classical enumerations are taken
over canonical representatives of support patterns modulo relabeling of
inputs and outputs: every quantity checked (marginals, support equalities,
confusability graphs, reversibility, decoder existence) is equivariant under
factor relabeling on both sides, so each orbit is decided by any single
representative.
"""

from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from covgraphs import classical, cpmaps, graphs, groups, linalg, relations, scc, systems
from covgraphs.errors import NoChannel, NotReversible, NotValid

from genutil import (
    adjoint_element,
    classical_source,
    complete_graph,
    embed_graph,
    embed_relation,
    functional,
    inner_action,
    kl_reversible,
    multiply,
    oracle_compose,
    partial_trace,
    quantum_source,
    rand_balanced_relation,
    rand_channel,
    rand_conf_graph,
    rand_cp,
    rand_nonreversible_channel,
    rand_relation,
    rand_reversible_channel,
    rand_stochastic,
    rand_system,
    rand_unitary,
    symmetric_group_perms,
    zero,
)

CSYS = {n: systems.classical_system(n) for n in range(1, 7)}


def canonical_patterns(m, n, nonempty_cols=True):
    """Support patterns of n-output, m-input relations, one per orbit under
    input and output relabeling, encoded as sorted column bitmask tuples."""
    lo = 1 if nonempty_cols else 0
    masks = np.array(
        list(combinations_with_replacement(range(lo, 2 ** n), m)), dtype=np.int64
    )
    best = None
    for sigma in permutations(range(n)):
        table = np.zeros(2 ** n, dtype=np.int64)
        for x in range(2 ** n):
            y = 0
            for j in range(n):
                if x >> j & 1:
                    y |= 1 << sigma[j]
            table[x] = y
        mapped = np.sort(table[masks], axis=1)
        enc = np.zeros(len(masks), dtype=np.int64)
        for c in range(m):
            enc = enc * (2 ** n) + mapped[:, c]
        best = enc if best is None else np.minimum(best, enc)
    out = []
    for code in np.unique(best):
        cols = []
        for _ in range(m):
            cols.append(int(code % (2 ** n)))
            code //= 2 ** n
        out.append(tuple(reversed(cols)))
    return out


def pattern_to_bool(cols, n):
    rel = np.zeros((len(cols), n), dtype=bool)
    for i, mask in enumerate(cols):
        for j in range(n):
            rel[i, j] = bool(mask >> j & 1)
    return rel


def uniform_channel_on(rel_bool):
    p = rel_bool.T.astype(float)
    return p / p.sum(axis=0, keepdims=True)


def test_criterion_01_functor_suite():
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(200):
        a = rand_system(rng, 2, 3)
        b = rand_system(rng, 2, 3)
        c = rand_system(rng, 2, 3)
        f = rand_cp(rng, a, b, kraus_per_pair=int(rng.integers(1, 3)))
        g = rand_cp(rng, b, c, kraus_per_pair=int(rng.integers(1, 3)))
        lhs = relations.support_of(cpmaps.compose(g, f))
        rhs = relations.compose(relations.support_of(g), relations.support_of(f))
        if relations.relation_defect(lhs, rhs) >= 1e-7:
            failures += 1
        dag = relations.support_of(cpmaps.dagger(f))
        conv = relations.converse(relations.support_of(f))
        if relations.relation_defect(dag, conv) >= 1e-7:
            failures += 1
    assert failures == 0
    print("ACCEPTANCE 1: PASS - functoriality and unitarity on 200 CP pairs")


def test_criterion_02_choi_kraus_roundtrip():
    rng = np.random.default_rng(22)
    for _ in range(200):
        src = rand_system(rng, 3, 3)
        tgt = rand_system(rng, 3, 3)
        f = rand_cp(rng, src, tgt, kraus_per_pair=int(rng.integers(1, 4)))
        g = cpmaps.from_kraus(cpmaps.to_kraus(f), src, tgt)
        assert cpmaps.cp_norm_diff(f, g) < 1e-9 * max(1.0, f.norm())
    for dims in [(2,), (3,), (2, 1), (2, 3)]:
        sys = systems.system(dims)
        ident = cpmaps.identity_channel(sys)
        for i, d in enumerate(sys.dims):
            blk = ident.blocks[(i, i)]
            w = np.linalg.eigvalsh(blk)
            assert abs(w[-1] - d) < 1e-12
            assert np.all(np.abs(w[:-1]) < 1e-12)
            v = linalg.vec(np.eye(d))
            assert np.linalg.norm(blk @ v - d * v) < 1e-12
    print("ACCEPTANCE 2: PASS - 200 Choi/Kraus round trips < 1e-9; identity Choi rank-1 on vec(I)")


def _check_relation_channel(rel):
    verdict = relations.channel_exists(rel)
    marg = relations.marginal(rel)
    if verdict:
        f = relations.channel_from_relation(rel)
        assert cpmaps.is_channel(f)
        assert relations.relation_defect(relations.support_of(f), rel) < 1e-9
    else:
        min_eig = min(float(np.linalg.eigvalsh(m)[0]) for m in marg)
        assert min_eig <= 1e-9 * max(
            1.0, max(float(np.linalg.eigvalsh(m)[-1]) for m in marg)
        )
        with pytest.raises(NoChannel):
            relations.channel_from_relation(rel)
    return verdict


def test_criterion_03_relation_to_channel():
    # Exhaustive classical relations up to 4x4 (canonical orbit reps,
    # including empty rows/columns) plus 100 random quantum relations from
    # balanced families and singular-marginal negatives.
    checked = true_count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for cols in canonical_patterns(m, n, nonempty_cols=False):
                rel_bool = pattern_to_bool(cols, n)
                rel = embed_relation(rel_bool, CSYS[m], CSYS[n])
                verdict = _check_relation_channel(rel)
                assert verdict == bool(rel_bool.any(axis=1).all())
                checked += 1
                true_count += verdict
    rng = np.random.default_rng(33)
    q_count = q_true = 0
    for k in range(100):
        src = rand_system(rng, 2, 3)
        tgt = rand_system(rng, 2, 3)
        if k % 3 == 2:
            # deficient: drop every block of one source factor
            rel = rand_balanced_relation(rng, src, tgt)
            kill = int(rng.integers(0, src.nfactors))
            blocks = dict(rel.blocks)
            for j in range(tgt.nfactors):
                blocks[(kill, j)] = np.zeros_like(blocks[(kill, j)])
            rel = relations.QuantumRelation(src, tgt, blocks)
        else:
            rel = rand_balanced_relation(rng, src, tgt)
        q_true += _check_relation_channel(rel)
        q_count += 1
    assert q_count == 100 and 0 < q_true < 100
    print(
        f"ACCEPTANCE 3: PASS - relation->channel on {checked} classical orbit reps "
        f"({true_count} constructive) and 100 quantum relations ({q_true} constructive)"
    )


def test_criterion_04_graph_realization():
    rng = np.random.default_rng(44)
    families = [(2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1)]
    count = 0
    worst = 0.0
    for k in range(100):
        dims = families[k % len(families)]
        sys = systems.system(dims)
        g = rand_conf_graph(rng, sys, extra=int(rng.integers(1, 3)))
        f, env = graphs.realize_channel(g)
        assert cpmaps.is_channel(f)
        defect = relations.relation_defect(graphs.confusability_of(f).relation, g.relation)
        worst = max(worst, defect)
        assert defect < 1e-7
        count += 1
    assert count == 100
    print(f"ACCEPTANCE 4: PASS - 100 graph realizations round-trip (worst defect {worst:.1e})")


def test_criterion_05_reversibility():
    # (a) exhaustive classical channels up to 4 inputs / 5 outputs, canonical
    # orbit representatives, quantum verdict vs brute-force decoder oracle.
    mismatches = 0
    count = 0
    for m in range(1, 5):
        for n in range(1, 6):
            for cols in canonical_patterns(m, n, nonempty_cols=True):
                rel_bool = pattern_to_bool(cols, n)
                p = uniform_channel_on(rel_bool)
                f = classical.embed_channel(p, CSYS[m], CSYS[n])
                if graphs.is_reversible(f) != classical.oracle_reversible(p):
                    mismatches += 1
                count += 1
    assert mismatches == 0

    # (b) 100 random reversible channels: explicit reversal composes to id.
    rng = np.random.default_rng(55)
    for _ in range(100):
        f = rand_reversible_channel(rng)
        g = graphs.reverse_channel(f)
        assert cpmaps.is_channel(g)
        ident = cpmaps.identity_channel(f.source)
        assert cpmaps.cp_norm_diff(cpmaps.compose(g, f), ident) < 1e-7

    # (c) 100 random non-reversible channels: verdict false, no reverse.
    for _ in range(100):
        f = rand_nonreversible_channel(rng)
        assert not graphs.is_reversible(f)
        with pytest.raises(NotReversible):
            graphs.reverse_channel(f)
    print(f"ACCEPTANCE 5: PASS - reversibility exact on {count} classical orbit reps; "
          "100 reversals compose to id; 100 non-reversible rejected")


def test_criterion_06_partial_function_trichotomy():
    rng = np.random.default_rng(66)
    tallies = {"neither": 0, "partial": 0, "function": 0}
    for k in range(200):
        kind = k % 4
        if kind == 0:
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            rel = rand_relation(rng, src, tgt)
        elif kind == 1:
            # classical random partial map
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rel_bool = np.zeros((m, n), dtype=bool)
            for i in range(m):
                if rng.random() < 0.8:
                    rel_bool[i, int(rng.integers(0, n))] = True
            rel = embed_relation(rel_bool, CSYS[m], CSYS[n])
        elif kind == 2:
            # quantum function: unitary span or block embedding
            d = int(rng.integers(2, 4))
            sys = systems.system((d,))
            u = rand_unitary(rng, d)
            v = linalg.vec(u.conj().T) / np.sqrt(d)
            rel = relations.QuantumRelation(sys, sys, {(0, 0): np.outer(v, v.conj())})
        else:
            src = rand_system(rng, 2, 3)
            tgt = rand_system(rng, 2, 3)
            rel = rand_balanced_relation(rng, src, tgt)
        pf, fn, _ = relations.partial_function_flags(rel)  # raises on mismatch
        tallies["function" if fn else "partial" if pf else "neither"] += 1
    assert sum(tallies.values()) == 200
    assert tallies["function"] > 0 and tallies["partial"] > 0 and tallies["neither"] > 0
    print(f"ACCEPTANCE 6: PASS - trichotomy consistent on 200 relations {tallies}")


def test_criterion_07_scc_theorem():
    rng = np.random.default_rng(77)
    classical_count = valid_count = 0
    while classical_count < 100:
        ns = int(rng.integers(1, 4))
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        if na * nb < ns:
            continue
        src, _ = classical_source(rng, ns, na, nb, full_side_info=(classical_count % 5 == 0))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        if classical_count % 3 == 0:
            m = n = na
            e_chan = cpmaps.identity_channel(src.oa_system)
            n_chan = classical.embed_channel(np.eye(na), src.oa_system, CSYS[na])
        else:
            e_chan = classical.embed_channel(
                rand_stochastic(rng, m, na), src.oa_system, CSYS[m]
            )
            n_chan = classical.embed_channel(rand_stochastic(rng, n, m), CSYS[m], CSYS[n])
        valid = scc.encoding_is_valid(e_chan, src, n_chan)  # asserts agreement
        if valid:
            d = scc.decoder_for(e_chan, src, n_chan)
            assert scc.verify_scheme(src, n_chan, e_chan, d, tol=1e-7)
            valid_count += 1
        classical_count += 1
    assert valid_count > 0

    quantum_count = q_valid = 0
    while quantum_count < 50:
        src = quantum_source(rng, int(rng.integers(1, 3)), 2, 2)
        oa = src.oa_system
        if quantum_count % 2 == 0:
            e = int(rng.integers(2, 5))
            tgt = systems.system((e,))
            v = rand_unitary(rng, e)[:, :2]
            n_chan = cpmaps.from_kraus({(0, 0): [np.sqrt(2.0 / e) * v]}, oa, tgt)
            e_chan = cpmaps.identity_channel(oa)
        else:
            a_sys = rand_system(rng, 1, 3)
            b_sys = rand_system(rng, 1, 3)
            n_chan = rand_channel(rng, a_sys, b_sys)
            e_chan = rand_channel(rng, oa, a_sys)
        valid = scc.encoding_is_valid(e_chan, src, n_chan)
        if valid:
            d = scc.decoder_for(e_chan, src, n_chan)
            assert scc.verify_scheme(src, n_chan, e_chan, d, tol=1e-7)
            q_valid += 1
        quantum_count += 1
    assert q_valid > 0
    print(f"ACCEPTANCE 7: PASS - coding theorem agrees on 100 classical "
          f"({valid_count} valid) and 50 quantum ({q_valid} valid) instances")


def test_criterion_08_source_from_graph():
    rng = np.random.default_rng(88)
    families = [(2,), (3,), (2, 1), (1, 1), (2, 2)]
    worst = 0.0
    for k in range(50):
        sys = systems.system(families[k % len(families)])
        g = rand_conf_graph(rng, sys, extra=int(rng.integers(1, 3)))
        src = scc.source_from_graph(g)
        got = scc.source_confusability_graph(src)
        defect = relations.relation_defect(got.relation, g.relation)
        worst = max(worst, defect)
        assert defect < 1e-7
    print(f"ACCEPTANCE 8: PASS - 50 source-from-graph round trips (worst defect {worst:.1e})")


def test_criterion_09_covariance_sn():
    for n in range(2, 6):
        sn = groups.symmetric_group(n)
        actn = groups.permutation_action(sn, (1,) * n, symmetric_group_perms(n))
        cn = systems.classical_system(n, actn)
        triv = systems.classical_system(1, groups.trivial_action(sn, (1,)))

        # Twirl projector on CP maps C -> C^n in the basis of factor blocks.
        t_mat = np.zeros((n, n))
        for k in range(n):
            basis_cp = cpmaps.CpMorphism(triv, cn, {(0, k): np.eye(1, dtype=complex)})
            tw = groups.twirl_cp(basis_cp)
            for l in range(n):
                t_mat[l, k] = tw.blocks[(0, l)][0, 0].real
        eigs = np.linalg.eigvalsh(t_mat)
        fixed_dim = int(np.sum(np.abs(eigs - 1.0) < 1e-9))
        assert fixed_dim == 1

        # The fixed channel is the uniform one.
        unif = classical.embed_channel(np.full((n, 1), 1.0 / n), triv, cn)
        assert groups.is_covariant_cp(unif)
        assert cpmaps.cp_norm_diff(groups.twirl_cp(unif), unif) < 1e-12

        # It is a homomorphism between the complete confusability graphs.
        assert graphs.is_homomorphism(
            unif, complete_graph(triv), complete_graph(cn)
        )

        # No covariant function C -> C^n: the only covariant relation
        # candidates are the zero and the complete one, and neither is a
        # function.
        for blocks in [{}, {(0, j): np.eye(1, dtype=complex) for j in range(n)}]:
            rel = relations.QuantumRelation(triv, cn, blocks)
            assert groups.is_covariant_relation(rel)
            _, is_fn, _ = relations.partial_function_flags(rel)
            assert not is_fn
    print("ACCEPTANCE 9: PASS - S_n covariant channel space is 1-dim (n=2..5), "
          "uniform channel is a homomorphism, no covariant function exists")


def test_criterion_10_classical_oracle_equivalence():
    rng = np.random.default_rng(1010)

    # confusability graphs: exhaustive over canonical channel patterns <= 4x4
    conf_count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for cols in canonical_patterns(m, n, nonempty_cols=True):
                p = uniform_channel_on(pattern_to_bool(cols, n))
                g = graphs.confusability_of(classical.embed_channel(p, CSYS[m], CSYS[n]))
                assert np.array_equal(classical.extract_graph(g), classical.oracle_confusability(p))
                conf_count += 1

    # relation composition: exhaustive on 2x2 o 2x2, random up to 4.
    comp_count = 0
    rels2 = [np.array(bits, dtype=bool).reshape(2, 2) for bits in product([0, 1], repeat=4)]
    for r in rels2:
        for s in rels2:
            lhs = relations.compose(
                embed_relation(s, CSYS[2], CSYS[2]),
                embed_relation(r, CSYS[2], CSYS[2]),
            )
            assert np.array_equal(classical.extract_relation(lhs), oracle_compose(r, s))
            comp_count += 1
    for _ in range(100):
        m, n, q = (int(rng.integers(1, 5)) for _ in range(3))
        r = rng.random((m, n)) > 0.5
        s = rng.random((n, q)) > 0.5
        lhs = relations.compose(
            embed_relation(s, CSYS[n], CSYS[q]),
            embed_relation(r, CSYS[m], CSYS[n]),
        )
        assert np.array_equal(classical.extract_relation(lhs), oracle_compose(r, s))
        comp_count += 1

    # stochastic homomorphisms: exhaustive tiny + 200 random instances.
    hom_count = 0
    graphs2 = []
    for bits in product([0, 1], repeat=1):
        adj = np.eye(2, dtype=bool)
        adj[0, 1] = adj[1, 0] = bool(bits[0])
        graphs2.append(adj)
    for cols in canonical_patterns(2, 2, nonempty_cols=True):
        p = uniform_channel_on(pattern_to_bool(cols, 2))
        for ga in graphs2:
            for gb in graphs2:
                quantum = graphs.is_homomorphism(
                    classical.embed_channel(p, CSYS[2], CSYS[2]),
                    embed_graph(ga, CSYS[2]),
                    embed_graph(gb, CSYS[2]),
                )
                assert quantum == classical.oracle_stochastic_hom(p, ga, gb)
                hom_count += 1
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = rand_stochastic(rng, n, m)
        ga = classical.oracle_confusability(rand_stochastic(rng, int(rng.integers(1, 5)), m))
        gb = classical.oracle_confusability(rand_stochastic(rng, int(rng.integers(1, 5)), n))
        quantum = graphs.is_homomorphism(
            classical.embed_channel(p, CSYS[m], CSYS[n]),
            embed_graph(ga, CSYS[m]),
            embed_graph(gb, CSYS[n]),
        )
        assert quantum == classical.oracle_stochastic_hom(p, ga, gb)
        hom_count += 1

    # reversibility: exhaustive canonical reps up to 4x4 (the 4x5 sweep is
    # criterion 5a).
    rev_count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for cols in canonical_patterns(m, n, nonempty_cols=True):
                p = uniform_channel_on(pattern_to_bool(cols, n))
                assert graphs.is_reversible(
                    classical.embed_channel(p, CSYS[m], CSYS[n])
                ) == classical.oracle_reversible(p)
                rev_count += 1

    # source graphs: sources with |S|,|O_A|,|O_B| <= 3 and probabilities from
    # the grid {1/4, 1/2, 3/4, 1} on disjoint supports.
    src_count = 0
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    while src_count < 120:
        ns = int(rng.integers(1, 4))
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        if na * nb < ns:
            continue
        cells = list(rng.permutation(na * nb))
        p = np.zeros((na * nb, ns))
        pos = 0
        for s in range(ns):
            take = 1 + int(rng.integers(0, 2)) if pos + 2 <= len(cells) - (ns - s - 1) else 1
            for _ in range(take):
                p[cells[pos], s] = grid[int(rng.integers(0, 4))]
                pos += 1
        p = p / p.sum(axis=0, keepdims=True)
        s_sys = CSYS[ns]
        oa, ob = CSYS[na], CSYS[nb]
        ts = scc.tensor_system(oa, ob)
        src = scc.Source(s_sys, oa, ob, classical.embed_channel(p, s_sys, ts.product))
        g = scc.source_confusability_graph(src)
        assert np.array_equal(
            classical.extract_graph(g), classical.oracle_source_graph(p, na, nb)
        )
        src_count += 1

    print(f"ACCEPTANCE 10: PASS - oracle equivalence: confusability {conf_count}, "
          f"composition {comp_count}, homomorphisms {hom_count}, reversibility {rev_count}, "
          f"source graphs {src_count}")


def test_criterion_11_trace_coherence():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        a = rand_system(rng, 2, 3)
        b = rand_system(rng, 2, 3)
        ts = scc.tensor_system(a, b)
        x = systems.random_element(ts.product, rng)

        # Tr_{r ⊠ s} = Tr_r ∘ Tr_s: partial-trace the B legs with B weights,
        # then take the A trace.
        partial = zero(a)
        for ai in range(a.nfactors):
            for bi in range(b.nfactors):
                blk = x[ts.pair_index(ai, bi)]
                traced = partial_trace(
                    blk, [a.dims[ai], b.dims[bi]], keep=[0], weights=[b.weights[bi]]
                )
                partial[ai] = partial[ai] + traced
        lhs = functional(a, partial)
        rhs = functional(ts.product, x)
        defect = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, defect)
        assert defect < 1e-10

        # positivity and faithfulness of the weighted partial trace
        psd = multiply(
            ts.product, adjoint_element(ts.product, x), x
        )
        total = 0.0
        for ai in range(a.nfactors):
            acc = np.zeros((a.dims[ai], a.dims[ai]), dtype=complex)
            for bi in range(b.nfactors):
                acc += partial_trace(
                    psd[ts.pair_index(ai, bi)],
                    [a.dims[ai], b.dims[bi]],
                    keep=[0],
                    weights=[b.weights[bi]],
                )
            eigs = np.linalg.eigvalsh(linalg.hermitize(acc))
            assert float(eigs[0]) > -1e-10 * max(1.0, float(eigs[-1]))
            total += float(np.trace(acc).real) * a.weights[ai]
        assert total > 1e-12  # faithful: nonzero PSD has positive trace
    print(f"ACCEPTANCE 11: PASS - trace coherence on 100 endomorphisms (worst defect {worst:.1e})")


def _criterion_12_worlds():
    """(name, system, covariant graph, covariant reversible channel,
    covariant non-reversible channel) on three nontrivial groups: the Klein
    four acting on a qubit by Paulis, C3 acting on a qutrit by the shift,
    S3 permuting three 2-dim factors, and C3 shifting three classical
    points, whose channels are circulant stochastic matrices drawn from a
    fixed seed: a power of the shift, and a mixture of all three powers."""
    eye, x, z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    klein = groups.FiniteGroup(4, ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)), 0)
    qubit = systems.system((2,), inner_action(klein, 2, [eye, x, z, x @ z]))
    pauli = graphs.graph_from_blocks(qubit, {(0, 0): linalg.orthonormal_span(
        [linalg.vec(eye), linalg.vec(z)], dim=4)})

    shift = np.roll(np.eye(3), 1, axis=0)
    powers = [np.linalg.matrix_power(shift, k) for k in range(3)]
    qutrit = systems.system((3,), inner_action(groups.cyclic_group(3), 3, powers))
    circulant = graphs.graph_from_blocks(qutrit, {(0, 0): linalg.orthonormal_span(
        [linalg.vec(u) for u in powers], dim=9)})

    s3 = groups.symmetric_group(3)
    triple = systems.system((2, 2, 2), groups.permutation_action(
        s3, (2, 2, 2), symmetric_group_perms(3)))
    blocks = {(i, j): linalg.orthonormal_span([linalg.vec(eye)] + [linalg.vec(z)] * (i == j),
                                              dim=4)
              for i in range(3) for j in range(3)}
    cube = graphs.graph_from_blocks(triple, blocks)

    def channel(sys, maps):
        return cpmaps.from_kraus({(i, i): maps for i in range(sys.nfactors)}, sys, sys)

    rng = np.random.default_rng(1212)
    cycle = groups.permutation_action(groups.cyclic_group(3), (1, 1, 1),
                                      tuple(tuple(np.roll(range(3), k)) for k in range(3)))
    points = systems.classical_system(3, cycle)
    mix = rng.random(3)
    circulant_mix = sum(c * np.linalg.matrix_power(shift, k) for k, c in enumerate(mix / mix.sum()))
    power = np.linalg.matrix_power(shift, 1 + int(rng.integers(0, 2)))

    return [
        ("Klein four by Paulis", qubit, pauli, channel(qubit, [z]),
         channel(qubit, [eye / np.sqrt(2), z / np.sqrt(2)])),
        ("C3 by the qutrit shift", qutrit, circulant, channel(qutrit, [shift]),
         channel(qutrit, [u / np.sqrt(3) for u in powers])),
        ("S3 on three qubit factors", triple, cube, channel(triple, [z]),
         channel(triple, [eye / np.sqrt(2), z / np.sqrt(2)])),
        ("C3 on three classical points", points, embed_graph(np.ones((3, 3), dtype=bool), points),
         classical.embed_channel(power, points, points),
         classical.embed_channel(circulant_mix, points, points)),
    ]


def test_criterion_12_covariant_results_2_and_3():
    """Results 2 and 3 of the paper on nontrivial groups.  Result 2: the
    channel realize_channel builds from a covariant graph is covariant, and
    its confusability graph is that graph.  Result 3: a covariant reversible
    channel has a covariant reverse g with g ∘ f = id, and a covariant
    non-reversible one is rejected; the Knill–Laflamme oracle agrees on
    both."""
    worst = 0.0
    for name, sys, graph, reversible, lossy in _criterion_12_worlds():
        assert groups.is_covariant_relation(graph.relation), name
        f, env = graphs.realize_channel(graph)
        assert env.group == sys.group and cpmaps.is_channel(f), name
        assert groups.is_covariant_cp(f), name
        defect = relations.relation_defect(graphs.confusability_of(f).relation, graph.relation)
        assert defect < linalg.TOL_ROUNDTRIP, name

        assert groups.is_covariant_cp(reversible) and graphs.is_reversible(reversible), name
        assert kl_reversible(reversible), name
        back = graphs.reverse_channel(reversible)
        assert cpmaps.is_channel(back) and groups.is_covariant_cp(back), name
        round_trip = cpmaps.cp_norm_diff(cpmaps.compose(back, reversible),
                                         cpmaps.identity_channel(sys))
        assert round_trip < 1e-7, name

        assert groups.is_covariant_cp(lossy) and not graphs.is_reversible(lossy), name
        assert not kl_reversible(lossy), name
        with pytest.raises(NotReversible):
            graphs.reverse_channel(lossy)
        worst = max(worst, defect, round_trip)
    print(f"ACCEPTANCE 12: PASS - results 2 and 3 on the Klein four, C3 (a qutrit and three "
          f"classical points) and S3 "
          f"(worst defect {worst:.1e})")


def test_criterion_12_covariant_result_4():
    """Result 4 of the paper on the same four worlds: the sources
    source_from_graph builds from the covariant graph and from the discrete
    graph are covariant; with the identity encoder the encoding verdict is
    the homomorphism test from the source graph to the channel's
    confusability graph, for the reversible and the lossy channel; a valid
    scheme's decoder is a covariant channel that verify_scheme accepts; and
    the discrete source through the lossy channel is invalid, with no
    decoder."""
    for name, sys, graph, reversible, lossy in _criterion_12_worlds():
        encoder = cpmaps.identity_channel(sys)
        for kind, g in (("graph", graph), ("discrete", graphs.discrete_graph(sys))):
            src = scc.source_from_graph(g)
            assert groups.is_covariant_cp(src.channel), (name, kind)
            for n_chan in (reversible, lossy):
                valid = scc.encoding_is_valid(encoder, src, n_chan)
                assert valid == graphs.is_homomorphism(
                    encoder, scc.source_confusability_graph(src), graphs.confusability_of(n_chan))
                assert valid != (kind == "discrete" and n_chan is lossy), (name, kind)
                if not valid:
                    with pytest.raises(NotValid):
                        scc.decoder_for(encoder, src, n_chan)
                    continue
                decoder = scc.decoder_for(encoder, src, n_chan)
                assert cpmaps.is_channel(decoder) and groups.is_covariant_cp(decoder), (name, kind)
                assert scc.verify_scheme(src, n_chan, encoder, decoder), (name, kind)
    print("ACCEPTANCE 12: PASS - result 4 on the Klein four, C3 (a qutrit and three classical "
          "points) and S3")
