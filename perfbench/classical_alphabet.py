"""Workload classical-alphabet: stochastic channels over the alphabet ladder.

Why: a classical system of n points has n*n Choi blocks of size 1x1, so the
cost is Python overhead per block and the O(n^3) apply/compose loops, not
spectral kernels.  Per-block overhead removal and batched block stacks act
here; the Kraus/Choi eigh chain is bypassed.

Channels are n -> n column-stochastic matrices, half reversible by
construction (a permutation), half not (each input spreads over two outputs
along a relabelled cycle, so neighbouring inputs share an output).  Small
classical coding instances ride along, valid or invalid by construction.  Every verdict is also
compared with the boolean oracles in covgraphs.classical, which share no
floating-point path with the quantum code.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from covgraphs import classical, cpmaps, graphs, scc, systems

from common import Task, bits_digest

# pairs (reversible, non-reversible) per rung; the top rung sets top_rung_s.
# The counts place p50 inside the n4 reversible group and p90 inside the n16
# non-reversible group, away from a boundary between groups of different cost.
LADDER = {"n4": (4, 33), "n16": (16, 6), "n64": (64, 1)}
CODING_INSTANCES = 30
TOP_RUNG = "n64"


def _permutation(rng, n):
    p = np.zeros((n, n))
    p[rng.permutation(n), np.arange(n)] = 1.0
    return p


def _two_per_column(rng, n):
    """Input tau(i) goes to outputs sigma(i) and sigma(i+1): every column and
    every row has two nonzeros, so the cost does not depend on the seed."""
    sigma, tau = rng.permutation(n), rng.permutation(n)
    p = np.zeros((n, n))
    for i in range(n):
        w = rng.random() * 0.5 + 0.25
        p[sigma[i], tau[i]] = w
        p[sigma[(i + 1) % n], tau[i]] = 1.0 - w
    return p


def channel_task(p):
    f = classical.embed_channel(p)
    is_chan = cpmaps.is_channel(f)
    conf = classical.extract_graph(graphs.confusability_of(f))
    rev = graphs.is_reversible(f)
    round_trip = None
    if rev:
        g = graphs.reverse_channel(f)
        back = cpmaps.compose(g, f)
        round_trip = cpmaps.cp_norm_diff(back, cpmaps.identity_channel(f.source)) < 1e-7
    return (is_chan, bits_digest(conf), rev, round_trip)


def _coding_instance(rng, valid: bool):
    """Source S(3) -> O_A(3) x O_B(2) with one cell per symbol.

    Symbols 0 and 1 share side-information value 0 at different Alice
    letters a0 != a1, so a0 and a1 are not adjacent in the source graph.
    valid: encoder is a permutation and the channel the identity (discrete
    confusability graph).  invalid: identity encoder into a channel that
    merges everything (complete confusability graph).
    """
    ns, na, nb = 3, 3, 2
    a0, a1, a2 = rng.permutation(na)
    p_src = np.zeros((na * nb, ns))
    p_src[a0 * nb + 0, 0] = 1.0
    p_src[a1 * nb + 0, 1] = 1.0
    p_src[a2 * nb + 1, 2] = 1.0
    if valid:
        p_e = np.zeros((na, na))
        p_e[rng.permutation(na), np.arange(na)] = 1.0
        p_n = np.eye(na)
    else:
        p_e = np.eye(na)
        p_n = np.ones((1, na))
    return p_src, p_e, p_n, (na, nb)


def coding_task(p_src, p_e, p_n, shape):
    na, nb = shape
    s_sys = systems.classical_system(p_src.shape[1])
    oa = systems.classical_system(na)
    ob = systems.classical_system(nb)
    src = scc.Source(s_sys, oa, ob,
                     classical.embed_channel(p_src, s_sys, scc.tensor_system(oa, ob).product))
    mid = systems.classical_system(p_e.shape[0])
    e_chan = classical.embed_channel(p_e, oa, mid)
    n_chan = classical.embed_channel(p_n, mid, systems.classical_system(p_n.shape[0]))
    valid = scc.encoding_is_valid(e_chan, src, n_chan)
    ok = None
    if valid:
        d_chan = scc.decoder_for(e_chan, src, n_chan)
        ok = scc.verify_scheme(src, n_chan, e_chan, d_chan)
    return (valid, ok)


def build(rng, **_paths):
    tasks = []
    for rung, (n, pairs) in LADDER.items():
        for k in range(pairs):
            for kind, p in (("rev", _permutation(rng, n)), ("non", _two_per_column(rng, n))):
                rev = classical.oracle_reversible(p)
                if rev != (kind == "rev"):
                    raise AssertionError(f"construction and oracle disagree on {rung}/{kind}")
                expected = (True, bits_digest(classical.oracle_confusability(p)), rev,
                            True if rev else None)
                tasks.append(Task(f"{rung}/{kind}/{k}", rung, partial(channel_task, p), expected))
    for k in range(CODING_INSTANCES):
        valid = k % 2 == 0
        p_src, p_e, p_n, shape = _coding_instance(rng, valid)
        adj_src = classical.oracle_source_graph(p_src, *shape)
        oracle = classical.oracle_stochastic_hom(p_e, adj_src, classical.oracle_confusability(p_n))
        if oracle != valid:
            raise AssertionError("construction and oracle disagree on a coding instance")
        tasks.append(Task(f"code/{'valid' if valid else 'invalid'}/{k}", "code",
                          partial(coding_task, p_src, p_e, p_n, shape),
                          (valid, True if valid else None)))
    return tasks
