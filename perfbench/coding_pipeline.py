"""Workload coding-pipeline: sources realized from graphs on the O_A ladder
(1,1), (2,), (2,2), (3,), plus small isometry sources.

Why: every task runs source_from_graph and then encoding_is_valid ->
decoder_for -> verify_scheme, whose composite goes tensor_cp -> from_kraus
-> compose -> to_kraus and runs eigh on Choi blocks of up to 900x900 at
O_A=(3,).  The cost is in a few large spectral kernels on morphisms born in
Kraus form, with little per-block Python work: the opposite of
classical-alphabet and of quantum-factors' Choi-born channels.

Expected verdicts follow from construction: the identity encoder into the
identity channel is valid; an isometric channel is reversible, so encoding
into it is valid; a generic noisy channel has a complete confusability
graph, so the identity encoder is invalid whenever the source graph is not
complete (true of every generated graph on a factor of dimension >= 2).
At O_A=(1,1) the graph is discrete or complete and the classical oracles
decide the merge case independently.  encoding_is_valid itself evaluates
both sides of the coding theorem and raises if they disagree.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from covgraphs import classical, cpmaps, graphs, scc, systems

from common import Task, isometric_kraus, rand_conf_blocks, rand_unitary, random_kraus

# (graph sources per rung, cases run on each source).  The counts place p50
# about ten ranks into the oa11 group (~20 ms; the 42 tasks below it are
# the isometry sources and oa2/noisy) and p90 in the middle of the oa2/iso
# group, away from a boundary between groups of different cost.
LADDER = {
    "oa11": ((1, 1), 12, ("id", "merge", "iso")),
    "oa2": ((2,), 10, ("id", "noisy", "iso")),
    "oa22": ((2, 2), 2, ("id", "noisy")),
    "oa3": ((3,), 1, ("id", "noisy")),
}
ISOMETRY_SOURCES = 16
TOP_RUNG = "oa3"


def run_scheme(src, e_chan, n_chan):
    valid = scc.encoding_is_valid(e_chan, src, n_chan)
    ok = None
    if valid:
        d_chan = scc.decoder_for(e_chan, src, n_chan)
        ok = scc.verify_scheme(src, n_chan, e_chan, d_chan)
    return (valid, ok)


def graph_source_task(dims, blocks, case, kraus, tgt_dims):
    oa = systems.system(dims)
    src = scc.source_from_graph(graphs.graph_from_blocks(oa, blocks))
    ident = cpmaps.identity_channel(oa)
    if case == "id":
        n_chan = ident
    elif case == "merge":
        n_chan = classical.embed_channel(np.ones((1, len(dims))), oa, systems.classical_system(1))
    elif case == "noisy":
        n_chan = cpmaps.channelize(cpmaps.from_kraus(kraus, oa, oa))
    else:
        n_chan = cpmaps.from_kraus(kraus, oa, systems.system(tgt_dims))
    return run_scheme(src, ident, n_chan)


def isometry_source_task(v, case, kraus, tgt_dims):
    s_sys, oa, ob = systems.system((2,)), systems.system((2,)), systems.system((2,))
    prod = scc.tensor_system(oa, ob).product
    chan = cpmaps.from_kraus({(0, 0): [np.sqrt(s_sys.weights[0] / prod.weights[0]) * v]},
                             s_sys, prod)
    src = scc.Source(s_sys, oa, ob, chan)
    ident = cpmaps.identity_channel(oa)
    n_chan = ident if case == "id" else cpmaps.from_kraus(kraus, oa, systems.system(tgt_dims))
    return run_scheme(src, ident, n_chan)


def build(rng, **_paths):
    tasks = []
    for rung, (dims, count, cases) in LADDER.items():
        for k in range(count):
            if dims == (1, 1):
                complete = k % 2 == 1
                blocks = {(0, 0): np.ones((1, 1)), (1, 1): np.ones((1, 1))}
                if complete:
                    blocks[(0, 1)] = blocks[(1, 0)] = np.ones((1, 1))
                adj = np.array([[True, complete], [complete, True]])
            else:
                blocks = rand_conf_blocks(rng, dims)
                complete = False
            for case in cases:
                kraus, tgt = None, None
                if case == "iso":
                    kraus, e = isometric_kraus(rng, dims)
                    tgt = (e,)
                elif case == "noisy":
                    # 2 max(d)^2 generic Kraus maps span every operator, so
                    # the confusability graph is complete.
                    kraus, tgt = random_kraus(rng, dims, 2 * max(dims) ** 2), dims
                valid = case in ("id", "iso") or complete
                if case == "merge":
                    oracle = classical.oracle_stochastic_hom(
                        np.eye(2), adj, classical.oracle_confusability(np.ones((1, 2))))
                    if oracle != valid:
                        raise AssertionError("construction and oracle disagree at O_A=(1,1)")
                tasks.append(Task(f"{rung}/{case}/{k}", rung,
                                  partial(graph_source_task, dims, blocks, case, kraus, tgt),
                                  (valid, True if valid else None)))
    for k in range(ISOMETRY_SOURCES):
        v = rand_unitary(rng, 4)[:, :2]
        for case in ("id", "iso"):
            kraus, tgt = None, None
            if case == "iso":
                kraus, e = isometric_kraus(rng, (2,))
                tgt = (e,)
            tasks.append(Task(f"qsrc/{case}/{k}", "qsrc",
                              partial(isometry_source_task, v, case, kraus, tgt), (True, True)))
    return tasks
