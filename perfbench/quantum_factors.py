"""Workload quantum-factors: single matrix factors d in {2, 4, 6} and the
mixed system (1, 2, 3).

Why: a few large blocks, so the cost sits in the linalg spectral kernels and
in the probe loops of the self-checks (_hom_defects, ssfa_defects,
partial_function_flags).  Random channels are built by channelize and so
start life in Choi form, the opposite of coding-pipeline: a Kraus-caching
change that helps one and costs the other shows here.

Every expected verdict follows from how the input was built: random Kraus
families have known support ranks, their confusability graph contains the
discrete graph and they are not reversible; isometric channels are
reversible and their reversal composes to the identity; mixed-unitary
channels are not reversible; unitary channels are star-homomorphisms; a
unitary-span relation is a function and a two-Weyl span is not a partial
function; the twirl of a channel is a covariant channel while a generic
channel is not covariant; the separable standard functional passes every
SSFA axiom.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from covgraphs import cpmaps, graphs, groups, relations, systems

from common import (Task, isometric_kraus, rand_conf_blocks, rand_unitary, random_kraus,
                    span_projection, vec)

# rung: (factor dims, replicas of each task kind).  d2 tasks are cheap; two
# replicas place p90 in the middle of the d6 self-check group (~60 ms)
# rather than at its boundary with the m123 group (~30 ms), and p50 among
# the ~7 ms tasks rather than at their step up to the ~10 ms ones.
LADDER = {"d2": ((2,), 2), "d4": ((4,), 3), "d6": ((6,), 3), "m123": ((1, 2, 3), 3)}
TOP_RUNG = "d6"


def _z2_action(dims):
    z2 = groups.cyclic_group(2)
    signs = [np.diag([(-1.0) ** k for k in range(d)]).astype(complex) for d in dims]
    return groups.AlgebraAction(
        z2, dims, ((tuple(range(len(dims))),) * 2),
        (tuple(np.eye(d, dtype=complex) for d in dims), tuple(signs)),
    )


def _weyl(d):
    w = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag([w ** k for k in range(d)])
    return shift, clock


# -- tasks ---------------------------------------------------------------

def random_channel_task(dims, kraus):
    sys = systems.system(dims)
    f = cpmaps.channelize(cpmaps.from_kraus(kraus, sys, sys))
    rel = relations.support_of(f)
    ranks = tuple(rel.rank(i, j) for (i, j) in sorted(rel.blocks))
    conf = graphs.classify(graphs.confusability_of(f))["is_confusability"]
    return (cpmaps.is_channel(f), ranks, conf, graphs.is_reversible(f))


def mixed_unitary_task(dims, kraus):
    sys = systems.system(dims)
    f = cpmaps.from_kraus(kraus, sys, sys)
    return (cpmaps.is_channel(f), graphs.is_reversible(f))


def isometric_task(dims, kraus, e):
    sys = systems.system(dims)
    f = cpmaps.from_kraus(kraus, sys, systems.system((e,)))
    rev = graphs.is_reversible(f)
    g = graphs.reverse_channel(f)
    back = cpmaps.compose(g, f)
    return (cpmaps.is_channel(f), rev,
            cpmaps.cp_norm_diff(back, cpmaps.identity_channel(sys)) < 1e-7)


def realize_task(dims, blocks):
    sys = systems.system(dims)
    g = graphs.graph_from_blocks(sys, blocks)
    f, _ = graphs.realize_channel(g)
    defect = relations.relation_defect(graphs.confusability_of(f).relation, g.relation)
    return (cpmaps.is_channel(f), defect < 1e-7)


def hom_task(dims, kraus, tgt_dims):
    sys = systems.system(dims)
    tgt = systems.system(tgt_dims)
    f = cpmaps.from_kraus(kraus, sys, tgt)
    return graphs.is_homomorphism(f, graphs.discrete_graph(sys), graphs.discrete_graph(tgt))


def partial_function_task(dims, blocks):
    sys = systems.system(dims)
    pf, fn, _ = relations.partial_function_flags(relations.QuantumRelation(sys, sys, blocks))
    return (pf, fn)


def star_hom_task(dims, kraus):
    sys = systems.system(dims)
    return cpmaps.is_star_homomorphism(cpmaps.from_kraus(kraus, sys, sys))


def ssfa_task(dims):
    defects = systems.ssfa_defects(systems.system(dims))
    return max(defects.values()) < 1e-8


def twirl_task(dims, kraus):
    sys = systems.system(dims, _z2_action(dims))
    f = cpmaps.channelize(cpmaps.from_kraus(kraus, sys, sys))
    t = groups.twirl_cp(f)
    return (groups.is_covariant_cp(f), groups.is_covariant_cp(t), cpmaps.is_channel(t))


# -- inputs --------------------------------------------------------------

def _rung_tasks(rng, rung, dims, replicas):
    k = max(dims)
    out = []
    for _ in range(replicas):
        kraus = random_kraus(rng, dims, k)
        ranks = tuple(min(k, d * e) for d in dims for e in dims)
        out.append(("chan", partial(random_channel_task, dims, kraus),
                    (True, ranks, True, False)))

        mixu = {}
        for i, d in enumerate(dims):
            u, v = (np.eye(1, dtype=complex), np.eye(1, dtype=complex)) if d == 1 \
                else (rand_unitary(rng, d), rand_unitary(rng, d))
            mixu[(i, i)] = [u / np.sqrt(2), v / np.sqrt(2)]
        out.append(("mixu", partial(mixed_unitary_task, dims, mixu), (True, False)))

        iso, e = isometric_kraus(rng, dims)
        out.append(("iso", partial(isometric_task, dims, iso, e), (True, True, True)))

        out.append(("realize", partial(realize_task, dims, rand_conf_blocks(rng, dims)),
                    (True, True)))

        iso2, e2 = isometric_kraus(rng, dims)
        out.append(("hom-iso", partial(hom_task, dims, iso2, (e2,)), True))
        out.append(("hom-rand", partial(hom_task, dims, random_kraus(rng, dims, k), dims),
                    False))

        fn_blocks, no_blocks = {}, {}
        for i, d in enumerate(dims):
            fn_blocks[(i, i)] = span_projection([vec(rand_unitary(rng, d).conj().T)])
            if d == 1:
                no_blocks[(i, i)] = np.ones((1, 1), dtype=complex)
            else:
                shift, clock = _weyl(d)
                picks = rng.choice(d * d, size=2, replace=False)
                no_blocks[(i, i)] = span_projection(
                    [vec(np.linalg.matrix_power(shift, int(x) // d)
                         @ np.linalg.matrix_power(clock, int(x) % d)) for x in picks])
        out.append(("pf-function", partial(partial_function_task, dims, fn_blocks),
                    (True, True)))
        out.append(("pf-neither", partial(partial_function_task, dims, no_blocks),
                    (False, False)))

        unitary = {(i, i): [rand_unitary(rng, d)] for i, d in enumerate(dims)}
        out.append(("star-unitary", partial(star_hom_task, dims, unitary), True))
        out.append(("star-rand", partial(star_hom_task, dims, random_kraus(rng, dims, k)),
                    False))

        out.append(("twirl", partial(twirl_task, dims, random_kraus(rng, dims, k)),
                    (False, True, True)))
    out.append(("ssfa", partial(ssfa_task, dims), True))
    return [Task(f"{rung}/{kind}/{i}", rung, fn, exp) for i, (kind, fn, exp) in enumerate(out)]


def build(rng, **_paths):
    tasks = []
    for rung, (dims, replicas) in LADDER.items():
        tasks += _rung_tasks(rng, rung, dims, replicas)
    return tasks
