"""Verdicts checked against oracles that share no cut code with the library.

The Knill–Laflamme oracle decides reversibility from products of Kraus maps
alone: no support cut, no relation compose.  The metamorphic checks ask
that verdicts and ranks do not move under a change of basis or a positive
rescaling.
"""

import numpy as np

from covgraphs import cpmaps, graphs, relations

from genutil import (
    assert_graph_symmetric,
    basis_changed,
    held,
    kl_reversible,
    rand_channel,
    rand_nonreversible_channel,
    rand_over_count_channels,
    rand_reversible_channel,
    rand_system,
    rand_unitary,
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
