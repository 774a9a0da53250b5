"""Verdicts checked against oracles that share no cut code with the library.

The Knill–Laflamme oracle decides reversibility from products of Kraus maps
alone: no support cut, no relation compose.
"""

import numpy as np

from covgraphs import graphs

from genutil import (
    assert_graph_symmetric,
    kl_reversible,
    rand_channel,
    rand_nonreversible_channel,
    rand_reversible_channel,
    rand_system,
)


def _sweep():
    """Seeds 0–199, each giving a reversible, a non-reversible and a random
    channel between two random systems."""
    for seed in range(200):
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
