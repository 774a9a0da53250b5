"""Workload cli-bundles: the five CLI commands run in-process on bundles.

Why: the only workload that loads and writes bundles (the write path beside
the compute path) and that uses a nontrivial group, so it is the only one
that measures bundle, cli, is_covariant_cp at load time, and the
System.__eq__ / AlgebraAction.__eq__ comparisons that bundle resolution and
the CLI's system naming make.

Inputs are demo/bundle.json plus generated C2-covariant bundles: classical
alphabets n in {4, 8, 16} (C2 swaps the points 2k and 2k+1) and bundles
of one 2-dim quantum factor on which C2 acts by conjugation with Z, with
channels given as "stochastic", "kraus" and "choi".  Every -o output is reloaded as part
of the task and checked by a round trip.  Expected exit codes and printed
verdicts are known by construction and cross-checked against the classical
oracles where the channels are stochastic.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from functools import partial

import numpy as np

from covgraphs import bundle, classical, cli, cpmaps, graphs, relations, scc

from common import Task, vec

# rung: (n, bundles).  Replicas of the cheaper rungs bring a pass to 100+
# tasks, so that p90 has 10 samples beyond it.  The counts place p50 among
# the n4 twirl and graph-to-channel tasks and p90 among the n8 scc-verify
# tasks and the cheapest n16 ones, each a group of similar cost, away from
# a step between groups.
LADDER = {"bundle-n4": (4, 4), "bundle-n8": (8, 4), "bundle-n16": (16, 1)}
Q2_REPLICAS = 3
TOP_RUNG = "bundle-n16"

C2 = {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0}


def _mat(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _swap_system(n):
    return {"factors": [1] * n, "action": {"perms": {"1": [i ^ 1 for i in range(n)]},
                                           "unitaries": {}}}


def _graph(sysname, adj):
    n = adj.shape[0]
    return {"system": sysname, "kind": "confusability",
            "blocks": {f"{i},{j}": {"projection": [[[1.0, 0.0]]]}
                       for i in range(n) for j in range(n) if adj[i, j]}}


# -- running the CLI -----------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _flag(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].split()[0]
    return None


def cli_task(argv, key, reload):
    code, out = _run_cli(argv)
    flag = _flag(out, key) if key else None
    round_trip = reload() if reload is not None and code == 0 else None
    return (code, flag, round_trip)


def _reloaded(bundle_path, out_path, merge):
    with open(bundle_path) as fh:
        data = json.load(fh)
    with open(out_path) as fh:
        doc = json.load(fh)
    merge(data, doc)
    return bundle.load_bundle(data)


def _reverse_round_trip(bundle_path, out_path, chan):
    def merge(data, doc):
        data.setdefault("channels", {})["_back"] = doc

    b = _reloaded(bundle_path, out_path, merge)
    f = b.channels[chan]
    back = cpmaps.compose(b.channels["_back"], f)
    return cpmaps.cp_norm_diff(back, cpmaps.identity_channel(f.source)) < 1e-7


def _realize_round_trip(bundle_path, out_path, graph):
    def merge(data, doc):
        data["systems"]["_env"] = doc["environment"]
        chan = dict(doc["channel"], to="_env")
        data.setdefault("channels", {})["_real"] = chan

    b = _reloaded(bundle_path, out_path, merge)
    conf = graphs.confusability_of(b.channels["_real"])
    return relations.relation_defect(conf.relation, b.graphs[graph].relation) < 1e-7


def _twirl_round_trip(bundle_path, out_path, chan):
    def merge(data, doc):
        data.setdefault("channels", {})["_twirled"] = doc

    b = _reloaded(bundle_path, out_path, merge)
    return cpmaps.cp_norm_diff(b.channels["_twirled"], b.channels[chan]) < 1e-9


def _decoder_round_trip(bundle_path, out_path, source, chan, enc, decoder_from):
    def merge(data, doc):
        data.setdefault("channels", {})["_dec"] = dict(doc, **{"from": decoder_from})

    b = _reloaded(bundle_path, out_path, merge)
    return scc.verify_scheme(b.sources[source], b.channels[chan], b.channels[enc],
                             b.channels["_dec"])


# -- inputs --------------------------------------------------------------

def _covariant_permutation(rng, n):
    pairs = rng.permutation(n // 2)
    flips = rng.integers(0, 2, n // 2)
    p = np.zeros((n, n))
    for i in range(n):
        k, b = divmod(i, 2)
        p[2 * pairs[k] + (b ^ flips[k]), i] = 1.0
    return p


def _covariant_spread(rng, n):
    """Two outputs per column, sigma-covariant; column 0 hits a swapped pair
    {j, j^1}, so inputs 0 and 1 always collide (not reversible)."""
    p = np.zeros((n, n))
    for k in range(n // 2):
        if k == 0:
            j = 2 * int(rng.integers(0, n // 2))
            rows = (j, j + 1)
        else:
            rows = tuple(rng.choice(n, size=2, replace=False))
        w = rng.random() * 0.5 + 0.25
        p[rows[0], 2 * k] += w
        p[rows[1], 2 * k] += 1 - w
        p[rows[0] ^ 1, 2 * k + 1] += w
        p[rows[1] ^ 1, 2 * k + 1] += 1 - w
    return p


def _covariant_graph(rng, n):
    sig = np.arange(n) ^ 1
    a = rng.random((n, n)) < 0.3
    a = a | a.T
    a = a | a[np.ix_(sig, sig)]
    np.fill_diagonal(a, True)
    return a


def _classical_bundle(rng, n):
    p_rev = _covariant_permutation(rng, n)
    p_non = _covariant_spread(rng, n)
    p_src = np.zeros((n, 2))
    p_src[0, 0] = p_src[1, 1] = 1.0
    adj_r = _covariant_graph(rng, n)
    data = {
        "group": C2,
        "systems": {"A": _swap_system(n), "B": _swap_system(n), "S": _swap_system(2),
                    "OB": {"factors": [1]}, "AOB": {"tensor": ["A", "OB"]},
                    "BOB": {"tensor": ["B", "OB"]}},
        "channels": {"rev": {"from": "A", "to": "B", "stochastic": p_rev.tolist()},
                     "non": {"from": "A", "to": "B", "stochastic": p_non.tolist()},
                     "id": {"from": "A", "to": "A", "stochastic": np.eye(n).tolist()},
                     "src": {"from": "S", "to": "AOB", "stochastic": p_src.tolist()}},
        "graphs": {"dA": _graph("A", np.eye(n, dtype=bool)),
                   "cA": _graph("A", np.ones((n, n), dtype=bool)),
                   "rB": _graph("B", adj_r)},
        "sources": {"src": {"s": "S", "oa": "A", "ob": "OB", "channel": "src"}},
    }
    adj_src = classical.oracle_source_graph(p_src, n, 1)
    oracle = {
        "rev": classical.oracle_reversible(p_rev),
        "non": classical.oracle_reversible(p_non),
        "hom_d": classical.oracle_stochastic_hom(p_non, np.eye(n, dtype=bool), adj_r),
        "hom_c": classical.oracle_stochastic_hom(p_non, np.ones((n, n), dtype=bool), adj_r),
        "scc_rev": classical.oracle_stochastic_hom(
            np.eye(n), adj_src, classical.oracle_confusability(p_rev)),
        "scc_non": classical.oracle_stochastic_hom(
            np.eye(n), adj_src, classical.oracle_confusability(p_non)),
    }
    known = {"rev": True, "non": False, "hom_d": False, "hom_c": True,
             "scc_rev": True, "scc_non": False}
    if oracle != known:
        raise AssertionError(f"construction and oracle disagree: {oracle}")
    return data


def _classical_commands(path, wd, tag):
    o = partial(os.path.join, wd)
    return [
        ("analyze-rev", ["analyze-channel", path, "rev", "--emit-reverse",
                         "-o", o(f"{tag}-rev.json")],
         "reversible", partial(_reverse_round_trip, path, o(f"{tag}-rev.json"), "rev"),
         (0, "yes", True)),
        ("analyze-non", ["analyze-channel", path, "non"], "reversible", None, (0, "no", None)),
        ("hom-false", ["check-hom", path, "non", "dA", "rB"], "homomorphism", None,
         (1, "false", None)),
        ("hom-true", ["check-hom", path, "non", "cA", "rB"], "homomorphism", None,
         (0, "true", None)),
        ("realize", ["graph-to-channel", path, "rB", "-o", o(f"{tag}-real.json")], None,
         partial(_realize_round_trip, path, o(f"{tag}-real.json"), "rB"), (0, None, True)),
        ("scc-valid", ["scc-verify", path, "src", "rev", "id", "-o", o(f"{tag}-dec.json")],
         "scheme", partial(_decoder_round_trip, path, o(f"{tag}-dec.json"), "src", "rev", "id",
                           "BOB"), (0, "valid", True)),
        ("scc-invalid", ["scc-verify", path, "src", "non", "id"], "scheme", None,
         (1, "invalid", None)),
        ("twirl", ["twirl", path, "non", "-o", o(f"{tag}-tw.json")], "covariant",
         partial(_twirl_round_trip, path, o(f"{tag}-tw.json"), "non"), (0, "yes", True)),
    ]


def _quantum_bundle(rng):
    z = np.diag([1.0, -1.0])
    p = 0.2 + 0.6 * rng.random()
    deph = [np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * z]
    choi = sum(np.outer(vec(m.conj().T), vec(m.conj().T).conj()) for m in deph)
    theta = 2 * np.pi * rng.random()
    q = 0.2 + 0.6 * rng.random()
    delta = np.outer(vec(np.eye(2)), vec(np.eye(2))) / 2
    return {
        "group": C2,
        "systems": {"Q": {"factors": [2], "action": {"perms": {"1": [0]},
                                                     "unitaries": {"1": [_mat(z)]}}},
                    "C": _swap_system(2)},
        "channels": {
            "deph_k": {"from": "Q", "to": "Q", "kraus": {"0,0": [_mat(m) for m in deph]}},
            "deph_c": {"from": "Q", "to": "Q", "choi": {"0,0": _mat(choi)}},
            "unit_k": {"from": "Q", "to": "Q",
                       "kraus": {"0,0": [_mat(np.diag([1.0, np.exp(1j * theta)]))]}},
            "flip_s": {"from": "C", "to": "C", "stochastic": [[q, 1 - q], [1 - q, q]]},
        },
        "graphs": {"dQ": {"system": "Q", "kind": "confusability",
                          "blocks": {"0,0": {"projection": _mat(delta)}}}},
    }


def _quantum_commands(path, wd, tag):
    o = partial(os.path.join, wd)
    return [
        ("analyze-kraus", ["analyze-channel", path, "deph_k"], "reversible", None,
         (0, "no", None)),
        ("analyze-choi", ["analyze-channel", path, "deph_c"], "reversible", None,
         (0, "no", None)),
        ("analyze-unitary", ["analyze-channel", path, "unit_k", "--emit-reverse",
                             "-o", o(f"{tag}-rev.json")], "reversible",
         partial(_reverse_round_trip, path, o(f"{tag}-rev.json"), "unit_k"), (0, "yes", True)),
        ("analyze-stochastic", ["analyze-channel", path, "flip_s"], "reversible", None,
         (0, "no", None)),
        ("twirl", ["twirl", path, "deph_c", "-o", o(f"{tag}-tw.json")], "covariant",
         partial(_twirl_round_trip, path, o(f"{tag}-tw.json"), "deph_c"), (0, "yes", True)),
        ("hom-true", ["check-hom", path, "unit_k", "dQ", "dQ"], "homomorphism", None,
         (0, "true", None)),
        ("hom-false", ["check-hom", path, "deph_k", "dQ", "dQ"], "homomorphism", None,
         (1, "false", None)),
        ("realize", ["graph-to-channel", path, "dQ", "-o", o(f"{tag}-real.json")], None,
         partial(_realize_round_trip, path, o(f"{tag}-real.json"), "dQ"), (0, None, True)),
    ]


def _demo_commands(path, wd):
    with open(path) as fh:
        demo = json.load(fh)
    p = {k: np.asarray(v["stochastic"]) for k, v in demo["channels"].items()}
    adj_src = classical.oracle_source_graph(p["copy_source"], 2, 2)
    scc_valid = classical.oracle_stochastic_hom(
        p["encode"], adj_src, classical.oracle_confusability(p["spread"]))
    disc = np.eye(2, dtype=bool)
    hom_mix = classical.oracle_stochastic_hom(p["mix"], disc, disc)
    hom_enc = classical.oracle_stochastic_hom(p["encode"], disc, disc)
    yes = {True: "yes", False: "no"}
    o = partial(os.path.join, wd)
    return [
        ("analyze-spread", ["analyze-channel", path, "spread", "--emit-reverse",
                            "-o", o("demo-rev.json")], "reversible",
         partial(_reverse_round_trip, path, o("demo-rev.json"), "spread"),
         (0, yes[classical.oracle_reversible(p["spread"])], True)),
        ("analyze-mix", ["analyze-channel", path, "mix"], "reversible", None,
         (0, yes[classical.oracle_reversible(p["mix"])], None)),
        ("scc", ["scc-verify", path, "copy", "spread", "encode"], "scheme", None,
         (0 if scc_valid else 1, "valid" if scc_valid else "invalid", None)),
        ("twirl", ["twirl", path, "mix", "-o", o("demo-tw.json")], "covariant",
         partial(_twirl_round_trip, path, o("demo-tw.json"), "mix"), (0, "yes", True)),
        ("hom-encode", ["check-hom", path, "encode", "discrete_A", "discrete_A"],
         "homomorphism", None, (0 if hom_enc else 1, str(hom_enc).lower(), None)),
        ("hom-mix", ["check-hom", path, "mix", "discrete_A", "discrete_A"],
         "homomorphism", None, (0 if hom_mix else 1, str(hom_mix).lower(), None)),
        ("realize", ["graph-to-channel", path, "complete_A", "-o", o("demo-real.json")], None,
         partial(_realize_round_trip, path, o("demo-real.json"), "complete_A"),
         (0, None, True)),
    ]


def build(rng, workdir, root):
    commands = [("demo", 0, c) for c in _demo_commands(
        os.path.join(root, "demo", "bundle.json"), workdir)]
    for rung, (n, replicas) in LADDER.items():
        for r in range(replicas):
            tag = f"{rung}-{r}"
            path = os.path.join(workdir, f"{tag}.json")
            with open(path, "w") as fh:
                json.dump(_classical_bundle(rng, n), fh)
            commands += [(rung, r, c) for c in _classical_commands(path, workdir, tag)]
    for r in range(Q2_REPLICAS):
        tag = f"bundle-q2-{r}"
        path = os.path.join(workdir, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(_quantum_bundle(rng), fh)
        commands += [("bundle-q2", r, c) for c in _quantum_commands(path, workdir, tag)]
    return [Task(f"{rung}/{name}/{r}", rung, partial(cli_task, argv, key, reload), expected)
            for rung, r, (name, argv, key, reload, expected) in commands]
