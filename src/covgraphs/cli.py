"""Command-line front end.

Every command reads one JSON bundle and prints a plain-text report to stdout;
those that make a channel also write it as machine-readable JSON with -o,
which check-hom does not take.  Exit codes: 0 success / property holds, 1
property fails or a round trip misses tolerance, 2 input or reference
errors, 3 internal theorem violation (never expected).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bundle as bundle_mod
from . import cpmaps, graphs, groups, linalg, relations, scc
from .errors import (
    CovGraphsError,
    NotConfusability,
    NotValid,
    TheoremViolation,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(path: str, tol: float):
    try:
        return bundle_mod.load_bundle_file(path, tol=tol)
    except (OSError, ValueError, KeyError, CovGraphsError) as exc:
        raise SystemExit(_fail(f"cannot load bundle: {exc}", EXIT_INPUT))


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _get(table: dict, name: str, what: str):
    if name not in table:
        raise SystemExit(_fail(f"unknown {what} {name!r}", EXIT_INPUT))
    return table[name]


def cmd_analyze_channel(args) -> int:
    b = _load(args.bundle, args.tol)
    f = _get(b.channels, args.channel, "channel")
    rel = relations.support_of(f)
    is_chan = cpmaps.is_channel(f, args.tol)
    print(f"channel: {args.channel}")
    print(f"is channel: {'yes' if is_chan else 'no'}")
    print("relation block ranks:")
    for (i, j), rank in zip(rel.blocks, rel.ranks()):
        print(f"  ({i},{j}): {rank}")
    gamma = graphs.confusability_of(f)
    print("confusability block ranks:")
    for (i, j), rank in zip(gamma.relation.blocks, gamma.relation.ranks()):
        print(f"  ({i},{j}): {rank}")
    if not is_chan:
        print("reversible: n/a (not a channel)")
        return EXIT_OK
    rev = graphs.is_reversible(f, args.tol)
    print(f"reversible: {'yes' if rev else 'no'}")
    if args.emit_reverse and rev:
        g = graphs.reverse_channel(f, args.tol)
        if args.output:
            src_name, tgt_name = b.declared["channels"][args.channel]
            bundle_mod.dump_json(bundle_mod.dump_channel(g, tgt_name, src_name), args.output)
            print(f"reverse channel written to {args.output}")
        else:
            print("reverse channel computed (use -o to write it)")
    return EXIT_OK


def cmd_graph_to_channel(args) -> int:
    b = _load(args.bundle, args.tol)
    g = _get(b.graphs, args.graph, "graph")
    try:
        f, env = graphs.realize_channel(g, tau=args.tau, tol=args.tol)
    except NotConfusability as exc:
        return _fail(str(exc), EXIT_INPUT)
    defect = relations.relation_defect(graphs.confusability_of(f).relation, g.relation)
    print(f"realized channel into environment of dimension {env.dims[0]}")
    print(f"round-trip defect: {defect:.3e}")
    if args.output:
        doc = {
            "environment": bundle_mod.system_to_json(env),
            "channel": bundle_mod.dump_channel(f, b.declared["graphs"][args.graph], "environment"),
        }
        bundle_mod.dump_json(doc, args.output)
        print(f"written to {args.output}")
    if defect > linalg.TOL_ROUNDTRIP:
        print("round trip FAILED tolerance")
        return EXIT_FALSE
    return EXIT_OK


def cmd_check_hom(args) -> int:
    b = _load(args.bundle, args.tol)
    f = _get(b.channels, args.channel, "channel")
    ga = _get(b.graphs, args.source_graph, "graph")
    gb = _get(b.graphs, args.target_graph, "graph")
    try:
        failures = sorted(graphs.homomorphism_failures(f, ga, gb, args.tol))
    except CovGraphsError as exc:
        return _fail(str(exc), EXIT_INPUT)
    print(f"homomorphism: {'false' if failures else 'true'}")
    for (i, j), defect in failures:
        print(f"witness block ({i},{j}): containment defect {defect:.3e}")
    return EXIT_FALSE if failures else EXIT_OK


def cmd_scc_verify(args) -> int:
    if args.output and args.decoder is not None:
        return _fail("-o writes a synthesized decoder, and a decoder was given", EXIT_INPUT)
    b = _load(args.bundle, args.tol)
    src = _get(b.sources, args.source, "source")
    n_chan = _get(b.channels, args.channel, "channel")
    e_chan = _get(b.channels, args.encoder, "encoder channel")
    if args.output:
        # The decoder maps B ⊗ O_B to S; its -o file names the tensor system
        # the bundle declares on those legs, and the source's S.
        s_name, _, ob_name = b.declared["sources"][args.source]
        legs = b.declared["channels"][args.channel][1], ob_name
        product = next((name for name, of in b.declared["systems"].items() if of == legs), None)
        if product is None:
            return _fail("cannot write the decoder: declare its source B ⊗ O_B as a system "
                         '{"tensor": ["%s", "%s"]}' % legs, EXIT_INPUT)
        names = product, s_name
    try:
        if args.decoder is None:
            d_chan = scc.decoder_for(e_chan, src, n_chan, args.tol)
        elif scc.encoding_is_valid(e_chan, src, n_chan, args.tol):
            d_chan = _get(b.channels, args.decoder, "decoder channel")
        else:
            raise NotValid("encoder is not a homomorphism")
    except NotValid:
        print("scheme: invalid (encoder is not a homomorphism)")
        return EXIT_FALSE
    except TheoremViolation as exc:
        return _fail(str(exc), EXIT_INTERNAL)
    except CovGraphsError as exc:
        return _fail(str(exc), EXIT_INPUT)
    if args.decoder is None:
        print("decoder synthesized")
    ok = scc.verify_scheme(src, n_chan, e_chan, d_chan, args.tol)
    print(f"scheme: {'valid' if ok else 'invalid (decoder fails)'}")
    if ok and args.output:
        bundle_mod.dump_json(bundle_mod.dump_channel(d_chan, *names), args.output)
        print(f"decoder written to {args.output}")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_twirl(args) -> int:
    b = _load(args.bundle, args.tol)
    f = _get(b.channels, args.channel, "channel")
    t = groups.twirl_cp(f)
    print(f"twirled over group of order {b.group.order}")
    print(f"covariant: {'yes' if groups.is_covariant_cp(t, args.tol) else 'no'}")
    if args.output:
        bundle_mod.dump_json(bundle_mod.dump_channel(t, *b.declared["channels"][args.channel]),
                             args.output)
        print(f"written to {args.output}")
    return EXIT_OK


def _tolerance(text: str) -> float:
    """--tol: a finite float with 0 < tol < 1.  At tol >= 1 every projection
    test passes, since a rank mismatch has a defect of at least 1."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < tol < 1:  # NaN and inf fail too
        raise argparse.ArgumentTypeError(f"need a finite 0 < tol < 1, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covgraphs",
        description="Analyze quantum relations, graphs and zero-error coding schemes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, writes: bool = True):
        p.add_argument("bundle", help="JSON bundle path")
        p.add_argument("--tol", type=_tolerance, default=linalg.TOL_PROJ,
                       help="projection tolerance, finite 0 < tol < 1 (default 1e-8), of "
                            "containment (leq), the channel, covariance, reversibility and "
                            "decoder tests and the source-graph span cut; spectral cuts stay "
                            "at TOL_SPEC (1e-9)")
        if writes:
            p.add_argument("-o", "--output", default=None, help="write JSON output here")

    p = sub.add_parser("analyze-channel", help="relation ranks, confusability, reversibility")
    common(p)
    p.add_argument("channel")
    p.add_argument("--emit-reverse", action="store_true",
                   help="compute (and with -o write) the reverse channel when reversible")

    p = sub.add_parser("graph-to-channel", help="realize a confusability graph by a channel")
    common(p)
    p.add_argument("graph")
    p.add_argument("--tau", type=float, default=None, help="blend parameter in (0,1]")

    p = sub.add_parser("check-hom", help="graph homomorphism test for a channel")
    common(p, writes=False)
    p.add_argument("channel")
    p.add_argument("source_graph")
    p.add_argument("target_graph")

    p = sub.add_parser("scc-verify", help="verify a zero-error source-channel coding scheme")
    common(p)
    p.add_argument("source")
    p.add_argument("channel")
    p.add_argument("encoder")
    p.add_argument("decoder", nargs="?", default=None)

    p = sub.add_parser("twirl", help="group-average a channel")
    common(p)
    p.add_argument("channel")

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at call time, so a replaced cmd_* attribute is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    except TheoremViolation as exc:
        return _fail(str(exc), EXIT_INTERNAL)
    except CovGraphsError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
