"""Command-line front end.

Every command reads one JSON bundle and prints a plain-text report to stdout;
those that make a channel also write it as machine-readable JSON with -o,
which check-hom does not take.  A command returns its verdict: exit 0 when
the property holds, 1 when it fails or a round trip misses tolerance at the
default --tau.  Any other outcome is an exception, which main() alone maps
to a code: 2 for an input error (a CovGraphsError that is not a
TheoremViolation, such as a given --tau that misses), 3 for a theorem
violation or any other exception (never expected).  Argument errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bundle as bundle_mod
from . import cpmaps, graphs, groups, linalg, relations, scc
from .errors import CovGraphsError, TheoremViolation

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(path: str, tol: float):
    try:
        return bundle_mod.load_bundle_file(path, tol=tol)
    except (OSError, ValueError, CovGraphsError) as exc:
        raise CovGraphsError(f"cannot load bundle: {exc}") from exc


def _get(table: dict, name: str, what: str):
    if name not in table:
        raise CovGraphsError(f"unknown {what} {name!r}")
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
    f, env = graphs.realize_channel(g, tau=args.tau, tol=args.tol)
    defect = relations.relation_defect(graphs.confusability_of(f).relation, g.relation)
    if args.tau is not None and defect > linalg.TOL_ROUNDTRIP:
        raise CovGraphsError(f"--tau {args.tau:g}: its channel does not read the graph back "
                             f"(round-trip defect {defect:.3e})")
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
    failures = sorted(graphs.homomorphism_failures(f, ga, gb, args.tol))
    print(f"homomorphism: {'false' if failures else 'true'}")
    for (i, j), defect in failures:
        print(f"witness block ({i},{j}): containment defect {defect:.3e}")
    return EXIT_FALSE if failures else EXIT_OK


def cmd_scc_verify(args) -> int:
    if args.output and args.decoder is not None:
        raise CovGraphsError("-o writes a synthesized decoder, and a decoder was given")
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
            raise CovGraphsError("cannot write the decoder: declare its source B ⊗ O_B as a "
                                 'system {"tensor": ["%s", "%s"]}' % legs)
        names = product, s_name
    if not scc.encoding_is_valid(e_chan, src, n_chan, args.tol):
        print("scheme: invalid (encoder is not a homomorphism)")
        return EXIT_FALSE
    if args.decoder is None:
        # Reads the verdict and composite just kept in the source's slot.
        d_chan = scc.decoder_for(e_chan, src, n_chan, args.tol)
        print("decoder synthesized")
    else:
        d_chan = _get(b.channels, args.decoder, "decoder channel")
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
                            "decoder tests and the source-graph span cut; spectral cuts stay at "
                            "TOL_SPEC (1e-9), and graph symmetry at 100 * TOL_PROJ (1e-6)")
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
    p.add_argument("--tau", type=float, default=None,
                   help="blend parameter in (0,1]; exit 2 if its channel misses the graph")

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
    except TheoremViolation as exc:
        code, msg = EXIT_INTERNAL, str(exc)
    except CovGraphsError as exc:
        code, msg = EXIT_INPUT, str(exc)
    except Exception as exc:
        code, msg = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
    print(f"error: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
