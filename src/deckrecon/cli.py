"""Command-line interface: decompose, deck, reconstruct, verify.

Exit codes: 0 success, 1 negative result (unsupported/ambiguous reconstruction
or failed verification), 2 bad input, 3 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canon import canonical_form
from .deck import DeckError, load_deck, make_deck
from .graphs import Graph, Graph6Error, from_graph6
from .modular import CapabilityError, Kind, decompose
from .reconstruct import reconstruct


class InputError(ValueError):
    pass


def _read_graph(text: str) -> Graph:
    """A graph6 literal, or @path to read one from a file; no path is empty,
    so a lone "@" is the graph6 literal of the one-vertex graph."""
    if text.startswith("@") and len(text) > 1:
        try:
            raw = Path(text[1:]).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {text[1:]!r}: {exc}") from exc
        lines = [ln for ln in map(str.strip, raw.splitlines()) if ln and not ln.startswith("#")]
        if len(lines) != 1:
            raise InputError("graph file must contain exactly one graph6 line")
        text = lines[0]
    return from_graph6(text)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_decompose(args) -> int:
    g = _read_graph(args.graph)
    if g.n < 1:
        raise InputError("graphs with no vertices have no decomposition")
    dec = decompose(g)
    payload: dict = {"kind": dec.kind.value, "n": g.n}
    lines = [f"kind: {dec.kind.value}"]
    if dec.kind is Kind.PRIME:
        payload["skeleton"] = canonical_form(dec.skeleton)
        payload["intervals"] = [
            {"vertex": pos, "graph6": p.to_graph6()} for pos, p in enumerate(dec.parts)
        ]
        lines.append(f"skeleton: {payload['skeleton']}")
        for pos, p in enumerate(dec.parts):
            lines.append(f"interval at vertex {pos}: {p.to_graph6()}")
    elif dec.parts:
        payload["parts"] = [p.to_graph6() for p in dec.parts]
        for p in dec.parts:
            lines.append(f"part: {p.to_graph6()}")
    _emit(args, payload, lines)
    return 0


def _cmd_deck(args) -> int:
    g = _read_graph(args.graph)
    if g.n < 1:
        raise InputError("graphs with no vertices have no deck")
    d = make_deck(g)
    _emit(args, {"n": d.n, "cards": list(d.cards)}, list(d.cards))
    return 0


def _cmd_reconstruct(args) -> int:
    try:
        d = load_deck(args.deck)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.deck!r}: {exc}") from exc
    res = reconstruct(d, oracle_fallback=args.oracle_fallback)
    payload: dict = {"status": res.status}
    lines: list[str] = []
    if res.reconstructed:
        payload["graph6"] = canonical_form(res.graph)
        payload["provenance"] = res.provenance
        lines = [payload["graph6"], f"provenance: {res.provenance}"]
    elif res.status == "ambiguous":
        payload["candidates"] = list(res.candidates)
        payload["reason"] = res.reason
        lines = [f"ambiguous: {len(res.candidates)} candidates"] + list(res.candidates)
    else:
        payload["reason"] = res.reason
        lines = [f"unsupported: {res.reason}"]
    _emit(args, payload, lines)
    return 0 if res.reconstructed else 1


def _cmd_verify(args) -> int:
    from .oracle import ClaimRangeError, UnknownClaimError, check_claim

    try:
        report = check_claim(args.claim, args.max_n)
    except (UnknownClaimError, ClaimRangeError) as exc:
        raise InputError(str(exc)) from exc
    lines = [
        f"claim {report.claim} up to n={report.max_n}: "
        f"{report.passed}/{report.tested} passed in {report.seconds}s"
    ]
    lines.extend(f"witness: {w}" for w in report.witnesses)
    _emit(args, report.to_dict(), lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deckrecon",
        description="Graph reconstruction from vertex-deleted decks via modular decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="modular decomposition of a graph")
    p.add_argument("graph", help="graph6 string, or @file containing one")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("deck", help="print the deck of a graph, one card per line")
    p.add_argument("graph", help="graph6 string, or @file containing one")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_deck)

    p = sub.add_parser("reconstruct", help="reconstruct a graph from a deck file")
    p.add_argument("deck", help="file with one graph6 card per line")
    p.add_argument(
        "--oracle-fallback",
        action="store_true",
        help="settle open cases by exhaustive search (n <= 8)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("verify", help="exhaustively check a named claim")
    p.add_argument("claim", help="claim id, e.g. thm-2.2, fig1-counts, rc-exhaustive")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, Graph6Error, DeckError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
