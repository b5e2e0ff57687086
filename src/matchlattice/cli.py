"""Command-line surface.

Subcommands::

    check <market>                          axiom report, exit 4 on failure
    enumerate <market>                      table of all stable matchings
    lattice <market> --dot <out>            Hasse diagram of the firms' order
    decompose <market> <lottery>            unique decreasing representation
    split <market> <x> <y>                  common-refinement alignment
    dominates <market> <x> <y> --side F|W   stochastic-dominance verdict
    join <market> <x> <y> --side F|W        least upper bound lottery
    meet <market> <x> <y> --side F|W        greatest lower bound lottery
    rht <market> <x> <y>                    expectation row/column sums

Exit codes: 0 success, 2 validation error, 3 capacity guard, 4 axiom
failure.  Errors go to stderr as ``error[<category>]: <detail>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .documents import MarketDocument, dump_lottery, parse_lottery, parse_market
from .errors import AxiomError, CapacityError, ValidationError
from .lattice import StableSet, enumerate_stable, hasse_edges, to_dot
from .lotteries import (
    Dominance,
    Lottery,
    decompose,
    dominates,
    join_random,
    meet_random,
    random_rht_check,
    split,
)
from .prefs import Side, lad_violation, substitutability_violation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_AXIOM = 4


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", code="io") from None


def _load_stable(path: str) -> tuple[MarketDocument, StableSet]:
    doc = parse_market(_read(path))
    return doc, enumerate_stable(doc.build_market())


def _load_lottery(path: str, doc: MarketDocument, stable: StableSet) -> Lottery:
    """Parse a lottery file; every term must be a stable matching of the market."""
    lottery = parse_lottery(_read(path), doc)
    for k, matching in enumerate(lottery.matchings):
        if matching not in stable:
            message = f"{path}: $.terms[{k}].matching is not a stable matching of this market"
            raise ValidationError(message, code="not-in-stable-set")
    return lottery


def _format_subset(indices, names) -> str:
    return "{" + ",".join(names[i] for i in sorted(indices)) + "}"


def _format_lottery(lottery: Lottery, stable: StableSet) -> str:
    return " + ".join(f"{w} {stable.label(stable.index(m))}" for w, m in lottery.terms)


def _cmd_check(args) -> int:
    doc = parse_market(_read(args.market))
    market = doc.build_market()
    rows = [
        (label, pref, doc.worker_names)
        for label, pref in zip(doc.firm_names, market.firm_prefs)
    ] + [
        (label, pref, doc.firm_names)
        for label, pref in zip(doc.worker_names, market.worker_prefs)
    ]
    failed = False
    for label, pref, opposite in rows:
        problems = []
        witness = substitutability_violation(pref)
        if witness is not None:
            offer, sub, member = witness
            problems.append(
                f"substitutability violated: S={_format_subset(offer, opposite)}, "
                f"S'={_format_subset(sub, opposite)}, b={opposite[member]}"
            )
        witness = lad_violation(pref)
        if witness is not None:
            offer, sub = witness
            problems.append(
                f"law of aggregated demand violated: S={_format_subset(offer, opposite)}, "
                f"S'={_format_subset(sub, opposite)}"
            )
        if problems:
            failed = True
            for problem in problems:
                print(f"{label}: {problem}")
        else:
            print(f"{label}: ok")
    if failed:
        return EXIT_AXIOM
    print("all preferences are substitutable and satisfy the law of aggregated demand")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    doc, stable = _load_stable(args.market)
    cells = [[""] + list(doc.firm_names)]
    for i, matching in enumerate(stable):
        row = [stable.label(i)]
        for f in range(len(doc.firm_names)):
            row.append(_format_subset(matching.firm_set(f), doc.worker_names))
        cells.append(row)
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    for row in cells:
        print("  ".join(item.ljust(width) for item, width in zip(row, widths)).rstrip())
    return EXIT_OK


def _cmd_lattice(args) -> int:
    _, stable = _load_stable(args.market)
    dot = to_dot(stable)
    Path(args.dot).write_text(dot, encoding="utf-8")
    print(f"wrote {args.dot} ({len(stable)} matchings, {len(hasse_edges(stable))} edges)")
    return EXIT_OK


def _load_pair(args):
    doc, stable = _load_stable(args.market)
    return doc, stable, _load_lottery(args.x, doc, stable), _load_lottery(args.y, doc, stable)


def _cmd_decompose(args) -> int:
    doc, stable = _load_stable(args.market)
    lottery = _load_lottery(args.lottery, doc, stable)
    print(_format_lottery(decompose(lottery, stable), stable))
    return EXIT_OK


def _cmd_split(args) -> int:
    doc, stable, x, y = _load_pair(args)
    alignment = split(x, y, stable.market)
    def labels(matchings):
        return " ".join(stable.label(stable.index(m)) for m in matchings)
    print("gamma:", " ".join(str(g) for g in alignment.gamma))
    print("x:    ", labels(alignment.left))
    print("y:    ", labels(alignment.right))
    return EXIT_OK


def _cmd_dominates(args) -> int:
    _, stable, x, y = _load_pair(args)
    side = Side.FIRMS if args.side == "F" else Side.WORKERS
    outcome = dominates(x, y, stable, side)
    side_name = "firms" if side is Side.FIRMS else "workers"
    print(
        {
            Dominance.STRONGLY_DOMINATES: f"x strongly dominates y for the {side_name}",
            Dominance.EQUAL: f"x and y are the same random stable matching for the {side_name}",
            Dominance.STRONGLY_DOMINATED: f"y strongly dominates x for the {side_name}",
            Dominance.INCOMPARABLE: f"x and y are incomparable for the {side_name}",
        }[outcome]
    )
    return EXIT_OK


def _cmd_join(args, take_join: bool) -> int:
    doc, stable, x, y = _load_pair(args)
    side = Side.FIRMS if args.side == "F" else Side.WORKERS
    op = join_random if take_join else meet_random
    result = op(x, y, stable, side, method=args.method)
    print(_format_lottery(result, stable))
    if args.out:
        Path(args.out).write_text(dump_lottery(result, doc), encoding="utf-8")
    return EXIT_OK


def _cmd_rht(args) -> int:
    _, stable, x, y = _load_pair(args)
    ex, ey = x.expectation(), y.expectation()
    for tag, matrix in (("x", ex), ("y", ey)):
        print(f"{tag} row sums:", " ".join(str(s) for s in matrix.row_sums()))
        print(f"{tag} column sums:", " ".join(str(s) for s in matrix.col_sums()))
    verdict = "yes" if random_rht_check(x, y) else "no"
    print(f"rural-hospital equality: {verdict}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlattice",
        description="Exact lattice operations on random stable matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the substitutability and LAD checks")
    p.add_argument("market")

    p = sub.add_parser("enumerate", help="list all stable matchings")
    p.add_argument("market")

    p = sub.add_parser("lattice", help="export the Hasse diagram as DOT")
    p.add_argument("market")
    p.add_argument("--dot", required=True, metavar="OUT")

    p = sub.add_parser("decompose", help="decreasing representation of a lottery")
    p.add_argument("market")
    p.add_argument("lottery")

    for name in ("split", "dominates", "join", "meet", "rht"):
        p = sub.add_parser(name)
        p.add_argument("market")
        p.add_argument("x")
        p.add_argument("y")
        if name in ("dominates", "join", "meet"):
            p.add_argument("--side", choices=("F", "W"), required=True)
        if name in ("join", "meet"):
            p.add_argument("--method", choices=("split", "lcm"), default="split")
            p.add_argument("--out", default=None, help="also write the result lottery as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "enumerate": _cmd_enumerate,
        "lattice": _cmd_lattice,
        "decompose": _cmd_decompose,
        "split": _cmd_split,
        "dominates": _cmd_dominates,
        "join": lambda a: _cmd_join(a, True),
        "meet": lambda a: _cmd_join(a, False),
        "rht": _cmd_rht,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"error[capacity]: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except AxiomError as exc:
        print(f"error[axiom]: {exc}", file=sys.stderr)
        return EXIT_AXIOM


if __name__ == "__main__":
    sys.exit(main())
