"""Command line front end.

Every command prints a schema header followed by line-oriented text.
Output on stdout is deterministic for a fixed invocation; timing goes to
stderr so reports stay byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .catalog import identity_system
from .deciders import decide, parse_variety, semi_decide_d, verify_chain
from .decomposition import LAMBDA, decompose, profile, render_depths
from .deduction import (
    bounded_derive,
    check_deduction,
    format_deduction,
    parse_deduction,
)
from .monoids import isoterm_search, named_monoid
from .words import parse_identity, parse_word

SCHEMA = "# monovar 1"

PASS = 0
FAIL = 1
UNKNOWN = 3


def _emit(*lines: str) -> None:
    print("\n".join(lines))


def cmd_decompose(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    prof = profile(w)
    if args.k is not None:
        _emit(SCHEMA, decompose(w, args.k).render())
        return PASS
    lines = [SCHEMA]
    for k in range(prof.stab + 1):
        lines.append(f"k={k}: {decompose(w, k).render()}")
    lines.append(f"stabilizes at k={prof.stab}")
    _emit(*lines)
    return PASS


def cmd_depth(args: argparse.Namespace) -> int:
    _emit(SCHEMA, render_depths(parse_word(args.word)))
    return PASS


def cmd_restrictors(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    prof = profile(w)
    levels = list(range(prof.stab + 1))
    rows = [["letter", "occ"] + [f"k={k}" for k in levels]]
    for letter in prof.ini:
        for i in range(1, len(prof.positions[letter]) + 1):
            cells = [str(prof.restrictor(letter, i, k) or LAMBDA)
                     for k in levels]
            rows.append([str(letter), str(i)] + cells)
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = [SCHEMA, f"restrictors of {w} (stabilizes at k={prof.stab})"]
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
    _emit(*lines)
    return PASS


def cmd_decide(args: argparse.Namespace) -> int:
    variety = parse_variety(args.variety)
    ident = parse_identity(args.identity)
    if variety.base.family == "D" and variety.base.k == 0:
        probe = ident.reverse() if variety.dual else ident
        answer = semi_decide_d(probe, max_letters=args.max_letters)
        _emit(SCHEMA, f"decide {variety.name}: {answer} (one-sided check)")
        return {"holds": PASS, "fails": FAIL, "unknown": UNKNOWN}[answer]
    verdict = decide(variety, ident, max_letters=args.max_letters)
    _emit(SCHEMA, f"decide {variety.name}: {verdict}")
    return PASS if verdict.holds else FAIL


def cmd_verify_chain(args: argparse.Namespace) -> int:
    report = verify_chain(kmax=args.kmax, letters=args.letters,
                          max_len=args.maxlen, cross_check=args.cross_check)
    lines = [
        SCHEMA,
        f"verify-chain kmax={report.kmax} letters={report.letters} "
        f"maxlen={report.max_len}",
        f"words: {report.words}",
        f"pairs: {report.pairs}",
        f"compared: {report.compared}",
        f"violations: {len(report.violations)}",
        f"witness-failures: {len(report.witness_failures)}",
    ]
    for ident, smaller, larger in report.violations:
        lines.append(f"violation: {ident} accepted by {larger.name} "
                     f"but rejected by {smaller.name}")
    for smaller, larger in report.witness_failures:
        lines.append(f"witness-failure: {smaller.name} vs {larger.name}")
    lines.append(f"result: {'pass' if report.ok else 'fail'}")
    _emit(*lines)
    return PASS if report.ok else FAIL


def cmd_monoid(args: argparse.Namespace) -> int:
    monoid = named_monoid(args.monoid)
    if args.action == "build":
        monoid.check()
        _emit(SCHEMA, f"monoid {monoid.name}: {len(monoid)} elements",
              "elements: " + " ".join(monoid.labels), "table ok")
        return PASS
    if args.action == "dump":
        _emit(SCHEMA, monoid.dump().rstrip("\n"))
        return PASS
    if args.identity is None:
        raise ValueError("monoid check needs --identity")
    ident = parse_identity(args.identity)
    hit = monoid.find_violation(ident, max_letters=args.max_letters)
    if hit is None:
        _emit(SCHEMA, f"{ident}: holds in {monoid.name}")
        return PASS
    _emit(SCHEMA, f"{ident}: {monoid.describe_violation(ident, hit)}")
    return FAIL


def cmd_isoterm(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    monoid = named_monoid(args.monoid)
    bound = args.bound if args.bound is not None else max(w.max_occ(), 1) + 2
    hit = isoterm_search(w, monoid, bound)
    lines = [SCHEMA, f"isoterm-search {w} in {monoid.name} bound={bound}"]
    if hit is None:
        lines.append("none within bound")
    else:
        lines.append(f"found: {w} = {hit}")
    _emit(*lines)
    return PASS


def cmd_deduce(args: argparse.Namespace) -> int:
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            chain = parse_deduction(handle.read())
        report = check_deduction(chain)
        lines = [SCHEMA, f"deduce file={args.file} steps={len(chain)}"]
        for diag in report.diagnostics:
            mark = "ok" if diag.ok else "FAIL"
            lines.append(f"step {diag.index}: {mark} {diag.message}")
        lines.append(f"result: {'ok' if report.ok else 'fail'}")
        _emit(*lines)
        return PASS if report.ok else FAIL
    if args.system is None or args.goal is None:
        raise ValueError("deduce needs either --file or --system and --goal")
    system = identity_system(args.system)
    goal = parse_identity(args.goal)
    max_len = args.max_len
    if max_len is None:
        max_len = max(len(goal.lhs), len(goal.rhs)) + 2
    found = bounded_derive(system, goal, max_len, args.max_steps)
    lines = [SCHEMA,
             f"deduce system={args.system} goal={goal} "
             f"max-len={max_len} max-steps={args.max_steps}"]
    if found is None:
        lines.append("result: inconclusive")
        _emit(*lines)
        return UNKNOWN
    lines.append(f"result: found ({len(found)} steps)")
    lines.append(format_deduction(found).rstrip("\n"))
    _emit(*lines)
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monovar",
        description="Word decompositions and decision procedures for a "
                    "chain of monoid varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print the k-decomposition")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=None,
                   help="level; all levels up to stabilization when omitted")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("depth", help="print the depth of every letter")
    p.add_argument("word")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("restrictors",
                       help="print the restrictor grid for every level")
    p.add_argument("word")
    p.set_defaults(func=cmd_restrictors)

    p = sub.add_parser("decide", help="test an identity against a variety")
    p.add_argument("--variety", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--max-letters", type=int, default=4,
                   help="substitution width cap for oracle-backed varieties")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify-chain",
                       help="exhaustively check chain monotonicity")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--letters", type=int, default=3)
    p.add_argument("--maxlen", "--max-len", type=int, default=6, dest="maxlen")
    p.add_argument("--cross-check", type=int, default=2000,
                   help="extra cross-group pairs to compare in full")
    p.set_defaults(func=cmd_verify_chain)

    p = sub.add_parser("monoid", help="build, check or dump a finite monoid")
    p.add_argument("action", choices=["build", "check", "dump"])
    p.add_argument("--monoid", required=True,
                   help="P1, B21, K5 or S(<word>)")
    p.add_argument("--identity", default=None)
    p.add_argument("--max-letters", type=int, default=4)
    p.set_defaults(func=cmd_monoid)

    p = sub.add_parser("isoterm",
                       help="search for a word the monoid cannot tell apart")
    p.add_argument("--word", required=True)
    p.add_argument("--monoid", required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="occurrence cap per letter for candidates")
    p.set_defaults(func=cmd_isoterm)

    p = sub.add_parser("deduce",
                       help="search for a derivation or replay one from a file")
    p.add_argument("--system", default=None,
                   help="identity system name (phi, phi+, sigma)")
    p.add_argument("--goal", default=None)
    p.add_argument("--max-steps", type=int, default=6)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--file", default=None,
                   help="replay and verify a recorded deduction")
    p.set_defaults(func=cmd_deduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args)
    except (KeyError, ValueError) as err:
        message = err.args[0] if err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
