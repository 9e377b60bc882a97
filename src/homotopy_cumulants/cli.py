"""Command-line front end: verification suites, graph exports, cumulants.

Exit status: 0 when every check passes, 1 when any check fails, 2 on a
usage error (bad parameters, malformed form syntax, or an output that
cannot be written).

This module imports every layer at start: `verify all` runs them all,
so importing them during its run would only move the cost into the run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .certify import get_convention
from .cumulants import (
    CumulantTerm,
    composition_sign,
    cumulant,
    cumulant_terms,
    integration_context,
    symbolic_formula,
    term_notation,
)
from .cube_complex import graph_to_dot
from .formal_ainfty import polytope_to_dot
from .interval_model import ParseError, parse_form_tuple
from .suites import (
    DEGREE_LIMIT,
    N_MAX_LIMITS,
    SUITE_NAMES,
    assemble_report,
    report_to_json,
    run_suite,
)

USAGE_EXIT = 2


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homotopy-cumulants",
        description="Exact verification of Boolean cumulant collapse "
                    "for the interval iterated-integral morphism.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite_positional", nargs="?", default=None,
                        metavar="SUITE", help=f"one of {', '.join(SUITE_NAMES)}")
    verify.add_argument("--suite", default=None)
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--degree", type=int, default=4)
    verify.add_argument("--out", default=None)
    verify.add_argument("--sign-convention", choices=("A", "B"), default="A")

    graph = sub.add_parser("graph", help="emit a graph in DOT format")
    graph.add_argument("kind", choices=("cube", "polytope"))
    graph.add_argument("n", type=int)
    graph.add_argument("--format", dest="fmt", default="dot")
    graph.add_argument("--out", default=None)

    cumulant = sub.add_parser("cumulant", help="print or evaluate a cumulant")
    cumulant.add_argument("n", type=int)
    cumulant.add_argument("--inputs", default=None,
                          help="';'-separated forms, e.g. \"t ; dt\"")
    cumulant.add_argument("--out", default=None)
    return parser


@contextlib.contextmanager
def _open_out(out: str | None):
    """Standard output, or `out` opened for writing before any work starts,
    flushed (and a file closed) when the block ends.  A closed standard
    output, and an output that cannot be opened, written, flushed or
    closed, is a usage error."""
    name = "standard output" if out is None else out
    if out is None and sys.stdout is None:
        raise UsageError(f"cannot write {name}: it is closed")
    try:
        handle = (contextlib.nullcontext(sys.stdout) if out is None
                  else open(out, "w", encoding="utf-8"))
        with handle as stream:
            yield stream
            stream.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {name}: {exc.strerror or exc}") from None


def _cmd_verify(args) -> int:
    suite = args.suite or args.suite_positional or "all"
    if args.suite and args.suite_positional and args.suite != args.suite_positional:
        raise UsageError("conflicting suite arguments")
    if suite not in SUITE_NAMES:
        raise UsageError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    limit = N_MAX_LIMITS.get(suite)
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    if limit is not None and args.n_max > limit:
        raise UsageError(f"--n-max for suite {suite!r} is capped at {limit}")
    if not 0 <= args.degree <= DEGREE_LIMIT:
        raise UsageError(f"--degree must be between 0 and {DEGREE_LIMIT}")
    convention = get_convention(args.sign_convention)
    with _open_out(args.out) as handle:
        entries = run_suite(suite, args.n_max, args.degree, convention)
        handle.write(report_to_json(assemble_report(entries, convention)) + "\n")
    return 0 if all(e.status for e in entries) else 1


def _cmd_graph(args) -> int:
    if args.fmt != "dot":
        raise UsageError(f"unsupported format {args.fmt!r}; only 'dot'")
    if args.kind == "cube":
        if not 2 <= args.n <= 8:
            raise UsageError("cube graphs are emitted for 2 <= n <= 8")
        render = graph_to_dot
    else:
        if not 2 <= args.n <= 4:
            raise UsageError("polytope graphs are emitted for 2 <= n <= 4")
        render = polytope_to_dot
    with _open_out(args.out) as handle:
        handle.write(render(args.n) + "\n")
    return 0


def _format_term(term: CumulantTerm) -> str:
    sign = "+" if composition_sign(term.composition) > 0 else "-"
    notation = term_notation(term.composition)
    return f"  {sign} {notation:<24} = {term.value.to_text()}"


def _cmd_cumulant(args) -> int:
    if not 1 <= args.n <= 6:
        raise UsageError("cumulants are printed for 1 <= n <= 6")
    forms = None
    if args.inputs is not None:
        # count the forms before parsing any, so a miscounted tuple costs
        # nothing to refuse
        count = args.inputs.count(";") + 1
        if count != args.n:
            raise UsageError(f"expected {args.n} forms, got {count}")
        forms = parse_form_tuple(args.inputs)
    with _open_out(args.out) as handle:
        if forms is None:
            handle.write(symbolic_formula(args.n) + "\n")
            return 0
        ctx = integration_context()
        lines = [f"K{args.n} of ({'; '.join(f.to_text() for f in forms)}):"]
        lines += map(_format_term, cumulant_terms(ctx, forms))
        lines.append(f"total: {cumulant(ctx, forms).to_text()}")
        handle.write("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "graph":
            return _cmd_graph(args)
        return _cmd_cumulant(args)
    except ParseError as exc:
        print(f"error: malformed form: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
