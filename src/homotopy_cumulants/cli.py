"""Command-line front end: verification suites, graph exports, cumulants.

Exit status: 0 when every check passes, 1 when any check fails, 2 on a
usage error (bad parameters or malformed form syntax).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .cumulants import (
    CumulantTerm,
    cumulant_terms,
    integration_context,
    symbolic_formula,
    term_notation,
)
from .cube_complex import graph_to_dot
from .formal_ainfty import polytope_to_dot
from .hom_complex import get_convention
from .interval_model import Cochain, ParseError, parse_form_tuple
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


def _open_out(out: str | None):
    """Standard output, or `out` opened for writing before any work starts."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _write(text: str, out: str | None) -> None:
    with _open_out(out) as handle:
        handle.write(text + "\n")


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
        _write(graph_to_dot(args.n), args.out)
    else:
        if not 2 <= args.n <= 4:
            raise UsageError("polytope graphs are emitted for 2 <= n <= 4")
        _write(polytope_to_dot(args.n), args.out)
    return 0


def _format_term(term: CumulantTerm) -> str:
    sign = "+" if term.sign > 0 else "-"
    notation = term_notation(term.composition)
    return f"  {sign} {notation:<24} = {term.value.to_text()}"


def _cmd_cumulant(args) -> int:
    if not 1 <= args.n <= 6:
        raise UsageError("cumulants are printed for 1 <= n <= 6")
    if args.inputs is None:
        _write(symbolic_formula(args.n), args.out)
        return 0
    forms = parse_form_tuple(args.inputs)
    if len(forms) != args.n:
        raise UsageError(f"expected {args.n} forms, got {len(forms)}")
    ctx = integration_context()
    terms = cumulant_terms(ctx, forms)
    total = Cochain.zero()
    lines = [f"K{args.n} of ({'; '.join(f.to_text() for f in forms)}):"]
    for term in terms:
        lines.append(_format_term(term))
        total = total + term.signed_value()
    lines.append(f"total: {total.to_text()}")
    _write("\n".join(lines), args.out)
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
