"""Golden outputs: reports, cumulant traces, DOT text and painted-tree order.

The files under tests/golden/ pin, byte for byte, what refactors must
keep: the `verify all` reports at n = 3 (degree 2) and n = 4 (degrees 2
and 3), with `duration_ms` zeroed, under both sign conventions, including
the convention-B failure witnesses, the `verify cumulants` reports at
n = 5 (degrees 1 and 3), n = 6 (degree 1) and n = 8 (degrees 2 and 4;
at degree 4 the grid exponent is 4 up to n = 6, 3 at n = 7 and 2 at
n = 8, so the report crosses two exponent runs), the
term-by-term traces of `cumulant 4 --inputs ...` and of
`cumulant 5 --inputs ...` on mixed
rational forms, the formula `cumulant 5` prints, the SHA-256 of
`cumulant 6 --inputs ...` on six degree-64 powers (the PolyForm path at
the parser's caps; its 48 KB output is not committed), the DOT text of
the cube graph at n = 4 and of the polytope graphs, the SHA-256 of
every `graph` output the CLI accepts (cube n = 2..8, polytope
n = 2..4), whose edge order each graph's sort fixes, the enumeration
order of painted cells, and the SHA-256 of the formal boundary of every
painted cell with n <= 6, in every dimension, under both conventions
(each line the cell's `tree_text` and its boundary's `to_text`, whose
terms are sorted by `tree_text`).

Regenerate them (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from homotopy_cumulants.cli import main
from homotopy_cumulants.formal_ainfty import (
    formal_boundary,
    painted_cells,
    tree_text,
)
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    CONVENTION_B,
    check_store,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _verify_report(*argv: str) -> str:
    """A `verify` report with its exit code, durations zeroed."""
    code, text = _run("verify", *argv)
    report = json.loads(text)
    for entry in report["entries"]:
        entry["duration_ms"] = 0
    return f"exit {code}\n" + json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cumulant_trace(n: str, *inputs: str) -> str:
    code, text = _run("cumulant", n, *inputs)
    return f"exit {code}\n" + text


def _cumulant_digest(n: str, inputs: str) -> str:
    code, text = _run("cumulant", n, "--inputs", inputs)
    data = text.encode("utf-8")
    return f"exit {code}\n{len(data)} bytes sha256 {hashlib.sha256(data).hexdigest()}\n"


def _graph_dot(kind: str, n: int) -> str:
    code, text = _run("graph", kind, str(n))
    assert code == 0
    return text


def _graph_digests() -> str:
    """One line per accepted `graph` command: its output's size and SHA-256."""
    lines = []
    for kind, sizes in (("cube", range(2, 9)), ("polytope", range(2, 5))):
        for n in sizes:
            data = _graph_dot(kind, n).encode("utf-8")
            lines.append(f"graph {kind} {n}: {len(data)} bytes "
                         f"sha256 {hashlib.sha256(data).hexdigest()}")
    return "\n".join(lines) + "\n"


def _painted_cells_text() -> str:
    lines = []
    for n in range(1, 5):
        for dim in range(n + 1):
            lines.append(f"# n={n} dim={dim}")
            lines.extend(tree_text(tree) for tree in painted_cells(n, dim))
    return "\n".join(lines) + "\n"


def _formal_boundaries_digest() -> str:
    lines = []
    with check_store():
        for convention in (CONVENTION_A, CONVENTION_B):
            for n in range(1, 7):
                for dim in range(n):
                    for cell in painted_cells(n, dim):
                        boundary = formal_boundary(cell, convention)
                        lines.append(f"{convention.name} {tree_text(cell)} "
                                     f"= {boundary.to_text()}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return (f"{len(lines)} boundaries, {len(data)} bytes "
            f"sha256 {hashlib.sha256(data).hexdigest()}\n")


OUTPUTS = {
    "verify_all_n3_d2_A.txt": lambda: _verify_report(
        "all", "--n-max", "3", "--degree", "2", "--sign-convention", "A"),
    "verify_all_n3_d2_B.txt": lambda: _verify_report(
        "all", "--n-max", "3", "--degree", "2", "--sign-convention", "B"),
    "verify_all_n4_d2_A.txt": lambda: _verify_report(
        "all", "--n-max", "4", "--degree", "2", "--sign-convention", "A"),
    "verify_all_n4_d2_B.txt": lambda: _verify_report(
        "all", "--n-max", "4", "--degree", "2", "--sign-convention", "B"),
    "verify_all_n4_d3_A.txt": lambda: _verify_report(
        "all", "--n-max", "4", "--degree", "3", "--sign-convention", "A"),
    "verify_all_n4_d3_B.txt": lambda: _verify_report(
        "all", "--n-max", "4", "--degree", "3", "--sign-convention", "B"),
    "verify_cumulants_n5_d1.txt": lambda: _verify_report(
        "cumulants", "--n-max", "5", "--degree", "1"),
    "verify_cumulants_n5_d3.txt": lambda: _verify_report(
        "cumulants", "--n-max", "5", "--degree", "3"),
    "verify_cumulants_n6_d1.txt": lambda: _verify_report(
        "cumulants", "--n-max", "6", "--degree", "1"),
    "verify_cumulants_n8_d2.txt": lambda: _verify_report(
        "cumulants", "--n-max", "8", "--degree", "2"),
    "verify_cumulants_n8_d4.txt": lambda: _verify_report(
        "cumulants", "--n-max", "8", "--degree", "4"),
    "cumulant_5_formula.txt": lambda: _cumulant_trace("5"),
    "cumulant_4_trace.txt": lambda: _cumulant_trace(
        "4", "--inputs", "1 + t ; 2*t + dt ; t^2 ; 1/2 + t*dt"),
    "cumulant_5_trace.txt": lambda: _cumulant_trace(
        "5", "--inputs", "1/2 + 2/3*t + (3/5 - 1/7*t^2)dt ; -4/9*t^3 + (1/11 + t)dt ; "
        "5/6 - t + 1/13*t^2*dt ; (2/3*t - 7/8*t^3)dt + 1/5 ; "
        "3 + 1/17*t^2 + (1 - 1/19*t)dt"),
    "cumulant_6_degree64.sha256": lambda: _cumulant_digest(
        "6", "(1/3 + 2/7*t)^64 ; (1/5*t + dt)^64 ; (3/11 + t)^64 ; "
        "(1/2 + t*dt)^64 ; (2/9 - t)^64 ; (1 + 1/13*t)^64"),
    "cube_4.dot": lambda: _graph_dot("cube", 4),
    "polytope_3.dot": lambda: _graph_dot("polytope", 3),
    "polytope_4.dot": lambda: _graph_dot("polytope", 4),
    "graphs.sha256": _graph_digests,
    "painted_cells_n4.txt": _painted_cells_text,
    "formal_boundaries_n6.sha256": _formal_boundaries_digest,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert OUTPUTS[name]() == expected


def test_exit_codes_pinned():
    assert (GOLDEN / "verify_all_n3_d2_A.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_all_n3_d2_B.txt").read_text().startswith("exit 1\n")
    assert (GOLDEN / "verify_all_n4_d2_A.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_all_n4_d2_B.txt").read_text().startswith("exit 1\n")
    assert (GOLDEN / "verify_all_n4_d3_A.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_all_n4_d3_B.txt").read_text().startswith("exit 1\n")
    assert (GOLDEN / "verify_cumulants_n5_d1.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_cumulants_n5_d3.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_cumulants_n6_d1.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_cumulants_n8_d2.txt").read_text().startswith("exit 0\n")
    assert (GOLDEN / "verify_cumulants_n8_d4.txt").read_text().startswith("exit 0\n")
    for name in ("cumulant_5_formula.txt", "cumulant_4_trace.txt",
                 "cumulant_5_trace.txt",
                 "cumulant_6_degree64.sha256"):
        assert (GOLDEN / name).read_text().startswith("exit 0\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    GOLDEN.mkdir(exist_ok=True)
    for filename, produce in OUTPUTS.items():
        (GOLDEN / filename).write_text(produce(), encoding="utf-8")
        print(f"wrote {GOLDEN / filename}")
