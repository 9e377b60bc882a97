"""Acceptance criteria, exact rational equality throughout.

Each test runs one numbered criterion at its stated parameters and prints
a single pass/fail line (visible with pytest -s; the -v test names carry
the same information).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from homotopy_cumulants.cube_complex import (
    FREE,
    CubeCell,
    _blocks,
    cell_boundary,
    cells_of,
    cumulant_graph,
    graph_degrees,
    graph_is_bipartite_by_sign,
    graph_is_connected,
    hypercube_isomorphism,
)
from homotopy_cumulants.formal_ainfty import (
    Leaf,
    Paint,
    SourceOp,
    TargetOp,
    binary_trees,
    cumulant_polytope_graph,
    formal_boundary,
    p_tree,
    painted_trees,
)
from homotopy_cumulants.suites import run_suite


def _report(number: int, description: str, ok: bool, seconds: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} ({seconds:6.2f}s): {description}")
    assert ok, f"criterion {number} failed: {description}"


def _suite_passes(suite: str, n_max: int, degree: int,
                  checks: dict[str, dict]) -> bool:
    """Whether run_suite(suite, n_max, degree) runs each named check once,
    with exactly the given parameters, and each of them passes."""
    entries = run_suite(suite, n_max, degree)
    for check, parameters in checks.items():
        found = [e for e in entries if e.check == check]
        if (len(found) != 1 or not found[0].status or found[0].parameters
                != {k: str(v) for k, v in parameters.items()}):
            return False
    return True


def test_criterion_01_dga_axioms():
    # the dga suite at degree 8 runs these axioms on the monomials of
    # exponent <= 8 and on the cochain basis
    started = time.monotonic()
    forms, cochains = {"degree": 8}, {}
    ok = _suite_passes("dga", 1, 8, {
        "forms: d.d = 0": forms, "forms: graded Leibniz": forms,
        "forms: graded commutativity": forms,
        "cochains: delta.delta = 0": cochains,
        "cochains: cup associativity": cochains,
        "cochains: delta Leibniz over cup": cochains})
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    _report(1, "dga axioms for forms and cochains, exponent <= 8, < 1 s",
            ok, elapsed)


def test_criterion_02_stokes_chain_map():
    # the chain-map suite at degree 12 checks t^k and t^k dt for k <= 12
    started = time.monotonic()
    ok = _suite_passes("chain-map", 1, 12,
                       {"integration is a chain map": {"degree": 12}})
    _report(2, "integration intertwines d and delta up to t^12",
            ok, time.monotonic() - started)


# Criteria 03-05 are checks of the ainfty suite, which sweeps every map on
# the full grid of its degree under convention A; each time bound covers
# the whole suite run.

def test_criterion_03_boundary_of_i2_is_k2():
    started = time.monotonic()
    ok = _suite_passes("ainfty", 1, 8, {"boundary(I2) = K2": {"degree": 8}})
    _report(3, "boundary(I2) = K2 on the full degree-8 grid",
            ok, time.monotonic() - started)


def test_criterion_04_witness_boundaries():
    started = time.monotonic()
    ok = _suite_passes("ainfty", 4, 4, {
        f"boundary(H{n}) = K{n}": {"n": n, "degree": 4} for n in (3, 4)})
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    _report(4, "boundary(H_n) = K_n for n = 3, 4 at degree 4, < 30 s",
            ok, elapsed)


def test_criterion_05_morphism_relation():
    started = time.monotonic()
    ok = _suite_passes("ainfty", 4, 4, {
        f"morphism relation n={n} (convention A)": {"n": n, "degree": 4}
        for n in (1, 2, 3, 4)})
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    _report(5, "morphism relation defect vanishes for n <= 4 at degree 4, "
               "< 2 min", ok, elapsed)


def test_criterion_06_hypercube_skeleton():
    started = time.monotonic()
    ok = True
    for n in range(2, 9):
        graph = cumulant_graph(n)
        ok = ok and len(graph.vertices) == 2 ** (n - 1)
        ok = ok and len(graph.edges) == (n - 1) * 2 ** (n - 2)
        ok = ok and set(graph_degrees(graph).values()) == {n - 1}
        ok = ok and graph_is_connected(graph)
        ok = ok and graph_is_bipartite_by_sign(graph)
        try:
            iso = hypercube_isomorphism(n)
            ok = ok and len(set(iso.values())) == 2 ** (n - 1)
        except ValueError:
            ok = False
    _report(6, "G_n is the hypercube skeleton for n <= 8",
            ok, time.monotonic() - started)


def test_criterion_07_cells_and_euler():
    # the cube suite at n_max 6 verifies every cell of g_n for n <= 4 at
    # its degree and the Euler characteristic for n <= 6
    started = time.monotonic()
    checks = {f"all cells of g{n} bound their facets": {"n": n, "degree": 3}
              for n in (2, 3, 4)}
    checks.update({f"euler characteristic g{n} = 1": {"n": n}
                   for n in range(2, 7)})
    ok = _suite_passes("cube", 6, 3, checks)
    # both square types: one single-block and one multi-block 2-cell of g4
    single_block = {len(_blocks(cell)) == 1
                    for cell in cells_of(4) if cell.dimension == 2}
    ok = ok and single_block == {True, False}
    _report(7, "every cell of g_n bounds its facets (n <= 4, degree 3), "
               "both square types occur, euler = 1 up to n = 6",
            ok, time.monotonic() - started)


def test_criterion_08_cumulant_consistency():
    # the cumulants suite at n_max 5, degree 4 sweeps exactly this grid
    started = time.monotonic()
    entries = run_suite("cumulants", 5, 4)
    ok = bool(entries) and all(e.status for e in entries)
    _report(8, "direct = recursive cumulants (n <= 5, exponent <= 4); "
               "algebra morphism double has vanishing cumulants",
            ok, time.monotonic() - started)


def _has_higher_multiplication(tree):
    if isinstance(tree, Leaf):
        return False
    if isinstance(tree, (SourceOp, TargetOp)) and len(tree.children) > 2:
        return True
    return any(_has_higher_multiplication(c) for c in tree.children)


def _term_to_facet_word(tree, n):
    if isinstance(tree, Paint):
        word = []
        for child in tree.children:
            if isinstance(child, SourceOp):
                word.append("L")
            word.append("F")
        word.pop()
        return tuple(word)
    split = tree.children[0].leaf_count()
    return tuple("F" if pos != split else "H" for pos in range(1, n))


def test_criterion_09_formal_layer():
    # the formal suite at n_max 4, degree 3 runs d^2 = 0 for n <= 4, the
    # six-term count and the concrete agreement for n = 2, 3, 4 at degree 3
    started = time.monotonic()
    checks = {f"formal boundary squares to zero on p{n}": {"n": n}
              for n in (1, 2, 3, 4)}
    checks["boundary of p3 has six terms"] = {}
    checks.update({
        f"formal boundary of p{n} interprets to the Hom boundary":
        {"n": n, "degree": 3} for n in (2, 3, 4)})
    ok = _suite_passes("formal", 4, 3, checks)

    hexagon = cumulant_polytope_graph(3)
    ok = ok and set(formal_boundary(p_tree(3)).terms) == set(hexagon.edge_cells)

    for n in (2, 3, 4):
        boundary = formal_boundary(p_tree(n))
        dga_terms = {t: c for t, c in boundary.terms.items()
                     if not _has_higher_multiplication(t)}
        facets = {f.word: s
                  for s, f in cell_boundary(CubeCell((FREE,) * (n - 1)))}
        mapped = {_term_to_facet_word(t, n): c for t, c in dga_terms.items()}
        ok = ok and set(mapped) == set(facets)
        for word, coefficient in mapped.items():
            split = word.index("H") + 1 if "H" in word else None
            if split is not None and 2 <= split and 2 <= n - split:
                continue  # identically-zero facet map, orientation unobservable
            ok = ok and coefficient == facets[word]
    _report(9, "formal boundary: squares to zero (n <= 4), hexagon terms, "
               "cube facets, concrete agreement at degree 3",
            ok, time.monotonic() - started)


def test_criterion_10_tree_counts():
    started = time.monotonic()
    ok = all(
        len(binary_trees(n)) == math.comb(2 * (n - 1), n - 1) // n
        for n in range(1, 9)
    )
    ok = ok and len(binary_trees(4)) == 5
    ok = ok and len(painted_trees(3)) == 6
    _report(10, "Catalan counts through n = 8 (pentagon 5 at n = 4); "
                "six painted trees on three inputs",
            ok, time.monotonic() - started)


def test_criterion_11_cumulant_consistency_to_n8():
    # the cumulants suite at n_max 8, degree 4 clamps the grid exponent to
    # 3 at n = 7 and to 2 at n = 8; the time bound covers the whole run
    started = time.monotonic()
    ok = _suite_passes("cumulants", 8, 4, {
        "direct vs recursive cumulant n=7": {"n": 7, "exponent": 3},
        "direct vs recursive cumulant n=8": {"n": 8, "exponent": 2}})
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(11, "direct = recursive cumulants at n = 7 (exponent <= 3) and "
                "n = 8 (exponent <= 2), < 60 s", ok, elapsed)


# The vertex sum of g6 against K_6 on the exponent-3 grid, run as a suite
# entry (so in a check store), in a fresh interpreter that prints the
# entry's status and its own peak RSS in KiB, read as VmHWM from
# /proc/self/status.  ru_maxrss is no substitute: on Linux a child's also
# holds its parent's peak, which it inherits across exec, and on macOS it
# is in bytes.
_VERTEX_SUM_K6 = """
from homotopy_cumulants.cube_complex import cell_to_map, cells_of, vertex_composition
from homotopy_cumulants.cumulants import composition_sign
from homotopy_cumulants.hom_complex import (
    TruncationGrid, cumulant_multimap, linear_combination,
    maps_equal_on_truncation)
from homotopy_cumulants.suites import _entry

def check():
    vertex_sum = linear_combination(
        6, 5, ((cell_to_map(6, cell), composition_sign(vertex_composition(cell)))
               for cell in cells_of(6) if cell.is_vertex()), "vertex sum g6")
    return maps_equal_on_truncation(vertex_sum, cumulant_multimap(6),
                                    TruncationGrid(3), check="vertex sum = K6")

entry = _entry("vertex sum = K6", {}, check)
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status
                if line.startswith("VmHWM:"))
print(entry.status, peak)
"""


def _own_peak_is_readable() -> bool:
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


@pytest.mark.skipif(not _own_peak_is_readable(),
                    reason="own-process peak RSS is read from /proc/self/status")
def test_criterion_12_vertex_sum_k6_in_bounded_memory():
    # each signed vertex map is added to the sum and then dropped with the
    # tables below it, so the peak holds one vertex map's subtree, the
    # check's I_k leaves, the sum and K_6
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _VERTEX_SUM_K6],
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    status, peak_kib = done.stdout.split() if done.returncode == 0 else ("", 0)
    peak_mb = int(peak_kib) / 1024
    ok = status == "True" and peak_mb <= 40.0 and elapsed < 30.0
    _report(12, f"vertex sum = K_6 at degree 3 peaks at {peak_mb:.1f} MB "
                "<= 40 MB of own-process RSS, < 30 s", ok, elapsed)
