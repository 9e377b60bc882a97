"""Acceptance criteria, exact rational equality throughout.

Each test runs one numbered criterion at its stated parameters and prints
a single pass/fail line (visible with pytest -s; the -v test names carry
the same information).
"""

import math
import time

from homotopy_cumulants.cube_complex import (
    FREE,
    CubeCell,
    cell_boundary,
    cells_of,
    cumulant_graph,
    euler_characteristic,
    graph_degrees,
    graph_is_bipartite_by_sign,
    graph_is_connected,
    hypercube_isomorphism,
    label_for_cell,
    verify_cell,
)
from homotopy_cumulants.formal_ainfty import (
    Leaf,
    Paint,
    SourceOp,
    TargetOp,
    binary_trees,
    check_d_squared,
    cumulant_polytope_graph,
    formal_boundary,
    interpret_sum,
    p_tree,
    painted_trees,
)
from homotopy_cumulants.hom_complex import (
    TruncationGrid,
    ainfty_relation_defect,
    cumulant_multimap,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    maps_equal_on_truncation,
)
from homotopy_cumulants.suites import run_suite


def _report(number: int, description: str, ok: bool, seconds: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} ({seconds:6.2f}s): {description}")
    assert ok, f"criterion {number} failed: {description}"


def _suite_passes(suite: str, degree: int, checks: list[str]) -> bool:
    """Whether the suite at this degree runs exactly these checks, all
    passing."""
    entries = run_suite(suite, 1, degree)
    return ([e.check for e in entries] == checks
            and all(e.status for e in entries))


def test_criterion_01_dga_axioms():
    # the dga suite at degree 8 runs these axioms on the monomials of
    # exponent <= 8 and on the cochain basis
    started = time.monotonic()
    ok = _suite_passes("dga", 8, [
        "forms: d.d = 0", "forms: graded Leibniz",
        "forms: graded commutativity", "cochains: delta.delta = 0",
        "cochains: cup associativity", "cochains: delta Leibniz over cup"])
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    _report(1, "dga axioms for forms and cochains, exponent <= 8, < 1 s",
            ok, elapsed)


def test_criterion_02_stokes_chain_map():
    # the chain-map suite at degree 12 checks t^k and t^k dt for k <= 12
    started = time.monotonic()
    ok = _suite_passes("chain-map", 12, ["integration is a chain map"])
    _report(2, "integration intertwines d and delta up to t^12",
            ok, time.monotonic() - started)


def test_criterion_03_boundary_of_i2_is_k2():
    started = time.monotonic()
    verdict = maps_equal_on_truncation(
        hom_boundary(iterated_integral_map(2)), cumulant_multimap(2),
        TruncationGrid(8))
    _report(3, "boundary(I2) = K2 on the full degree-8 grid",
            verdict.equal, time.monotonic() - started)


def test_criterion_04_witness_boundaries():
    started = time.monotonic()
    ok = True
    for n in (3, 4):
        verdict = maps_equal_on_truncation(
            hom_boundary(homotopy_witness(n)), cumulant_multimap(n),
            TruncationGrid(4))
        ok = ok and verdict.equal
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    _report(4, "boundary(H_n) = K_n for n = 3, 4 at degree 4, < 30 s",
            ok, elapsed)


def test_criterion_05_morphism_relation():
    started = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        verdict, _ = ainfty_relation_defect(n, 4)
        ok = ok and verdict.equal
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
    started = time.monotonic()
    ok = True
    single_block = two_block = False
    for n in (2, 3, 4):
        for cell in cells_of(n):
            if cell.dimension < 1:
                continue
            ok = ok and verify_cell(n, cell, 3).equal
            if n == 4 and cell.dimension == 2:
                if len(label_for_cell(cell).p_indices) == 1:
                    single_block = True
                else:
                    two_block = True
    ok = ok and single_block and two_block
    ok = ok and all(euler_characteristic(n) == 1 for n in range(2, 7))
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
    started = time.monotonic()
    ok = all(check_d_squared(n) for n in (1, 2, 3, 4))

    boundary3 = formal_boundary(p_tree(3))
    hexagon = cumulant_polytope_graph(3)
    ok = ok and len(boundary3) == 6
    ok = ok and set(boundary3.terms) == set(hexagon.edge_cells)

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

    for n in (2, 3, 4):
        verdict = maps_equal_on_truncation(
            interpret_sum(formal_boundary(p_tree(n))),
            hom_boundary(iterated_integral_map(n)),
            TruncationGrid(3))
        ok = ok and verdict.equal
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
