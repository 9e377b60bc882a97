"""Hypercube combinatorics of the cumulant terms and the cell checks."""

import json
import math

import pytest

from homotopy_cumulants import hom_complex
from homotopy_cumulants.cumulants import Composition, composition_sign
from homotopy_cumulants.cube_complex import (
    FREE,
    HIGH,
    LOW,
    CubeCell,
    _blocks,
    cell_boundary,
    cell_term_text,
    cell_to_map,
    cells_of,
    cumulant_graph,
    euler_characteristic,
    graph_degrees,
    graph_is_bipartite_by_sign,
    graph_is_connected,
    graph_to_dot,
    hypercube_isomorphism,
    verify_cell,
    vertex_composition,
)
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    SignConvention,
    TruncationGrid,
    cumulant_multimap,
    cup_pair,
    iterated_integral_map,
    maps_equal_on_truncation,
    wedge_at,
    zero_map,
)
from homotopy_cumulants.interval_model import cup


def cell_census(n: int) -> dict[int, int]:
    """Cell counts of g_n by dimension."""
    census: dict[int, int] = {}
    for cell in cells_of(n):
        census[cell.dimension] = census.get(cell.dimension, 0) + 1
    return census


def census_json(n: int, max_exponent: int | None = None,
                convention: SignConvention = CONVENTION_A) -> str:
    """JSON cell census; includes boundary checks when a grid is given."""
    census = {str(k): v for k, v in sorted(cell_census(n).items())}
    payload: dict = {"n": n, "cells_by_dim": census}
    if max_exponent is not None:
        passed = all(
            verify_cell(n, cell, max_exponent, convention).equal
            for cell in cells_of(n) if cell.dimension >= 1
        )
        payload["checks_passed"] = passed
    return json.dumps(payload, sort_keys=True)


class TestGraph:
    def test_counts_and_shape(self):
        for n in range(2, 7):
            graph = cumulant_graph(n)
            assert len(graph.vertices) == 2 ** (n - 1)
            assert len(graph.edges) == (n - 1) * 2 ** (n - 2)
            assert set(graph_degrees(graph).values()) == {n - 1}
            assert graph_is_connected(graph)
            assert graph_is_bipartite_by_sign(graph)

    def test_three_is_a_square(self):
        graph = cumulant_graph(3)
        assert len(graph.vertices) == 4 and len(graph.edges) == 4
        assert set(graph_degrees(graph).values()) == {2}

    def test_two_is_a_single_edge(self):
        graph = cumulant_graph(2)
        assert len(graph.vertices) == 2 and len(graph.edges) == 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cumulant_graph(1)

    def test_isomorphism_examples(self):
        iso = hypercube_isomorphism(cumulant_graph(3))
        assert iso[Composition((1, 1, 1))] == frozenset({1, 2})
        assert iso[Composition((3,))] == frozenset()

    def test_isomorphism_through_eight(self):
        for n in range(2, 9):
            iso = hypercube_isomorphism(cumulant_graph(n))
            assert len(set(iso.values())) == 2 ** (n - 1)

    def test_adjacent_vertices_alternate_sign(self):
        for a, b in cumulant_graph(5).edges:
            assert composition_sign(a) == -composition_sign(b)

    def test_edges_are_the_one_cells(self):
        # each edge is a 1-cell of g_n, and every 1-cell is one edge, which
        # joins the compositions of its LOW and HIGH facets in that order
        for n in range(2, 7):
            graph = cumulant_graph(n)
            one_cells = [cell for cell in cells_of(n) if cell.dimension == 1]
            assert sorted(graph.edge_cells, key=CubeCell.to_text) == one_cells
            for (a, b), cell in zip(graph.edges, graph.edge_cells):
                (position,) = cell.free_positions()
                assert a == vertex_composition(cell.specialize(position, LOW))
                assert b == vertex_composition(cell.specialize(position, HIGH))


class TestCells:
    def test_dimension_and_label_invariant(self):
        # a block of r wedge runs feeds I_r, of dimension r - 1; the runs
        # of all blocks cover the n inputs
        for n in (2, 3, 4, 5):
            for cell in cells_of(n):
                blocks = _blocks(cell)
                assert sum(len(runs) - 1 for runs in blocks) == cell.dimension
                assert sum(map(sum, blocks)) == n

    def test_vertex_composition(self):
        cell = CubeCell((HIGH, LOW))
        assert vertex_composition(cell) == Composition((1, 2))
        with pytest.raises(ValueError):
            vertex_composition(CubeCell((FREE,)))

    def test_malformed_word_rejected(self):
        with pytest.raises(ValueError):
            CubeCell(("X",))
        with pytest.raises(ValueError):
            cell_to_map(3, CubeCell((FREE,)))

    def test_term_text(self):
        assert cell_term_text(CubeCell((FREE, LOW))) == "p2(a,bc)"
        assert cell_term_text(CubeCell((FREE, HIGH))) == "p2(a,b)p1(c)"
        assert cell_term_text(CubeCell((LOW, LOW))) == "p1(abc)"
        assert cell_term_text(CubeCell((FREE, FREE))) == "p3(a,b,c)"

    def test_cell_maps_match_their_composites(self):
        grid = TruncationGrid(2)
        i1, i2, i3 = [iterated_integral_map(k) for k in (1, 2, 3)]
        top = cell_to_map(3, CubeCell((FREE, FREE)))
        assert maps_equal_on_truncation(top, i3, grid).equal
        merged = cell_to_map(3, CubeCell((LOW, LOW)))
        assert maps_equal_on_truncation(
            merged, wedge_at(wedge_at(i1, 0), 0), grid).equal
        split = cell_to_map(3, CubeCell((FREE, HIGH)))
        assert maps_equal_on_truncation(split, cup_pair(i2, i1), grid).equal


class TestCellBoundary:
    def test_interval_boundary(self):
        assert cell_boundary(CubeCell((FREE,))) == [
            (1, CubeCell((LOW,))), (-1, CubeCell((HIGH,)))]

    def test_one_cells_have_two_facets(self):
        for n in (3, 4, 5):
            for cell in cells_of(n):
                if cell.dimension == 1:
                    facets = cell_boundary(cell)
                    assert len(facets) == 2
                    assert sorted(s for s, _ in facets) == [-1, 1]

    def test_square_has_four_facets(self):
        facets = cell_boundary(CubeCell((FREE, FREE)))
        assert len(facets) == 4
        assert sorted(s for s, _ in facets) == [-1, -1, 1, 1]

    def test_vertices_rejected(self):
        with pytest.raises(ValueError):
            cell_boundary(CubeCell((LOW, HIGH)))

    def test_boundary_squared_cancels_up_to_six(self):
        for n in range(2, 7):
            for cell in cells_of(n):
                if cell.dimension < 2:
                    continue
                totals = {}
                for sign, facet in cell_boundary(cell):
                    for inner_sign, inner in cell_boundary(facet):
                        key = inner.word
                        totals[key] = totals.get(key, 0) + sign * inner_sign
                assert all(v == 0 for v in totals.values()), (n, cell)


class TestVerification:
    def test_all_cells_of_g3(self):
        for cell in cells_of(3):
            if cell.dimension >= 1:
                assert verify_cell(3, cell, 3).equal

    def test_all_cells_of_g4_small_grid(self):
        for cell in cells_of(4):
            if cell.dimension >= 1:
                assert verify_cell(4, cell, 2).equal, cell

    def test_g4_cells_cup_once_per_value_pair(self, monkeypatch):
        """The cost model of `cup_pair` over every cell check of g4 on the
        exponent-2 grid: each distinct pair of signed values of the two
        factors' tables is cupped once, 3,872 cups in all.  Cupping entry
        by entry makes 21,141."""
        calls = [0]

        def counted_cup(a, b):
            calls[0] += 1
            return cup(a, b)

        monkeypatch.setattr(hom_complex, "cup", counted_cup)
        for cell in cells_of(4):
            if cell.dimension >= 1:
                assert verify_cell(4, cell, 2).equal, cell
        assert calls[0] == 3872

    def test_both_square_types_occur_in_g4(self):
        two_cells = [c for c in cells_of(4) if c.dimension == 2]
        single_block = [c for c in two_cells if len(_blocks(c)) == 1]
        two_block = [c for c in two_cells if len(_blocks(c)) >= 2]
        assert single_block and two_block

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_cell(2, CubeCell((LOW,)), 2)

    def test_vertex_sum_is_the_cumulant(self):
        for n, max_exponent in ((2, 3), (3, 3), (4, 2)):
            total = zero_map(n, n - 1)
            for cell in cells_of(n):
                if cell.is_vertex():
                    sign = composition_sign(vertex_composition(cell))
                    mapped = cell_to_map(n, cell)
                    total = total + (mapped if sign > 0 else mapped.scale(-1))
            verdict = maps_equal_on_truncation(
                total, cumulant_multimap(n), TruncationGrid(max_exponent))
            assert verdict.equal


class TestEuler:
    def test_values(self):
        assert [euler_characteristic(n) for n in (2, 3, 4, 5, 6)] == [1] * 5

    def test_census_matches_binomial_counts(self):
        for n in (2, 3, 4, 5, 6):
            census = cell_census(n)
            for k, count in census.items():
                assert count == math.comb(n - 1, k) * 2 ** (n - 1 - k)
            assert sum((-1) ** k * c for k, c in census.items()) == 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            euler_characteristic(1)


class TestExports:
    def test_dot_for_g3(self):
        dot = graph_to_dot(3)
        assert dot.count("--") == 4
        assert '"(3)" -- "(1,2)" [label="p2(a,bc)"];' in dot
        assert '"(2,1)" -- "(1,1,1)" [label="p2(a,b)p1(c)"];' in dot

    def test_census_json(self):
        payload = json.loads(census_json(3, 2))
        assert payload == {
            "n": 3,
            "cells_by_dim": {"0": 4, "1": 4, "2": 1},
            "checks_passed": True,
        }
