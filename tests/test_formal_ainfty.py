"""Formal composites, boundaries, tree enumeration, polytope checks."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from homotopy_cumulants import formal_ainfty
from homotopy_cumulants.certify import CONVENTION_A, CONVENTION_B
from homotopy_cumulants.cube_complex import FREE, CubeCell, cell_boundary
from homotopy_cumulants.formal_ainfty import (
    FormalSum,
    Leaf,
    Paint,
    SourceOp,
    TargetOp,
    associahedron_contractibility,
    binary_trees,
    check_d_squared,
    cumulant_polytope_graph,
    formal_boundary,
    interpret,
    interpret_sum,
    p_tree,
    painted_cells,
    polytope_to_dot,
    tree_text,
    validate_painted,
)
from homotopy_cumulants.hom_complex import (
    TruncationGrid,
    check_store,
    cup_pair,
    hom_boundary,
    iterated_integral_map,
    maps_equal_on_truncation,
    merged_integral,
    zero_map,
)


def leaves(n):
    return (Leaf(),) * n


class TestTrees:
    def test_generator_degrees(self):
        # an operation's plain degree is its shifted degree + 1 - arity:
        # 0 for p_k, +1 for a multiplication
        assert (Paint.shifted_degree, SourceOp.shifted_degree,
                TargetOp.shifted_degree) == (0, 1, 1)
        assert Paint(leaves(3)).plain_degree() == -2
        assert SourceOp(leaves(2)).plain_degree() == 0
        assert TargetOp((Paint(leaves(1)),) * 4).plain_degree() == -2
        # a node's degree adds its children's
        assert Paint((SourceOp(leaves(3)), Leaf())).plain_degree() == -2
        with pytest.raises(ValueError, match="p nodes have arity >= 1"):
            Paint(())

    def test_dimension_is_minus_the_degree(self):
        for dim in range(4):
            for tree in painted_cells(4, dim):
                assert tree.dimension() == -tree.plain_degree() == dim

    def test_dimensions(self):
        assert p_tree(3).dimension() == 2
        vertex = TargetOp((Paint(leaves(1)), Paint(leaves(1))))
        assert vertex.dimension() == 0
        edge = TargetOp((Paint((SourceOp(leaves(2)),)), Paint(leaves(2))))
        assert edge.dimension() == 1

    def test_total_shifted_degree_counts_m_nodes(self):
        tree = TargetOp((Paint((SourceOp(leaves(2)),)), Paint(leaves(1))))
        # one target m2 and one source m2
        plain = tree.plain_degree()
        arity = tree.leaf_count()
        assert plain + arity - 1 == 2

    def test_validation(self):
        validate_painted(p_tree(2))
        with pytest.raises(ValueError):
            validate_painted(Leaf())
        with pytest.raises(ValueError):
            validate_painted(TargetOp((Leaf(), Leaf())))
        with pytest.raises(ValueError):
            # a p node inside a source slot breaks the paint line
            validate_painted(Paint((Paint(leaves(1)), Leaf())))
        with pytest.raises(ValueError, match="^m_source nodes act on Leaf "
                                             "or SourceOp subtrees$"):
            validate_painted(Paint((SourceOp((Paint(leaves(1)), Leaf())),)))

    def test_pretty_printing(self):
        cup_of_maps = TargetOp((Paint(leaves(1)), Paint(leaves(2))))
        assert tree_text(cup_of_maps) == "m2(p1⊗p2)"
        assert tree_text(p_tree(3)) == "p3"
        merged = Paint((SourceOp(leaves(2)), Leaf()))
        assert tree_text(merged) == "p2(m2(1⊗1)⊗1)"

    def test_equal_trees_hash_equal(self):
        def build():
            return TargetOp((Paint((SourceOp(leaves(2)), Leaf())),
                             Paint(leaves(1))))

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        # the same children under another node type is another tree
        assert SourceOp(leaves(2)) != Paint(leaves(2))

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copies_keep_equality_and_hash(self, round_trip):
        for tree in (p_tree(3), *formal_boundary(p_tree(4)).terms):
            copied = round_trip(tree)
            assert copied == tree and hash(copied) == hash(tree)
            assert tree_text(copied) == tree_text(tree)


class TestFormalBoundary:
    def test_p1_is_closed(self):
        assert formal_boundary(p_tree(1)).is_zero()

    def test_p2_boundary(self):
        expected = FormalSum([
            (Paint((SourceOp(leaves(2)),)), Fraction(1)),
            (TargetOp((Paint(leaves(1)), Paint(leaves(1)))), Fraction(-1)),
        ])
        assert formal_boundary(p_tree(2)) == expected

    def test_p3_boundary_has_six_terms(self):
        boundary = formal_boundary(p_tree(3))
        assert len(boundary) == 6

    def test_p3_associative_specialization_signs(self):
        boundary = formal_boundary(p_tree(3))
        low_first = Paint((SourceOp(leaves(2)), Leaf()))
        low_second = Paint((Leaf(), SourceOp(leaves(2))))
        high_first = TargetOp((Paint(leaves(1)), Paint(leaves(2))))
        high_second = TargetOp((Paint(leaves(2)), Paint(leaves(1))))
        coeffs = boundary.terms
        # the four dga terms form the square cycle, up to the global
        # orientation of the 2-cell
        assert (coeffs[low_first], coeffs[low_second]) == (-1, 1)
        assert (coeffs[high_first], coeffs[high_second]) == (1, -1)

    def test_p3_boundary_general_terms(self):
        boundary = formal_boundary(p_tree(3))
        assert Paint((SourceOp(leaves(3)),)) in boundary.terms
        assert TargetOp((Paint(leaves(1)),) * 3) in boundary.terms

    @pytest.mark.parametrize("convention, n, text", [
        (CONVENTION_A, 3, "m2(p1⊗p2) - m2(p2⊗p1) - m3(p1⊗p1⊗p1)"
         " + p1(m3(1⊗1⊗1)) + p2(1⊗m2(1⊗1)) - p2(m2(1⊗1)⊗1)"),
        (CONVENTION_A, 4, "-m2(p1⊗p3) - m2(p2⊗p2) - m2(p3⊗p1)"
         " - m3(p1⊗p1⊗p2) + m3(p1⊗p2⊗p1) - m3(p2⊗p1⊗p1)"
         " - m4(p1⊗p1⊗p1⊗p1) + p1(m4(1⊗1⊗1⊗1)) - p2(1⊗m3(1⊗1⊗1))"
         " - p2(m3(1⊗1⊗1)⊗1) + p3(1⊗1⊗m2(1⊗1)) - p3(1⊗m2(1⊗1)⊗1)"
         " + p3(m2(1⊗1)⊗1⊗1)"),
        (CONVENTION_B, 3, "-m2(p1⊗p2) + m2(p2⊗p1) - m3(p1⊗p1⊗p1)"
         " + p1(m3(1⊗1⊗1)) - p2(1⊗m2(1⊗1)) + p2(m2(1⊗1)⊗1)"),
        (CONVENTION_B, 4, "-m2(p1⊗p3) - m2(p2⊗p2) - m2(p3⊗p1)"
         " - m3(p1⊗p1⊗p2) + m3(p1⊗p2⊗p1) - m3(p2⊗p1⊗p1)"
         " - m4(p1⊗p1⊗p1⊗p1) + p1(m4(1⊗1⊗1⊗1)) - p2(1⊗m3(1⊗1⊗1))"
         " - p2(m3(1⊗1⊗1)⊗1) + p3(1⊗1⊗m2(1⊗1)) - p3(1⊗m2(1⊗1)⊗1)"
         " + p3(m2(1⊗1)⊗1⊗1)"),
    ])
    def test_pinned_boundaries(self, convention, n, text):
        assert formal_boundary(p_tree(n), convention).to_text() == text
        # the same inside a check, where tree boundaries are kept
        with check_store():
            assert formal_boundary(p_tree(n), convention).to_text() == text
            assert formal_boundary(p_tree(n), convention).to_text() == text

    def test_float_coefficients_refused(self):
        with pytest.raises(TypeError):
            FormalSum([(p_tree(2), 0.1)])
        with pytest.raises(TypeError):
            FormalSum([(p_tree(2), 1)]).scale(0.1)
        with pytest.raises(TypeError):
            FormalSum([(p_tree(2), 0.5)])
        third = FormalSum([(p_tree(2), "1/3")]).scale(Fraction(3, 2))
        assert third.terms == {p_tree(2): Fraction(1, 2)}

    def test_int_coefficients_stay_ints(self):
        doubled = FormalSum([(p_tree(2), 2)]).scale(3) + FormalSum([(p_tree(2), 1)])
        assert [type(c) for c in doubled.terms.values()] == [int]
        assert doubled.terms == {p_tree(2): 7}
        boundary = formal_boundary(p_tree(4))
        assert {type(c) for c in boundary.terms.values()} == {int}

    def test_linearity(self):
        s = FormalSum([(p_tree(2), Fraction(2)), (p_tree(2), Fraction(1))])
        assert formal_boundary(s) == formal_boundary(p_tree(2)).scale(3)

    def test_ill_typed_rejected(self):
        with pytest.raises(ValueError):
            formal_boundary(TargetOp((Leaf(), Leaf())))

    def test_d_squared_up_to_five(self):
        for convention in (CONVENTION_A, CONVENTION_B):
            for n in range(1, 6):
                assert check_d_squared(n, convention), (convention.name, n)

    def test_d_squared_range(self):
        with pytest.raises(ValueError):
            check_d_squared(6)


class TestEnumeration:
    def test_catalan_counts(self):
        for n in range(1, 9):
            catalan = math.comb(2 * (n - 1), n - 1) // n
            assert len(binary_trees(n)) == catalan
        assert len(binary_trees(4)) == 5
        assert len(binary_trees(6)) == 42

    def test_painted_vertices(self):
        assert len(painted_cells(2, 0)) == 2
        assert len(painted_cells(3, 0)) == 6

    def test_painted_count_matches_convolution_recursion(self):
        # independent oracle: a(n) = sum over the target arity k of
        # Catalan(k-1) * sum over compositions of n into k parts of the
        # product of Catalan(part - 1)
        def catalan(m):
            return math.comb(2 * m, m) // (m + 1)

        def splits(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in splits(total - first, parts - 1):
                    yield (first,) + rest

        def painted_count(n):
            total = 0
            for k in range(1, n + 1):
                for parts in splits(n, k):
                    product = catalan(k - 1)
                    for part in parts:
                        product *= catalan(part - 1)
                    total += product
            return total

        for n in range(1, 5):
            assert len(painted_cells(n, 0)) == painted_count(n)
        assert painted_count(4) == 21

    def test_vertices_have_dimension_zero(self):
        for tree in painted_cells(4, 0):
            assert tree.dimension() == 0
            validate_painted(tree)


class TestPolytopes:
    def test_two_inputs(self):
        graph = cumulant_polytope_graph(2)
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 1

    def test_hexagon(self):
        graph = cumulant_polytope_graph(3)
        assert len(graph.vertices) == 6
        assert len(graph.edges) == 6
        degrees = {}
        for a, b in graph.edges:
            degrees[a] = degrees.get(a, 0) + 1
            degrees[b] = degrees.get(b, 0) + 1
        assert set(degrees.values()) == {2} and len(degrees) == 6

    def test_hexagon_edges_are_the_p3_boundary_terms(self):
        graph = cumulant_polytope_graph(3)
        assert set(formal_boundary(p_tree(3)).terms) == set(graph.edge_cells)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            cumulant_polytope_graph(5)

    def test_contractibility(self):
        for n in (2, 3, 4):
            verdict = associahedron_contractibility(n)
            assert verdict.contractible_two_skeleton
        hexagon = associahedron_contractibility(3)
        assert (hexagon.cycle_rank, hexagon.boundary_rank, hexagon.faces) == (1, 1, 1)

    def test_contractibility_range(self):
        with pytest.raises(ValueError):
            associahedron_contractibility(5)

    def test_rank_agrees_with_sympy(self, monkeypatch):
        """The fraction-free rank against sympy's, on the face boundary
        matrices for n <= 4 and on seeded rational matrices of every rank,
        with zero rows and columns."""
        sympy = pytest.importorskip("sympy")
        rank = formal_ainfty._matrix_rank
        boundaries = []
        monkeypatch.setattr(formal_ainfty, "_matrix_rank",
                            lambda rows: boundaries.append(rows) or rank(rows))
        for n in (2, 3, 4):
            associahedron_contractibility(n)
        assert [len(rows) for rows in boundaries] == [1, 13]
        rng = random.Random(7)
        seeded = []
        for _ in range(200):
            height, width = rng.randint(1, 7), rng.randint(1, 7)
            k = rng.randint(0, min(height, width))
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(height)]
            right = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(k)]
            seeded.append([[Fraction(sum(a * b[j] for a, b in zip(row, right)),
                                     rng.choice((1, 1, 2, 3)))
                            for j in range(width)] for row in left])
        for rows in boundaries + seeded:
            assert rank(rows) == sympy.Matrix(rows).rank(), rows

    def test_polytope_dot(self):
        dot = polytope_to_dot(3)
        assert dot.count("--") == 6


class TestInterpretation:
    def test_p_tree_interprets_to_the_iterated_integral(self):
        for n in (1, 2, 3):
            verdict = maps_equal_on_truncation(
                interpret(p_tree(n)), iterated_integral_map(n),
                TruncationGrid(3))
            assert verdict.equal

    def test_higher_multiplications_interpret_to_zero(self):
        tree = TargetOp((Paint(leaves(1)),) * 3)
        mapped = interpret(tree)
        basis = TruncationGrid(1).slot_basis()
        assert all(mapped(a, b, c).is_zero()
                   for a in basis for b in basis for c in basis)

    def test_formal_boundary_matches_hom_boundary(self):
        for n in (2, 3):
            verdict = maps_equal_on_truncation(
                interpret_sum(formal_boundary(p_tree(n))),
                hom_boundary(iterated_integral_map(n)),
                TruncationGrid(2))
            assert verdict.equal

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            interpret_sum(FormalSum())

    @pytest.mark.parametrize("convention", [CONVENTION_A, CONVENTION_B],
                             ids=lambda c: c.name)
    def test_words_match_the_recursive_cups(self, convention):
        """Every painted cell with n <= 5, in every dimension, has the table
        on the D = 1 grid that cupping its children's maps recursively
        gives; 127 of them are words of three or more blocks, which the
        recursion cups as the tree nests them, not left-nested."""
        codes = TruncationGrid(1).slot_codes()
        trees = [tree for n in range(1, 6) for dim in range(n)
                 for tree in painted_cells(n, dim)]
        assert len(trees) == 465
        assert sum(len(formal_ainfty._word(tree) or ()) >= 3
                   for tree in trees) == 127
        with check_store():
            for tree in trees:
                domain = (codes,) * tree.leaf_count()
                assert (interpret(tree, convention).table(domain)
                        == recursive_interpretation(tree, convention)
                        .table(domain)), tree_text(tree)


def recursive_interpretation(tree, convention):
    """The interpretation that cups a binary target node's two children's
    maps, each interpreted the same way, so that a tree nested on the
    right is cupped on the right; the oracle of `interpret`."""
    n = tree.leaf_count()
    if isinstance(tree, Paint) and not any(c.dimension() for c in tree.children):
        return merged_integral([c.leaf_count() for c in tree.children])
    if isinstance(tree, TargetOp) and len(tree.children) == 2:
        left, right = (recursive_interpretation(c, convention)
                       for c in tree.children)
        return cup_pair(left, right, convention)
    return zero_map(n, tree.plain_degree() + n - 1)


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


class TestCubeCorrespondence:
    def test_associative_specialization_matches_cube_facets(self):
        for n in (2, 3, 4):
            boundary = formal_boundary(p_tree(n))
            dga_terms = {t: c for t, c in boundary.terms.items()
                         if not _has_higher_multiplication(t)}
            facets = {f.word: s
                      for s, f in cell_boundary(CubeCell((FREE,) * (n - 1)))}
            mapped = {_term_to_facet_word(t, n): c for t, c in dga_terms.items()}
            assert set(mapped) == set(facets)
            for word, coefficient in mapped.items():
                i = word.index("H") + 1 if "H" in word else None
                both_blocks_free = (i is not None
                                    and 2 <= i and 2 <= n - i)
                if both_blocks_free:
                    # the facet map is identically zero; orientation is
                    # not observable there
                    continue
                assert coefficient == facets[word], (n, word)
