"""Hom-complex boundary calculus and the morphism relation."""

import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homotopy_cumulants import hom_complex, interval_model, suites
from homotopy_cumulants.certify import CONVENTION_A, CONVENTION_B, get_convention
from homotopy_cumulants.cube_complex import cell_to_map, cells_of
from homotopy_cumulants.cumulants import CumulantContext, integration_context
from homotopy_cumulants.formal_ainfty import formal_boundary, interpret_sum, p_tree
from homotopy_cumulants.hom_complex import (
    MultiMap,
    TruncationGrid,
    ainfty_relation_defect,
    cumulant_multimap,
    cup_pair,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    linear_combination,
    map_is_zero_on,
    maps_equal_on_truncation,
    merged_integral,
    table_store,
    wedge_at,
    zero_map,
)
from homotopy_cumulants.interval_model import (
    Cochain,
    PolyForm,
    cup,
    d_form,
    encode_basis,
    integrate,
    iterated_integral,
    wedge,
)
from reference_maps import (
    ReferenceMap,
    alternate_witness_k3,
    call_supports,
    leaf_tables,
    leibniz_sides,
    random_leaf_map,
    record_builds,
)

T = PolyForm.monomial(1)
DT = PolyForm.monomial(0, dt=True)


def random_multilinearity_probe(f: MultiMap, rng, trials: int = 8,
                                max_exponent: int = 3) -> bool:
    """Spot-check f(.., s*a + r*b, ..) = s f(.., a, ..) + r f(.., b, ..)."""
    basis = TruncationGrid(max_exponent).slot_basis()
    for _ in range(trials):
        slot = rng.randrange(f.arity)
        fixed = [rng.choice(basis) for _ in range(f.arity)]
        a, b = rng.choice(basis), rng.choice(basis)
        s = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        r = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        mixed = list(fixed)
        mixed[slot] = a.scale(s) + b.scale(r)
        with_a, with_b = list(fixed), list(fixed)
        with_a[slot] = a
        with_b[slot] = b
        expected = f(*with_a).scale(s) + f(*with_b).scale(r)
        if f(*mixed) != expected:
            return False
    return True


class TestMultiMap:
    def test_arity_validated(self):
        with pytest.raises(ValueError):
            iterated_integral_map(2)(DT)
        with pytest.raises(ValueError):
            MultiMap(0, 0, lambda: Cochain.zero())

    def test_shifted_degrees(self):
        assert iterated_integral_map(3).shifted_degree == 0
        assert iterated_integral_map(3).plain_degree == -2
        assert hom_boundary(iterated_integral_map(3)).shifted_degree == 1

    def test_merged_integral_wedges_consecutive_inputs(self):
        merged = merged_integral((2, 1, 3))
        assert (merged.arity, merged.shifted_degree) == (6, 3)
        xs = (T, DT, PolyForm.monomial(2, dt=True), T, PolyForm.monomial(2), DT)
        expected = iterated_integral(
            (wedge(xs[0], xs[1]), xs[2], wedge(wedge(xs[3], xs[4]), xs[5])))
        assert merged(*xs) == expected
        assert merged(*xs) != Cochain.zero()
        assert merged_integral((1, 1)).name == iterated_integral_map(2).name

    def test_algebra_of_maps(self):
        i2 = iterated_integral_map(2)
        assert (i2 - i2)(DT, DT).is_zero()
        assert (i2 + i2)(DT, DT) == i2(DT, DT).scale(2)
        assert i2.scale(Fraction(1, 2))(DT, DT) == Cochain(edge=Fraction(1, 4))
        with pytest.raises(ValueError):
            i2 + iterated_integral_map(3)

    def test_mixed_inputs_take_one_path(self):
        # a code is its basis monomial, in any slot and beside any form
        i2, k2 = iterated_integral_map(2), cumulant_multimap(2)
        assert i2(1, DT) == i2(DT, 1) == i2(1, 1) == i2(DT, DT) != Cochain.zero()
        assert k2(DT, 1) == k2(DT, DT)
        assert k2(T, 1) == k2(T, DT) != Cochain.zero()
        assert k2(1, T) == k2(DT, T) != Cochain.zero()

    def test_malformed_inputs_are_refused(self):
        for f in (iterated_integral_map(2), cumulant_multimap(2)):
            with pytest.raises(ValueError, match="input 0: basis code -1 is negative"):
                f(-1, 3)
            with pytest.raises(TypeError, match="input 0: .* got bool"):
                f(True, 3)
            with pytest.raises(TypeError, match="input 1: .* got float"):
                f(DT, 1.0)
            with pytest.raises(TypeError, match="input 1: .* got str"):
                f(DT, "t")
            with pytest.raises(TypeError, match="input 0: .* got Fraction"):
                f(Fraction(1), DT)

    def test_multilinearity_probe(self):
        rng = random.Random(7)
        assert random_multilinearity_probe(iterated_integral_map(2), rng)
        assert random_multilinearity_probe(homotopy_witness(3), rng, trials=4)


def _arity3_leaves() -> list[MultiMap]:
    """Leaf maps of arity 3 and shifted degree 1: both wedges, both cups,
    H_3 and g3's edges."""
    i1, i2 = iterated_integral_map(1), iterated_integral_map(2)
    return ([wedge_at(i2, 0), wedge_at(i2, 1),
             cup_pair(i1, i2), cup_pair(i2, i1), homotopy_witness(3)]
            + [cell_to_map(cell) for cell in cells_of(3)
               if cell.dimension == 1])


def _nested(evaluator) -> MultiMap:
    """One node of a nested sum tree over arity-3 maps.

    It is a reference map, so a call runs the evaluator on PolyForms (code
    inputs decoded), and the reference calls every leaf on them.
    """
    return ReferenceMap(3, 1, evaluator, "nested")


_coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), 0])
_expressions = st.recursive(
    st.integers(0, 8),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["+", "-"]), inner, inner),
        st.tuples(st.just("scale"), _coefficients, inner)),
    max_leaves=8)
_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_forms = st.builds(
    lambda p0, p1: PolyForm(p0, p1),
    st.lists(_small_fractions, max_size=3), st.lists(_small_fractions, max_size=3))


def _build(expression, leaves):
    """The flat map and the nested reference map of one expression."""
    if isinstance(expression, int):
        leaf = leaves[expression]
        return leaf, leaf
    op, first, second = expression
    if op == "scale":
        flat, nested = _build(second, leaves)
        c = Fraction(first)
        return flat.scale(first), _nested(lambda *xs: nested(*xs).scale(c))
    flat_a, nested_a = _build(first, leaves)
    flat_b, nested_b = _build(second, leaves)
    if op == "+":
        return flat_a + flat_b, _nested(lambda *xs: nested_a(*xs) + nested_b(*xs))
    return flat_a - flat_b, _nested(lambda *xs: nested_a(*xs) - nested_b(*xs))


class TestLinearCombination:
    def test_sums_hold_merged_leaf_terms(self):
        i1, i2 = iterated_integral_map(1), iterated_integral_map(2)
        f, g = wedge_at(i2, 0), cup_pair(i1, i2)
        h = g.scale(3)
        combined = ((f + g) - h).scale(2) + zero_map(3, 1)
        assert combined.terms == ((f, 2), (g, -4))
        assert all(leaf.terms is None for leaf, _ in combined.terms)
        assert combined.name == f"((2)*(({f.name} + {g.name}) - (3)*{g.name}) + 0/3)"
        for xs in ((T, DT, DT), (PolyForm.monomial(0), DT, DT)):
            assert combined(*xs) == f(*xs).scale(2) - g(*xs).scale(4)
            assert combined(*xs) != Cochain.zero()

    def test_zero_map_is_the_empty_combination(self):
        zero = zero_map(2, 1)
        assert (zero.terms, zero.arity, zero.shifted_degree) == ((), 2, 1)
        assert zero(T, DT) is Cochain.zero()

    def test_cancelling_difference_is_the_shared_zero(self):
        f = iterated_integral_map(2)
        difference = f - f
        assert difference.terms == ()
        mixed = PolyForm((1,), (0, 1))
        for xs in ((DT, DT), (mixed, DT), (encode_basis(DT), encode_basis(DT))):
            assert f(*xs) != Cochain.zero()
            assert difference(*xs) is Cochain.zero()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_combination(2, 0, [(iterated_integral_map(3), 1)], "bad")

    def test_shifted_degree_mismatch_rejected(self):
        """A sum has one shifted degree, so its boundary takes one Koszul
        pre-sign for all its terms: boundary(I2 - I1(wedge@0)) read -2 dt at
        (1, t), where boundary(I2) and boundary(I1(wedge@0)) differ by 0."""
        i2, wedged = iterated_integral_map(2), wedge_at(iterated_integral_map(1), 0)
        for build in (lambda: i2 - wedged, lambda: wedged + i2,
                      lambda: linear_combination(2, 0, [(wedged, 1)], "bad")):
            with pytest.raises(ValueError, match="shifted degree mismatch"):
                build()

    def test_float_coefficients_refused(self):
        f = iterated_integral_map(2)
        with pytest.raises(TypeError, match="inexact scalar 0.5"):
            f.scale(0.5)
        assert f.scale("1/3").terms == f.scale(Fraction(1, 3)).terms == (
            (f, Fraction(1, 3)),)
        assert f.scale(2).terms == ((f, 2),)

    @settings(max_examples=25, deadline=None)
    @given(_expressions, st.lists(_forms, min_size=3, max_size=3),
           st.integers(0, 2), _forms, _forms, _small_fractions, _small_fractions)
    def test_equals_the_nested_sum_and_is_multilinear(
            self, expression, forms, slot, a, b, s, r):
        flat, nested = _build(expression, _arity3_leaves())
        if flat.terms is not None:
            assert all(leaf.terms is None for leaf, _ in flat.terms)
        codes = TruncationGrid(1).slot_codes()
        for xs in itertools.product(codes, repeat=3):
            assert flat(*xs) == nested(*xs)
        assert flat(*forms) == nested(*forms)
        mixed, with_a, with_b = list(forms), list(forms), list(forms)
        mixed[slot], with_a[slot], with_b[slot] = a.scale(s) + b.scale(r), a, b
        assert flat(*mixed) == flat(*with_a).scale(s) + flat(*with_b).scale(r)

    def test_h4_evaluates_its_shared_h3_once_per_tuple(self):
        # h3 tabulates once per domain in each build, whether a sweep or a
        # call on codes or forms asks for h4's table.  h4 keeps no table: a
        # call builds one on its inputs' supports, in a store of its own,
        # and later calls that it covers read it and build none.  The
        # check's store keeps the tables of the I_k leaves, and its table
        # store counts the tables the check's own requests build.
        with hom_complex.check_store():
            store = table_store()
            h4 = homotopy_witness(4)
            h3 = h4.terms[0][0].rule.args[0]
            assert h3.name == "(I2(wedge@0) - cup(I1,I2))"
            runs = record_builds(h4)
            codes = TruncationGrid(2).slot_codes()
            h4.table([codes] * 4)
            # one table per (map, domain), with 817 entries, as many as every
            # map kept when maps kept the tables they built; h3 on the
            # merged-code domain and on the grid.  The build is asked for 16
            # tables, h4's and the 15 its rules read, and the 13 below h4
            # are dropped once read, the 5 of the I_k leaves too
            assert store.built == len(set(runs)) == len(runs) == 14
            assert store.entries == 817 and store.reads == 16
            assert [f for f, _ in runs].count(h3) == 2
            assert store.released == 13
            # the sweep leaves no call state on h4, and the leaves' 5 tables
            # in the check's store
            assert call_supports(h4) == []
            assert len(leaf_tables()) == 5
            assert {n for n, _ in leaf_tables()} == {1, 2}
            # t^3 lies outside the D = 2 grid: one new build, of h4's table on
            # (S,) * 4, which again builds h3 on two domains, once each, and
            # drops the tables below h4 once read.  It runs in a store of
            # its own, so the check's counts and leaf tables stay as they are
            forms = (PolyForm.monomial(3), T, DT, PolyForm.monomial(2, dt=True))
            h4(*forms)
            support = frozenset(map(encode_basis, forms))
            assert call_supports(h4) == [support]
            assert len(set(runs)) == len(runs) == 28
            assert (store.built, store.released) == (14, 13)
            assert len(leaf_tables()) == 5
            h3_domains = [domain for f, domain in runs if f is h3]
            assert len(set(h3_domains)) == len(h3_domains) == 4
            assert call_supports(h3) == []
            # calls inside S read that table and build none
            for xs in itertools.product(sorted(support), repeat=4):
                h4(*xs)
            for xs in itertools.product(forms, repeat=4):
                h4(*xs)
            assert len(runs) == 28 and call_supports(h4) == [support]


class TestTruncationGrid:
    def test_basis_size_and_order(self):
        grid = TruncationGrid(2)
        basis = grid.slot_basis()
        assert len(basis) == 6
        assert basis[0] == PolyForm.monomial(0)
        assert basis[3] == PolyForm.monomial(0, dt=True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TruncationGrid(-1)


class TestEquality:
    def test_reflexive(self):
        i2 = iterated_integral_map(2)
        assert maps_equal_on_truncation(i2, i2, TruncationGrid(4)).equal

    def test_witness_is_first_basis_tuple(self):
        verdict = maps_equal_on_truncation(
            iterated_integral_map(2), zero_map(2), TruncationGrid(2))
        assert not verdict.equal
        assert verdict.witness_tuple == (DT, DT)
        assert verdict.lhs == Cochain(edge=Fraction(1, 2))
        assert verdict.rhs == Cochain.zero()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maps_equal_on_truncation(
                iterated_integral_map(1), iterated_integral_map(2),
                TruncationGrid(1))

    def test_verdict_json(self):
        verdict = maps_equal_on_truncation(
            iterated_integral_map(2), zero_map(2), TruncationGrid(1),
            check="demo")
        record = verdict.to_json_dict()
        assert record["check"] == "demo"
        assert record["status"] == "fail"
        assert record["witness_tuple"] == ["(1)dt", "(1)dt"]


class TestHomBoundary:
    def test_boundary_of_integration_vanishes(self):
        verdict = map_is_zero_on(
            hom_boundary(iterated_integral_map(1)), TruncationGrid(8))
        assert verdict.equal

    def test_boundary_of_zero_map(self):
        assert map_is_zero_on(hom_boundary(zero_map(3)), TruncationGrid(2)).equal

    def test_boundary_of_i2_is_k2(self):
        verdict = maps_equal_on_truncation(
            hom_boundary(iterated_integral_map(2)), cumulant_multimap(2),
            TruncationGrid(6))
        assert verdict.equal

    @settings(max_examples=60, deadline=None)
    @given(_forms, _forms)
    def test_boundary_signs_on_random_forms(self, a, b):
        # I_1 and K_2 have vertex values, so these pin the pre-sign of the
        # d insertions against delta
        assert hom_boundary(iterated_integral_map(1))(a).is_zero()
        assert (hom_boundary(iterated_integral_map(2))(a, b)
                == cumulant_multimap(2)(a, b))

    def test_boundary_of_i2_at_t_dt(self):
        boundary = hom_boundary(iterated_integral_map(2))
        assert boundary(T, DT) == Cochain(edge=Fraction(1, 2))

    def test_boundary_squares_to_zero(self):
        for n in (1, 2, 3):
            twice = hom_boundary(hom_boundary(iterated_integral_map(n)))
            assert map_is_zero_on(twice, TruncationGrid(4)).equal
        twice = hom_boundary(hom_boundary(iterated_integral_map(4)))
        assert map_is_zero_on(twice, TruncationGrid(3)).equal

    def test_boundary_squares_to_zero_on_cell_maps_on_codes(self):
        for n in (3, 4):
            for cell in cells_of(n):
                twice = hom_boundary(hom_boundary(cell_to_map(cell)))
                assert map_is_zero_on(twice, TruncationGrid(1)).equal

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(n, cell) for n in (3, 4) for cell in cells_of(n)]),
           st.lists(_forms, min_size=4, max_size=4))
    def test_boundary_squares_to_zero_on_cell_maps(self, cell, forms):
        n, cell = cell
        twice = hom_boundary(hom_boundary(cell_to_map(cell)))
        assert twice(*forms[:n]).is_zero()

    def test_boundary_squares_to_zero_on_witnesses(self):
        twice = hom_boundary(hom_boundary(homotopy_witness(3)))
        assert map_is_zero_on(twice, TruncationGrid(2)).equal

    def test_convention_b_breaks_the_cumulant_identity(self):
        verdict = maps_equal_on_truncation(
            hom_boundary(iterated_integral_map(2), CONVENTION_B),
            cumulant_multimap(2), TruncationGrid(2))
        assert not verdict.equal

    def test_square_cycle_is_minus_the_boundary_of_i3(self):
        # p2(ab,c) - p1(a)p2(b,c) - p2(a,bc) + p2(a,b)p1(c), with the
        # Koszul-signed tensor readings; the pinned orientation gives
        # boundary(I3) = -(that cycle).
        i1, i2 = iterated_integral_map(1), iterated_integral_map(2)
        square = (wedge_at(i2, 0) - cup_pair(i1, i2)
                  - wedge_at(i2, 1) + cup_pair(i2, i1))
        verdict = maps_equal_on_truncation(
            hom_boundary(iterated_integral_map(3)), square.scale(-1),
            TruncationGrid(3))
        assert verdict.equal
        # and the cycle is indeed a cycle
        assert map_is_zero_on(hom_boundary(square), TruncationGrid(2)).equal


def index_entries(index) -> dict:
    """The (code tuple, value) pairs a prefix index holds, path by path."""
    levels, values = index
    if not levels:
        return {}
    paths = {(): 0}
    for level in levels[:-1]:
        paths = {xs + (x,): child for xs, k in paths.items()
                 for x, child in level[k].items()}
    return {xs + (x,): values[v] for xs, k in paths.items()
            for x, v in levels[-1][k].items()}


def assert_reduced(index, table):
    """The index holds exactly the table, and no level two equal nodes
    (a node's child indices name shared nodes, so equal items mean equal
    subtrees)."""
    levels, values = index
    assert index_entries(index) == table
    assert len(set(values)) == len(values) == len(set(table.values()))
    for level in levels:
        assert len({frozenset(node.items()) for node in level}) == len(level)


class TestPrefixIndex:
    def test_k4_shares_its_equal_subtrees(self):
        """On the 8 codes of the D = 3 grid, K_4's table has one subtree
        per code prefix, 1, 7, 40 and 208 by prefix length; the index keeps
        one node per distinct subtree."""
        codes = TruncationGrid(3).slot_codes()
        table = cumulant_multimap(4).table([codes] * 4)
        index = hom_complex._prefix_index(table)
        assert [len({xs[:u] for xs in table}) for u in range(4)] == [1, 7, 40, 208]
        assert [len(level) for level in index[0]] == [1, 7, 13, 19]
        assert_reduced(index, table)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n),
        st.sampled_from([Cochain(1, 0, 0), Cochain(0, 0, 2), Cochain(1, 2, 3)]))))
    def test_any_table(self, table):
        assert_reduced(hom_complex._prefix_index(table), table)


class TestMorphismRelation:
    def test_defect_vanishes_up_to_four(self):
        for n in (1, 2, 3, 4):
            verdict, defect = ainfty_relation_defect(n, 3)
            assert verdict.equal
            assert defect.arity == n

    def test_defect_vanishes_for_two_on_a_wide_grid(self):
        verdict, _ = ainfty_relation_defect(2, 6)
        assert verdict.equal

    def test_defect_nonzero_under_convention_b(self):
        verdict, _ = ainfty_relation_defect(2, 2, CONVENTION_B)
        assert not verdict.equal

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ainfty_relation_defect(0, 2)

    def test_each_value_of_the_boundary_is_negated_once(self, monkeypatch):
        """At odd n the boundary of I_n enters the defect with coefficient
        1, so the pre-sign of `hom_boundary` is the one negation of its
        values.  One build at n = 5, D = 3 reduces 12,934 cochains; with
        coefficient -1, which negated each of the boundary's 1,232 distinct
        values a second time, it reduced 13,927."""
        calls = 0
        reduced = interval_model._cochain

        def counting(*fields):
            nonlocal calls
            calls += 1
            return reduced(*fields)

        monkeypatch.setattr(interval_model, "_cochain", counting)
        with hom_complex.check_store():
            verdict, _ = ainfty_relation_defect(5, 3)
        assert verdict.equal
        assert calls == 12934

    def test_convention_lookup(self):
        assert get_convention("A") is CONVENTION_A
        assert get_convention("B") is CONVENTION_B
        with pytest.raises(ValueError):
            get_convention("C")


def negated_boundary_defect(n: int, convention) -> MultiMap:
    """The morphism defect of `ainfty_relation_defect` with the
    coefficient of boundary(I_n) negated, (-1)^n where it is (-1)^(n+1)."""
    pairs = [(hom_boundary(iterated_integral_map(n), convention), (-1) ** n)]
    pairs.extend((wedge_at(iterated_integral_map(n - 1), u), (-1) ** u)
                 for u in range(n - 1))
    pairs.extend((cup_pair(iterated_integral_map(i),
                           iterated_integral_map(n - i), convention), (-1) ** i)
                 for i in range(1, n))
    return linear_combination(n, 1, pairs, f"negated_defect({n})")


class TestConventionB:
    """What convention B satisfies in place of A's relations: the
    homotopy bounds -K_n, and the morphism relation holds at odd n and,
    with boundary(I_n) negated, at even n."""

    @pytest.mark.parametrize("n, degree", [(2, 3), (3, 3), (4, 3), (5, 2),
                                           (6, 2)])
    def test_boundary_of_the_witness_is_minus_the_cumulant(self, n, degree):
        verdict = maps_equal_on_truncation(
            hom_boundary(homotopy_witness(n, CONVENTION_B), CONVENTION_B),
            cumulant_multimap(n).scale(-1), TruncationGrid(degree))
        assert verdict.equal

    def test_boundary_of_h5_is_not_the_cumulant(self):
        verdict = maps_equal_on_truncation(
            hom_boundary(homotopy_witness(5, CONVENTION_B), CONVENTION_B),
            cumulant_multimap(5), TruncationGrid(2))
        assert not verdict.equal

    @pytest.mark.parametrize("n, degree, holds", [
        (1, 2, True), (2, 2, False), (3, 2, True), (4, 2, False),
        (5, 2, True), (6, 2, False), (7, 1, True)])
    def test_morphism_relation_holds_at_odd_n(self, n, degree, holds):
        verdict, _ = ainfty_relation_defect(n, degree, CONVENTION_B)
        assert verdict.equal == holds

    @pytest.mark.parametrize("n", range(2, 7))
    def test_negated_boundary_relation_holds_at_even_n(self, n):
        holds = map_is_zero_on(negated_boundary_defect(n, CONVENTION_B),
                               TruncationGrid(2)).equal
        assert holds == (n % 2 == 0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_negated_boundary_relation_fails_under_a(self, n):
        assert not map_is_zero_on(negated_boundary_defect(n, CONVENTION_A),
                                  TruncationGrid(2)).equal


class TestConventionBTwist:
    """Where B's failures come from, on the D = 2 grid: B's boundary of I_k
    is A's times (-1)^(k-1), and every cup of the morphism relation has
    the same table under both, so B's whole twist is the sign of the d
    insertions into I_k at even k."""

    GRID = TruncationGrid(2)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_boundary_of_i_k_is_negated_at_even_k(self, k):
        with hom_complex.check_store():
            under_a = hom_boundary(iterated_integral_map(k), CONVENTION_A)
            assert maps_equal_on_truncation(
                hom_boundary(iterated_integral_map(k), CONVENTION_B),
                under_a.scale((-1) ** (k - 1)), self.GRID).equal

    @pytest.mark.parametrize("k", range(2, 8))
    def test_cups_of_the_relation_agree(self, k):
        with hom_complex.check_store():
            for i in range(1, k):
                left, right = iterated_integral_map(i), iterated_integral_map(k - i)
                assert maps_equal_on_truncation(
                    cup_pair(left, right, CONVENTION_A),
                    cup_pair(left, right, CONVENTION_B), self.GRID).equal, i


# (arity, plain degree) of f and of g, arity <= 3 in all, each degree one
# at which a leaf of that arity has nonzero values
_leaf_degrees = st.sampled_from([(1, 1), (1, 2), (2, 1)]).flatmap(
    lambda arities: st.tuples(*(st.tuples(st.just(a), st.integers(-a, 1))
                                for a in arities)))


class TestLeibniz:
    """The Leibniz rule of `cup_pair` off the interval, on random leaf
    maps (see `reference_maps.random_leaf_map`) on the D = 2 grid: under
    A, d(f u g) = df u g + (-1)^|f| f u dg, and under B, mirrored,
    d(f u g) = (-1)^|g| df u g + f u dg.  The examples are cases whose
    moving map has arity 1, where a cup that drops that map's Koszul sign
    breaks the rule."""

    @settings(max_examples=40, deadline=None)
    @given(degrees=_leaf_degrees, seeds=st.tuples(st.integers(0, 99),
                                                  st.integers(0, 99)),
           convention=st.sampled_from([CONVENTION_A, CONVENTION_B]))
    @example(degrees=((1, -1), (1, -1)), seeds=(1, 11), convention=CONVENTION_A)
    @example(degrees=((1, -1), (1, -1)), seeds=(1, 11), convention=CONVENTION_B)
    @example(degrees=((2, -1), (1, 0)), seeds=(1, 11), convention=CONVENTION_A)
    @example(degrees=((1, 0), (2, -1)), seeds=(1, 11), convention=CONVENTION_B)
    def test_cup_pair_is_a_derivation(self, degrees, seeds, convention):
        (a, df), (b, dg) = degrees
        f, g = random_leaf_map(a, df, seeds[0]), random_leaf_map(b, dg, seeds[1])
        lhs, rhs = leibniz_sides(f, g, convention)
        assert maps_equal_on_truncation(lhs, rhs, TruncationGrid(2)).equal


def _leaf_maps(arities):
    """Random leaf maps of the given arities, each at a degree where a
    leaf of its arity has nonzero values, and a convention."""
    return st.tuples(
        st.tuples(*(st.builds(random_leaf_map, st.just(a), st.integers(-a, 1),
                              st.integers(0, 99)) for a in arities)),
        st.sampled_from([CONVENTION_A, CONVENTION_B]))


class TestGenericLaws:
    """The Hom-complex laws off the interval, on random leaf maps of arity
    at most 3 (see `reference_maps.random_leaf_map`) on the D = 2 grid,
    under A and B: the boundary squares to zero, the cup is associative
    with coefficient +1, and precomposing with the wedge at any slot
    commutes with the boundary."""

    GRID = TruncationGrid(2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda a: _leaf_maps((a,))))
    def test_boundary_squares_to_zero(self, case):
        (f,), convention = case
        twice = hom_boundary(hom_boundary(f, convention), convention)
        assert map_is_zero_on(twice, self.GRID).equal

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
           .flatmap(_leaf_maps))
    def test_cup_is_associative(self, case):
        (f, g, h), convention = case
        left = cup_pair(cup_pair(f, g, convention), h, convention)
        right = cup_pair(f, cup_pair(g, h, convention), convention)
        assert maps_equal_on_truncation(left, right, self.GRID).equal

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda a: _leaf_maps((a,))))
    def test_precomposition_commutes_with_the_boundary(self, case):
        (f,), convention = case
        boundary = hom_boundary(f, convention)
        for u in range(f.arity):
            assert maps_equal_on_truncation(
                hom_boundary(wedge_at(f, u), convention),
                wedge_at(boundary, u), self.GRID).equal


def gauge_witnesses(s: MultiMap, n: int, convention=CONVENTION_A):
    """The chain map e' = I_1 + ds for a map s of degree -1 and arity 1,
    and its witnesses H_2' .. H_n': H_2' = I_2 + s(wedge@0) - cup(I_1, s)
    - cup(s, I_1) - cup(s, ds), and H_m' = H_{m-1}'(wedge@0)
    - cup(e', H_{m-1}')."""
    def cup(f, g):
        return cup_pair(f, g, convention)

    i1, ds = iterated_integral_map(1), hom_boundary(s, convention)
    e = i1 + ds
    witness = (iterated_integral_map(2) + wedge_at(s, 0) - cup(i1, s)
               - cup(s, i1) - cup(s, ds))
    witnesses = [witness]
    for _ in range(3, n + 1):
        witness = wedge_at(witness, 0) - cup(e, witness)
        witnesses.append(witness)
    return e, witnesses


class TestGauge:
    """The theorem for another chain map than integration: for a map s of
    degree -1, e' = I_1 + ds is a chain map, and under A the witnesses of
    `gauge_witnesses` bound its cumulants, dH_n' = K_n(e'), with K_n(e')
    tabulated from a context whose chain map calls e' on forms.  Under B
    the same H_2' fails."""

    GRID = TruncationGrid(2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_witnesses_bound_the_cumulants_under_a(self, seed):
        e, witnesses = gauge_witnesses(random_leaf_map(1, -1, seed), 4)
        assert map_is_zero_on(hom_boundary(e), self.GRID).equal
        ctx = CumulantContext(e)
        for n, witness in enumerate(witnesses, start=2):
            assert maps_equal_on_truncation(
                hom_boundary(witness), cumulant_multimap(n, ctx),
                self.GRID).equal, n

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_witness_fails_under_b(self, seed):
        e, (h2,) = gauge_witnesses(random_leaf_map(1, -1, seed), 2,
                                   CONVENTION_B)
        assert map_is_zero_on(hom_boundary(e, CONVENTION_B), self.GRID).equal
        assert not maps_equal_on_truncation(
            hom_boundary(h2, CONVENTION_B),
            cumulant_multimap(2, CumulantContext(e)), self.GRID).equal


class TestWitnesses:
    def test_h2_is_i2(self):
        verdict = maps_equal_on_truncation(
            homotopy_witness(2), iterated_integral_map(2), TruncationGrid(4))
        assert verdict.equal

    def test_boundaries_are_cumulants(self):
        for n in (2, 3):
            verdict = maps_equal_on_truncation(
                hom_boundary(homotopy_witness(n)), cumulant_multimap(n),
                TruncationGrid(3))
            assert verdict.equal

    def test_h3_value_matches_its_expansion(self):
        # H3(t, dt, dt) = I2(t dt, dt) - I(t) cup I2(dt, dt), exactly
        expected = (iterated_integral([wedge(T, DT), DT])
                    - cup(integrate(T), iterated_integral([DT, DT])))
        assert homotopy_witness(3)(T, DT, DT) == expected
        assert expected == Cochain(edge=Fraction(1, 6))

    def test_rejects_small_arity(self):
        with pytest.raises(ValueError):
            homotopy_witness(1)

    def test_names_stay_short(self):
        # H_n's name spells H_{n-1} by its label, not by its own name twice
        assert homotopy_witness(3).name == "(I2(wedge@0) - cup(I1,I2))"
        assert homotopy_witness(4).name == "(H3(wedge@0) - cup(I1,H3))"
        assert len(homotopy_witness(12).name) < 100

    def test_alternate_witnesses_bound_k3(self):
        for variant in ("left", "right"):
            verdict = maps_equal_on_truncation(
                hom_boundary(alternate_witness_k3(variant)),
                cumulant_multimap(3), TruncationGrid(3))
            assert verdict.equal

    def test_witness_difference_is_a_cycle(self):
        difference = alternate_witness_k3("left") - alternate_witness_k3("right")
        assert map_is_zero_on(hom_boundary(difference), TruncationGrid(3)).equal

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            alternate_witness_k3("middle")


class TestExactForms:
    def test_iterated_integral_of_exact_forms_is_a_cumulant(self):
        # for f1, f2 vanishing at 0: I2(df1, df2) = K2(f1, df2)
        ctx = integration_context()
        f_values = [PolyForm.monomial(k) for k in (1, 2, 3)]
        f_values.append(PolyForm((0, 1, Fraction(1, 2))))
        for f1 in f_values:
            for f2 in f_values:
                lhs = iterated_integral([d_form(f1), d_form(f2)])
                from homotopy_cumulants.cumulants import cumulant
                rhs = cumulant(ctx, [f1, d_form(f2)])
                assert lhs == rhs


class TestCheckStore:
    """A check store shares the I_n leaves of one check and drops them after."""

    def test_one_leaf_per_n_inside_an_entry(self):
        seen = []

        def body():
            seen.append(iterated_integral_map(2) is iterated_integral_map(2))
            seen.append(iterated_integral_map(2) is not iterated_integral_map(3))
            return True

        assert suites._entry("shared", {}, body).status
        assert seen == [True, True]
        assert iterated_integral_map(2) is not iterated_integral_map(2)

    def test_store_is_restored_on_exit(self):
        with hom_complex.check_store():
            outer = iterated_integral_map(1)
            with hom_complex.check_store():
                assert iterated_integral_map(1) is not outer
            assert iterated_integral_map(1) is outer

    def test_store_is_not_seen_by_another_thread(self):
        shared = []

        def in_thread():
            shared.append(iterated_integral_map(1) is iterated_integral_map(1))

        with hom_complex.check_store():
            thread = threading.Thread(target=in_thread)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive() and shared == [False]

    def test_leaf_is_dropped_when_the_entry_returns(self):
        refs = []

        def body():
            refs.append(weakref.ref(iterated_integral_map(2)))
            return True

        suites._entry("returns", {}, body)
        assert refs[0]() is None

    def test_leaf_is_dropped_when_the_body_raises(self):
        refs = []

        def body():
            refs.append(weakref.ref(iterated_integral_map(2)))
            raise RuntimeError("body failed")

        entry = suites._entry("raises", {}, body)
        assert (entry.status, entry.witness) == (False,
                                                 "RuntimeError: body failed")
        assert refs[0]() is None
        assert iterated_integral_map(2) is not iterated_integral_map(2)

    def test_g4_cells_build_each_leaf_table_once(self, monkeypatch):
        """The work over every cell check of g4 on the exponent-2 grid, run
        as one entry: the check's store keeps 15 I_k tables, one per
        distinct (k, domain), built from 397 Chen products; the FFF cell is
        the leaf I_4, so the widened domains its boundary reads are leaf
        tables too.  With no store open, each block has a leaf of its own
        and the same check takes 1,779 products and keeps no table."""
        products = _count_chen_products(monkeypatch)
        tables = []

        def check():
            passed = suites._first_failing_cell(4, 2, CONVENTION_A)
            tables.append(leaf_tables())
            return passed

        assert suites._entry("cells of g4", {}, check).status
        assert products == [397]
        assert len(tables[0]) == 15
        assert {n for n, _ in tables[0]} == {1, 2, 3, 4}
        products[0] = 0
        assert check() is True
        assert products == [1779] and tables[1] == {}

    def test_leaf_tables_die_with_the_check(self, monkeypatch):
        """Two runs of the g4-cells check at D = 2, each a suite entry,
        take 397 Chen products each: no leaf table outlives its check, so
        no check reads a table built before a mutant of Chen's formula was
        put in place."""
        products = _count_chen_products(monkeypatch)
        for _ in range(2):
            products[0] = 0
            assert suites._entry("cells of g4", {}, lambda: (
                suites._first_failing_cell(4, 2, CONVENTION_A))).status
            assert products == [397]


def _count_chen_products(monkeypatch) -> list:
    """[the Chen products `hom_complex` computes from now on]."""
    chen, products = hom_complex.iterated_integral_codes, [0]

    def counted_chen(xs):
        products[0] += 1
        return chen(xs)

    monkeypatch.setattr(hom_complex, "iterated_integral_codes", counted_chen)
    return products


def _children(f: MultiMap):
    """The maps a rule reads: its MultiMap arguments, and the leaves of a
    sum's (leaf, coefficient) terms."""
    for arg in f.rule.args:
        if isinstance(arg, MultiMap):
            yield arg
        elif isinstance(arg, tuple):
            yield from (leaf for leaf, _ in arg)


@pytest.mark.parametrize("convention", [CONVENTION_A, CONVENTION_B])
def test_the_map_dag_is_data(convention):
    """Every map reached from the identities of n = 4 has a rule that is a
    module-level table function bound to its children and parameters, and
    the walk ends at the check's own I_k leaves and K_4."""
    with hom_complex.check_store():
        witness = homotopy_witness(4, convention)
        k4 = cumulant_multimap(4)
        tops = [witness, hom_boundary(witness, convention),
                ainfty_relation_defect(4, 1, convention)[1], k4,
                interpret_sum(formal_boundary(p_tree(4), convention), convention)]
        tops += [cell_to_map(cell, convention) for cell in cells_of(4)]
        seen, leaves, stack = set(), set(), list(tops)
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            rule = f.rule
            assert type(rule) is partial, f
            module = vars(sys.modules[rule.func.__module__])
            assert module[rule.func.__name__] is rule.func, f
            assert rule.func.__closure__ is None, f
            children = list(_children(f))
            # the library's walk, which counts a build's edges, reads the
            # same children, once per edge
            assert hom_complex._children(f) == children, f
            if children:
                stack += children
            else:
                leaves.add(f)
        expected = {iterated_integral_map(k) for k in range(1, 5)} | {k4}
    assert leaves == expected
