"""Hom-complex boundary calculus and the morphism relation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopy_cumulants import hom_complex
from homotopy_cumulants.cube_complex import cell_to_map, cells_of
from homotopy_cumulants.cumulants import integration_context
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    CONVENTION_B,
    MultiMap,
    TruncationGrid,
    ainfty_relation_defect,
    cumulant_multimap,
    cup_pair,
    get_convention,
    hom_boundary,
    homotopy_witness,
    alternate_witness_k3,
    iterated_integral_map,
    linear_combination,
    map_is_zero_on,
    maps_equal_on_truncation,
    merged_integral,
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

    def test_memoization_returns_same_object(self):
        i2 = iterated_integral_map(2)
        assert i2(DT, DT) is i2(DT, DT)

    def test_multilinearity_probe(self):
        rng = random.Random(7)
        assert random_multilinearity_probe(iterated_integral_map(2), rng)
        assert random_multilinearity_probe(homotopy_witness(3), rng, trials=4)


def _arity3_leaves() -> list[MultiMap]:
    """Leaf maps of arity 3: I_3, both wedges, both cups, H_3, g3's cells."""
    i1, i2 = iterated_integral_map(1), iterated_integral_map(2)
    return ([iterated_integral_map(3), wedge_at(i2, 0), wedge_at(i2, 1),
             cup_pair(i1, i2), cup_pair(i2, i1), homotopy_witness(3)]
            + [cell_to_map(3, cell) for cell in cells_of(3)])


def _nested(evaluator) -> MultiMap:
    """One node of a nested sum tree over arity-3 maps.

    It has no table rule, so code inputs are decoded and the reference runs
    the PolyForm path of every leaf.
    """
    return MultiMap(3, 0, evaluator, "nested")


_coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), 0])
_expressions = st.recursive(
    st.integers(0, 14),
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
        f, g = iterated_integral_map(3), wedge_at(iterated_integral_map(2), 0)
        h = g.scale(3)
        combined = ((f + g) - h).scale(2) + zero_map(3, 0)
        assert combined.terms == ((f, 2), (g, -4))
        assert all(leaf.terms is None for leaf, _ in combined.terms)
        assert combined.name == f"((2)*(({f.name} + {g.name}) - (3)*{g.name}) + 0/3)"
        for xs in ((DT, DT, DT), (T, DT, DT)):
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

    def test_terms_survive_renaming(self):
        f, g = iterated_integral_map(2), wedge_at(iterated_integral_map(1), 0)
        renamed = (f - g).renamed("named", 5)
        assert (renamed.terms, renamed.shifted_degree) == (((f, 1), (g, -1)), 5)
        assert (renamed + g).terms == ((f, 1),)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_combination(2, 0, [(iterated_integral_map(3), 1)], "bad")

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

    def test_h4_evaluates_its_shared_h3_once_per_tuple(self, monkeypatch):
        # once per PolyForm tuple, and on codes once per domain
        built = []

        def counting(arity, shifted_degree, pairs, name):
            combination = linear_combination(arity, shifted_degree, pairs, name)
            inner, calls = combination._evaluator, []
            rule, domains = combination.table_rule, []

            def evaluator(*xs):
                calls.append(xs)
                return inner(*xs)

            def table_rule(domain):
                domains.append(domain)
                return rule(domain)

            combination._evaluator = evaluator
            combination.table_rule = table_rule
            built.append((combination, calls, domains))
            return combination

        monkeypatch.setattr(hom_complex, "linear_combination", counting)
        h4 = homotopy_witness(4)
        h3, h3_calls, h3_domains = built[0]
        assert h3.name == "(I2(wedge@0) - cup(I1,I2))"
        codes = TruncationGrid(2).slot_codes()
        h4.table([codes] * 4)
        assert len(h3_domains) == 2  # the merged-code domain and the grid
        for xs in itertools.product(codes, repeat=4):
            h4(*xs)
        forms = (T, DT, PolyForm((1,), (0, 1)), PolyForm.monomial(2, dt=True))
        for xs in itertools.product(forms, repeat=4):
            h4(*xs)
        assert len(h3_calls) > 100
        assert len(set(h3_calls)) == len(h3_calls) == len(h3._memo)
        assert len(h3_domains) > 100
        assert len(set(h3_domains)) == len(h3_domains) == len(h3._tables)


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
                twice = hom_boundary(hom_boundary(cell_to_map(n, cell)))
                assert map_is_zero_on(twice, TruncationGrid(1)).equal

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(n, cell) for n in (3, 4) for cell in cells_of(n)]),
           st.lists(_forms, min_size=4, max_size=4))
    def test_boundary_squares_to_zero_on_cell_maps(self, cell, forms):
        n, cell = cell
        twice = hom_boundary(hom_boundary(cell_to_map(n, cell)))
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

    def test_convention_lookup(self):
        assert get_convention("A") is CONVENTION_A
        assert get_convention("B") is CONVENTION_B
        with pytest.raises(ValueError):
            get_convention("C")


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
