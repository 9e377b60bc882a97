"""Hom-complex boundary calculus and the morphism relation."""

import random
from fractions import Fraction

import pytest

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

    def test_boundary_of_i2_at_t_dt(self):
        boundary = hom_boundary(iterated_integral_map(2))
        assert boundary(T, DT) == Cochain(edge=Fraction(1, 2))

    def test_boundary_squares_to_zero(self):
        for n in (1, 2, 3):
            twice = hom_boundary(hom_boundary(iterated_integral_map(n)))
            assert map_is_zero_on(twice, TruncationGrid(4)).equal
        twice = hom_boundary(hom_boundary(iterated_integral_map(4)))
        assert map_is_zero_on(twice, TruncationGrid(3)).equal

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
