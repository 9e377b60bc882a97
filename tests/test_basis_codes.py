"""Basis-code evaluation against the PolyForm path, which is the oracle.

Grid sweeps evaluate maps on integer codes (2k + dt for t^k and t^k dt).
Each check here builds two fresh instances of a map, evaluates one on
codes and the other on the decoded PolyForms, and requires equal values
on every basis tuple, under both sign conventions.
"""

import itertools

import pytest

from homotopy_cumulants.cube_complex import cell_to_map, cells_of
from homotopy_cumulants.formal_ainfty import formal_boundary, interpret_sum, p_tree
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    CONVENTION_B,
    MultiMap,
    TruncationGrid,
    ainfty_relation_defect,
    cup_pair,
    d_insertion_sum,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    maps_equal_on_truncation,
    wedge_at,
)
from homotopy_cumulants.interval_model import (
    Cochain,
    PolyForm,
    d_code,
    d_form,
    decode_basis,
    encode_basis,
    integrate,
    iterated_integral,
    iterated_integral_codes,
    wedge,
    wedge_codes,
)

CONVENTIONS = (CONVENTION_A, CONVENTION_B)


def grid_for(arity: int) -> int:
    return 1 if arity >= 4 else 2


def assert_paths_agree(build):
    """build() gives a fresh map; its code and PolyForm values must agree."""
    on_codes, on_forms = build(), build()
    codes = TruncationGrid(grid_for(on_codes.arity)).slot_codes()
    for xs in itertools.product(codes, repeat=on_codes.arity):
        forms = tuple(map(decode_basis, xs))
        assert on_codes(*xs) == on_forms(*forms), (on_codes.name, forms)


class TestCodes:
    def test_round_trip_and_grid_order(self):
        grid = TruncationGrid(3)
        assert tuple(map(decode_basis, grid.slot_codes())) == grid.slot_basis()
        for code in range(20):
            assert encode_basis(decode_basis(code)) == code
        for form in (PolyForm.zero(), PolyForm.monomial(2, coefficient=3),
                     PolyForm((1, 1)), PolyForm((1,), (1,))):
            with pytest.raises(ValueError):
                encode_basis(form)

    def test_wedge_and_d(self):
        for a, b in itertools.product(range(12), repeat=2):
            product = wedge(decode_basis(a), decode_basis(b))
            code = wedge_codes(a, b)
            assert (product.is_zero() if code is None
                    else product == decode_basis(code))
        for a in range(12):
            derivative = d_form(decode_basis(a))
            if d_code(a) is None:
                assert derivative.is_zero()
            else:
                k, code = d_code(a)
                assert derivative == decode_basis(code).scale(k)

    def test_chen_closed_form(self):
        # exponents up to 2D, as wedge_at produces them
        for n in (1, 2, 3):
            for xs in itertools.product(range(10), repeat=n):
                forms = [decode_basis(x) for x in xs]
                assert iterated_integral_codes(xs) == iterated_integral(forms)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.name)
class TestOracle:
    def test_iterated_integrals_and_wedges(self, convention):
        for n in (1, 2, 3, 4):
            assert_paths_agree(lambda: iterated_integral_map(n))
        for n, slot in ((2, 0), (3, 0), (3, 1), (3, 2)):
            assert_paths_agree(lambda: wedge_at(iterated_integral_map(n), slot))

    def test_insertions_boundaries_and_cups(self, convention):
        for n in (1, 2, 3):
            assert_paths_agree(
                lambda: d_insertion_sum(iterated_integral_map(n), convention))
            assert_paths_agree(
                lambda: hom_boundary(iterated_integral_map(n), convention))
        assert_paths_agree(lambda: hom_boundary(
            hom_boundary(iterated_integral_map(3), convention), convention))
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
            assert_paths_agree(lambda: cup_pair(
                iterated_integral_map(i), iterated_integral_map(j), convention))

    def test_cup_sign_of_an_odd_map(self, convention):
        # On the maps above the Koszul sign of cup_pair multiplies only zero
        # values.  This linear map of odd degree has vertex values, so the
        # sign shows, on either side.
        def odd():
            return MultiMap(1, 1, lambda x: Cochain(*[integrate(x).edge] * 3),
                            name="odd")

        def i1():
            return iterated_integral_map(1)

        def i2():
            return iterated_integral_map(2)

        for left, right in ((i1, odd), (odd, i1), (i2, odd), (odd, i2)):
            assert_paths_agree(lambda: cup_pair(left(), right(), convention))

    def test_witnesses_and_morphism_defects(self, convention):
        for n in (2, 3, 4):
            assert_paths_agree(lambda: homotopy_witness(n, convention))
            assert_paths_agree(
                lambda: hom_boundary(homotopy_witness(n, convention), convention))
        for n in (1, 2, 3, 4):
            assert_paths_agree(
                lambda: ainfty_relation_defect(n, 0, convention)[1])

    def test_cell_maps(self, convention):
        for n in (2, 3, 4):
            for cell in cells_of(n):
                assert_paths_agree(lambda: cell_to_map(n, cell, convention))
                if n < 4 and cell.dimension:
                    assert_paths_agree(lambda: hom_boundary(
                        cell_to_map(n, cell, convention), convention))

    def test_interpreted_formal_boundary(self, convention):
        for n in (2, 3):
            assert_paths_agree(lambda: interpret_sum(
                formal_boundary(p_tree(n), convention), convention))


def test_maps_without_a_code_rule_see_polyforms():
    seen = set()

    def evaluator(a, b):
        seen.add((type(a), type(b)))
        return iterated_integral([a, b])

    plain = MultiMap(2, 0, evaluator, name="plain I2")
    verdict = maps_equal_on_truncation(
        plain, iterated_integral_map(2), TruncationGrid(2))
    assert verdict.equal
    assert seen == {(PolyForm, PolyForm)}
