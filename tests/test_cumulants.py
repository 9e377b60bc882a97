"""Boolean cumulants: compositions, signs, direct and recursive formulas."""

import itertools
from fractions import Fraction

import pytest

from homotopy_cumulants.cumulants import (
    Composition,
    CumulantContext,
    composition_sign,
    compositions,
    cumulant,
    cumulant_recursive,
    cumulant_table,
    cumulant_terms,
    endpoint_evaluation_context,
    integration_context,
    symbolic_formula,
    term_notation,
)
from homotopy_cumulants.interval_model import (
    Cochain,
    PolyForm,
    cup,
    decode_basis,
    encode_basis,
    integrate,
    wedge,
)
from homotopy_cumulants.hom_complex import TruncationGrid

T = PolyForm.monomial(1)
DT = PolyForm.monomial(0, dt=True)
ONE = PolyForm.monomial(0)


@pytest.fixture(scope="module")
def ctx():
    return integration_context()


class TestCompositions:
    def test_base_case(self):
        assert compositions(1) == [Composition((1,))]

    def test_documented_order_for_three(self):
        assert [c.blocks for c in compositions(3)] == [
            (3,), (1, 2), (2, 1), (1, 1, 1)]

    def test_counts(self):
        for n in range(1, 9):
            assert len(compositions(n)) == 2 ** (n - 1)
        assert len(compositions(5)) == 16

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            compositions(0)

    def test_blocks_validated(self):
        with pytest.raises(ValueError):
            Composition((2, 0))

    def test_cut_sets_round_trip(self):
        for comp in compositions(6):
            assert Composition.from_cut_set(6, comp.cut_set()) == comp

    def test_signs(self):
        assert composition_sign(Composition((3,))) == 1
        assert composition_sign(Composition((1, 2))) == -1
        assert composition_sign(Composition((1, 1, 1))) == 1


class TestCumulantExamples:
    def test_k2_of_t_and_dt(self, ctx):
        # I(t dt) - I(t) cup I(dt), both sides by the interval operations
        direct = integrate(wedge(T, DT)) - cup(integrate(T), integrate(DT))
        assert direct == Cochain(edge=Fraction(1, 2))
        assert cumulant(ctx, [T, DT]) == direct

    def test_k1_is_the_chain_map(self, ctx):
        c = PolyForm.from_scalar(Fraction(5, 2))
        assert cumulant(ctx, [c]) == Cochain(Fraction(5, 2), Fraction(5, 2))

    def test_k2_of_t_twice_vanishes(self, ctx):
        assert cumulant(ctx, [T, T]).is_zero()

    def test_k2_identity_on_grid(self, ctx):
        basis = [PolyForm.monomial(k, dt=dt)
                 for dt in (False, True) for k in range(4)]
        for a, b in itertools.product(basis, repeat=2):
            expected = integrate(wedge(a, b)) - cup(integrate(a), integrate(b))
            assert cumulant(ctx, [a, b]) == expected

    def test_term_count_is_two_to_n_minus_one(self, ctx):
        for n in range(1, 6):
            assert len(cumulant_terms(ctx, [DT] * n)) == 2 ** (n - 1)

    def test_empty_inputs_rejected(self, ctx):
        with pytest.raises(ValueError):
            cumulant(ctx, [])
        with pytest.raises(ValueError):
            cumulant_recursive(ctx, [])
        with pytest.raises(ValueError):
            cumulant_table(ctx, [])


class TestRecursiveAgreement:
    def test_base_case_is_the_chain_map(self, ctx):
        a = PolyForm((1, 2), (3,))
        assert cumulant_recursive(ctx, [a]) == integrate(a)

    def test_examples(self, ctx):
        assert cumulant_recursive(ctx, [T, DT]) == Cochain(edge=Fraction(1, 2))
        assert cumulant_recursive(ctx, [DT, DT, DT]) == cumulant(ctx, [DT] * 3)

    def test_agreement_small_grid(self, ctx):
        basis = [PolyForm.monomial(k, dt=dt)
                 for dt in (False, True) for k in range(3)]
        for n in (1, 2, 3):
            for tup in itertools.product(basis, repeat=n):
                assert cumulant(ctx, tup) == cumulant_recursive(ctx, tup)

    def test_memo_keeps_no_outermost_tuple(self):
        # a sweep over 4-tuples stores none of them; repeating it agrees
        # with itself and with the direct formula and stores nothing more
        swept = integration_context()
        grid = list(itertools.product(TruncationGrid(2).slot_codes(), repeat=4))
        values = [cumulant_recursive(swept, tup) for tup in grid]
        memo = swept._recursive_cache
        assert max(map(len, memo)) == 3
        size = len(memo)
        for tup, value in zip(grid, values):
            assert cumulant_recursive(swept, tup) == value
            assert value == cumulant(swept, tup)
        assert len(memo) == size


class TestAlgebraMorphismDouble:
    def test_cumulants_vanish_on_zero_forms(self):
        double = endpoint_evaluation_context()
        zero_forms = [PolyForm.monomial(k) for k in range(4)]
        for n in (2, 3, 4):
            for tup in itertools.product(zero_forms, repeat=n):
                assert cumulant(double, tup).is_zero()

    def test_double_is_multiplicative_on_zero_forms(self):
        double = endpoint_evaluation_context()
        a, b = PolyForm((1, 2)), PolyForm((0, 0, 3))
        assert double.chain_map(wedge(a, b)) == cup(
            double.chain_map(a), double.chain_map(b))


class TestContext:
    def test_integration_context_chain_check(self, ctx):
        assert ctx.verify_chain_map(8)

    def test_broken_map_fails_chain_check(self):
        broken = CumulantContext(lambda a: Cochain(a.part0(0), 0, 0))
        assert not broken.verify_chain_map(2)

    def test_endpoint_double_is_not_a_chain_map(self):
        assert not endpoint_evaluation_context().verify_chain_map(2)


def reversed_cup(a: Cochain, b: Cochain) -> Cochain:
    """A target product that is not the cup product (test double)."""
    return cup(b, a)


GRID_CODES = [encode_basis(PolyForm.monomial(k, dt=dt))
              for dt in (False, True) for k in range(3)]


def reference_terms(ctx, codes):
    """Each composition's signed product of block images, on PolyForms.

    Blocks are multiplied with the context's source product, mapped by its
    chain map and the images multiplied with its own target product, with
    no caching and no shortcut for zero.
    """
    forms = [decode_basis(code) for code in codes]
    terms = []
    for comp in compositions(len(forms)):
        pos, acc = 0, None
        for size in comp:
            block = forms[pos]
            for x in forms[pos + 1:pos + size]:
                block = ctx.source_product(block, x)
            image = ctx.chain_map(block)
            acc = image if acc is None else ctx.target_product(acc, image)
            pos += size
        terms.append((comp, composition_sign(comp), acc))
    return terms


class TestProductMemo:
    """Products of block images on codes against an unmemoized reference."""

    @pytest.mark.parametrize("target", [cup, reversed_cup])
    def test_cumulants_on_codes_match_the_reference(self, target):
        ctx = CumulantContext(integrate, target_product=target)
        for n in range(1, 5):
            table = cumulant_table(ctx, [GRID_CODES] * n)
            assert not any(value.is_zero() for value in table.values())
            nonzero = 0
            for codes in itertools.product(GRID_CODES, repeat=n):
                expected = reference_terms(ctx, codes)
                terms = cumulant_terms(ctx, codes)
                assert [(t.composition, t.sign, t.value) for t in terms] == expected
                total = Cochain.zero()
                for _, sign, value in expected:
                    total = total + value.scale(sign)
                assert cumulant(ctx, codes) == total
                assert table.get(codes, Cochain.zero()) == total
                nonzero += not total.is_zero()
            assert len(table) == nonzero


class TestNotation:
    def test_term_notation(self):
        assert term_notation(Composition((1, 2))) == "p(a)p(bc)"
        assert term_notation(Composition((3,))) == "p(abc)"

    def test_symbolic_formula_for_three(self):
        assert symbolic_formula(3) == (
            "K3(a,b,c) = p(abc) - p(a)p(bc) - p(ab)p(c) + p(a)p(b)p(c)")

    def test_trace_signs_follow_composition_order(self, ctx):
        terms = cumulant_terms(ctx, [T, DT])
        assert [(t.composition.blocks, t.sign) for t in terms] == [
            ((2,), 1), ((1, 1), -1)]
