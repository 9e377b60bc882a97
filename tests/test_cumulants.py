"""Boolean cumulants: compositions, signs, direct and recursive formulas."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from homotopy_cumulants.cumulants import (
    Composition,
    CumulantContext,
    composition_sign,
    compositions,
    cumulant,
    cumulant_recursive,
    cumulant_recursive_table,
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
from homotopy_cumulants.hom_complex import TruncationGrid, iterated_integral_map

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

    def test_repeated_sweep_agrees(self):
        # a sweep over 4-tuples on one context, repeated, agrees with
        # itself and with the direct formula
        swept = integration_context()
        grid = list(itertools.product(TruncationGrid(2).slot_codes(), repeat=4))
        values = [cumulant_recursive(swept, tup) for tup in grid]
        for tup, value in zip(grid, values):
            assert cumulant_recursive(swept, tup) == value
            assert value == cumulant(swept, tup)


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


def signed_sum(terms) -> Cochain:
    total = Cochain.zero()
    for term in terms:
        total = total + term.value.scale(term.sign)
    return total


@pytest.mark.parametrize("target", [cup, reversed_cup])
@pytest.mark.parametrize("n", range(1, 7))
def test_factored_cumulant_is_the_signed_sum_of_its_terms(n, target):
    """The cumulant grouped by its first block against the composition by
    composition trace, on seeded PolyForms and on codes in which dt meets
    dt (a zero product) at a seeded position."""
    ctx = CumulantContext(integrate, target_product=target)
    rng = random.Random(n)

    def polynomial():
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                for _ in range(rng.randint(0, 3))]

    tuples = [[PolyForm(polynomial(), polynomial()) for _ in range(n)]
              for _ in range(6)]
    for _ in range(6):
        codes = [rng.randrange(8) for _ in range(n)]
        if n > 1:
            u = rng.randrange(n - 1)
            codes[u:u + 2] = 2 * rng.randrange(4) + 1, 2 * rng.randrange(4) + 1
        tuples.append(codes)
    values = [cumulant(ctx, xs) for xs in tuples]
    assert values == [signed_sum(cumulant_terms(ctx, xs)) for xs in tuples]
    assert any(not value.is_zero() for value in values)


def multimap_table(ctx, domain):
    """`MultiMap.table` of I_n, n the number of slots, which must refuse
    the codes the cumulant tables refuse."""
    domain = list(domain)
    return iterated_integral_map(len(domain)).table(domain)


class TestTableDomains:
    """Both tables take the same domains, and they and `MultiMap.table`
    refuse the same bad codes."""

    @pytest.mark.parametrize("tabulate", [cumulant_table,
                                          cumulant_recursive_table])
    def test_domains_as_any_iterable(self, tabulate):
        codes = TruncationGrid(2).slot_codes()
        expected = tabulate(integration_context(), [codes] * 3)
        assert expected
        assert tabulate(integration_context(),
                        (iter(codes) for _ in range(3))) == expected
        # a code listed twice in a slot is one code, not two runs
        assert tabulate(integration_context(),
                        [codes + codes[::-1]] * 3) == expected
        with pytest.raises(ValueError, match="at least one input"):
            tabulate(integration_context(), iter(()))

    @pytest.mark.parametrize("tabulate", [cumulant_table,
                                          cumulant_recursive_table,
                                          multimap_table])
    @pytest.mark.parametrize("domain, error, message", [
        ([[True]], TypeError, "slot 0: expected a basis code, got bool"),
        ([[0, 2], [1, False]], TypeError,
         "slot 1: expected a basis code, got bool"),
        ([[0], [2], [T]], TypeError, "slot 2: expected a basis code, got PolyForm"),
        ([[0], [1.0]], TypeError, "slot 1: expected a basis code, got float"),
        ([[0], [None]], TypeError, "slot 1: expected a basis code, got NoneType"),
        ([[0], [[1]]], TypeError, "slot 1: expected a basis code, got list"),
        ([[0, -2]], ValueError, "slot 0: basis code -2 is negative"),
        ([[0], [], [-1]], ValueError, "slot 2: basis code -1 is negative"),
    ], ids=["bool", "bool in slot 1", "PolyForm", "float", "None", "list",
            "negative", "negative after an empty slot"])
    def test_bad_codes_refused(self, tabulate, domain, error, message):
        with pytest.raises(error, match=message):
            tabulate(integration_context(), domain)


@pytest.mark.parametrize("tabulate", [cumulant_table, cumulant_recursive_table])
def test_tables_leave_no_cyclic_garbage(tabulate):
    # their working memory goes when they return, not at the next cyclic
    # collection, which comes later the fewer objects a run allocates
    ctx = integration_context()
    codes = TruncationGrid(2).slot_codes()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert tabulate(ctx, [codes] * 4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_direct_table_works_once_per_run_product(monkeypatch):
    """The direct table's cost model at n = 5 on the exponent-3 grid.

    Runs are grouped by their product: each group is mapped once and grown
    once per next code, each nonzero image is multiplied by each distinct
    value of a tail table once per span, and each pair of distinct values
    is added once.  Working once per run and tail entry instead makes
    9,704 `apply`, 15,744 `multiply`, 32,992 target products and 7,392
    additions; once per tail entry but per distinct image, 5,628 target
    products.
    """
    calls = dict.fromkeys(("apply", "multiply", "target_product", "add"), 0)
    apply, multiply = CumulantContext.apply, CumulantContext.multiply
    add = Cochain.__add__

    def counted_apply(self, form):
        calls["apply"] += 1
        return apply(self, form)

    def counted_multiply(self, a, b):
        calls["multiply"] += 1
        return multiply(self, a, b)

    def counted_cup(a, b):
        calls["target_product"] += 1
        return cup(a, b)

    def counted_add(a, b):
        calls["add"] += 1
        return add(a, b)

    monkeypatch.setattr(CumulantContext, "apply", counted_apply)
    monkeypatch.setattr(CumulantContext, "multiply", counted_multiply)
    monkeypatch.setattr(Cochain, "__add__", counted_add)
    codes = TruncationGrid(3).slot_codes()
    table = cumulant_table(CumulantContext(integrate, target_product=counted_cup),
                           (codes,) * 5)
    assert len(table) == 3264
    assert calls == {"apply": 880, "multiply": 3712, "target_product": 774,
                     "add": 84}


@pytest.mark.parametrize("n, exponent, products, entries",
                         [(5, 3, 1344, 3264), (6, 4, 5095, 65000)])
def test_recursive_table_splits_once_per_image(monkeypatch, n, exponent,
                                               products, entries):
    """The recursive table's cost model: its split term multiplies each
    distinct image of slot 0 (the codes t^1..t^k all integrate to
    (0, 1; 0)) by each distinct value of the K_{n-1} table once, and adds
    each pair of distinct values once.  Once per entry of that table
    instead it makes 6,996 target products at n = 5 and 121,470 at n = 6,
    and once per code and entry 9,832 and 180,340; adding key by key makes
    1,296 and 16,275 additions."""
    calls = {"target_product": 0, "add": 0}
    add = Cochain.__add__

    def counted_cup(a, b):
        calls["target_product"] += 1
        return cup(a, b)

    def counted_add(a, b):
        calls["add"] += 1
        return add(a, b)

    monkeypatch.setattr(Cochain, "__add__", counted_add)
    codes = TruncationGrid(exponent).slot_codes()
    table = cumulant_recursive_table(
        CumulantContext(integrate, target_product=counted_cup), (codes,) * n)
    assert len(table) == entries
    assert calls == {"target_product": products, "add": {5: 82, 6: 170}[n]}


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
