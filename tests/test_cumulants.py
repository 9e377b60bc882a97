"""Boolean cumulants: compositions, signs, direct and recursive formulas."""

import gc
import itertools
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homotopy_cumulants.cumulants import (
    Composition,
    CumulantContext,
    composition_sign,
    compositions,
    cumulant,
    cumulant_levels,
    cumulant_recursive,
    cumulant_recursive_levels,
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
from homotopy_cumulants.hom_complex import (
    TruncationGrid,
    cumulant_multimap,
    iterated_integral_map,
)
from homotopy_cumulants.suites import run_cumulants_suite, run_suite

T = PolyForm.monomial(1)
DT = PolyForm.monomial(0, dt=True)
ONE = PolyForm.monomial(0)


def cumulant_recursive_table(ctx, domain):
    """K_n's table on a per-slot product by the recursion: the last level
    of `cumulant_recursive_levels`, each earlier one dropped as it is
    read, as `cumulant_table` reads the last level of the direct build."""
    domain = list(domain)
    levels = cumulant_recursive_levels(ctx, domain)
    return next(itertools.islice(levels, len(domain) - 1, None))[1]


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
                assert [(t.composition, composition_sign(t.composition),
                         t.value) for t in terms] == expected
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
        total = total + term.value.scale(composition_sign(term.composition))
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
    """Both tables take the same domains, and they, their level builds and
    `MultiMap.table` refuse the same bad codes; a level build refuses them
    when it is called, before it builds any level."""

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
                                          cumulant_levels,
                                          cumulant_recursive_levels,
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


# (n, exponent, target products, entries) of the recursive table's cost model
RECURSIVE_TABLE_COSTS = [(5, 3, 1344, 3264), (6, 4, 5095, 65000)]


@pytest.mark.parametrize("n, exponent, products, entries", RECURSIVE_TABLE_COSTS)
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([integration_context, endpoint_evaluation_context]),
       st.integers(1, 4).flatmap(lambda n: st.lists(
           st.frozensets(st.integers(0, 7), max_size=4),
           min_size=n, max_size=n, unique=True)))
def test_levels_are_the_cumulants_of_the_domain_tails(build, domain):
    """Level m of either build is K_m on the last m slots: on every tuple
    it is the per-tuple `cumulant` and `cumulant_recursive` of the decoded
    forms, and it stores exactly their nonzero values.  The slots differ,
    so a level built on other slots shows."""
    domain = [sorted(slot) for slot in domain]
    n = len(domain)
    oracle = build()
    for levels in (cumulant_levels(build(), domain),
                   cumulant_recursive_levels(build(), domain)):
        arities = []
        for arity, table in levels:
            arities.append(arity)
            nonzero = 0
            for xs in itertools.product(*domain[n - arity:]):
                forms = tuple(map(decode_basis, xs))
                expected = cumulant(oracle, forms)
                assert cumulant_recursive(oracle, forms) == expected, forms
                assert table.get(xs, Cochain.zero()) == expected, (arity, xs)
                nonzero += not expected.is_zero()
            assert len(table) == nonzero
        assert arities == list(range(1, n + 1))


def test_suite_builds_each_level_once(monkeypatch):
    """`run_suite("cumulants", 5, 3)`, one exponent run, makes one direct
    and one recursive build on (codes,)^5, so the integration context
    multiplies as often as the two tables on that domain do: 3,712 and
    1,120 times.  Building both tables afresh for each n made 7,920."""
    calls = 0
    multiply = CumulantContext.multiply

    def counted_multiply(self, a, b):
        nonlocal calls
        calls += self.chain_map is integrate
        return multiply(self, a, b)

    monkeypatch.setattr(CumulantContext, "multiply", counted_multiply)
    run_suite("cumulants", 5, 3)
    in_suite, calls = calls, 0
    ctx, domain = integration_context(), (TruncationGrid(3).slot_codes(),) * 5
    cumulant_table(ctx, domain)
    direct = calls
    cumulant_recursive_table(ctx, domain)
    assert (direct, calls - direct) == (3712, 1120)
    assert in_suite == calls


def traced_peak(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suite_peak_is_one_table_held_while_the_other_builds():
    """The suite's traced peak at n = 6, exponent 3, is that of one direct
    K_6 table held while the recursive K_6 table is built, as when each
    entry built its own tables: the direct build's working memory is gone
    before the recursive build makes its largest level.  Left open, it
    raises the peak by 13%."""
    codes = TruncationGrid(3).slot_codes()

    def held_while_built():
        ctx = integration_context()
        direct = cumulant_table(ctx, (codes,) * 6)
        assert cumulant_recursive_table(ctx, (codes,) * 6) == direct

    def suite():
        assert all(entry.status for entry in run_cumulants_suite(6, 3))

    # the module caches fill outside the count
    suite()
    held_while_built()
    assert traced_peak(suite) <= 1.03 * traced_peak(held_while_built)


def seeded_form(rng) -> PolyForm:
    """A dense form with rational coefficients of degree at most 3 in
    each part, as the benchmark's dense-forms workload draws them."""
    def polynomial():
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                for _ in range(rng.randint(1, 4))]

    return PolyForm(polynomial(), polynomial())


PER_TUPLE = {
    "cumulant": cumulant,
    "cumulant_terms": lambda ctx, xs: [
        (t.composition, composition_sign(t.composition), t.value)
        for t in cumulant_terms(ctx, xs)],
    "cumulant_recursive": cumulant_recursive,
}

_coefficients = st.lists(st.fractions(-3, 3, max_denominator=4), max_size=3)
_mixed_inputs = st.lists(
    st.one_of(st.integers(0, 7), st.builds(PolyForm, _coefficients,
                                           _coefficients)),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([integration_context, endpoint_evaluation_context]),
       _mixed_inputs)
@example(integration_context, [2, T])
@example(integration_context, [3, T, 2])
def test_mixed_codes_and_forms(build, inputs):
    """A tuple of codes and PolyForms, in any order, has the values of its
    decoded all-PolyForm tuple, by all three per-tuple functions."""
    forms = [decode_basis(x) if type(x) is int else x for x in inputs]
    ctx, on_forms = build(), build()
    for name, evaluate in PER_TUPLE.items():
        assert evaluate(ctx, inputs) == evaluate(on_forms, forms), name


def map_call(ctx, xs):
    """K_n of ctx called on xs as a map, which contracts a table."""
    return cumulant_multimap(len(xs), ctx)(*xs)


# a map call checks its inputs where the per-tuple functions do
BOTH_PATHS = {**PER_TUPLE, "map call": map_call}


@pytest.mark.parametrize("evaluate", BOTH_PATHS.values(), ids=BOTH_PATHS.keys())
@pytest.mark.parametrize("inputs, error, message", [
    ((True, 2), TypeError,
     "input 0: expected a PolyForm or a basis code, got bool"),
    ((T, False), TypeError,
     "input 1: expected a PolyForm or a basis code, got bool"),
    ((0, 2, 1.0), TypeError,
     "input 2: expected a PolyForm or a basis code, got float"),
    ((T, None), TypeError,
     "input 1: expected a PolyForm or a basis code, got NoneType"),
    ((Cochain.zero(),), TypeError,
     "input 0: expected a PolyForm or a basis code, got Cochain"),
    ((-1,), ValueError, "input 0: basis code -1 is negative"),
    ((T, 3, -4), ValueError, "input 2: basis code -4 is negative"),
], ids=["bool", "bool after a form", "float", "None", "Cochain",
        "negative", "negative last"])
def test_bad_inputs_refused(evaluate, inputs, error, message):
    ctx = integration_context()
    # (1, 2) == (True, 2): the run table of a good tuple evaluated first
    # must not let an equal bad one through
    evaluate(ctx, (1, 2))
    with pytest.raises(error, match=message):
        evaluate(ctx, inputs)


def retained_bytes(tuples: int) -> int:
    """Bytes still allocated after one context evaluated K_4 directly
    and by the recursion on `tuples` distinct seeded tuples, each made
    and dropped in turn, so no form outlives its evaluation unless the
    context keeps it."""
    ctx, rng = integration_context(), random.Random(11)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(tuples):
            xs = tuple(seeded_form(rng) for _ in range(4))
            assert cumulant(ctx, xs) == cumulant_recursive(ctx, xs)
        del xs
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_context_keeps_one_run_table():
    """A context fed many distinct PolyForm tuples holds no more than one
    fed a few: it keeps only the latest tuple's run table."""
    assert retained_bytes(2000) - retained_bytes(20) < 64 * 1024


@pytest.mark.parametrize("n", range(1, 7))
def test_each_run_product_is_formed_once(n):
    """A second per-tuple function on the same tuple reads the run table
    the first one built: n(n-1)/2 source products for both together."""
    products = 0

    def counted_wedge(a, b):
        nonlocal products
        products += 1
        return wedge(a, b)

    rng = random.Random(n)
    xs = [seeded_form(rng) for _ in range(n)]
    for first, second in ((cumulant, cumulant_recursive),
                          (cumulant_terms, cumulant)):
        ctx = CumulantContext(integrate, counted_wedge)
        products = 0
        first(ctx, xs)
        second(ctx, xs)
        assert products == n * (n - 1) // 2


def test_concurrent_evaluations_on_one_context():
    """Eight threads share one context and evaluate overlapping lists of
    tuples, so each replaces the run table while others read it; every
    value equals the one computed serially on a context of its own."""
    rng = random.Random(5)
    tuples = [tuple(seeded_form(rng) for _ in range(rng.randint(2, 4)))
              for _ in range(24)]
    def values(ctx, xs):
        return [evaluate(ctx, xs) for evaluate in PER_TUPLE.values()]

    serial = integration_context()
    wanted = [values(serial, xs) for xs in tuples]
    shared = integration_context()
    results: dict = {}

    def work(k):
        # each tuple twice in a row, so a table is read back, in an order
        # of the thread's own
        order = random.Random(k).sample(range(len(tuples)), len(tuples))
        results[k] = {i: values(shared, tuples[i])
                      for i in order for _ in range(2)}

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(8))
    for values in results.values():
        assert [values[i] for i in range(len(tuples))] == wanted


class TestNotation:
    def test_term_notation(self):
        assert term_notation(Composition((1, 2))) == "p(a)p(bc)"
        assert term_notation(Composition((3,))) == "p(abc)"

    def test_symbolic_formula_for_three(self):
        assert symbolic_formula(3) == (
            "K3(a,b,c) = p(abc) - p(a)p(bc) - p(ab)p(c) + p(a)p(b)p(c)")

    def test_trace_signs_follow_composition_order(self, ctx):
        terms = cumulant_terms(ctx, [T, DT])
        assert [(t.composition.blocks, composition_sign(t.composition))
                for t in terms] == [((2,), 1), ((1, 1), -1)]
