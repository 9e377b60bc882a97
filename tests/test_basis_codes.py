"""Basis-code evaluation against the reference PolyForm evaluators.

Every library map is table rules only: it is evaluated on integer codes
(2k + dt for t^k and t^k dt) a domain at a time, as tables of nonzero
values, and on any forms by contracting its table.  The oracle is the
PolyForm evaluators the combinators carried before, kept below as
reference maps.  Each check builds a map and its reference, and requires
that the map's code table, its values on code tuples and its values on
PolyForms agree with the reference run on the same (decoded) forms, under
both sign conventions.  The tables are also checked on domains other
than the grid, on random per-slot code subsets, and in the sweeps'
witness order, and the values on random forms off the basis.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopy_cumulants import cube_complex, formal_ainfty, hom_complex, suites
from homotopy_cumulants.cube_complex import cell_to_map, cells_of, verify_cell
from homotopy_cumulants.cumulants import (
    CumulantContext,
    cumulant,
    cumulant_recursive,
    cumulant_recursive_table,
    cumulant_table,
    cumulant_terms,
    endpoint_evaluation_context,
    integration_context,
)
from homotopy_cumulants.formal_ainfty import formal_boundary, interpret_sum, p_tree
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    CONVENTION_B,
    MultiMap,
    TruncationGrid,
    ainfty_relation_defect,
    cumulant_multimap,
    cup_pair,
    d_insertion_sum,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    maps_equal_on_truncation,
    wedge_at,
)
from homotopy_cumulants.interval_model import (
    DT,
    ONE,
    T,
    Cochain,
    PolyForm,
    cup,
    d_code,
    d_form,
    decode_basis,
    delta,
    encode_basis,
    integrate,
    iterated_integral,
    iterated_integral_codes,
    wedge,
    wedge_codes,
)

CONVENTIONS = (CONVENTION_A, CONVENTION_B)


# ---------------------------------------------------------------------------
# the reference maps
#
# The PolyForm evaluators of the combinators, as they were before the table
# rules became the only engine.  Each builder returns a MultiMap without a
# table rule, so a call runs its evaluator on PolyForms and never goes
# through `table`; mixed forms are split into homogeneous parts where a
# Koszul sign depends on form degrees.


def homogeneous_parts(form: PolyForm):
    """Nonzero homogeneous components as (form, plain degree) pairs."""
    if not form.part1:
        return ((form, 0),) if form.part0 else ()
    if not form.part0:
        return ((form, 1),)
    return ((PolyForm(part0=form.part0), 0), (PolyForm(part1=form.part1), 1))


def _homogeneous_tuples(forms):
    """Expand a tuple of forms into homogeneous summands with degree lists."""
    per_slot = [homogeneous_parts(f) for f in forms]
    if any(not parts for parts in per_slot):
        return
    for combo in itertools.product(*per_slot):
        yield tuple(c[0] for c in combo), [c[1] for c in combo]


def reference_linear_combination(arity, shifted_degree, pairs, name):
    merged = {}
    for f, c in pairs:
        if f.arity != arity:
            raise ValueError("arity mismatch")
        c = Fraction(c)
        for leaf, leaf_c in f.terms if f.terms is not None else ((f, 1),):
            merged[leaf] = merged.get(leaf, 0) + c * leaf_c
    terms = tuple((leaf, c.numerator if c.denominator == 1 else c)
                  for leaf, c in merged.items() if c)

    zero = Cochain.zero()

    def evaluator(*xs):
        total = zero
        for leaf, c in terms:
            if c == 1:
                total = total + leaf(*xs)
            elif c == -1:
                total = total - leaf(*xs)
            else:
                total = total + leaf(*xs).scale(c)
        return total

    combination = MultiMap(arity, shifted_degree, evaluator, name)
    combination.terms = terms
    return combination


def reference_iterated_integral_map(n):
    if n < 1:
        raise ValueError("n must be positive")

    def evaluator(*xs):
        return iterated_integral(xs)

    return MultiMap(n, 0, evaluator, f"I{n}")


def reference_wedge_at(f, slot):
    if not 0 <= slot < f.arity:
        raise ValueError("slot out of range")

    def evaluator(*xs):
        product = wedge(xs[slot], xs[slot + 1])
        return f(*xs[:slot], product, *xs[slot + 2:])

    return MultiMap(f.arity + 1, f.shifted_degree + 1, evaluator,
                    f"{f.name}(wedge@{slot})")


def reference_d_insertion_sum(f, convention=CONVENTION_A):
    def evaluator(*xs):
        total = Cochain.zero()
        for homog, degs in _homogeneous_tuples(xs):
            for u in range(f.arity):
                dx = d_form(homog[u])
                if dx.is_zero():
                    continue
                exponent = sum(degs[:u]) if convention.from_left else sum(degs[u + 1:])
                inserted = homog[:u] + (dx,) + homog[u + 1:]
                value = f(*inserted)
                total = total + (value if exponent % 2 == 0 else -value)
        return total

    return MultiMap(f.arity, f.shifted_degree + 1, evaluator,
                    f"{f.name}.d_insertions")


def reference_hom_boundary(f, convention=CONVENTION_A):
    insertions = reference_d_insertion_sum(f, convention)
    pre_sign = -1 if f.plain_degree % 2 == 0 else 1

    def evaluator(*xs):
        return delta(f(*xs)) + insertions(*xs).scale(pre_sign)

    return MultiMap(f.arity, f.shifted_degree + 1, evaluator,
                    f"boundary({f.name})")


def reference_cup_pair(left, right, convention=CONVENTION_A):
    arity = left.arity + right.arity
    moving = right if convention.from_left else left
    moving_parity = moving.plain_degree % 2

    def evaluator(*xs):
        left_xs, right_xs = xs[:left.arity], xs[left.arity:]
        if moving_parity == 0:
            return cup(left(*left_xs), right(*right_xs))
        passed = left_xs if convention.from_left else right_xs
        total = Cochain.zero()
        for homog, degs in _homogeneous_tuples(passed):
            if convention.from_left:
                value = cup(left(*homog), right(*right_xs))
            else:
                value = cup(left(*left_xs), right(*homog))
            total = total + (value if sum(degs) % 2 == 0 else -value)
        return total

    return MultiMap(arity, left.shifted_degree + right.shifted_degree + 1,
                    evaluator, f"cup({left.name},{right.name})")


def reference_morphism_target(n, convention):
    i_n = reference_iterated_integral_map(n)
    total = MultiMap(n, 1, lambda *xs: delta(i_n(*xs)), f"delta.I{n}")
    for i in range(1, n):
        j = n - i
        term = reference_cup_pair(reference_iterated_integral_map(i),
                                  reference_iterated_integral_map(j), convention)
        total = total + (term if (j - 1) % 2 == 0 else term.scale(-1))
    return total


def reference_cumulant_multimap(n, ctx=None):
    if n < 1:
        raise ValueError("n must be positive")
    context = ctx if ctx is not None else integration_context()
    return MultiMap(n, n - 1, lambda *xs: cumulant(context, xs), f"K{n}")


REFERENCE_BUILDERS = {
    "linear_combination": reference_linear_combination,
    "iterated_integral_map": reference_iterated_integral_map,
    "wedge_at": reference_wedge_at,
    "d_insertion_sum": reference_d_insertion_sum,
    "hom_boundary": reference_hom_boundary,
    "cup_pair": reference_cup_pair,
    "_morphism_target": reference_morphism_target,
    "cumulant_multimap": reference_cumulant_multimap,
    # ainfty_relation_defect's own grid verdict is not wanted of a reference
    "map_is_zero_on": lambda *args, **kwargs: None,
}


def reference(build) -> MultiMap:
    """What build() builds from the reference builders.

    The library's combinators are rebound to the reference ones in the
    library modules, so composites (`homotopy_witness`, `cell_to_map`,
    `interpret_sum`, `ainfty_relation_defect`, the operators on maps)
    keep their structure, and in the namespace build() itself reads.
    """
    with pytest.MonkeyPatch.context() as patch:
        for namespace in (vars(hom_complex), vars(cube_complex),
                          vars(formal_ainfty), build.__globals__):
            for name, builder in REFERENCE_BUILDERS.items():
                if name in namespace:
                    patch.setitem(namespace, name, builder)
        built = build()
    assert built.table_rule is None, built.name
    return built


def grid_for(arity: int) -> int:
    return 1 if arity >= 4 else 2


def basis_code_tuples(arity: int):
    return itertools.product(TruncationGrid(grid_for(arity)).slot_codes(),
                             repeat=arity)


def assert_table_agrees(build, domain):
    """build() builds a map; its table over the domain must hold exactly
    the nonzero values of its reference there, and no zero."""
    tabulated, expected_map = build(), reference(build)
    table = tabulated.table(domain)
    assert not any(value.is_zero() for value in table.values()), tabulated.name
    nonzero = 0
    for xs in itertools.product(*domain):
        expected = expected_map(*map(decode_basis, xs))
        assert table.get(xs, Cochain.zero()) == expected, (tabulated.name, xs)
        nonzero += not expected.is_zero()
    assert len(table) == nonzero, tabulated.name
    return table


def assert_paths_agree(build):
    """build() builds a map; its table over the grid, its values on code
    tuples and its values on the decoded PolyForms must agree with its
    reference."""
    f, expected_map = build(), reference(build)
    codes = TruncationGrid(grid_for(f.arity)).slot_codes()
    assert_table_agrees(build, [codes] * f.arity)
    for xs in basis_code_tuples(f.arity):
        forms = tuple(map(decode_basis, xs))
        expected = expected_map(*forms)
        assert f(*xs) == expected, (f.name, forms)
        assert f(*forms) == expected, (f.name, forms)


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

    def test_empty_iterated_integral_is_refused(self):
        for function in (iterated_integral, iterated_integral_codes):
            with pytest.raises(ValueError, match="at least one form"):
                function(())

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


T2, T1_DT = encode_basis(PolyForm.monomial(2)), encode_basis(PolyForm.monomial(1, dt=True))
DT_CODES = (1, 3, 5)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.name)
class TestTablesOffTheGrid:
    """Domains that are not a grid: a slot whose derivatives lie outside
    it, slots of dt codes only, and domains on which a map vanishes."""

    def test_slot_not_closed_under_d(self, convention):
        # d(t^2) = 2 t dt, and t dt is not in the first slot
        domain = [(T2,), (0, 1, T2, T1_DT), (0, 1, T2, T1_DT)]
        for build in (
                lambda: d_insertion_sum(iterated_integral_map(3), convention),
                lambda: hom_boundary(iterated_integral_map(3), convention),
                lambda: hom_boundary(homotopy_witness(3, convention), convention),
                lambda: ainfty_relation_defect(3, 0, convention)[1]):
            assert_table_agrees(build, domain)
        table = assert_table_agrees(
            lambda: d_insertion_sum(iterated_integral_map(3), convention),
            [(T2,), (1,), (1,)])
        assert list(table) == [(T2, 1, 1)]

    def test_dt_slots_only(self, convention):
        domain = [DT_CODES] * 3
        for build in (
                lambda: iterated_integral_map(3),
                lambda: wedge_at(iterated_integral_map(2), 0),
                lambda: hom_boundary(homotopy_witness(3, convention), convention),
                lambda: cup_pair(iterated_integral_map(1),
                                 iterated_integral_map(2), convention)):
            assert_table_agrees(build, domain)
        # no d insertion applies to a dt input
        assert d_insertion_sum(iterated_integral_map(3),
                               convention).table(domain) == {}

    def test_empty_tables(self, convention):
        i3 = iterated_integral_map(3)
        assert i3.table([(0, 2), (1, 3), (1,)]) == {}
        # two dt inputs wedge to zero
        assert wedge_at(iterated_integral_map(1), 0).table([(1, 3), (1,)]) == {}
        assert hom_boundary(iterated_integral_map(2), convention).table(
            [(0,), (0,)]) == {}
        assert i3.table([(), (1,), (1,)]) == {}
        assert i3(0, 1, 1) is Cochain.zero()


def _arity3_builders(convention):
    """I_3, both wedges, d insertions, a boundary, both cups, H_3, K_3 and
    g3's cells."""
    return [
        lambda: iterated_integral_map(3),
        lambda: wedge_at(iterated_integral_map(2), 0),
        lambda: wedge_at(iterated_integral_map(2), 1),
        lambda: d_insertion_sum(iterated_integral_map(3), convention),
        lambda: hom_boundary(iterated_integral_map(3), convention),
        lambda: cup_pair(iterated_integral_map(1), iterated_integral_map(2),
                         convention),
        lambda: cup_pair(iterated_integral_map(2), iterated_integral_map(1),
                         convention),
        lambda: homotopy_witness(3, convention),
        lambda: cumulant_multimap(3),
    ] + [lambda cell=cell: cell_to_map(3, cell, convention) for cell in cells_of(3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONVENTIONS),
       st.lists(st.sets(st.integers(0, 7), max_size=4), min_size=3, max_size=3))
def test_tables_on_random_code_subsets(convention, domain):
    domain = [sorted(slot) for slot in domain]
    for build in _arity3_builders(convention):
        assert_table_agrees(build, domain)


def _perturbed_i2(changes):
    """I_2 on PolyForms, except at the code tuples in `changes`."""
    i2 = iterated_integral_map(2)
    decoded = {tuple(map(decode_basis, xs)): value for xs, value in changes.items()}
    return MultiMap(2, 0, lambda a, b: decoded.get((a, b), i2(a, b)),
                    name="perturbed I2")


class TestWitnessOrder:
    """The witness is the first differing tuple in slot-major order, which
    at D = 2 runs t^0, t^1, t^2, dt, t dt, t^2 dt in each slot."""

    def test_first_difference_in_slot_major_order(self):
        grid = TruncationGrid(2)
        i2 = iterated_integral_map(2)
        # I2 vanishes at (t^2, 1): only the perturbed table holds it.  It
        # comes first in slot-major order, though (dt, dt) has smaller codes.
        changes = {(1, 1): Cochain(1, 0, 2), (T2, 0): Cochain(0, 0, 5),
                   (5, 3): Cochain.zero()}
        assert i2(1, 1) != Cochain.zero() and i2(T2, 0) == Cochain.zero()
        verdict = maps_equal_on_truncation(i2, _perturbed_i2(changes), grid)
        assert not verdict.equal
        assert verdict.witness_tuple == (PolyForm.monomial(2), PolyForm.monomial(0))
        assert verdict.lhs is Cochain.zero()
        assert verdict.rhs == Cochain(0, 0, 5)
        # swapped sides swap the values
        verdict = maps_equal_on_truncation(_perturbed_i2(changes), i2, grid)
        assert (verdict.lhs, verdict.rhs) == (Cochain(0, 0, 5), Cochain.zero())

    def test_tuples_held_by_both_sides_or_by_the_left_only(self):
        grid = TruncationGrid(2)
        i2 = iterated_integral_map(2)
        # (t dt, t^2 dt) is missing from the perturbed table; (dt, dt)
        # differs on both sides and comes first
        changes = {(5, 3): Cochain.zero(), (1, 1): Cochain(1, 0, 2)}
        verdict = maps_equal_on_truncation(i2, _perturbed_i2(changes), grid)
        assert verdict.witness_tuple == (decode_basis(1), decode_basis(1))
        assert (verdict.lhs, verdict.rhs) == (i2(1, 1), Cochain(1, 0, 2))
        verdict = maps_equal_on_truncation(
            i2, _perturbed_i2({(5, 3): Cochain.zero()}), grid)
        assert verdict.witness_tuple == (decode_basis(5), decode_basis(3))
        assert verdict.lhs == i2(5, 3) != Cochain.zero()
        assert verdict.rhs is Cochain.zero()


class TestNoPerTupleFallback:
    """Sweeps tabulate every library map, K_n included: no map is called
    on a code tuple."""

    @staticmethod
    def _count_code_calls(monkeypatch):
        calls = []
        call = MultiMap.__call__

        def counting(self, *xs):
            if xs and type(xs[0]) is int:
                calls.append(self.name)
            return call(self, *xs)

        monkeypatch.setattr(MultiMap, "__call__", counting)
        return calls

    def test_g4_cells_make_no_code_evaluation(self, monkeypatch):
        calls = self._count_code_calls(monkeypatch)
        for cell in cells_of(4):
            if cell.dimension:
                assert verify_cell(4, cell, 2).equal
        assert calls == []

    def test_boundary_of_h_n_evaluates_only_k_n_per_tuple(self, monkeypatch):
        # K_n has a table rule too, so not even K_n runs per tuple
        calls = self._count_code_calls(monkeypatch)
        for n in (2, 3, 4):
            verdict = maps_equal_on_truncation(
                hom_boundary(homotopy_witness(n)), cumulant_multimap(n),
                TruncationGrid(2))
            assert verdict.equal
        assert calls == []

    def test_vertex_sum_makes_no_code_evaluation(self, monkeypatch):
        calls = self._count_code_calls(monkeypatch)
        entries = {e.check: e for e in suites.run_cube_suite(4, 2)}
        assert entries["signed vertex maps sum to the cumulant"].status
        assert calls == []


def dt_squared_is_one(a: PolyForm, b: PolyForm) -> PolyForm:
    """A source product other than the wedge: dt * dt = 1, not 0."""
    return PolyForm(a.part0 * b.part0 + a.part1 * b.part1,
                    a.part0 * b.part1 + a.part1 * b.part0)


CONTEXTS = {
    "integration": integration_context,
    "endpoint double": endpoint_evaluation_context,
    "dt^2 = 1 product": lambda: CumulantContext(integrate, dt_squared_is_one),
}


@pytest.mark.parametrize("build", CONTEXTS.values(), ids=CONTEXTS.keys())
class TestCumulantOracle:
    """Every basis tuple, n <= 3 at D = 2 and n = 4 at D = 1; the dt^dt
    runs give zero products, which codes carry as None."""

    def test_direct_and_recursive(self, build):
        on_codes, on_forms = build(), build()
        for n in (1, 2, 3, 4):
            for xs in basis_code_tuples(n):
                forms = tuple(map(decode_basis, xs))
                expected = cumulant(on_forms, forms)
                assert cumulant(on_codes, xs) == expected, forms
                assert cumulant_recursive(on_codes, xs) == expected, forms
                assert cumulant_recursive(on_forms, forms) == expected, forms

    def test_terms(self, build):
        on_codes, on_forms = build(), build()
        for n in (1, 2, 3, 4):
            for xs in basis_code_tuples(n):
                forms = tuple(map(decode_basis, xs))
                assert [(t.composition, t.sign, t.value)
                        for t in cumulant_terms(on_codes, xs)] == [
                    (t.composition, t.sign, t.value)
                    for t in cumulant_terms(on_forms, forms)], forms

    def test_cumulant_multimap(self, build):
        for n in (1, 2, 3, 4):
            assert_paths_agree(lambda: cumulant_multimap(n, build()))

    def test_cumulant_table(self, build):
        for n in (1, 2, 3, 4):
            codes = TruncationGrid(grid_for(n)).slot_codes()
            assert_cumulant_table_agrees(build, [codes] * n)

    def test_cumulant_table_off_the_grid(self, build):
        for domain in ([(T2,), (1,), (2,)], [(1,), (1,)], [(3,)],
                       [DT_CODES] * 3, [(0, 1, T2), DT_CODES, (2, 3)]):
            assert_cumulant_table_agrees(build, domain)
        assert cumulant_table(build(), [(0, 1), (), (2,)]) == {}
        assert cumulant_table(build(), [()]) == {}

    def test_cumulant_recursive_table(self, build):
        for n in (1, 2, 3, 4):
            codes = TruncationGrid(grid_for(n)).slot_codes()
            assert_recursive_table_agrees(build, [codes] * n)
        for domain in ([(T2,), (1,), (2,)], [(1,), (1,)], [(3,)],
                       [DT_CODES] * 3, [(0, 1, T2), DT_CODES, (2, 3)]):
            assert_recursive_table_agrees(build, domain)
        assert cumulant_recursive_table(build(), [(0, 1), (), (2,)]) == {}
        assert cumulant_recursive_table(build(), [()]) == {}
        with pytest.raises(ValueError):
            cumulant_recursive_table(build(), [])

    def test_cumulant_table_drops_zero_runs(self, build, monkeypatch):
        # a dt^dt run is dropped as soon as it is formed: it is neither
        # mapped nor multiplied further
        seen = []
        apply, multiply = CumulantContext.apply, CumulantContext.multiply

        def recording_apply(self, form):
            seen.append(form)
            return apply(self, form)

        def recording_multiply(self, a, b):
            seen.append(a)
            return multiply(self, a, b)

        monkeypatch.setattr(CumulantContext, "apply", recording_apply)
        monkeypatch.setattr(CumulantContext, "multiply", recording_multiply)
        cumulant_table(build(), [TruncationGrid(2).slot_codes()] * 3)
        assert seen and None not in seen


def assert_cumulant_table_agrees(build, domain):
    """build() gives a fresh context; K_n's table over the domain must hold
    exactly the nonzero per-tuple cumulants of the decoded PolyForms."""
    table, on_forms = cumulant_table(build(), domain), build()
    assert not any(value.is_zero() for value in table.values())
    nonzero = 0
    for xs in itertools.product(*domain):
        expected = cumulant(on_forms, tuple(map(decode_basis, xs)))
        assert table.get(xs, Cochain.zero()) == expected, xs
        nonzero += not expected.is_zero()
    assert len(table) == nonzero


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(CONTEXTS.values())),
       st.lists(st.sets(st.integers(0, 7), max_size=4), min_size=3, max_size=3))
def test_cumulant_tables_on_random_code_subsets(build, domain):
    assert_cumulant_table_agrees(build, [sorted(slot) for slot in domain])


def assert_recursive_table_agrees(build, domain):
    """The recursive table of K_n over the domain stores no zero, equals
    the direct table and holds the per-tuple recursion on the decoded
    PolyForms; it leaves nothing in the context."""
    ctx = build()
    table = cumulant_recursive_table(ctx, domain)
    assert not any(value.is_zero() for value in table.values())
    assert not ctx._recursive_cache
    assert table == cumulant_table(build(), domain)
    on_forms = build()
    for xs in itertools.product(*domain):
        expected = cumulant_recursive(on_forms, tuple(map(decode_basis, xs)))
        assert table.get(xs, Cochain.zero()) == expected, xs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(CONTEXTS.values())),
       st.integers(3, 4).flatmap(lambda n: st.lists(
           st.sets(st.integers(0, 9), max_size=4), min_size=n, max_size=n)))
def test_recursive_tables_on_random_code_subsets(build, domain):
    assert_recursive_table_agrees(build, [sorted(slot) for slot in domain])


def test_products_of_codes():
    ctx = integration_context()
    assert ctx.multiply(2, 5) == 7
    assert ctx.multiply(3, 5) is None
    assert ctx.multiply(None, 4) is None
    assert ctx.apply(None) is Cochain.zero()
    assert ctx.apply(5) == integrate(decode_basis(5))
    other = CumulantContext(integrate, dt_squared_is_one)
    assert other.multiply(3, 5) == dt_squared_is_one(decode_basis(3),
                                                     decode_basis(5))


def test_suite_witness_matches_the_polyform_sweep(monkeypatch):
    grid = TruncationGrid(2)
    wrong = {(decode_basis(4), decode_basis(1)),
             (decode_basis(3), decode_basis(0))}
    table = cumulant_recursive_table

    def perturbed(ctx, domain):
        recursive = table(ctx, domain)
        for xs in itertools.product(*domain):
            if tuple(map(decode_basis, xs)) in wrong:
                recursive[xs] = recursive.get(xs, Cochain.zero()) + Cochain(1)
        return recursive

    monkeypatch.setattr(suites, "cumulant_recursive_table", perturbed)
    entries = {e.check: e for e in suites.run_cumulants_suite(2, 2)}
    first = next(tup for tup in itertools.product(grid.slot_basis(), repeat=2)
                 if tup in wrong)
    assert entries["direct vs recursive cumulant n=1"].status
    failed = entries["direct vs recursive cumulant n=2"]
    assert not failed.status
    assert failed.witness == "; ".join(x.to_text() for x in first)
    assert failed.witness == "t^2; (1)dt"


@pytest.mark.parametrize("extra, missing", [((0, 1), (2, 1)), ((T2, 2), (2, 1))])
def test_suite_witness_of_a_wrong_direct_table(monkeypatch, extra, missing):
    """A direct table with one entry where K_2 vanishes and one nonzero
    entry dropped fails at whichever comes first in slot-major order."""
    grid = TruncationGrid(2).slot_codes()
    table = cumulant_table

    def perturbed(ctx, domain):
        direct = table(ctx, domain)
        if tuple(domain) == (grid, grid):
            assert extra not in direct and missing in direct
            direct[extra] = Cochain(1)
            del direct[missing]
        return direct

    monkeypatch.setattr(suites, "cumulant_table", perturbed)
    entries = suites.run_cumulants_suite(3, 2)
    failed = [e for e in entries if not e.status]
    assert [e.check for e in failed] == ["direct vs recursive cumulant n=2"]
    first = min(extra, missing, key=lambda xs: [grid.index(x) for x in xs])
    assert failed[0].witness == "; ".join(decode_basis(x).to_text() for x in first)
    assert len(entries) == 5


def test_maps_without_a_code_rule_see_polyforms(monkeypatch):
    # user maps have no table rule: a sweep and a call run their evaluator
    seen = set()

    def evaluator(a, b):
        seen.add((type(a), type(b)))
        return iterated_integral([a, b])

    plain = MultiMap(2, 0, evaluator, name="plain I2")
    assert plain.table_rule is None
    verdict = maps_equal_on_truncation(
        plain, iterated_integral_map(2), TruncationGrid(2))
    assert verdict.equal
    assert plain(1, 3) == iterated_integral_map(2)(1, 3) != Cochain.zero()
    assert plain(DT, 3) == plain(1, 3)
    assert seen == {(PolyForm, PolyForm)}

    # every library map, composites included, is built with a table rule
    # and is never asked for an evaluation, on forms, codes or a grid; a
    # callable stands in for every evaluator, as perfbench's tracer does
    built, asked = [], []
    init = MultiMap.__init__

    def recording(self, arity, shifted_degree, evaluator, name=""):
        def stand_in(*xs):
            asked.append(self.name)
            return evaluator(*xs)

        init(self, arity, shifted_degree, stand_in, name)
        built.append(self)

    monkeypatch.setattr(MultiMap, "__init__", recording)
    forms = (PolyForm((1, "1/2"), (0, 3)), DT, T + ONE, PolyForm((), (2, 1)))
    for convention in CONVENTIONS:
        library = ([homotopy_witness(4, convention),
                    hom_boundary(homotopy_witness(3, convention), convention),
                    ainfty_relation_defect(3, 1, convention)[1],
                    interpret_sum(formal_boundary(p_tree(3), convention),
                                  convention)]
                   + [cumulant_multimap(n, build())
                      for n in (2, 3) for build in CONTEXTS.values()]
                   + [cell_to_map(n, cell, convention)
                      for n in (3, 4) for cell in cells_of(n)])
        for f in library:
            f(*forms[:f.arity])
            f(*range(f.arity))
            assert maps_equal_on_truncation(f, f, TruncationGrid(1)).equal
    assert built and all(f.table_rule is not None for f in built)
    assert asked == []


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_mixed_forms = st.builds(PolyForm, st.lists(_fractions, max_size=4),
                         st.lists(_fractions, max_size=4))

# family: (indices, build(index, convention))
OFF_BASIS = {
    "I_n": ((1, 2, 3, 4), lambda n, c: iterated_integral_map(n)),
    "boundary of H_n": ((2, 3, 4),
                        lambda n, c: hom_boundary(homotopy_witness(n, c), c)),
    "morphism defect": ((1, 2, 3, 4),
                        lambda n, c: ainfty_relation_defect(n, 0, c)[1]),
    "cells of g3": (tuple(range(len(cells_of(3)))),
                    lambda i, c: cell_to_map(3, cells_of(3)[i], c)),
    **{f"K_n, {name}": ((1, 2, 3, 4),
                        lambda n, c, ctx=ctx: cumulant_multimap(n, ctx()))
       for name, ctx in CONTEXTS.items()},
}


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.name)
@pytest.mark.parametrize("family", OFF_BASIS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_values_off_the_basis(family, convention, data):
    """Mixed forms with rational coefficients exercise the contraction's
    coefficients and denominators, which basis monomials do not."""
    indices, builder = OFF_BASIS[family]
    index = data.draw(st.sampled_from(indices), label="index")

    def build():
        return builder(index, convention)

    f = build()
    forms = data.draw(st.lists(_mixed_forms, min_size=f.arity,
                               max_size=f.arity), label="forms")
    assert f(*forms) == reference(build)(*forms)


def test_a_call_tabulates_the_union_of_the_supports():
    # t^40 spans no degree-40 grid, 82^4 tuples: the one table is taken
    # over the four codes the inputs hold
    def build():
        return hom_boundary(homotopy_witness(4))

    boundary, domains = build(), []
    rule = boundary.table_rule

    def recording(domain):
        domains.append(domain)
        return rule(domain)

    boundary.table_rule = recording
    forms = (PolyForm.monomial(40) + DT, T, ONE + T, DT)
    value = boundary(*forms)
    assert value == reference(build)(*forms) != Cochain.zero()
    support = frozenset(map(encode_basis, (PolyForm.monomial(40), DT, T, ONE)))
    assert domains == [(support,) * 4]
