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
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homotopy_cumulants import cube_complex, formal_ainfty, hom_complex, suites
from homotopy_cumulants.certify import CONVENTION_A, CONVENTION_B, passed
from homotopy_cumulants.cube_complex import (
    cell_to_map,
    cells_of,
    verify_cell,
    vertex_composition,
)
from homotopy_cumulants.cumulants import (
    CumulantContext,
    composition_sign,
    cumulant,
    cumulant_levels,
    cumulant_recursive,
    cumulant_recursive_levels,
    cumulant_table,
    cumulant_terms,
    endpoint_evaluation_context,
    integration_context,
)
from homotopy_cumulants.formal_ainfty import formal_boundary, interpret_sum, p_tree
from homotopy_cumulants.hom_complex import (
    MultiMap,
    TruncationGrid,
    ainfty_relation_defect,
    check_store,
    cumulant_multimap,
    cup_pair,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    linear_combination,
    maps_equal_on_truncation,
    table_store,
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
from reference_maps import (
    ReferenceMap,
    call_supports,
    leaf_tables,
    maps_below,
    record_builds,
)
from test_cumulants import cumulant_recursive_table

CONVENTIONS = (CONVENTION_A, CONVENTION_B)


# ---------------------------------------------------------------------------
# the reference maps
#
# The PolyForm evaluators of the combinators, as they were before the table
# rules became the only engine.  Each builder returns a ReferenceMap, so a
# call runs its evaluator on PolyForms and never goes through `table`;
# mixed forms are split into homogeneous parts where a Koszul sign depends
# on form degrees.  Those signs come from `certify.passed`, the rule the
# formal boundary reads, so the Hom tables' inlined signs are checked
# against it.


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

    combination = ReferenceMap(arity, shifted_degree, evaluator, name)
    combination.terms = terms
    return combination


def reference_iterated_integral_map(n):
    if n < 1:
        raise ValueError("n must be positive")

    def evaluator(*xs):
        return iterated_integral(xs)

    return ReferenceMap(n, 0, evaluator, f"I{n}")


def reference_wedge_at(f, slot):
    if not 0 <= slot < f.arity:
        raise ValueError("slot out of range")

    def evaluator(*xs):
        product = wedge(xs[slot], xs[slot + 1])
        return f(*xs[:slot], product, *xs[slot + 2:])

    return ReferenceMap(f.arity + 1, f.shifted_degree + 1, evaluator,
                        f"{f.name}(wedge@{slot})")


def reference_d_insertion_sum(f, convention=CONVENTION_A):
    def evaluator(*xs):
        total = Cochain.zero()
        for homog, degs in _homogeneous_tuples(xs):
            for u in range(f.arity):
                dx = d_form(homog[u])
                if dx.is_zero():
                    continue
                exponent = passed(degs, u, u + 1, convention)
                inserted = homog[:u] + (dx,) + homog[u + 1:]
                value = f(*inserted)
                total = total + (value if exponent % 2 == 0 else -value)
        return total

    return ReferenceMap(f.arity, f.shifted_degree + 1, evaluator,
                        f"{f.name}.d_insertions")


def reference_hom_boundary(f, convention=CONVENTION_A):
    insertions = reference_d_insertion_sum(f, convention)
    pre_sign = -1 if f.plain_degree % 2 == 0 else 1

    def evaluator(*xs):
        return delta(f(*xs)) + insertions(*xs).scale(pre_sign)

    return ReferenceMap(f.arity, f.shifted_degree + 1, evaluator,
                        f"boundary({f.name})")


def reference_cup_pair(left, right, convention=CONVENTION_A):
    """Each homogeneous term of the cup takes the Koszul sign of the
    convention's rule: the j-th map's degree times the parities of the
    input blocks it passes."""
    degrees = (left.plain_degree, right.plain_degree)

    def evaluator(*xs):
        total = Cochain.zero()
        for homog, degs in _homogeneous_tuples(xs):
            blocks = (sum(degs[:left.arity]), sum(degs[left.arity:]))
            exponent = sum(degree * passed(blocks, j, j + 1, convention)
                           for j, degree in enumerate(degrees))
            value = cup(left(*homog[:left.arity]), right(*homog[left.arity:]))
            total = total + (value if exponent % 2 == 0 else -value)
        return total

    return ReferenceMap(left.arity + right.arity,
                        left.shifted_degree + right.shifted_degree + 1,
                        evaluator, f"cup({left.name},{right.name})")


def reference_cumulant_multimap(n, ctx=None):
    if n < 1:
        raise ValueError("n must be positive")
    context = ctx if ctx is not None else integration_context()
    return ReferenceMap(n, n - 1, lambda *xs: cumulant(context, xs), f"K{n}")


REFERENCE_BUILDERS = {
    "linear_combination": reference_linear_combination,
    "iterated_integral_map": reference_iterated_integral_map,
    "wedge_at": reference_wedge_at,
    "hom_boundary": reference_hom_boundary,
    "cup_pair": reference_cup_pair,
    "cumulant_multimap": reference_cumulant_multimap,
    # ainfty_relation_defect's own grid verdict is not wanted of a reference
    "map_is_zero_on": lambda *args, **kwargs: None,
}


def reference(build) -> ReferenceMap:
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
    assert isinstance(built, ReferenceMap), built.name
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
            return ReferenceMap(1, 1, lambda x: Cochain(*[integrate(x).edge] * 3),
                                name="odd")

        def i1():
            return iterated_integral_map(1)

        def i2():
            return iterated_integral_map(2)

        for left, right in ((i1, odd), (odd, i1), (i2, odd), (odd, i2)):
            assert_paths_agree(lambda: cup_pair(left(), right(), convention))

    def test_cup_sign_of_a_value_at_both_dt_parities(self, convention):
        # The twin map takes the same value on t^k and on t^k dt, so one of
        # its values sits at codes of both dt parities, and the Koszul sign
        # of a cup with an odd map differs between them.  A table that
        # grouped its entries by value alone would sign them alike.
        def twin():
            return ReferenceMap(
                1, 1,
                lambda x: Cochain(*[integrate(PolyForm(part1=x.part0 + x.part1)).edge] * 3),
                name="twin")

        def odd():
            return ReferenceMap(1, 1, lambda x: Cochain(*[integrate(x).edge] * 3),
                                name="odd")

        for k in range(3):  # t^k is code 2k, t^k dt is 2k + 1
            assert twin()(2 * k) == twin()(2 * k + 1) != Cochain.zero()
        for left, right in ((twin, odd), (odd, twin)):
            assert_paths_agree(lambda: cup_pair(left(), right(), convention))

    def test_witnesses_and_morphism_defects(self, convention):
        for n in (2, 3, 4):
            assert_paths_agree(lambda: homotopy_witness(n, convention))
            assert_paths_agree(
                lambda: hom_boundary(homotopy_witness(n, convention), convention))
        for n in (1, 2, 3, 4):
            assert_paths_agree(
                lambda: ainfty_relation_defect(n, 0, convention)[1])

    @pytest.mark.parametrize("n", (5, 6))
    def test_morphism_defects_past_the_golden_files(self, convention, n):
        # the golden reports stop at n = 4; convention B passes at odd n
        codes = TruncationGrid(1).slot_codes()
        table = assert_table_agrees(
            lambda: ainfty_relation_defect(n, 0, convention)[1], [codes] * n)
        assert len(table) == (192 if (convention.name, n) == ("B", 6) else 0)

    def test_cell_maps(self, convention):
        for n in (2, 3, 4):
            for cell in cells_of(n):
                assert_paths_agree(lambda: cell_to_map(cell, convention))
                if n < 4 and cell.dimension:
                    assert_paths_agree(lambda: hom_boundary(
                        cell_to_map(cell, convention), convention))

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
                lambda: hom_boundary(iterated_integral_map(3), convention),
                lambda: hom_boundary(homotopy_witness(3, convention), convention),
                lambda: ainfty_relation_defect(3, 0, convention)[1]):
            assert_table_agrees(build, domain)
        # I_3 vanishes on t^2, so only the d insertion at slot 0 is left:
        # 2 I_3(t dt, dt, dt) times the pre-sign -1 of I_3, whose
        # unsuspended degree -2 is even
        table = assert_table_agrees(
            lambda: hom_boundary(iterated_integral_map(3), convention),
            [(T2,), (1,), (1,)])
        assert list(table) == [(T2, 1, 1)]
        assert table[T2, 1, 1] == iterated_integral_map(3)(T1_DT, 1, 1).scale(-2)

    def test_dt_slots_only(self, convention):
        domain = [DT_CODES] * 3
        for build in (
                lambda: iterated_integral_map(3),
                lambda: wedge_at(iterated_integral_map(2), 0),
                lambda: hom_boundary(homotopy_witness(3, convention), convention),
                lambda: cup_pair(iterated_integral_map(1),
                                 iterated_integral_map(2), convention)):
            assert_table_agrees(build, domain)
        # no d insertion applies to a dt input, and delta sends I_3's
        # edge values to zero
        assert hom_boundary(iterated_integral_map(3),
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
    """I_3, both wedges, a boundary, both cups, H_3, K_3 and
    g3's cells."""
    return [
        lambda: iterated_integral_map(3),
        lambda: wedge_at(iterated_integral_map(2), 0),
        lambda: wedge_at(iterated_integral_map(2), 1),
        lambda: hom_boundary(iterated_integral_map(3), convention),
        lambda: cup_pair(iterated_integral_map(1), iterated_integral_map(2),
                         convention),
        lambda: cup_pair(iterated_integral_map(2), iterated_integral_map(1),
                         convention),
        lambda: homotopy_witness(3, convention),
        lambda: cumulant_multimap(3),
    ] + [lambda cell=cell: cell_to_map(cell, convention) for cell in cells_of(3)]


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
    return ReferenceMap(2, 0, lambda a, b: decoded.get((a, b), i2(a, b)),
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
                assert verify_cell(cell, 2).equal
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
                # a term's sign is its composition's
                assert [(t.composition, t.value)
                        for t in cumulant_terms(on_codes, xs)] == [
                    (t.composition, t.value)
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
       st.one_of(
           st.lists(st.sets(st.integers(0, 7), max_size=4),
                    min_size=3, max_size=3),
           # runs of three or more inputs share products, so groups of
           # runs form; under dt^2 = 1 their products are PolyForms
           st.integers(4, 5).flatmap(lambda n: st.lists(
               st.sets(st.integers(0, 7), max_size=3),
               min_size=n, max_size=n))))
def test_cumulant_tables_on_random_code_subsets(build, domain):
    assert_cumulant_table_agrees(build, [sorted(slot) for slot in domain])


def assert_recursive_table_agrees(build, domain):
    """The recursive table of K_n over the domain stores no zero, equals
    the direct table and holds the per-tuple recursion on the decoded
    PolyForms."""
    ctx = build()
    table = cumulant_recursive_table(ctx, domain)
    assert not any(value.is_zero() for value in table.values())
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
    levels = cumulant_recursive_levels

    def perturbed(ctx, domain):
        domain = list(domain)
        for arity, recursive in levels(ctx, domain):
            for xs in itertools.product(*domain[len(domain) - arity:]):
                if tuple(map(decode_basis, xs)) in wrong:
                    recursive[xs] = (recursive.get(xs, Cochain.zero())
                                     + Cochain(1))
            yield arity, recursive

    monkeypatch.setattr(suites, "cumulant_recursive_levels", perturbed)
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
    levels = cumulant_levels

    def perturbed(ctx, domain):
        domain = tuple(domain)
        for arity, direct in levels(ctx, domain):
            if domain[len(domain) - arity:] == (grid, grid):
                assert extra not in direct and missing in direct
                direct[extra] = Cochain(1)
                del direct[missing]
            yield arity, direct

    monkeypatch.setattr(suites, "cumulant_levels", perturbed)
    entries = suites.run_cumulants_suite(3, 2)
    failed = [e for e in entries if not e.status]
    assert [e.check for e in failed] == ["direct vs recursive cumulant n=2"]
    first = min(extra, missing, key=lambda xs: [grid.index(x) for x in xs])
    assert failed[0].witness == "; ".join(decode_basis(x).to_text() for x in first)
    assert len(entries) == 5


def test_each_entry_compares_the_tables_of_its_n(monkeypatch):
    """`run_suite("cumulants", 7, 4)` has two exponent runs, n <= 6 on the
    exponent-4 grid and n = 7 on the exponent-3 grid.  Each entry compares
    two tables that both equal a fresh `cumulant_table` of its n on its
    grid, so no entry reads a level of another arity or grid."""
    compared = []
    first_difference = suites.first_difference

    def recorded(lhs, rhs, codes):
        fresh = cumulant_table(integration_context(),
                               (codes,) * (len(compared) + 1))
        compared.append((codes, lhs == fresh, rhs == fresh))
        return first_difference(lhs, rhs, codes)

    monkeypatch.setattr(suites, "first_difference", recorded)
    assert all(entry.status for entry in suites.run_suite("cumulants", 7, 4))
    assert compared == [(TruncationGrid(4 if n <= 6 else 3).slot_codes(),
                         True, True) for n in range(1, 8)]


def test_maps_without_a_code_rule_see_polyforms(monkeypatch):
    # a reference map runs its evaluator on PolyForms, in a sweep and a call
    seen = set()

    def evaluator(a, b):
        seen.add((type(a), type(b)))
        return iterated_integral([a, b])

    plain = ReferenceMap(2, 0, evaluator, name="plain I2")
    verdict = maps_equal_on_truncation(
        plain, iterated_integral_map(2), TruncationGrid(2))
    assert verdict.equal
    assert plain(1, 3) == iterated_integral_map(2)(1, 3) != Cochain.zero()
    assert plain(DT, 3) == plain(1, 3)
    assert seen == {(PolyForm, PolyForm)}

    # every library map, composites included, passes its rule third to the
    # constructor; perfbench's tracer wraps that argument in a `*xs`
    # forwarder, which must change no table or value and run once per
    # table a table store counts as built: the check's, for its table
    # requests, or a call's own.  Inside the forwarder an I_n leaf's rule
    # computes Chen's table only on an (n, domain) its store lacks
    forms = (PolyForm((1, "1/2"), (0, 3)), DT, T + ONE, PolyForm((), (2, 1)))
    codes = TruncationGrid(1).slot_codes()

    def outcomes():
        values = []
        for convention in CONVENTIONS:
            library = ([homotopy_witness(4, convention),
                        hom_boundary(homotopy_witness(3, convention), convention),
                        ainfty_relation_defect(3, 1, convention)[1],
                        interpret_sum(formal_boundary(p_tree(3), convention),
                                      convention)]
                       + [cumulant_multimap(n, build())
                          for n in (2, 3) for build in CONTEXTS.values()]
                       + [cell_to_map(cell, convention)
                          for n in (3, 4) for cell in cells_of(n)])
            values.extend((f.table([codes] * f.arity), f(*range(f.arity)),
                           f(*forms[:f.arity])) for f in library)
        return values

    expected = outcomes()
    forwarded = []
    init = MultiMap.__init__

    def forwarding(self, arity, shifted_degree, third, name=""):
        if not getattr(third, "_forwarded", False):
            inner = third

            def third(*xs):
                forwarded.append((inner, xs))
                return inner(*xs)

            third._forwarded = True
        init(self, arity, shifted_degree, third, name)

    monkeypatch.setattr(MultiMap, "__init__", forwarding)
    stores = []

    def recorded_store():
        stores.append(table_store())
        return stores[-1]

    chen, repeated = hom_complex._chen_table, []

    def counted_chen(n, domain):
        repeated.append((n, domain) in leaf_tables())
        return chen(n, domain)

    monkeypatch.setattr(hom_complex, "table_store", recorded_store)
    monkeypatch.setattr(hom_complex, "_chen_table", counted_chen)
    with check_store():
        assert outcomes() == expected
        assert forwarded and leaf_tables()
        distinct = {id(store): store for store in stores}.values()
        assert len(forwarded) == sum(store.built for store in distinct)
        assert repeated and not any(repeated)


def test_reference_values_read_no_table(monkeypatch):
    """The oracle is independent of the table engine: with `MultiMap.table`
    and the contraction in `MultiMap.__call__` refused, the references of
    composite maps still evaluate, to the library maps' values."""
    builds = [lambda: homotopy_witness(4),
              lambda: hom_boundary(homotopy_witness(3)),
              lambda: ainfty_relation_defect(3, 0)[1],
              lambda: cumulant_multimap(3),
              lambda: cell_to_map(cells_of(4)[-1]),
              lambda: interpret_sum(formal_boundary(p_tree(3)))]
    forms = (PolyForm((1, "1/2"), (0, 3)), DT, T + ONE, PolyForm((), (2, 1)))
    cases = []
    for build in builds:
        f = build()
        for xs in (forms[:f.arity], tuple(range(f.arity))):
            cases.append((reference(build), xs, f(*xs)))

    def refused(self, *args):
        raise AssertionError(f"{self.name} was asked for a table")

    monkeypatch.setattr(MultiMap, "table", refused)
    monkeypatch.setattr(MultiMap, "__call__", refused)
    for f, xs, expected in cases:
        assert f(*xs) == expected, f.name
    assert any(not expected.is_zero() for _, _, expected in cases)


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
                    lambda i, c: cell_to_map(cells_of(3)[i], c)),
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
    rule = boundary.rule

    def recording(domain):
        domains.append(domain)
        return rule(domain)

    boundary.rule = recording
    forms = (PolyForm.monomial(40) + DT, T, ONE + T, DT)
    value = boundary(*forms)
    assert value == reference(build)(*forms) != Cochain.zero()
    support = frozenset(map(encode_basis, (PolyForm.monomial(40), DT, T, ONE)))
    assert domains == [(support,) * 4]


KEPT_TABLES = {
    "boundary of H_3": lambda c: hom_boundary(homotopy_witness(3, c), c),
    "K_3": lambda c: cumulant_multimap(3),
    "morphism defect n=3": lambda c: ainfty_relation_defect(3, 0, c)[1],
}
_inputs = st.lists(st.one_of(st.integers(0, 9), _mixed_forms),
                   min_size=3, max_size=3)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.name)
@pytest.mark.parametrize("family", KEPT_TABLES)
@settings(max_examples=15, deadline=None)
@given(inputs=_inputs, zero_slot=st.one_of(st.none(), st.integers(0, 2)))
@example(inputs=[PolyForm((1, 0, 0, 2), (0, 1)), 8, 3], zero_slot=None)
@example(inputs=[T + DT, PolyForm((0, 1), (0, 0, 0, 5)), 9], zero_slot=2)
def test_values_do_not_depend_on_the_kept_tables(family, convention, inputs,
                                                 zero_slot):
    """A call builds its table in a store of its own, whatever a check
    keeps: a fresh map, the same map called in a check whose I_n leaves
    keep their D = 2 grid tables, and the reference agree on inputs whose
    supports lie partly off that grid, and the call leaves the check's
    leaf tables as they were."""
    def build():
        return KEPT_TABLES[family](convention)

    if zero_slot is not None:
        inputs[zero_slot] = PolyForm.zero()
    codes = TruncationGrid(2).slot_codes()
    fresh, expected = build(), reference(build)(*inputs)
    with check_store():
        kept = build()
        kept.table([codes] * 3)
        # the grid tables stay in the check's store, none on the map; K_3
        # has no I_n leaf
        grid = leaf_tables()
        assert bool(grid) == (family != "K_3") and not call_supports(kept)
        value = kept(*inputs)
        assert leaf_tables() == grid
    assert fresh(*inputs) == value == expected
    # a call builds one table, on the union of the supports; a zero input
    # reads none
    supports = [hom_complex._expansion(x)[0].keys() for x in inputs]
    union = [frozenset().union(*supports)] if all(supports) else []
    assert call_supports(kept) == call_supports(fresh) == union


def g4_vertex_sum(convention):
    return linear_combination(
        4, 3, ((cell_to_map(cell, convention),
                composition_sign(vertex_composition(cell)))
               for cell in cells_of(4) if cell.is_vertex()), "vertex sum g4")


RELEASED = {
    "boundary of H_3": lambda c: hom_boundary(homotopy_witness(3, c), c),
    "K_3": lambda c: cumulant_multimap(3),
    "morphism defect n=3": lambda c: ainfty_relation_defect(3, 0, c)[1],
    # cup(cup(I1, I1(wedge@0)), I1)
    "cell HLH of g4": lambda c: cell_to_map(cells_of(4)[16], c),
    "vertex sum of g4": g4_vertex_sum,
}


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.name)
@pytest.mark.parametrize("family", RELEASED)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_released_tables_change_no_value(family, convention, data):
    """Each build drops the tables of the maps below its top once their
    last parent has read them.  A table on a random domain and the values
    on mixed codes and forms are still the reference's; no build makes a
    (map, domain) twice, and no map below the top keeps a table."""
    def build():
        return RELEASED[family](convention)

    f, expected = build(), reference(build)
    runs = record_builds(f)
    domain = data.draw(st.lists(st.sets(st.integers(0, 9), max_size=3),
                                min_size=f.arity, max_size=f.arity),
                       label="domain")
    table = f.table(domain)
    assert not any(value.is_zero() for value in table.values())
    for xs in itertools.product(*domain):
        assert table.get(xs, Cochain.zero()) == expected(*map(decode_basis, xs))
    builds = [runs[:]]
    calls = data.draw(st.lists(st.lists(st.one_of(st.integers(0, 9),
                                                  _mixed_forms),
                                        min_size=f.arity, max_size=f.arity),
                               min_size=1, max_size=3), label="calls")
    for xs in calls:
        runs.clear()
        assert f(*xs) == expected(*xs), xs
        builds.append(runs[:])
    assert all(len(set(runs)) == len(runs) for runs in builds)
    assert not any(call_supports(g) for g in maps_below(f))


_small_forms = st.builds(PolyForm, st.lists(_fractions, max_size=3),
                         st.lists(_fractions, max_size=3))
_small_inputs = st.one_of(st.integers(0, 7), _small_forms)
# t^6 lies off the D = 2 grid and off every drawn support
OFF_GRID = encode_basis(PolyForm.monomial(6))


def _support(x) -> frozenset:
    return frozenset(hom_complex._expansion(x)[0])


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.name)
@pytest.mark.parametrize("family", OFF_BASIS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_calls_contract_the_prefix_index(family, convention, data):
    """A call contracts the prefix index of the table it reads, slot by
    slot.  Codes and forms mix; the table read is one a call built, the
    empty table of the morphism defect, or the table of a growth step,
    read by the call that grows it and by the calls after it.  The map is
    called alone or in a check whose I_n leaves keep their D = 2 grid
    tables.  Every value is the reference's."""
    indices, builder = OFF_BASIS[family]
    index = data.draw(st.sampled_from(indices), label="index")

    def build():
        return builder(index, convention)

    expected = reference(build)
    in_check = data.draw(st.booleans(), label="in a check")
    with check_store() if in_check else nullcontext():
        f = build()
        if in_check:
            f.table([TruncationGrid(2).slot_codes()] * f.arity)
        calls = data.draw(st.lists(st.lists(_small_inputs, min_size=f.arity,
                                            max_size=f.arity),
                                   min_size=1, max_size=3), label="calls")
        # a call whose support holds every earlier one and t^6 builds the
        # table on its own support and drops the earlier call tables
        slots = [sorted(frozenset({OFF_GRID}).union(
                     *(_support(xs[u]) for xs in calls)))
                 for u in range(f.arity)]
        widened = [sum((decode_basis(x).scale(k + 2)
                        for k, x in enumerate(slot)), PolyForm.zero())
                   for slot in slots]
        grown = frozenset().union(*slots)
        for xs in calls + [widened] + calls:
            assert f(*xs) == expected(*xs), xs
            if xs is widened:
                assert call_supports(f) == [grown]
        assert call_supports(f) == [grown]


def _sparse_form(rng: random.Random, codes: int) -> PolyForm:
    """Two basis terms with nonzero integer coefficients, codes < codes."""
    a, b = rng.sample(range(codes), 2)
    return (decode_basis(a).scale(rng.randint(1, 5))
            + decode_basis(b).scale(rng.choice((-1, 1)) * rng.randint(1, 5)))


def test_sparse_calls_keep_few_tables():
    """Calls on 600 seeded sparse triples (two terms per form, degree at
    most 12) grow one call table rather than keep one per support: the
    boundary of H_3 keeps at most two tables, no map below it keeps one,
    and each value is that of a fresh map and of the reference."""
    def build():
        return hom_boundary(homotopy_witness(3))

    rng = random.Random(1)
    triples = [tuple(_sparse_form(rng, 26) for _ in range(3))
               for _ in range(600)]
    f, expected = build(), reference(build)
    for xs in triples:
        assert f(*xs) == build()(*xs) == expected(*xs), xs
    assert len(call_supports(f)) <= 2
    below = maps_below(f)
    assert len(below) == 5 and not any(call_supports(g) for g in below)


def test_leaf_calls_in_a_check_keep_no_table_there():
    """Calls of a check's I_3 on 200 seeded sparse triples (two terms per
    form, codes < 26) build their tables in stores of their own: the check
    keeps none of them, the leaf keeps one grown call index, and each
    value is the reference's."""
    rng = random.Random(1)
    triples = [tuple(_sparse_form(rng, 26) for _ in range(3))
               for _ in range(200)]
    with check_store():
        f = iterated_integral_map(3)
        for xs in triples:
            assert f(*xs) == iterated_integral(list(xs)), xs
        assert leaf_tables() == {} and len(call_supports(f)) == 1


def _recording(f: MultiMap) -> list:
    """The domains f's rule is asked for from now on."""
    domains, rule = [], f.rule

    def recording(domain):
        domains.append(domain)
        return rule(domain)

    f.rule = recording
    return domains


def _per_call_work(supports, arity: int) -> int:
    """The build work, in tuples, of one table on (S,) * arity per call
    that no earlier call's table covers."""
    kept, work = [], 0
    for support in supports:
        if not any(support <= k for k in kept):
            kept.append(support)
            work += len(support) ** arity
    return work


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_call_tables_cost_at_most_twice_one_per_call(data):
    """Growing the call table at most doubles the build work of one table
    per uncovered call, whatever the order of the supports."""
    n = data.draw(st.sampled_from((2, 3)), label="arity")

    def build():
        return hom_boundary(homotopy_witness(n))

    f, expected = build(), reference(build)
    domains = _recording(f)
    slot = st.sets(st.integers(0, 11), min_size=1, max_size=3)
    calls = data.draw(st.lists(st.lists(slot, min_size=n, max_size=n),
                               min_size=1, max_size=12), label="calls")
    for call in calls:
        xs = [sum((decode_basis(x).scale(k + 2) for k, x in enumerate(codes)),
                  PolyForm.zero())
              for codes in call]
        assert f(*xs) == expected(*xs), xs
    supports = [frozenset().union(*call) for call in calls]
    built = sum(len(domain[0]) ** n for domain in domains)
    assert built <= 2 * _per_call_work(supports, n)


def test_disjoint_calls_build_no_table_on_their_union():
    """Calls on disjoint sparse supports, one dt form and three functions
    up to t^131, each build the table on their own support, never one on
    the union of 132 codes."""
    def build():
        return hom_boundary(homotopy_witness(4))

    f, expected = build(), reference(build)
    domains = _recording(f)
    supports, values = [], []
    for j in range(33):
        codes = [8 * j + 1, 8 * j + 2, 8 * j + 4, 8 * j + 6]
        xs = [decode_basis(x).scale(u + 2) for u, x in enumerate(codes)]
        values.append(f(*xs))
        assert values[-1] == expected(*xs), xs
        supports.append(frozenset(codes))
    assert any(not value.is_zero() for value in values)
    assert domains == [(support,) * 4 for support in supports]


def test_a_call_with_a_zero_input_reads_no_table():
    f = hom_boundary(homotopy_witness(3))
    domains = _recording(f)
    assert f(T + DT, PolyForm.zero(), PolyForm.monomial(9)) == Cochain.zero()
    assert f(0, 1, PolyForm.zero()) == Cochain.zero()
    assert domains == [] and call_supports(f) == []


def test_concurrent_calls_on_one_map():
    """Four threads call one boundary of H_3 on different off-grid
    supports, so call tables are built, grown and dropped while other
    calls read them; every value is the reference's."""
    def build():
        return hom_boundary(homotopy_witness(3))

    f, expected = build(), reference(build)
    rng = random.Random(4)
    batches = [[tuple(_sparse_form(rng, 30) for _ in range(3))
                for _ in range(40)] for _ in range(4)]
    wanted = [[expected(*xs) for xs in batch] for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda batch: [f(*xs) for xs in batch], batch)
                       for batch in batches]
            values = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert values == wanted
