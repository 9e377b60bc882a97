"""Mutants of the library that the checks must catch, with what fails.

Each case replaces one library name (through `monkeypatch`, which puts
it back after the test), runs `run_suite("all", 4, 2)` and asserts the
exact set of failing checks.  So a check that stops seeing a mutant, or
starts failing where it should not, shows up here.  Convention B is the
one mutant the library ships: it fails the same 12 checks here as at
`--n-max 4 --degree 4`.

Some defects live where the suites never go: in the contraction that
evaluates a map on forms, in the choice of the table a call reads, in the
per-tuple cumulant, and in cup signs that only a map of odd degree with
vertex values carries.  Those mutants are the library function
recompiled from its source with one line changed; each is called on
fixed off-grid forms against a reference map, or tabulated on synthetic
maps against the Koszul sign or the Leibniz rule, and the case asserts
which comparisons fail.  The formal boundary's sign mutants are
recompiled the same way; each also pins which p_n, n <= 5, fail to
square to zero, and one makes four checks raise, which the report
records as failed entries.  The rule those signs read, `certify.passed`,
has a mutant of its own with A's and B's sides swapped.  Defects that change no value, only the work done (where
a build releases a table, how the recursive table groups its split term),
are caught by the tests that count that work.
"""

import __future__
import inspect
import itertools
import json
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from homotopy_cumulants import (
    certify,
    cli,
    cube_complex,
    cumulants,
    formal_ainfty,
    hom_complex,
    suites,
)
from homotopy_cumulants.certify import CONVENTION_A, CONVENTION_B
from homotopy_cumulants.hom_complex import (
    MultiMap,
    TruncationGrid,
    cumulant_multimap,
    hom_boundary,
    homotopy_witness,
)
from homotopy_cumulants.interval_model import Cochain, PolyForm, cup
from homotopy_cumulants.suites import run_suite
from reference_maps import (
    ReferenceMap,
    leibniz_sides,
    random_leaf_map,
    record_builds,
)
import test_cumulants

CELLS = {f"all cells of g{n} bound their facets" for n in (2, 3, 4)}
INTERPRETATIONS = {f"formal boundary of p{n} interprets to the Hom boundary"
                   for n in (2, 3, 4)}


def morphism(*ns, convention="A"):
    return {f"morphism relation n={n} (convention {convention})" for n in ns}


def negated_d_code(d_code):
    """d(t^k) = -k t^(k-1) dt."""
    def mutant(code):
        derivative = d_code(code)
        return None if derivative is None else (-derivative[0], derivative[1])
    return mutant


def chen_off_by_one(iterated_integral_codes):
    """Chen's formula with k_1 + .. + k_j + j + 1 for n >= 3."""
    def mutant(codes):
        if len(codes) < 3:
            return iterated_integral_codes(codes)
        denominator, exponents = 1, 0
        for j, code in enumerate(codes, start=1):
            if not code & 1:
                return Cochain.zero()
            exponents += code >> 1
            denominator *= exponents + j + 1
        return Cochain(0, 0, Fraction(1, denominator))
    return mutant


def negated_delta(delta):
    return lambda cochain: -delta(cochain)


def first_facet_flipped(cell_boundary):
    """The first facet of every cell enters with the opposite sign."""
    def mutant(cell):
        (sign, facet), *rest = cell_boundary(cell)
        return [(-sign, facet), *rest]
    return mutant


def first_one_cell_dropped(cells_of):
    """g_n without its first cell of dimension 1."""
    def mutant(n):
        cells = cells_of(n)
        cells.remove(next(cell for cell in cells if cell.dimension == 1))
        return cells
    return mutant


def first_cell_listed_twice(cells_of):
    """g_n with its first cell, the top cell, listed twice."""
    def mutant(n):
        cells = cells_of(n)
        return cells[:1] + cells
    return mutant


MUTANTS = {
    "d_code": (hom_complex, negated_d_code, CELLS | INTERPRETATIONS | {
        "boundary(H2) = K2", "boundary(H3) = K3", "boundary(H4) = K4",
        "boundary(I1) = 0", "boundary(I2) = K2"} | morphism(1, 2, 3, 4)),
    "iterated_integral_codes": (
        hom_complex, chen_off_by_one,
        {"all cells of g3 bound their facets",
         "all cells of g4 bound their facets",
         "formal boundary of p3 interprets to the Hom boundary",
         "formal boundary of p4 interprets to the Hom boundary"}
        | morphism(3, 4)),
    # every I_k with k >= 2, and every cell map of dimension >= 1, takes
    # pure edge values, which delta sends to zero
    "delta": (hom_complex, negated_delta,
              {"boundary(I1) = 0"} | morphism(1)),
    "cell_boundary": (cube_complex, first_facet_flipped, CELLS),
}


EULER = {f"euler characteristic g{n} = 1" for n in (2, 3, 4)}

# the cells of g_n, as `cube_complex.cells_of` enumerates them, miscounted:
# the Euler characteristic counts them, and G_n, read off the 1-cells,
# loses an edge where a 1-cell is dropped (every n) and doubles one where
# the top cell listed twice is a 1-cell (n = 2)
CELLS_OF_MUTANTS = {
    "a 1-cell dropped": (
        first_one_cell_dropped,
        EULER | {f"G{n} is the hypercube skeleton" for n in (2, 3, 4)}),
    "the first cell listed twice": (
        first_cell_listed_twice, EULER | {"G2 is the hypercube skeleton"}),
}


def failing_checks(*convention):
    return {entry.check for entry in run_suite("all", 4, 2, *convention)
            if not entry.status}


def test_unmutated_library_passes():
    assert failing_checks() == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_exactly(monkeypatch, name):
    module, mutate, expected = MUTANTS[name]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert failing_checks() == expected


@pytest.mark.parametrize("name", CELLS_OF_MUTANTS)
def test_cells_of_mutant_fails_exactly(monkeypatch, name):
    mutate, expected = CELLS_OF_MUTANTS[name]
    monkeypatch.setattr(cube_complex, "cells_of", mutate(cube_complex.cells_of))
    assert failing_checks() == expected


CONVENTION_B_FAILS = CELLS | INTERPRETATIONS | {
    "boundary(H2) = K2", "boundary(H3) = K3", "boundary(H4) = K4",
    "boundary(I2) = K2"} | morphism(2, 4, convention="B")


def test_convention_b_fails_exactly():
    assert failing_checks(CONVENTION_B) == CONVENTION_B_FAILS


def source_mutant(function, old: str, new: str):
    """function recompiled from its source with `old` replaced by `new`.

    `old` must occur exactly once, so a mutant whose line has changed
    fails here instead of silently testing the unmutated code.  The copy
    runs in a copy of its module's namespace; a method's source is
    dedented, and the copy is a plain function to set on the class.
    """
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__name__, old)
    namespace = dict(function.__globals__)
    code = compile(source.replace(old, new), inspect.getsourcefile(function),
                   "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    exec(code, namespace)
    return namespace[function.__name__]


DIRECT_VS_RECURSIVE = {f"direct vs recursive cumulant n={n}"
                       for n in (2, 3, 4)}

# name: (module, function, old line, new line, failing checks)
TABLE_MUTANTS = {
    # the direct build's scaled tail is +e S_{j+1} where it is -e S_{j+1}:
    # every check that tabulates K_n reads it, as `cumulant_table` and
    # `cumulant_levels` reach the build through the module's name
    "direct table's tail unsigned": (
        cumulants, "_direct_levels", "negated = -image", "negated = image",
        {"algebra morphism has zero cumulants", "boundary(I2) = K2",
         "boundary(H2) = K2", "boundary(H3) = K3", "boundary(H4) = K4",
         "signed vertex maps sum to the cumulant"} | DIRECT_VS_RECURSIVE),
    # the recursion adds e(a) K_{n-1}(b, ..) where it subtracts it, at
    # every level, as the mutant calls itself; the recursive build
    # reaches it through the module's name
    "recursion's split term added": (
        cumulants, "_recursive_table",
        "split = intern(-product(image, values[k]))",
        "split = intern(product(image, values[k]))", DIRECT_VS_RECURSIVE),
    # both builds skip one level more before the run's first entry, so
    # entry n reads K_{n+1} on both sides, which agree: only the arity
    # each level carries shows it, and the last entry finds no level
    "levels read one ahead": (
        suites, "_levels_agree", "for _ in range(n - 1):",
        "for _ in range(n):",
        {f"direct vs recursive cumulant n={n}" for n in (1, 2, 3, 4)}),
}


@pytest.mark.parametrize("name", TABLE_MUTANTS)
def test_table_mutant_fails_exactly(monkeypatch, name):
    module, function, old, new, expected = TABLE_MUTANTS[name]
    monkeypatch.setattr(module, function,
                        source_mutant(getattr(module, function), old, new))
    assert failing_checks() == expected


def test_vertex_sum_failure_keeps_its_witness(monkeypatch):
    """The vertex-sum entry records its first failing verdict, at n = 2."""
    module, function, old, new, _ = TABLE_MUTANTS["direct table's tail unsigned"]
    monkeypatch.setattr(module, function,
                        source_mutant(getattr(module, function), old, new))
    (entry,) = [entry for entry in run_suite("cube", 4, 2)
                if entry.check == "signed vertex maps sum to the cumulant"]
    assert not entry.status
    assert entry.witness == json.dumps({
        "arity": 2, "check": "vertex sum = K2", "grid_D": 2,
        "lhs": {"edge": "0/1", "v0": "0/1", "v1": "0/1"},
        "rhs": {"edge": "0/1", "v0": "2/1", "v1": "2/1"},
        "status": "fail", "witness_tuple": ["1", "1"]}, sort_keys=True)


# name: (old line, new line of `formal_ainfty._expand_boundary`, the
#        checks it fails beyond each convention's own, the n <= 5 whose
#        check_d_squared fails under each convention)
FORMAL_SIGN_MUTANTS = {
    # an m node's insertion takes a p node's sign: the terms of the
    # associahedron that p_3's square meets no longer cancel
    "m node's base dropped": (
        "exponent = (base + k - s", "exponent = (k - s",
        {"formal boundary squares to zero on p3",
         "formal boundary squares to zero on p4",
         "polytope 2-skeleton contractible n=4"}, {3, 4, 5}),
    # a block of the target split passes the others' arities alone: a
    # block's parity matters only when a block of even arity passes a
    # block holding a child of odd degree, an m_3 at the least, so five
    # leaves; the square of p_5 is the first to meet it, and no entry at
    # n <= 4 forms it: this pins that blind spot
    "target sign without block parities": (
        "weights = [len(b) + sum(c.plain_degree() for c in b)",
        "weights = [len(b)", set(), {5}),
    # the target split loses its leading sign, so no edge's boundary joins
    # two vertices: the polytope graph raises in four entries, each of
    # which records the error as its failure (see
    # `test_a_raising_check_is_a_failed_entry`)
    "target sign without its leading 1": (
        "exponent = 1 + sum(", "exponent = sum(",
        INTERPRETATIONS | {"formal boundary squares to zero on p3",
                           "formal boundary squares to zero on p4",
                           "three-input polytope is a hexagon"}
        | {f"polytope 2-skeleton contractible n={n}" for n in (2, 3, 4)},
        {3, 4, 5}),
}


@pytest.mark.parametrize("name", FORMAL_SIGN_MUTANTS)
def test_formal_sign_mutant_fails_exactly(monkeypatch, name):
    old, new, expected, unsquared = FORMAL_SIGN_MUTANTS[name]
    monkeypatch.setattr(formal_ainfty, "_expand_boundary", source_mutant(
        formal_ainfty._expand_boundary, old, new))
    assert failing_checks() == expected
    assert failing_checks(CONVENTION_B) == CONVENTION_B_FAILS | expected
    for convention in (CONVENTION_A, CONVENTION_B):
        with hom_complex.check_store():
            assert {n for n in range(1, 6)
                    if not formal_ainfty.check_d_squared(n, convention)
                    } == unsquared


def test_passed_rule_swapped_fails_exactly(monkeypatch):
    """`certify.passed` with A's and B's sides swapped, set in every module
    that reads it: each convention's formal boundary is then the other's,
    which still squares to zero, while the Hom layer, whose tables inline
    the rule, keeps its own.  Under A only p3's interpretation shows it;
    under B that check, which B's rule fails, now passes, and B's other
    eleven failures, which the Hom layer's signs make, stay."""
    mutant = source_mutant(
        certify.passed,
        "parities[:start] if convention.from_left else parities[stop:]",
        "parities[stop:] if convention.from_left else parities[:start]")
    for module in (certify, formal_ainfty):
        monkeypatch.setattr(module, "passed", mutant)
    p3 = "formal boundary of p3 interprets to the Hom boundary"
    assert failing_checks() == {p3}
    assert failing_checks(CONVENTION_B) == CONVENTION_B_FAILS - {p3}
    for convention in (CONVENTION_A, CONVENTION_B):
        with certify.check_store():
            assert all(formal_ainfty.check_d_squared(n, convention)
                       for n in range(1, 6))


def test_a_raising_check_is_a_failed_entry(monkeypatch, capsys):
    """A check that raises is one failed entry, whose witness is the
    error's type and message; the report keeps every entry, and the CLI
    prints it and exits 1."""
    checks = sorted(entry.check for entry in run_suite("all", 4, 2))
    old, new, _, _ = FORMAL_SIGN_MUTANTS["target sign without its leading 1"]
    monkeypatch.setattr(formal_ainfty, "_expand_boundary", source_mutant(
        formal_ainfty._expand_boundary, old, new))
    entries = run_suite("all", 4, 2)
    assert sorted(entry.check for entry in entries) == checks
    assert len(checks) == 48
    edge = "ValueError: edge {} does not join two vertices".format
    assert {entry.check: entry.witness for entry in entries
            if entry.witness and entry.witness.startswith("ValueError")} == {
        "three-input polytope is a hexagon": edge("p2(1⊗m2(1⊗1))"),
        "polytope 2-skeleton contractible n=2": edge("p2"),
        "polytope 2-skeleton contractible n=3": edge("p2(1⊗m2(1⊗1))"),
        "polytope 2-skeleton contractible n=4": edge("p2(1⊗m2(1⊗m2(1⊗1)))"),
    }
    assert cli.main(["verify", "all", "--n-max", "4", "--degree", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(report["entries"]) == 48


def failing_cost_cases() -> set:
    """The ids of the cases of the recursive table's cost model
    (`test_cumulants.test_recursive_table_splits_once_per_image`) that
    fail."""
    failing = set()
    for case in test_cumulants.RECURSIVE_TABLE_COSTS:
        with pytest.MonkeyPatch.context() as patch:
            try:
                test_cumulants.test_recursive_table_splits_once_per_image(
                    patch, *case)
            except AssertionError:
                failing.add("-".join(map(str, case)))
    return failing


def test_ungrouped_split_term_mutant_fails_exactly(monkeypatch):
    """A split term that multiplies each code of slot 0 on its own, where
    the codes that share an image share one product, changes no value, so
    the suites pass; only the recursive table's count of target products
    shows it, in both of its cases."""
    monkeypatch.setattr(cumulants, "_recursive_table", source_mutant(
        cumulants._recursive_table, "for image, xs in sharing.items():",
        "for image, xs in ((i, [x]) for i, xs in sharing.items() for x in xs):"))
    assert failing_cost_cases() == {"5-3-1344-3264", "6-4-5095-65000"}
    assert failing_checks() == set()


# off the D = 2 grid, with rational coefficients and both parts
OFF_GRID_FORMS = [
    (PolyForm((Fraction(1, 2), 0, 0, 3), (0, Fraction(-2, 3))),
     PolyForm((0, 1), (Fraction(5, 4), 0, 0, 0, 1)),
     PolyForm((2, Fraction(-1, 3)), (Fraction(1, 5), 1))),
    (PolyForm((0, 0, 0, 0, 1), (1,)),
     PolyForm((1, 1), (Fraction(3, 2),)),
     PolyForm((Fraction(-7, 6),), (0, 0, 0, 2))),
    # pairs of codes with equal sums in slots 0 and 1, t t^2 and t^2 t
    # say, lead to one shared subtree, where contraction paths meet
    (PolyForm((1, Fraction(1, 2), 3), (Fraction(-2, 3), 1)),
     PolyForm((2, 1, Fraction(1, 4)), (1,)),
     PolyForm((0, 0, 0, 0, 0, 1), (Fraction(1, 5), 0, 0, 1))),
]


def failing_comparisons() -> set:
    """Which of four comparisons fail on OFF_GRID_FORMS: the two library
    maps called on forms, each against the reference K_3 (the per-tuple
    cumulant), with each other, and the per-tuple cumulant against the
    per-tuple recursion."""
    ctx = cumulants.integration_context()
    boundary, k3 = hom_boundary(homotopy_witness(3)), cumulant_multimap(3)
    reference = ReferenceMap(
        3, 2, lambda *xs: cumulants.cumulant(ctx, xs), "K3 reference")
    failing = set()
    for xs in OFF_GRID_FORMS:
        expected = reference(*xs)
        checks = {
            "boundary(H3) = reference K3": boundary(*xs) == expected,
            "K3 = reference K3": k3(*xs) == expected,
            "boundary(H3) = K3": boundary(*xs) == k3(*xs),
            "cumulant = cumulant_recursive":
                cumulants.cumulant(ctx, xs)
                == cumulants.cumulant_recursive(ctx, xs),
        }
        failing.update(name for name, holds in checks.items() if not holds)
    return failing


LIBRARY_MAPS = {"boundary(H3) = reference K3", "K3 = reference K3"}

# name: (module, function, old line, new line, failing comparisons)
CALL_MUTANTS = {
    # each slot's coefficient c dropped from the frontier weights
    "dropped frontier weight": (
        hom_complex, "_contract",
        "merged[child] = merged.get(child, 0) + w * c",
        "merged[child] = merged.get(child, 0) + w", LIBRARY_MAPS),
    # paths that meet at a node keep the weight of the last one
    "frontier merge keeps one weight": (
        hom_complex, "_contract",
        "merged[child] = merged.get(child, 0) + w * c",
        "merged[child] = w * c", LIBRARY_MAPS),
    # S_i loses e(x_i..x_{n-1}), the single-block term
    "factored cumulant without j = n-1": (
        cumulants, "cumulant",
        "total = image + total", "total = total",
        {"boundary(H3) = reference K3", "K3 = reference K3",
         "cumulant = cumulant_recursive"}),
}


def test_unmutated_calls_pass():
    ctx = cumulants.integration_context()
    assert all(not cumulants.cumulant(ctx, xs).is_zero()
               for xs in OFF_GRID_FORMS)
    assert failing_comparisons() == set()


@pytest.mark.parametrize("name", CALL_MUTANTS)
def test_call_mutant_fails_exactly(monkeypatch, name):
    """The comparisons on forms catch the mutant; the suites, which
    tabulate grids and never call a map on forms, do not."""
    module, function, old, new, expected = CALL_MUTANTS[name]
    monkeypatch.setattr(module, function,
                        source_mutant(getattr(module, function), old, new))
    assert failing_comparisons() == expected
    assert failing_checks() == set()


# a has the codes 0, 1, 2 and 3; b has 5 and 6, none of them a's
COVER_FORMS = (PolyForm((1, Fraction(1, 2)), (Fraction(-2, 3), 1)),
               PolyForm((0, 0, 0, 1), (0, 0, Fraction(5, 4))))


def failing_cover_comparisons() -> set:
    """Which calls of a fresh K_3 differ from the per-tuple cumulant: first
    on (a, a, a), which builds the call table over a's codes, then on
    (a, b, a), whose slot 1 that table does not cover."""
    ctx = cumulants.integration_context()
    k3 = cumulant_multimap(3)
    a, b = COVER_FORMS
    return {name for name, xs in (("K3(a, a, a)", (a, a, a)),
                                  ("K3(a, b, a)", (a, b, a)))
            if k3(*xs) != cumulants.cumulant(ctx, xs)}


def test_cover_mutant_fails_exactly(monkeypatch):
    """`any` for `all` in the cover test reads the table over a's codes for
    (a, b, a), since slots 0 and 2 lie in it, and finds no entry at b."""
    ctx = cumulants.integration_context()
    a, b = COVER_FORMS
    assert not cumulants.cumulant(ctx, (a, b, a)).is_zero()
    assert failing_cover_comparisons() == set()
    monkeypatch.setattr(MultiMap, "_covering_index", source_mutant(
        MultiMap._covering_index, "if all(map(covering.issuperset, supports))",
        "if any(map(covering.issuperset, supports))"))
    assert failing_cover_comparisons() == {"K3(a, b, a)"}
    assert failing_checks() == set()


def vertex_valued_map(name: str, shift: int) -> MultiMap:
    """A map of arity 2 and shifted degree 0, so of odd plain degree, that
    has vertex values on every code pair."""
    return MultiMap(2, 0, lambda domain: {
        xs: Cochain(xs[0] + shift, xs[1] + 1, 1)
        for xs in itertools.product(*domain)}, name)


def koszul_cup_table(left: MultiMap, right: MultiMap, convention,
                     domain) -> dict:
    """cup(left, right) on a domain, each entry signed by the dt count:
    (-1)^(|moving| * the dt inputs the moving map passes)."""
    moving = right if convention.from_left else left
    lefts, rights = left.table(domain[:2]), right.table(domain[2:])
    table = {}
    for xs in itertools.product(*domain):
        passed = xs[:2] if convention.from_left else xs[2:]
        value = cup(lefts[xs[:2]], rights[xs[2:]])
        odd = moving.plain_degree * sum(x & 1 for x in passed) % 2
        table[xs] = -value if odd else value
    return table


def cup_sign_differences() -> dict:
    """convention name -> how many entries of `hom_complex.cup_pair` of two
    vertex-valued maps of odd degree differ from the Koszul sign on the
    D = 1 grid (256 tuples), for each convention with any."""
    left, right = vertex_valued_map("V", 1), vertex_valued_map("W", 2)
    domain = (TruncationGrid(1).slot_codes(),) * 4
    differences = {}
    for convention in (CONVENTION_A, CONVENTION_B):
        table = hom_complex.cup_pair(left, right, convention).table(domain)
        expected = koszul_cup_table(left, right, convention, domain)
        count = sum(table.get(xs) != expected.get(xs)
                    for xs in table.keys() | expected.keys())
        if count:
            differences[convention.name] = count
    return differences


def test_first_parity_cup_sign_mutant_fails_exactly(monkeypatch):
    """The sign taken from the first passed input's dt bit alone is wrong
    wherever the second passed input is a dt: half of the tuples.  The
    library's maps of odd plain degree (I_2, H_n) take only edge values,
    so the suites do not see it."""
    assert cup_sign_differences() == {}
    monkeypatch.setattr(hom_complex, "_cup_groups", source_mutant(
        hom_complex._cup_groups, "sum(xs) & 1", "xs[0] & 1"))
    assert cup_sign_differences() == {"A": 128, "B": 128}
    assert failing_checks() == set()


# name: (arity, plain degree) of f and of g, seeded 1 and 11
LEIBNIZ_CASES = {
    "R[1,-1] u R[1,-1]": ((1, -1), (1, -1)),
    "R[1,0] u R[1,0]": ((1, 0), (1, 0)),
    "R[2,-1] u R[1,-1]": ((2, -1), (1, -1)),
    "R[2,-1] u R[1,0]": ((2, -1), (1, 0)),
    "R[1,-1] u R[2,-1]": ((1, -1), (2, -1)),
    "R[1,0] u R[2,-1]": ((1, 0), (2, -1)),
}


def leibniz_failures() -> set:
    """(convention name, case) for each case of `LEIBNIZ_CASES` whose
    Leibniz rule (see `reference_maps.leibniz_sides`) fails on the D = 2
    grid."""
    grid, failing = TruncationGrid(2), set()
    for convention in (CONVENTION_A, CONVENTION_B):
        for name, ((a, df), (b, dg)) in LEIBNIZ_CASES.items():
            lhs, rhs = leibniz_sides(random_leaf_map(a, df, 1),
                                     random_leaf_map(b, dg, 11), convention)
            if not hom_complex.maps_equal_on_truncation(lhs, rhs, grid):
                failing.add((convention.name, name))
    return failing


def test_arity_one_cup_sign_mutant_fails_exactly(monkeypatch):
    """A cup that drops the Koszul sign of a moving map of arity 1 breaks
    the Leibniz rule wherever that map, or its boundary, is odd: the right
    map of arity 1 under A, the left one under B.  The suites do not see
    it: the library's maps of arity 1, I_1 and K_1, have even degree."""
    assert leibniz_failures() == set()
    monkeypatch.setattr(hom_complex, "cup_pair", source_mutant(
        hom_complex.cup_pair, "moving.plain_degree % 2),",
        "moving.plain_degree % 2 if moving.arity > 1 else 0),"))
    assert leibniz_failures() == {
        ("A", "R[1,-1] u R[1,-1]"), ("A", "R[2,-1] u R[1,-1]"),
        ("A", "R[2,-1] u R[1,0]"), ("B", "R[1,-1] u R[1,-1]"),
        ("B", "R[1,-1] u R[2,-1]"), ("B", "R[1,0] u R[2,-1]")}
    assert failing_checks() == set()


def rebuilt_in_one_build() -> set:
    """The names of the maps that build a table twice within one build:
    of H_5's table on the D = 1 grid, or of a call of the boundary of H_3
    on each of OFF_GRID_FORMS."""
    h5, boundary = homotopy_witness(5), hom_boundary(homotopy_witness(3))
    rebuilt = set()
    for f, requests in ((h5, [lambda: h5.table(
                            [TruncationGrid(1).slot_codes()] * 5)]),
                        (boundary, [lambda xs=xs: boundary(*xs)
                                    for xs in OFF_GRID_FORMS])):
        runs = record_builds(f)
        for request in requests:
            runs.clear()
            request()
            rebuilt.update(g.name for (g, _), count in Counter(runs).items()
                           if count > 1)
    return rebuilt


def tables_held_to_the_end() -> int:
    """How many tables below the boundary of H_3 its builds hold until
    they end, where each should drop them once read: over its tables on
    the D = 0, 1 and 2 grids, asked in one check."""
    with hom_complex.check_store():
        boundary = hom_boundary(homotopy_witness(3))
        for degree in range(3):
            boundary.table([TruncationGrid(degree).slot_codes()] * 3)
        store = hom_complex.table_store()
        return store.built - store.released - 3


H3 = "(I2(wedge@0) - cup(I1,I2))"

# name: (method of `hom_complex._Build`, old line, new line,
#        what `rebuilt_in_one_build` and `tables_held_to_the_end` return)
BUILD_MUTANTS = {
    # a child's tables are dropped when its first parent has read it, so a
    # later parent builds them again: H_3 inside H_5
    "release after the first parent's read": (
        "table", "if last and not edges[f]:", "if last:", {H3}, 0),
    # no read is ever a child's last, so nothing is released before the
    # build ends: the 17 tables below the boundary of H_3
    "never release": (
        "table", "last = last and self.final and edges.get(f, 0) > 0",
        "last = False", set(), 17),
}


def test_unmutated_builds_release_every_table_once():
    assert rebuilt_in_one_build() == set()
    assert tables_held_to_the_end() == 0


@pytest.mark.parametrize("name", BUILD_MUTANTS)
def test_build_mutant_fails_exactly(monkeypatch, name):
    """Where a build releases a child's tables changes no value, so the
    suites pass; the work and what the builds hold show the mutant."""
    method, old, new, rebuilt, held = BUILD_MUTANTS[name]
    build = hom_complex._Build
    monkeypatch.setattr(build, method,
                        source_mutant(getattr(build, method), old, new))
    assert rebuilt_in_one_build() == rebuilt
    assert tables_held_to_the_end() == held
    assert failing_comparisons() == set()
    assert failing_checks() == set()
