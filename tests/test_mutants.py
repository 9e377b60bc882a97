"""Mutants of the library that the checks must catch, with what fails.

Each case replaces one library name (through `monkeypatch`, which puts
it back after the test), runs `run_suite("all", 4, 2)` and asserts the
exact set of failing checks.  So a check that stops seeing a mutant, or
starts failing where it should not, shows up here.  Convention B is the
one mutant the library ships: it fails the same 12 checks here as at
`--n-max 4 --degree 4`.

Some defects live where the suites never go: in the contraction that
evaluates a map on forms, in the choice of the table a call reads, in the
per-tuple cumulant, and in a cup sign that only a map of odd degree with
vertex values carries.  Those mutants are the library function
recompiled from its source with one line changed; each is called on
fixed off-grid forms against a reference map, or tabulated on synthetic
maps against the Koszul sign, and the case asserts which comparisons
fail.
"""

import __future__
import inspect
import itertools
import textwrap
from fractions import Fraction

import pytest

from homotopy_cumulants import cube_complex, cumulants, hom_complex
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    CONVENTION_B,
    MultiMap,
    TruncationGrid,
    cumulant_multimap,
    hom_boundary,
    homotopy_witness,
)
from homotopy_cumulants.interval_model import Cochain, PolyForm, cup
from homotopy_cumulants.suites import run_suite
from reference_maps import ReferenceMap

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


def test_convention_b_fails_exactly():
    assert failing_checks(CONVENTION_B) == CELLS | INTERPRETATIONS | {
        "boundary(H2) = K2", "boundary(H3) = K3", "boundary(H4) = K4",
        "boundary(I2) = K2"} | morphism(2, 4, convention="B")


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
        MultiMap._covering_index, "if all(map(le, supports, domain))",
        "if any(map(le, supports, domain))"))
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
