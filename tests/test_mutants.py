"""Mutants of the library that the suites must catch, with what fails.

Each case replaces one library name (through `monkeypatch`, which puts
it back after the test), runs `run_suite("all", 4, 2)` and asserts the
exact set of failing checks.  So a check that stops seeing a mutant, or
starts failing where it should not, shows up here.  Convention B is the
one mutant the library ships: it fails the same 12 checks here as at
`--n-max 4 --degree 4`.
"""

from fractions import Fraction

import pytest

from homotopy_cumulants import cube_complex, hom_complex
from homotopy_cumulants.hom_complex import CONVENTION_B
from homotopy_cumulants.interval_model import Cochain
from homotopy_cumulants.suites import run_suite

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
