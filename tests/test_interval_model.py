"""Forms, cochains, and the integration maps on the interval."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopy_cumulants.interval_model import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_EXPONENT,
    Cochain,
    ParseError,
    PolyForm,
    Polynomial,
    cup,
    d_form,
    delta,
    integrate,
    iterated_integral,
    parse_form_tuple,
    parse_polyform,
    wedge,
)


def poly(*coeffs):
    return Polynomial(coeffs)


def form(coeffs0=(), coeffs1=()):
    return PolyForm(Polynomial(coeffs0), Polynomial(coeffs1))


T = form((0, 1))
DT = form((), (1,))
ONE = form((1,))


# independent oracle: antiderivative on raw coefficient lists
def antider(coeffs):
    return [Fraction(0)] + [Fraction(c, k + 1) for k, c in enumerate(coeffs)]


def value_at_one(coeffs):
    return sum(Fraction(c) for c in coeffs)


class TestPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).coefficients == ()
        assert poly().is_zero()

    def test_arithmetic(self):
        p, q = poly(1, 1), poly(0, 2)
        assert p + q == poly(1, 3)
        assert p - p == poly()
        assert p * q == poly(0, 2, 2)
        assert p.scale(Fraction(1, 2)) == poly(Fraction(1, 2), Fraction(1, 2))

    def test_calculus(self):
        p = poly(3, 0, 1)  # 3 + t^2
        assert p.derivative() == poly(0, 2)
        assert p.antiderivative() == poly(0, 3, 0, Fraction(1, 3))
        assert p(Fraction(2)) == 7

    def test_monomial_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    @given(st.lists(st.fractions(max_denominator=20), max_size=6))
    def test_derivative_of_antiderivative(self, coeffs):
        p = Polynomial(coeffs)
        assert p.antiderivative().derivative() == p


class TestWedge:
    def test_zero_form_times_one_form(self):
        assert wedge(T, DT) == form((), (0, 1))

    def test_top_degree_squares_to_zero(self):
        assert wedge(DT, DT).is_zero()

    def test_polynomial_multiplication_oracle(self):
        # (1 + t) ^ (t dt) via the coefficient-list oracle
        left, right = [1, 1], [0, 1]
        expected = [Fraction(0)] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                expected[i + j] += Fraction(a) * Fraction(b)
        assert wedge(form((1, 1)), form((), (0, 1))) == PolyForm((), expected)
        assert expected == [0, 1, 1]

    def test_degree_additivity(self):
        assert wedge(T, T) == form((0, 0, 1))
        assert wedge(T, form((), (0, 1))) == form((), (0, 0, 1))


class TestDifferential:
    def test_examples(self):
        assert d_form(form((0, 0, 1))) == form((), (0, 2))
        assert d_form(DT).is_zero()
        assert d_form(form((0, 0, 0, 1), (0, 1))) == form((), (0, 0, 3))

    def test_squares_to_zero_up_to_degree_12(self):
        for k in range(13):
            for dt in (False, True):
                assert d_form(d_form(PolyForm.monomial(k, dt=dt))).is_zero()

    def test_graded_leibniz_up_to_degree_8(self):
        monomials = [PolyForm.monomial(k, dt=dt)
                     for dt in (False, True) for k in range(9)]
        for a, b in itertools.product(monomials, repeat=2):
            sign = -1 if a.part0.is_zero() else 1
            assert d_form(wedge(a, b)) == (
                wedge(d_form(a), b) + wedge(a, d_form(b)).scale(sign))

    def test_graded_commutativity(self):
        monomials = [PolyForm.monomial(k, dt=dt)
                     for dt in (False, True) for k in range(9)]
        for a, b in itertools.product(monomials, repeat=2):
            pa = 1 if a.part0.is_zero() else 0
            pb = 1 if b.part0.is_zero() else 0
            assert wedge(a, b) == wedge(b, a).scale((-1) ** (pa * pb))


class TestCochains:
    def test_cup_front_vertex_on_edge(self):
        assert cup(Cochain(2, 3), Cochain(edge=5)) == Cochain(edge=10)

    def test_cup_back_vertex_after_edge(self):
        assert cup(Cochain(edge=5), Cochain(2, 3)) == Cochain(edge=15)

    def test_cup_of_edges_vanishes(self):
        assert cup(Cochain(edge=1), Cochain(edge=1)).is_zero()

    def test_cup_associative_on_basis(self):
        basis = [Cochain(1), Cochain(0, 1), Cochain(edge=1)]
        for a, b, c in itertools.product(basis, repeat=3):
            assert cup(cup(a, b), c) == cup(a, cup(b, c))

    def test_delta_examples(self):
        assert delta(Cochain(0, 1)) == Cochain(edge=1)
        assert delta(Cochain(edge=7)).is_zero()
        assert delta(Cochain(3, 3)).is_zero()
        assert delta(delta(Cochain(2, 5, 7))).is_zero()

    def test_delta_is_derivation_of_cup(self):
        basis = [Cochain(1), Cochain(0, 1), Cochain(edge=1)]
        for a, b in itertools.product(basis, repeat=2):
            pa = 1 if (not a.v0 and not a.v1) else 0
            assert delta(cup(a, b)) == (
                cup(delta(a), b) + cup(a, delta(b)).scale((-1) ** pa))


class TestIntegration:
    def test_restriction_of_zero_forms(self):
        assert integrate(form((0, 0, 1))) == Cochain(0, 1)
        assert integrate(ONE) == Cochain(1, 1)

    def test_edge_integral_oracle(self):
        # t dt integrates to 1/2 via the raw antiderivative oracle
        assert value_at_one(antider([0, 1])) == Fraction(1, 2)
        assert integrate(form((), (0, 1))) == Cochain(edge=Fraction(1, 2))

    def test_stokes_up_to_degree_12(self):
        for k in range(13):
            for dt in (False, True):
                a = PolyForm.monomial(k, dt=dt)
                assert integrate(d_form(a)) == delta(integrate(a))

    def test_iterated_integral_simplex_volumes(self):
        # oracle: nested antiderivatives on raw coefficient lists
        acc = antider([1])
        assert value_at_one(acc) == Fraction(1)
        acc = antider(acc)
        assert iterated_integral([DT, DT]) == Cochain(edge=value_at_one(acc))
        assert value_at_one(acc) == Fraction(1, 2)
        acc = antider(acc)
        assert iterated_integral([DT, DT, DT]) == Cochain(edge=value_at_one(acc))
        assert value_at_one(acc) == Fraction(1, 6)

    def test_iterated_integral_factorials_up_to_8(self):
        factorial = 1
        for n in range(1, 9):
            factorial *= n
            assert iterated_integral([DT] * n) == Cochain(edge=Fraction(1, factorial))

    def test_zero_form_input_annihilates(self):
        assert iterated_integral([T, DT]).is_zero()
        assert iterated_integral([DT, ONE, DT]).is_zero()

    def test_single_input_is_integrate(self):
        a = form((1, 2), (0, 3))
        assert iterated_integral([a]) == integrate(a)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            iterated_integral([])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 3), st.integers(0, 3),
        st.fractions(max_denominator=6), st.fractions(max_denominator=6),
    )
    def test_multilinearity_by_random_combination(self, k1, k2, s, r):
        a = PolyForm.monomial(k1, dt=True)
        b = PolyForm.monomial(k2, dt=True)
        fixed = PolyForm.monomial(1, dt=True)
        mixed = a.scale(s) + b.scale(r)
        lhs = iterated_integral([mixed, fixed])
        rhs = (iterated_integral([a, fixed]).scale(s)
               + iterated_integral([b, fixed]).scale(r))
        assert lhs == rhs


class TestTextFormats:
    def test_form_rendering(self):
        f = PolyForm(Polynomial([0, 0, Fraction(3, 2)]),
                     Polynomial([Fraction(1, 3)]))
        assert f.to_text() == "3/2*t^2 + (1/3)dt"
        assert PolyForm.zero().to_text() == "0"

    def test_cochain_rendering(self):
        assert Cochain(0, 1, Fraction(1, 2)).to_text() == "(0, 1; 1/2 dt)"

    def test_json_shapes(self):
        f = PolyForm(Polynomial([1]), Polynomial([0, Fraction(1, 2)]))
        assert f.to_json_dict() == {"part0": ["1/1"], "part1": ["0/1", "1/2"]}
        assert Cochain(1, 2, 3).to_json_dict() == {
            "v0": "1/1", "v1": "2/1", "edge": "3/1"}

    def test_parse_round_trip(self):
        for text in ("3/2*t^2 + (1/3)dt", "t", "dt", "0", "1 - t",
                     "(1 + t)dt", "2/3", "t^4*dt"):
            parsed = parse_polyform(text)
            assert parse_polyform(parsed.to_text()) == parsed

    def test_parse_products_are_wedges(self):
        assert parse_polyform("dt*dt").is_zero()
        assert parse_polyform("t*t") == form((0, 0, 1))
        assert parse_polyform("(1+t)^2") == form((1, 2, 1))

    def test_powers_match_repeated_wedges(self):
        base = form((1, Fraction(1, 2)), (0, 3))
        value = ONE
        for exponent in range(12):
            assert parse_polyform(f"(1 + 1/2*t + 3*t*dt)^{exponent}") == value
            value = wedge(value, base)

    def test_parse_limits(self):
        parse_polyform(f"t^{MAX_PARSE_EXPONENT}")
        parse_polyform(f"t^{MAX_PARSE_DEGREE - 1} * (1 + t)")
        for text in (f"t^{MAX_PARSE_EXPONENT + 1}", "1/0", "2/00 + t",
                     "1" * 101, "t^" + "9" * 5000, "\u00b2", "t^\u00b2",
                     f"t^{MAX_PARSE_DEGREE} * t", "((1 + t)^64)^64",
                     "((2^64)^64)^64", "(3^64)^4"):
            with pytest.raises(ParseError):
                parse_polyform(text)

    def test_tuple_parsing(self):
        forms = parse_form_tuple("t ; dt")
        assert forms == [T, DT]

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_polyform("t + @")
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse_form_tuple("t ; 1/ ;dt")
        assert err.value.position == 7

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(max_denominator=9), max_size=4),
           st.lists(st.fractions(max_denominator=9), max_size=4))
    def test_round_trip_random_forms(self, c0, c1):
        f = PolyForm(Polynomial(c0), Polynomial(c1))
        assert parse_polyform(f.to_text()) == f
