"""Forms, cochains, and the integration maps on the interval."""

import copy
import itertools
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopy_cumulants.interval_model import (
    _ZERO,
    MAX_PARSE_DEGREE,
    MAX_PARSE_EXPONENT,
    Cochain,
    CochainPool,
    ParseError,
    PolyForm,
    Polynomial,
    cup,
    d_form,
    decode_basis,
    delta,
    integrate,
    iterated_integral,
    iterated_integral_codes,
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


class FractionPolynomial:
    """Reference kernel: a tuple of Fractions, one Fraction op per coefficient.

    It shares no code with the integer kernel of `Polynomial`; the
    properties below compare the two operation by operation.
    """

    def __init__(self, coefficients=()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self):
        return FractionPolynomial([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coefficients or not other.coefficients:
            return FractionPolynomial()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return FractionPolynomial(out)

    def scale(self, scalar):
        s = Fraction(scalar)
        if not s:
            return FractionPolynomial()
        return FractionPolynomial([s * c for c in self.coefficients])

    def derivative(self):
        return FractionPolynomial([k * c for k, c in enumerate(self.coefficients)][1:])

    def antiderivative(self):
        return FractionPolynomial(
            [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coefficients)]
        )

    def __call__(self, point):
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def assert_matches_reference(value, reference):
    """value is the reduced Polynomial with the reference's coefficients."""
    assert value.coefficients == reference.coefficients
    assert value == Polynomial(reference.coefficients)
    assert value.denominator > 0
    assert gcd(value.denominator, *value.numerators) == 1
    assert not value.numerators or value.numerators[-1] != 0


rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 40))
coefficient_lists = st.lists(
    st.one_of(st.just(Fraction(0)), rationals), max_size=7)


class TestIntegerKernel:
    """The integer kernel against the Fraction reference, op by op."""

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists, coefficient_lists)
    def test_ring_operations(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        rp, rq = FractionPolynomial(a), FractionPolynomial(b)
        assert_matches_reference(p, rp)
        assert_matches_reference(p + q, rp + rq)
        assert_matches_reference(p - q, rp - rq)
        assert_matches_reference(-p, -rp)
        assert_matches_reference(p * q, rp * rq)

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists, st.one_of(st.just(Fraction(0)), rationals))
    def test_calculus_and_scaling(self, a, s):
        p, rp = Polynomial(a), FractionPolynomial(a)
        assert_matches_reference(p.scale(s), rp.scale(s))
        assert_matches_reference(p.derivative(), rp.derivative())
        assert_matches_reference(p.antiderivative(), rp.antiderivative())
        assert_matches_reference(p.antiderivative().antiderivative(),
                                 rp.antiderivative().antiderivative())

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists, rationals)
    def test_evaluation(self, a, x):
        p, rp = Polynomial(a), FractionPolynomial(a)
        for point in (0, 1, Fraction(0), Fraction(1), -1, Fraction(-3, 7),
                      Fraction(5, 2), x, -x, str(x)):
            value = p(point)
            assert isinstance(value, Fraction)
            assert value == rp(point)

    @pytest.mark.parametrize("left, right", [
        ([Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 6), Fraction(2, 6)]),
        ([Fraction(2, 4)], [Fraction(1, 2)]),
        ([Fraction(0, 7), 0], []),
        (["-4/6", 0, "10/15"], [Fraction(-2, 3), 0, Fraction(2, 3), 0]),
    ])
    def test_canonical_form(self, left, right):
        p, q = Polynomial(left), Polynomial(right)
        assert p == q
        assert hash(p) == hash(q)
        assert (p.numerators, p.denominator) == (q.numerators, q.denominator)

    def test_canonical_storage(self):
        assert Polynomial([Fraction(1, 2), Fraction(1, 3)]).numerators == (3, 2)
        assert Polynomial([Fraction(1, 2), Fraction(1, 3)]).denominator == 6
        assert Polynomial([]).numerators == ()
        assert Polynomial([]).denominator == 1
        half = Polynomial([Fraction(1, 2)])
        assert (half + half).denominator == 1
        assert (half * Polynomial([2])).numerators == (1,)


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


class TestExactScalars:
    BUILDERS = {
        "Polynomial": lambda c: Polynomial([1, c]),
        "PolyForm.monomial": lambda c: PolyForm.monomial(2, coefficient=c),
        "Cochain": lambda c: Cochain(c),
        "Cochain.scale": lambda c: Cochain(1, 2, 3).scale(c),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_floats_are_refused(self, name):
        with pytest.raises(TypeError, match="inexact scalar 0.5"):
            self.BUILDERS[name](0.5)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_exact_scalars_are_accepted(self, name):
        build = self.BUILDERS[name]
        assert build(Fraction(1, 3)) == build("1/3") != build(1)
        assert build(2) == build(Fraction(2))


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

    @settings(max_examples=200, deadline=None)
    @given(*[coefficient_lists] * 4)
    def test_fused_kernel_is_the_product_of_the_parts(self, a0, a1, b0, b1):
        """The one-kernel wedge against f p + (f q + g p) dt spelled with
        Polynomial products and sums; parts may be zero, and the
        denominators of f q and g p differ."""
        a, b = form(a0, a1), form(b0, b1)
        expected = PolyForm(a.part0 * b.part0,
                            a.part0 * b.part1 + a.part1 * b.part0)
        value = wedge(a, b)
        assert value == expected and hash(value) == hash(expected)
        for part, reference in ((value.part0, expected.part0),
                                (value.part1, expected.part1)):
            assert_matches_reference(part, reference)


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


def vertex_part(a: Cochain) -> Cochain:
    return Cochain(a.v0, a.v1, 0)


def edge_part(a: Cochain) -> Cochain:
    return Cochain(0, 0, a.edge)


class TestCochains:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, "0", Fraction(0, 5), Fraction(0)]),
                              st.fractions(max_denominator=6)),
                    min_size=6, max_size=6),
           st.fractions(max_denominator=6))
    def test_zero_fields_are_the_shared_zero(self, values, s):
        a, b = Cochain(*values[:3]), Cochain(*values[3:])
        computed = [a, b, a + b, a - b, a - a, -a, a.scale(s), a.scale(0),
                    cup(a, b), cup(b, a), delta(a), vertex_part(a),
                    edge_part(a), integrate(form((1, -1), (0, 1, "-3/2"))),
                    integrate(form((), (0, 1))), iterated_integral([DT, T])]
        for c in computed:
            for field in (c.v0, c.v1, c.edge):
                assert (field is _ZERO) == (field == 0)

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


class FractionCochain:
    """Reference cochain: three Fraction fields, one Fraction op per field.

    It shares no code with the integer kernel of `Cochain`; the properties
    below compare the two operation by operation.
    """

    def __init__(self, v0=0, v1=0, edge=0):
        self.fields = (Fraction(v0), Fraction(v1), Fraction(edge))

    def __add__(self, other):
        return FractionCochain(*(x + y for x, y in zip(self.fields, other.fields)))

    def __neg__(self):
        return FractionCochain(*(-x for x in self.fields))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        s = Fraction(scalar)
        return FractionCochain(*(s * x for x in self.fields))

    def cup(self, other):
        a0, a1, ae = self.fields
        b0, b1, be = other.fields
        return FractionCochain(a0 * b0, a1 * b1, a0 * be + ae * b1)

    def delta(self):
        v0, v1, _ = self.fields
        return FractionCochain(0, 0, v1 - v0)

    @staticmethod
    def integrate(a):
        f = FractionPolynomial(a.part0.coefficients)
        g = FractionPolynomial(a.part1.coefficients)
        return FractionCochain(f(0), f(1), g.antiderivative()(1))

    @staticmethod
    def iterated_integral(forms):
        if len(forms) == 1:
            return FractionCochain.integrate(forms[0])
        parts = [FractionPolynomial(f.part1.coefficients) for f in forms]
        acc = parts[0].antiderivative()
        for p in parts[1:]:
            acc = (p * acc).antiderivative()
        return FractionCochain(0, 0, acc(1))


def assert_matches_cochain(value, reference):
    """value is the reduced Cochain with the reference's fields."""
    assert (value.v0, value.v1, value.edge) == reference.fields
    assert value == Cochain(*reference.fields)
    assert hash(value) == hash(Cochain(*reference.fields))
    assert value.den > 0
    assert gcd(value.n0, value.n1, value.ne, value.den) == 1
    assert value.is_zero() == (value is Cochain.zero()) == (not any(reference.fields))


def reference_of(a):
    return FractionCochain(a.v0, a.v1, a.edge)


field_values = st.one_of(st.just(Fraction(0)), rationals)
cochain_fields = st.tuples(field_values, field_values, field_values)
forms = st.builds(form, coefficient_lists, coefficient_lists)


class TestCochainKernel:
    """The integer Cochain kernel against the Fraction reference, op by op."""

    @settings(max_examples=150, deadline=None)
    @given(cochain_fields, cochain_fields)
    def test_linear_operations(self, x, y):
        a, b = Cochain(*x), Cochain(*y)
        ra, rb = FractionCochain(*x), FractionCochain(*y)
        assert_matches_cochain(a, ra)
        assert_matches_cochain(a + b, ra + rb)
        assert_matches_cochain(a - b, ra - rb)
        assert_matches_cochain(a - a, ra - ra)
        assert_matches_cochain(-a, -ra)

    @settings(max_examples=150, deadline=None)
    @given(cochain_fields, st.integers(-50, 50), rationals)
    def test_scale(self, x, m, s):
        a, ra = Cochain(*x), FractionCochain(*x)
        for scalar in (m, s, "1/3", 0, -1):
            assert_matches_cochain(a.scale(scalar), ra.scale(scalar))

    @settings(max_examples=150, deadline=None)
    @given(cochain_fields, cochain_fields)
    def test_cup_and_delta(self, x, y):
        a, b = Cochain(*x), Cochain(*y)
        ra, rb = FractionCochain(*x), FractionCochain(*y)
        assert_matches_cochain(cup(a, b), ra.cup(rb))
        assert_matches_cochain(cup(b, a), rb.cup(ra))
        assert_matches_cochain(delta(a), ra.delta())
        assert_matches_cochain(cup(a, b) + cup(b, a), ra.cup(rb) + rb.cup(ra))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(forms, min_size=1, max_size=4))
    def test_integrals_of_random_forms(self, inputs):
        assert_matches_cochain(integrate(inputs[0]),
                               FractionCochain.integrate(inputs[0]))
        assert_matches_cochain(iterated_integral(inputs),
                               FractionCochain.iterated_integral(inputs))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 13), min_size=1, max_size=5))
    def test_iterated_integral_codes(self, codes):
        reference = FractionCochain.iterated_integral(
            [decode_basis(c) for c in codes])
        assert_matches_cochain(iterated_integral_codes(codes), reference)

    @pytest.mark.parametrize("left, right", [
        (("1/2", "1/3"), ("3/6", "2/6")),
        ((Fraction(2, 4), 0, 1), (Fraction(1, 2), "0/7", Fraction(3, 3))),
        ((0, "0", Fraction(0, 5)), ()),
        (("-4/6", 0, "10/15"), (Fraction(-2, 3), 0, Fraction(2, 3))),
    ])
    def test_canonical_form(self, left, right):
        a, b = Cochain(*left), Cochain(*right)
        assert a == b
        assert hash(a) == hash(b)
        assert (a.n0, a.n1, a.ne, a.den) == (b.n0, b.n1, b.ne, b.den)

    def test_canonical_storage(self):
        a = Cochain("1/2", "1/3")
        assert (a.n0, a.n1, a.ne, a.den) == (3, 2, 0, 6)
        zero = Cochain.zero()
        assert (zero.n0, zero.n1, zero.ne, zero.den) == (0, 0, 0, 1)
        assert Cochain() is zero and Cochain(0, "0", Fraction(0, 5)) is zero
        assert (Cochain(2, 4, 6).den, Cochain(2, 4, 6).n0) == (1, 2)
        half = Cochain("1/2", "1/2", "1/2")
        assert ((half + half).n0, (half + half).den) == (1, 1)
        assert cup(Cochain(edge=1), Cochain(edge=1)) is zero
        assert delta(Cochain(3, 3, 1)) is zero
        assert (half - half) is zero and half.scale(0) is zero

    def test_cochains_are_immutable(self):
        a = Cochain(1, 2, 3)
        for name in ("n0", "den", "v0", "edge"):
            with pytest.raises(AttributeError):
                setattr(a, name, 5)
        assert a == Cochain(1, 2, 3)


class TestCochainValue:
    """A Cochain is a reduced 4-tuple whose equality and hash are the
    tuple's own."""

    def test_equality_and_hash_are_the_tuples(self):
        assert Cochain.__eq__ is tuple.__eq__
        assert Cochain.__hash__ is tuple.__hash__
        assert "__eq__" not in vars(Cochain) and "__hash__" not in vars(Cochain)

    def test_equal_values_built_separately(self):
        a = Cochain("1/2", "1/3", 2)
        b = cup(Cochain(1, 1, 0), Cochain("3/6", "2/6", "4/2"))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a == (3, 2, 12, 6) and hash(a) == hash((3, 2, 12, 6))
        assert len({a, b, (3, 2, 12, 6)}) == 1

    def test_repetition_and_ordering_are_refused(self):
        c = Cochain(1, 2, 3)
        for operation in (lambda: c * 2, lambda: 2 * c, lambda: c < c,
                          lambda: c <= c, lambda: c > c, lambda: c >= c):
            with pytest.raises(TypeError):
                operation()

    def test_fields_cannot_be_assigned(self):
        c = Cochain(1, 2, 3)
        for name in ("n0", "n1", "ne", "den", "v0", "v1", "edge", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 5)
        assert c == (1, 2, 3, 1)

    def test_the_zero_is_shared(self):
        assert Cochain(0, 0, 0) is Cochain.zero()
        assert Cochain(1, 2, 3) - Cochain(1, 2, 3) is Cochain.zero()


def test_pool_indices_are_keyed_by_value():
    pool = CochainPool()
    half = Cochain("1/2", 0, 1)
    table = {(0,): half, (1,): Cochain(1, 0, 2).scale("1/2"), (2,): cup(
        Cochain(1, 1, 0), half)}
    indices = pool.indices(table, -2)
    assert len(indices) == 1 and len(pool.values) == 3
    # a cochain built afresh, equal to the table's, reads the same index
    k = indices[Cochain("2/4", 0, "3/3")]
    assert pool.values[k] == Cochain(-1, 0, -2)
    assert pool.indices(table) == {half: pool.intern(half)}


def test_polynomials_and_forms_hold_their_fields_only():
    """No hash is cached: equal values hash equal, as the round trips
    below and the canonical forms above check, from the fields alone."""
    assert Polynomial.__slots__ == ("numerators", "denominator")
    assert PolyForm.__slots__ == ("part0", "part1")


class TestCopyAndPickle:
    """copy, deepcopy and pickle rebuild a value through its reducing
    constructor."""

    values = [
        Cochain.zero(), Cochain("1/2", "-1/3", 4), Cochain(0, 0, "7/9"),
        Polynomial([]), Polynomial(["1/2", 0, "-3/4"]),
        PolyForm(), PolyForm(Polynomial([1, "2/3"]), Polynomial(["-1/5"])),
    ]

    @pytest.mark.parametrize("value", values, ids=repr)
    def test_round_trips(self, value):
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)

    def test_zeros_stay_shared(self):
        zero = Cochain.zero()
        assert copy.copy(zero) is zero
        assert copy.deepcopy(zero) is zero
        assert pickle.loads(pickle.dumps(zero)) is zero
        assert copy.deepcopy(Polynomial([])) is Polynomial([])

    def test_copies_stay_reduced(self):
        a = pickle.loads(pickle.dumps(Cochain("2/4", "4/8", 0)))
        assert (a.n0, a.n1, a.ne, a.den) == (1, 1, 0, 2)
        assert copy.deepcopy(Cochain(1, 2, 3)).scale("1/3") == Cochain(
            "1/3", "2/3", 1)


class TestTextFormats:
    def test_form_rendering(self):
        f = PolyForm(Polynomial([0, 0, Fraction(3, 2)]),
                     Polynomial([Fraction(1, 3)]))
        assert f.to_text() == "3/2*t^2 + (1/3)dt"
        assert PolyForm.zero().to_text() == "0"

    def test_cochain_rendering(self):
        assert Cochain(0, 1, Fraction(1, 2)).to_text() == "(0, 1; 1/2 dt)"

    def test_json_shapes(self):
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

    def test_caps_apply_to_reduced_coefficients(self):
        # coprime 60-digit denominators: the common denominator has 120
        # digits, each reduced coefficient only 60
        p = 10 ** 59 + 3
        q = p + 2
        parsed = parse_polyform(f"1/{p}*t + 1/{q}*t^2")
        assert parsed.part0.coefficients == (0, Fraction(1, p), Fraction(1, q))
        assert parsed.part0.denominator == p * q
        with pytest.raises(ParseError) as err:
            parse_polyform(f"({p}*t)^2")
        assert str(err.value) == "coefficient longer than 100 digits (at position 65)"

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
