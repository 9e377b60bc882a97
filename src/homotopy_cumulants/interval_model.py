"""Polynomial differential forms and simplicial cochains on the unit interval.

Two differential graded algebras over the rationals:

* forms: f(t) + g(t)dt with the wedge product, the derivative d, and
  exact integration;
* cochains on the one-cell simplicial interval: a pair of vertex values
  plus an edge coefficient, with the Alexander-Whitney cup product and
  the coboundary delta.

The bridge between them is the integration map and its higher
iterated-integral companions.  Everything is exact and no floating point
is used anywhere.  A polynomial stores integer numerators over one reduced
positive denominator, so its arithmetic runs on Python integers with one
gcd reduction per result; coefficients, point values and cochain fields
are `fractions.Fraction` at the API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value: Scalar) -> Fraction:
    """A scalar as an exact Fraction; floats are refused, not rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact scalar {value!r}: pass an int, a Fraction "
                        "or a string such as '1/3'")
    return Fraction(value)


class Polynomial:
    """A polynomial in t with rational coefficients, stored canonically.

    The coefficient of t^k is numerators[k] / denominator, with integer
    numerators over one positive common denominator.  The form is reduced:
    trailing zero numerators are stripped, gcd(*numerators, denominator) is
    1, and the zero polynomial is ((), 1).  So equality and hashing are
    structural, whatever denominators a polynomial was built from.  All
    arithmetic runs on the integers with one reduction per result;
    `coefficients` gives the reduced Fractions.
    """

    __slots__ = ("numerators", "denominator", "_hash")

    def __new__(cls, coefficients: Iterable[Scalar] = ()):
        ratios = [(c.numerator, c.denominator) for c in map(_frac, coefficients)]
        if not ratios:
            return _POLY_ZERO
        denominator = lcm(*[d for _, d in ratios])
        return _polynomial([n * (denominator // d) for n, d in ratios],
                           denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return _POLY_ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _POLY_ONE

    @classmethod
    def monomial(cls, exponent: int, coefficient: Scalar = 1) -> "Polynomial":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The reduced rational coefficients, constant term first."""
        d = self.denominator
        return tuple(Fraction(n, d) for n in self.numerators)

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.numerators == other.numerators
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.numerators, self.denominator))
            object.__setattr__(self, "_hash", value)
        return value

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.numerators, other.numerators
        if not b:
            return self
        if not a:
            return other
        da, db = self.denominator, other.denominator
        denominator = da
        if da != db:
            # both sides over lcm(da, db)
            g = gcd(da, db)
            a = [n * (db // g) for n in a]
            b = [n * (da // g) for n in b]
            denominator = da * (db // g)
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _polynomial(out, denominator)

    def __neg__(self) -> "Polynomial":
        return _polynomial([-n for n in self.numerators], self.denominator)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.numerators, other.numerators
        if not a or not b:
            return _POLY_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _polynomial(out, self.denominator * other.denominator)

    def scale(self, scalar: Scalar) -> "Polynomial":
        s = _frac(scalar)
        if not s:
            return _POLY_ZERO
        m = s.numerator
        return _polynomial([m * n for n in self.numerators],
                           self.denominator * s.denominator)

    def derivative(self) -> "Polynomial":
        return _polynomial([k * n for k, n in enumerate(self.numerators)][1:],
                           self.denominator)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative vanishing at 0."""
        a = self.numerators
        if not a:
            return _POLY_ZERO
        scale = _lcm_upto(len(a))
        return _polynomial(
            [0] + [n * (scale // k) for k, n in enumerate(a, 1)],
            self.denominator * scale)

    def __call__(self, point: Scalar) -> Fraction:
        a = self.numerators
        if not a:
            return _ZERO
        x = _frac(point)
        p, q = x.numerator, x.denominator
        # sum_k n_k p^k q^(m-k) over denominator * q^m, by Horner's rule
        acc = a[-1]
        if q == 1:
            if p == 1:
                acc = sum(a)
            elif p == 0:
                acc = a[0]
            else:
                for n in reversed(a[:-1]):
                    acc = acc * p + n
            return Fraction(acc, self.denominator)
        q_power = 1
        for n in reversed(a[:-1]):
            q_power *= q
            acc = acc * p + n * q_power
        return Fraction(acc, self.denominator * q_power)

    def to_text(self, variable: str = "t") -> str:
        if not self.numerators:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                parts.append(_format_rational(c))
            else:
                power = variable if k == 1 else f"{variable}^{k}"
                if c == 1:
                    parts.append(power)
                elif c == -1:
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{_format_rational(c)}*{power}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


def _polynomial(numerators: list[int], denominator: int) -> Polynomial:
    """The reduced Polynomial of numerators / denominator (denominator > 0).

    Every result is built here: trailing zeros are stripped and the
    numerators and denominator are divided by their common gcd.
    """
    while numerators and not numerators[-1]:
        numerators.pop()
    if not numerators:
        return _POLY_ZERO
    g = gcd(denominator, *numerators)
    if g != 1:
        numerators = [n // g for n in numerators]
        denominator //= g
    return _stored(tuple(numerators), denominator)


def _stored(numerators: tuple[int, ...], denominator: int) -> Polynomial:
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "numerators", numerators)
    object.__setattr__(poly, "denominator", denominator)
    object.__setattr__(poly, "_hash", None)
    return poly


@lru_cache(maxsize=None)
def _lcm_upto(m: int) -> int:
    """lcm(1, .., m): the common denominator of 1/1, .., 1/m."""
    return lcm(*range(1, m + 1))


_POLY_ZERO = _stored((), 1)
_POLY_ONE = Polynomial([1])


class PolyForm:
    """A polynomial differential form f(t) + g(t)dt on [0, 1].

    `part0` is the degree-0 component f, `part1` the dt coefficient g.
    A form is homogeneous of degree 0 when part1 vanishes and of degree 1
    when part0 vanishes.
    """

    __slots__ = ("part0", "part1", "_hash", "_parts")

    def __init__(self, part0: Polynomial | Iterable[Scalar] = (),
                 part1: Polynomial | Iterable[Scalar] = ()):
        p0 = part0 if isinstance(part0, Polynomial) else Polynomial(part0)
        p1 = part1 if isinstance(part1, Polynomial) else Polynomial(part1)
        object.__setattr__(self, "part0", p0)
        object.__setattr__(self, "part1", p1)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_parts", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyForm is immutable")

    @classmethod
    def zero(cls) -> "PolyForm":
        return _FORM_ZERO

    @classmethod
    def from_scalar(cls, value: Scalar) -> "PolyForm":
        return cls(Polynomial([value]))

    @classmethod
    def monomial(cls, exponent: int, dt: bool = False,
                 coefficient: Scalar = 1) -> "PolyForm":
        poly = Polynomial.monomial(exponent, coefficient)
        return cls(part1=poly) if dt else cls(part0=poly)

    def is_zero(self) -> bool:
        return self.part0.is_zero() and self.part1.is_zero()

    def homogeneous_parts(self) -> tuple[tuple["PolyForm", int], ...]:
        """Nonzero homogeneous components as (form, plain degree) pairs.

        A homogeneous form is its own part; the split of a mixed form is
        built once and kept.
        """
        if not self.part1:
            return ((self, 0),) if self.part0 else ()
        if not self.part0:
            return ((self, 1),)
        parts = self._parts
        if parts is None:
            parts = ((PolyForm(part0=self.part0), 0),
                     (PolyForm(part1=self.part1), 1))
            object.__setattr__(self, "_parts", parts)
        return parts

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyForm)
                and self.part0 == other.part0 and self.part1 == other.part1)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.part0, self.part1))
            object.__setattr__(self, "_hash", value)
        return value

    def __add__(self, other: "PolyForm") -> "PolyForm":
        return PolyForm(self.part0 + other.part0, self.part1 + other.part1)

    def __neg__(self) -> "PolyForm":
        return PolyForm(-self.part0, -self.part1)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def scale(self, scalar: Scalar) -> "PolyForm":
        return PolyForm(self.part0.scale(scalar), self.part1.scale(scalar))

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        if self.part0:
            pieces.append(self.part0.to_text())
        if self.part1:
            pieces.append(f"({self.part1.to_text()})dt")
        return " + ".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "part0": [_json_rational(c) for c in self.part0.coefficients],
            "part1": [_json_rational(c) for c in self.part1.coefficients],
        }

    def __repr__(self) -> str:
        return f"PolyForm({self.to_text()!r})"


_FORM_ZERO = PolyForm()

T = PolyForm(part0=Polynomial([0, 1]))
DT = PolyForm(part1=Polynomial([1]))
ONE = PolyForm(part0=Polynomial([1]))


class Cochain:
    """A simplicial cochain on the interval: vertex values plus r dt.

    Every zero field is stored as the shared Fraction `_ZERO`, so the
    operations below test fields for zero by identity.  They return the
    shared `Cochain.zero()` for a zero result they can see cheaply, and
    pass it through by identity, since most values in a grid sweep vanish.
    """

    __slots__ = ("v0", "v1", "edge", "_hash")

    def __init__(self, v0: Scalar = _ZERO, v1: Scalar = _ZERO,
                 edge: Scalar = _ZERO):
        v0, v1, edge = _frac(v0), _frac(v1), _frac(edge)
        object.__setattr__(self, "v0", v0 if v0 else _ZERO)
        object.__setattr__(self, "v1", v1 if v1 else _ZERO)
        object.__setattr__(self, "edge", edge if edge else _ZERO)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def zero(cls) -> "Cochain":
        return _COCHAIN_ZERO

    def is_zero(self) -> bool:
        return self is _COCHAIN_ZERO or (
            self.v0 is _ZERO and self.v1 is _ZERO and self.edge is _ZERO)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Cochain) and self.v0 == other.v0
                and self.v1 == other.v1 and self.edge == other.edge)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.v0, self.v1, self.edge))
            object.__setattr__(self, "_hash", value)
        return value

    def __add__(self, other: "Cochain") -> "Cochain":
        if other is _COCHAIN_ZERO:
            return self
        if self is _COCHAIN_ZERO:
            return other
        return Cochain(_field_sum(self.v0, other.v0),
                       _field_sum(self.v1, other.v1),
                       _field_sum(self.edge, other.edge))

    def __neg__(self) -> "Cochain":
        if self is _COCHAIN_ZERO:
            return self
        v0, v1, edge = self.v0, self.v1, self.edge
        return Cochain(v0 if v0 is _ZERO else -v0, v1 if v1 is _ZERO else -v1,
                       edge if edge is _ZERO else -edge)

    def __sub__(self, other: "Cochain") -> "Cochain":
        if other is _COCHAIN_ZERO:
            return self
        if self is _COCHAIN_ZERO:
            return -other
        return Cochain(_field_difference(self.v0, other.v0),
                       _field_difference(self.v1, other.v1),
                       _field_difference(self.edge, other.edge))

    def scale(self, scalar: Scalar) -> "Cochain":
        if self is _COCHAIN_ZERO:
            return self
        s = _frac(scalar)
        v0, v1, edge = self.v0, self.v1, self.edge
        return Cochain(v0 if v0 is _ZERO else s * v0,
                       v1 if v1 is _ZERO else s * v1,
                       edge if edge is _ZERO else s * edge)

    def to_text(self) -> str:
        return (f"({_format_rational(self.v0)}, {_format_rational(self.v1)}; "
                f"{_format_rational(self.edge)} dt)")

    def to_json_dict(self) -> dict:
        return {
            "v0": _json_rational(self.v0),
            "v1": _json_rational(self.v1),
            "edge": _json_rational(self.edge),
        }

    def __repr__(self) -> str:
        return f"Cochain({self.to_text()!r})"


_COCHAIN_ZERO = Cochain()


def _field_sum(x: Fraction, y: Fraction) -> Fraction:
    if y is _ZERO:
        return x
    return y if x is _ZERO else x + y


def _field_difference(x: Fraction, y: Fraction) -> Fraction:
    if y is _ZERO:
        return x
    return -y if x is _ZERO else x - y


def wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    """Wedge product; the dt.dt component vanishes on a one-manifold."""
    return PolyForm(a.part0 * b.part0, a.part0 * b.part1 + a.part1 * b.part0)


def d_form(a: PolyForm) -> PolyForm:
    """Exterior derivative: f + g dt maps to f' dt."""
    return PolyForm(part1=a.part0.derivative())


def cup(a: Cochain, b: Cochain) -> Cochain:
    """Alexander-Whitney cup product on interval cochains.

    Vertex.vertex multiplies pointwise; vertex.edge uses the front vertex,
    edge.vertex the back vertex; edge.edge vanishes.  This is the unique
    bilinear rule making delta a derivation, and it is associative.
    """
    if a is _COCHAIN_ZERO or b is _COCHAIN_ZERO:
        return _COCHAIN_ZERO
    a0, a1, ae, b0, b1, be = a.v0, a.v1, a.edge, b.v0, b.v1, b.edge
    z = _ZERO
    v0 = z if a0 is z or b0 is z else a0 * b0
    v1 = z if a1 is z or b1 is z else a1 * b1
    edge = _field_sum(z if a0 is z or be is z else a0 * be,
                      z if ae is z or b1 is z else ae * b1)
    if v0 is v1 is edge is z:
        return _COCHAIN_ZERO
    return Cochain(v0, v1, edge)


def delta(a: Cochain) -> Cochain:
    """Simplicial coboundary: vertex values map to their edge difference."""
    if a.v0 is _ZERO and a.v1 is _ZERO:
        return _COCHAIN_ZERO
    return Cochain(_ZERO, _ZERO, a.v1 - a.v0)


def integrate(a: PolyForm) -> Cochain:
    """Integration over cells: restriction at vertices, exact edge integral."""
    return Cochain(
        a.part0(_ZERO),
        a.part0(_ONE),
        a.part1.antiderivative()(_ONE),
    )


def iterated_integral(forms: Sequence[PolyForm]) -> Cochain:
    """Iterated integral over the ordered simplex 0 <= t_1 <= ... <= t_n <= 1.

    For a single form this is `integrate`.  For n >= 2 only the dt
    components contribute (any degree-0 input annihilates the value), and
    the result is J_n(1) dt with J_1 the antiderivative of g_1 and
    J_k the antiderivative of g_k * J_{k-1}, each vanishing at 0.
    """
    if len(forms) == 0:
        raise ValueError("iterated_integral requires at least one form")
    if len(forms) == 1:
        return integrate(forms[0])
    parts = [f.part1 for f in forms]
    if any(p.is_zero() for p in parts):
        return Cochain.zero()
    acc = parts[0].antiderivative()
    for p in parts[1:]:
        acc = (p * acc).antiderivative()
    return Cochain(0, 0, acc(_ONE))


# ---------------------------------------------------------------------------
# basis codes
#
# The certification basis {t^k, t^k dt} is encoded as the integers
# code = 2k + dt, so the dt bit is the form's degree.  On codes every
# operation has a closed form: the wedge of two monomials is a monomial,
# d is a reindex and a scalar, and the iterated integral is Chen's product.

def encode_basis(form: PolyForm) -> int:
    """The code of a basis monomial t^k or t^k dt (coefficient 1)."""
    dt = 0 if form.part0 else 1
    k = (form.part1 if dt else form.part0).degree
    if k < 0 or decode_basis(2 * k + dt) != form:
        raise ValueError(f"{form.to_text()} is not a basis monomial")
    return 2 * k + dt


@lru_cache(maxsize=None)
def decode_basis(code: int) -> PolyForm:
    """The basis monomial of a code; one shared PolyForm per code."""
    return PolyForm.monomial(code >> 1, dt=bool(code & 1))


def wedge_codes(a: int, b: int) -> int | None:
    """The code of t^i (dt) wedge t^j (dt); None when both carry dt."""
    return None if a & b & 1 else a + b


def d_code(code: int) -> tuple[int, int] | None:
    """d(t^k) = k t^(k-1) dt as (k, code of t^(k-1) dt); None when zero."""
    if code & 1 or code == 0:
        return None
    return code >> 1, code - 1


def iterated_integral_codes(codes: Sequence[int]) -> Cochain:
    """Iterated integral on basis codes, exactly.

    I_1 is `integrate` on the monomial.  For n >= 2 only dt inputs
    contribute, and Chen's formula gives
    I_n(t^k1 dt, .., t^kn dt) = prod_j 1/(k_1 + .. + k_j + j) dt.
    """
    if len(codes) == 0:
        raise ValueError("iterated_integral requires at least one form")
    if len(codes) == 1:
        return integrate(decode_basis(codes[0]))
    denominator = 1
    exponents = 0
    for j, code in enumerate(codes, start=1):
        if not code & 1:
            return _COCHAIN_ZERO
        exponents += code >> 1
        denominator *= exponents + j
    return Cochain(_ZERO, _ZERO, Fraction(1, denominator))


# ---------------------------------------------------------------------------
# text formats


def _format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _json_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# Caps on parsed forms, so that the cost of parsing and evaluating one stays
# predictable: t^64 is far beyond the certification grids.  Every product
# and power is checked as it is built, so no intermediate value grows past
# one multiplication beyond the caps, nested powers included.
MAX_PARSE_EXPONENT = 64
MAX_PARSE_DEGREE = 64
MAX_PARSE_DIGITS = 100
_NUMBER_LIMIT = 10 ** MAX_PARSE_DIGITS
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    """Malformed form syntax; `position` is the zero-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _FormParser:
    """Recursive-descent reader for polynomial form expressions.

    Grammar, with juxtaposition meaning multiplication:

        form   := ['+'|'-'] product (('+'|'-') product)*
        product:= factor (['*'] factor)*
        factor := atom ['^' integer]
        atom   := rational | 't' | 'dt' | '(' form ')'

    Products are wedge products, so dt*dt parses to zero.
    """

    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = 0
        self.offset = offset

    def fail(self, message: str):
        raise ParseError(message, self.offset + self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> PolyForm:
        value = self.parse_form()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected character {self.text[self.pos]!r}")
        return value

    def parse_form(self) -> PolyForm:
        self.skip_ws()
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        value = self.parse_product().scale(sign)
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch not in ("+", "-"):
                return value
            self.pos += 1
            term = self.parse_product()
            value = value + (term.scale(-1) if ch == "-" else term)

    def parse_product(self) -> PolyForm:
        value = self.parse_factor()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not (ch and (ch.isdigit() or ch.isalpha() or ch == "(")):
                return value
            start = self.pos
            value = self.bounded(wedge(value, self.parse_factor()), start)

    def bounded(self, value: PolyForm, start: int) -> PolyForm:
        """value, unless its degree or a coefficient exceeds the caps."""
        for part in (value.part0, value.part1):
            if part.degree > MAX_PARSE_DEGREE:
                self.pos = start
                self.fail(f"form degree exceeds {MAX_PARSE_DEGREE}")
            for c in part.coefficients:
                if abs(c.numerator) >= _NUMBER_LIMIT or c.denominator >= _NUMBER_LIMIT:
                    self.pos = start
                    self.fail(f"coefficient longer than {MAX_PARSE_DIGITS} digits")
        return value

    def power(self, base: PolyForm, exponent: int, start: int) -> PolyForm:
        """base wedged with itself exponent times, by repeated squaring."""
        value = ONE
        while exponent:
            if exponent & 1:
                value = self.bounded(wedge(value, base), start)
            exponent >>= 1
            if exponent:
                base = self.bounded(wedge(base, base), start)
        return value

    def parse_factor(self) -> PolyForm:
        base = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            exponent = self.parse_integer("an integer exponent")
            if exponent > MAX_PARSE_EXPONENT:
                self.pos = start
                self.fail(f"exponent exceeds {MAX_PARSE_EXPONENT}")
            return self.power(base, exponent, start)
        return base

    def parse_atom(self) -> PolyForm:
        self.skip_ws()
        ch = self.peek()
        if not ch:
            self.fail("unexpected end of input")
        if ch == "(":
            self.pos += 1
            value = self.parse_form()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return value
        if ch in _DIGITS:
            return PolyForm.from_scalar(self.parse_rational())
        if self.text.startswith("dt", self.pos):
            self.pos += 2
            return DT
        if ch == "t":
            self.pos += 1
            return T
        self.fail(f"unexpected character {ch!r}")

    def parse_integer(self, expected: str) -> int:
        """An unsigned decimal integer of at most MAX_PARSE_DIGITS digits."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if start == self.pos:
            self.fail(f"expected {expected}")
        if self.pos - start > MAX_PARSE_DIGITS:
            self.pos = start
            self.fail(f"number longer than {MAX_PARSE_DIGITS} digits")
        return int(self.text[start:self.pos])

    def parse_rational(self) -> Fraction:
        numerator = self.parse_integer("a number")
        save = self.pos
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            dstart = self.pos
            denominator = self.parse_integer("a denominator")
            if not denominator:
                self.pos = dstart
                self.fail("zero denominator")
            return Fraction(numerator, denominator)
        self.pos = save
        return Fraction(numerator)


def parse_polyform(text: str, offset: int = 0) -> PolyForm:
    """Parse a single form such as '3/2*t^2 + (1/3)dt'."""
    return _FormParser(text, offset).parse()


def parse_form_tuple(text: str) -> list[PolyForm]:
    """Parse a ';'-separated tuple of forms, tracking error positions."""
    forms = []
    offset = 0
    for chunk in text.split(";"):
        if not chunk.strip():
            raise ParseError("empty form in tuple", offset)
        forms.append(parse_polyform(chunk, offset))
        offset += len(chunk) + 1
    return forms
