"""Polynomial differential forms and simplicial cochains on the unit interval.

Two differential graded algebras over the rationals:

* forms: f(t) + g(t)dt with the wedge product, the derivative d, and
  exact integration;
* cochains on the one-cell simplicial interval: a pair of vertex values
  plus an edge coefficient, with the Alexander-Whitney cup product and
  the coboundary delta.

The bridge between them is the integration map and its higher
iterated-integral companions.  Everything is exact: coefficients are
`fractions.Fraction` throughout and no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Polynomial:
    """A polynomial in t with rational coefficients, stored canonically.

    Coefficient k is the coefficient of t^k; trailing zeros are stripped so
    equality is structural and the zero polynomial is the empty tuple.
    """

    __slots__ = ("coefficients", "_hash")

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [_frac(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "_hash", None)

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
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self.coefficients)
            object.__setattr__(self, "_hash", value)
        return value

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coefficients])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coefficients or not other.coefficients:
            return _POLY_ZERO
        out = [_ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return Polynomial(out)

    def scale(self, scalar: Scalar) -> "Polynomial":
        s = _frac(scalar)
        if not s:
            return _POLY_ZERO
        return Polynomial([s * c for c in self.coefficients])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coefficients)][1:])

    def antiderivative(self) -> "Polynomial":
        """The antiderivative vanishing at 0."""
        return Polynomial(
            [_ZERO] + [c / (k + 1) for k, c in enumerate(self.coefficients)]
        )

    def __call__(self, point: Scalar) -> Fraction:
        x = _frac(point)
        acc = _ZERO
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def to_text(self, variable: str = "t") -> str:
        if not self.coefficients:
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


_POLY_ZERO = Polynomial()
_POLY_ONE = Polynomial([1])


class PolyForm:
    """A polynomial differential form f(t) + g(t)dt on [0, 1].

    `part0` is the degree-0 component f, `part1` the dt coefficient g.
    A form is homogeneous of degree 0 when part1 vanishes and of degree 1
    when part0 vanishes.
    """

    __slots__ = ("part0", "part1", "_hash")

    def __init__(self, part0: Polynomial | Iterable[Scalar] = (),
                 part1: Polynomial | Iterable[Scalar] = ()):
        p0 = part0 if isinstance(part0, Polynomial) else Polynomial(part0)
        p1 = part1 if isinstance(part1, Polynomial) else Polynomial(part1)
        object.__setattr__(self, "part0", p0)
        object.__setattr__(self, "part1", p1)
        object.__setattr__(self, "_hash", None)

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

    def is_homogeneous(self) -> bool:
        return self.part0.is_zero() or self.part1.is_zero()

    def homogeneous_parts(self) -> tuple[tuple["PolyForm", int], ...]:
        """Nonzero homogeneous components as (form, plain degree) pairs."""
        parts = []
        if self.part0:
            parts.append((PolyForm(part0=self.part0), 0))
        if self.part1:
            parts.append((PolyForm(part1=self.part1), 1))
        return tuple(parts)

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

    The products and sums below return the shared `Cochain.zero()` for a
    zero result they can see cheaply, and pass it through by identity, since
    most values in a grid sweep vanish.
    """

    __slots__ = ("v0", "v1", "edge", "_hash")

    def __init__(self, v0: Scalar = 0, v1: Scalar = 0, edge: Scalar = 0):
        object.__setattr__(self, "v0", _frac(v0))
        object.__setattr__(self, "v1", _frac(v1))
        object.__setattr__(self, "edge", _frac(edge))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def zero(cls) -> "Cochain":
        return _COCHAIN_ZERO

    def is_zero(self) -> bool:
        return self is _COCHAIN_ZERO or not (self.v0 or self.v1 or self.edge)

    def vertex_part(self) -> "Cochain":
        return Cochain(self.v0, self.v1, 0)

    def edge_part(self) -> "Cochain":
        return Cochain(0, 0, self.edge)

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
        v0 = (self.v0 + other.v0 if self.v0 and other.v0
              else (self.v0 or other.v0))
        v1 = (self.v1 + other.v1 if self.v1 and other.v1
              else (self.v1 or other.v1))
        edge = (self.edge + other.edge if self.edge and other.edge
                else (self.edge or other.edge))
        return Cochain(v0, v1, edge)

    def __neg__(self) -> "Cochain":
        if self is _COCHAIN_ZERO:
            return self
        v0, v1, edge = self.v0, self.v1, self.edge
        return Cochain(-v0 if v0 else v0, -v1 if v1 else v1,
                       -edge if edge else edge)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, scalar: Scalar) -> "Cochain":
        if self is _COCHAIN_ZERO:
            return self
        s = _frac(scalar)
        v0, v1, edge = self.v0, self.v1, self.edge
        return Cochain(s * v0 if v0 else v0, s * v1 if v1 else v1,
                       s * edge if edge else edge)

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
    front = a.v0 * b.edge if a.v0 and b.edge else _ZERO
    back = a.edge * b.v1 if a.edge and b.v1 else _ZERO
    v0 = a.v0 * b.v0 if a.v0 and b.v0 else _ZERO
    v1 = a.v1 * b.v1 if a.v1 and b.v1 else _ZERO
    edge = front + back if front and back else (front or back)
    if v0 is v1 is edge is _ZERO:
        return _COCHAIN_ZERO
    return Cochain(v0, v1, edge)


def delta(a: Cochain) -> Cochain:
    """Simplicial coboundary: vertex values map to their edge difference."""
    if not (a.v0 or a.v1):
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
