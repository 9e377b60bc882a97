"""Polynomial differential forms and simplicial cochains on the unit interval.

Two differential graded algebras over the rationals:

* forms: f(t) + g(t)dt with the wedge product, the derivative d, and
  exact integration;
* cochains on the one-cell simplicial interval: a pair of vertex values
  plus an edge coefficient, with the Alexander-Whitney cup product and
  the coboundary delta.

The bridge between them is the integration map and its higher
iterated-integral companions.  Everything is exact and no floating point
is used anywhere.  A polynomial stores its coefficients, and a cochain its
two vertex values and edge coefficient, as integer numerators over one
reduced positive denominator, so their arithmetic runs on Python integers
with one gcd reduction per result; coefficients, point values and cochain
fields are `fractions.Fraction` at the API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, str]

_ZERO = Fraction(0)


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
    structural, whatever denominators a polynomial was built from, and the
    hash is computed on each call, as nothing keys a memo by polynomial.
    All arithmetic runs on the integers with one reduction per result;
    `coefficients` gives the reduced Fractions.
    """

    __slots__ = ("numerators", "denominator")

    def __new__(cls, coefficients: Iterable[Scalar] = ()):
        ratios = [(c.numerator, c.denominator) for c in map(_frac, coefficients)]
        if not ratios:
            return _POLY_ZERO
        denominator = lcm(*[d for _, d in ratios])
        return _polynomial([n * (denominator // d) for n, d in ratios],
                           denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return _polynomial, (list(self.numerators), self.denominator)

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
        return hash((self.numerators, self.denominator))

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
        _convolve_into(out, a, b, 1)
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
        scale, weights = _reciprocals(len(a))
        return _polynomial([0, *map(mul, a, weights)],
                           self.denominator * scale)

    def __call__(self, point: Scalar) -> Fraction:
        """The value at point, by Horner's rule on the numerators."""
        x, acc = _frac(point), _ZERO
        for n in reversed(self.numerators):
            acc = acc * x + n
        return acc / self.denominator

    def to_text(self) -> str:
        if not self.numerators:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                parts.append(_format_rational(c))
            else:
                power = "t" if k == 1 else f"t^{k}"
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
    return _new_polynomial(tuple(numerators), denominator)


def _new_polynomial(numerators: tuple[int, ...], denominator: int) -> Polynomial:
    """A Polynomial of numerators already reduced over denominator."""
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "numerators", numerators)
    object.__setattr__(poly, "denominator", denominator)
    return poly


@lru_cache(maxsize=None)
def _reciprocals(m: int) -> tuple[int, tuple[int, ...]]:
    """1/1, .., 1/m as (L, (L // 1, .., L // m)) over L = lcm(1, .., m)."""
    scale = lcm(*range(1, m + 1))
    return scale, tuple(scale // k for k in range(1, m + 1))


_POLY_ZERO = _new_polynomial((), 1)


class PolyForm:
    """A polynomial differential form f(t) + g(t)dt on [0, 1].

    `part0` is the degree-0 component f, `part1` the dt coefficient g.
    A form is homogeneous of degree 0 when part1 vanishes and of degree 1
    when part0 vanishes.  Equality and hashing are those of the two parts;
    the hash is computed on each call, as nothing keys a memo by form.
    """

    __slots__ = ("part0", "part1")

    def __init__(self, part0: Polynomial | Iterable[Scalar] = (),
                 part1: Polynomial | Iterable[Scalar] = ()):
        p0 = part0 if isinstance(part0, Polynomial) else Polynomial(part0)
        p1 = part1 if isinstance(part1, Polynomial) else Polynomial(part1)
        object.__setattr__(self, "part0", p0)
        object.__setattr__(self, "part1", p1)

    def __setattr__(self, name, value):
        raise AttributeError("PolyForm is immutable")

    def __reduce__(self):
        return PolyForm, (self.part0, self.part1)

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyForm)
                and self.part0 == other.part0 and self.part1 == other.part1)

    def __hash__(self) -> int:
        return hash((self.part0, self.part1))

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

    def __repr__(self) -> str:
        return f"PolyForm({self.to_text()!r})"


_FORM_ZERO = PolyForm()

T = PolyForm(part0=Polynomial([0, 1]))
DT = PolyForm(part1=Polynomial([1]))
ONE = PolyForm(part0=Polynomial([1]))


class Cochain(tuple):
    """A simplicial cochain on the interval: vertex values plus r dt.

    A cochain is the reduced 4-tuple (n0, n1, ne, den): the fields v0, v1
    and edge are n0 / den, n1 / den and ne / den, with integer numerators
    over one positive common denominator.  Reduced means gcd(n0, n1, ne,
    den) is 1, and the zero cochain is (0, 0, 0, 1) and the one shared
    `Cochain.zero()`.  So equality and hashing are the tuple's, run in C,
    and a cochain compares equal to (and hashes as) the plain tuple of its
    fields; a zero result is recognised by identity, and the operations
    below return the shared zero and pass it through, since most values in
    a grid sweep vanish.  Every cochain is built by `_cochain`, which
    reduces it; repetition and ordering, which a tuple would allow, are
    refused with TypeError.  A cochain is serialized only through
    `to_json_dict` (copy and pickle rebuild it through `_cochain`).  All
    arithmetic runs on the integers with one reduction per result; `v0`,
    `v1` and `edge` give the reduced Fractions, a zero field as the shared
    Fraction `_ZERO`.
    """

    __slots__ = ()

    n0 = property(itemgetter(0))
    n1 = property(itemgetter(1))
    ne = property(itemgetter(2))
    den = property(itemgetter(3))

    # a cochain is a value, not a sequence: no repetition, no ordering
    __mul__ = __rmul__ = None
    __lt__ = __le__ = __gt__ = __ge__ = None

    def __new__(cls, v0: Scalar = 0, v1: Scalar = 0, edge: Scalar = 0):
        v0, v1, edge = _frac(v0), _frac(v1), _frac(edge)
        den = lcm(v0.denominator, v1.denominator, edge.denominator)
        return _cochain(v0.numerator * (den // v0.denominator),
                        v1.numerator * (den // v1.denominator),
                        edge.numerator * (den // edge.denominator), den)

    def __reduce__(self):
        return _cochain, tuple(self)

    @classmethod
    def zero(cls) -> "Cochain":
        return _COCHAIN_ZERO

    @property
    def v0(self) -> Fraction:
        n0, _, _, den = self
        return Fraction(n0, den) if n0 else _ZERO

    @property
    def v1(self) -> Fraction:
        _, n1, _, den = self
        return Fraction(n1, den) if n1 else _ZERO

    @property
    def edge(self) -> Fraction:
        _, _, ne, den = self
        return Fraction(ne, den) if ne else _ZERO

    def is_zero(self) -> bool:
        return self is _COCHAIN_ZERO

    def __add__(self, other: "Cochain") -> "Cochain":
        if other is _COCHAIN_ZERO:
            return self
        if self is _COCHAIN_ZERO:
            return other
        a0, a1, ae, da = self
        b0, b1, be, db = other
        if da == db:
            return _cochain(a0 + b0, a1 + b1, ae + be, da)
        return _cochain(a0 * db + b0 * da, a1 * db + b1 * da,
                        ae * db + be * da, da * db)

    def __neg__(self) -> "Cochain":
        if self is _COCHAIN_ZERO:
            return self
        n0, n1, ne, den = self
        return _cochain(-n0, -n1, -ne, den)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, scalar: Scalar) -> "Cochain":
        if type(scalar) is int:
            m, q = scalar, 1
        else:
            s = _frac(scalar)
            m, q = s.numerator, s.denominator
        if self is _COCHAIN_ZERO:
            return self
        n0, n1, ne, den = self
        return _cochain(m * n0, m * n1, m * ne, q * den)

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


_new_tuple = tuple.__new__


def _cochain(n0: int, n1: int, ne: int, den: int) -> Cochain:
    """The reduced Cochain of (n0, n1, ne) / den (den > 0).

    Every result is built here: zero numerators give the shared zero, and
    otherwise the numerators and denominator are divided by their gcd.
    """
    if not (n0 or n1 or ne):
        return _COCHAIN_ZERO
    if den != 1:
        g = gcd(n0, n1, ne, den)
        if g != 1:
            n0, n1, ne, den = n0 // g, n1 // g, ne // g, den // g
    return _new_tuple(Cochain, (n0, n1, ne, den))


_COCHAIN_ZERO = _new_tuple(Cochain, (0, 0, 0, 1))


class CochainPool:
    """The distinct cochains of one table build, as indices.

    A table has many entries but few distinct values, so a table rule can
    work on value indices: `values[k]` is the value of index k, `intern`
    gives a value's index by equality, `indices` gives the indices of a
    table's distinct values keyed by value, and each multiple (`multiple`)
    and sum (`add`) is formed once per distinct index and coefficient or
    index pair.  Index 0 is the zero cochain, so `table` drops zeros by
    index.  A pool lives for one build; the tables built share its values.
    """

    __slots__ = ("values", "_index", "_multiples", "_sums")

    def __init__(self):
        self.values = [_COCHAIN_ZERO]
        self._index = {_COCHAIN_ZERO: 0}
        self._multiples: dict[tuple[int, Scalar], int] = {}
        self._sums: dict[tuple[int, int], int] = {}

    def intern(self, value: Cochain) -> int:
        k = self._index.get(value)
        if k is None:
            k = self._index[value] = len(self.values)
            self.values.append(value)
        return k

    def indices(self, table: dict, c: Scalar = 1) -> dict[Cochain, int]:
        """value -> the index of c * value, over a table's distinct values.

        Each distinct value is interned and scaled once; the result is
        keyed by value, so any equal cochain reads it.
        """
        return {value: self.multiple(self.intern(value), c)
                for value in dict.fromkeys(table.values())}

    def multiple(self, k: int, c: Scalar) -> int:
        if c == 1:
            return k
        m = self._multiples.get((k, c))
        if m is None:
            m = self._multiples[k, c] = self.intern(self.values[k].scale(c))
        return m

    def add(self, a: int, b: int) -> int:
        k = self._sums.get((a, b))
        if k is None:
            k = self._sums[a, b] = self.intern(self.values[a] + self.values[b])
        return k

    def table(self, indices: dict) -> dict:
        """The nonzero values of a dict of value indices, by key."""
        values = self.values
        return {key: values[k] for key, k in indices.items() if k}


def wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    """Wedge product; the dt.dt component vanishes on a one-manifold.

    (f + g dt)(p + q dt) = f p + (f q + g p) dt.  The integer numerators
    of f q and g p are convolved into one list over the lcm of their
    denominators, so the dt part is reduced once, as f p is.
    """
    f, g, p, q = a.part0, a.part1, b.part0, b.part1
    fq, gp = f.denominator * q.denominator, g.denominator * p.denominator
    denominator = lcm(fq, gp)
    out = [0] * max(len(f.numerators) + len(q.numerators),
                    len(g.numerators) + len(p.numerators))
    _convolve_into(out, f.numerators, q.numerators, denominator // fq)
    _convolve_into(out, g.numerators, p.numerators, denominator // gp)
    form = object.__new__(PolyForm)
    object.__setattr__(form, "part0", f * p)
    object.__setattr__(form, "part1", _polynomial(out, denominator))
    return form


def _convolve_into(out: list[int], a: Sequence[int], b: Sequence[int],
                   scale: int) -> None:
    """out[i + j] += scale * a[i] * b[j] for every i, j."""
    for i, x in enumerate(a):
        if x:
            x *= scale
            for j, y in enumerate(b, i):
                out[j] += x * y


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
    a0, a1, ae, da = a
    b0, b1, be, db = b
    return _cochain(a0 * b0, a1 * b1, a0 * be + ae * b1, da * db)


def delta(a: Cochain) -> Cochain:
    """Simplicial coboundary: vertex values map to their edge difference."""
    n0, n1, _, den = a
    return _cochain(0, 0, n1 - n0, den)


def integrate(a: PolyForm) -> Cochain:
    """Integration over cells: restriction at vertices, exact edge integral.

    Read off the integer numerators n_k / d of f and m_k / e of g:
    f(0) = n_0 / d, f(1) = sum n_k / d, and the integral of g over [0, 1]
    is sum m_k / (k + 1) / e, put over lcm(1, .., deg g + 1) first.
    """
    f, g = a.part0.numerators, a.part1.numerators
    scale, weights = _reciprocals(len(g))
    edge = sum(map(mul, g, weights))
    d, e = a.part0.denominator, a.part1.denominator * scale
    return _cochain(f[0] * e if f else 0, sum(f) * e, edge * d, d * e)


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
        return _COCHAIN_ZERO
    acc = parts[0].antiderivative()
    for p in parts[1:]:
        acc = (p * acc).antiderivative()
    return _cochain(0, 0, sum(acc.numerators), acc.denominator)


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
    return _cochain(0, 0, 1, denominator)


# ---------------------------------------------------------------------------
# text formats


def _format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _json_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# Caps on parsed forms, so that the cost of parsing and evaluating one stays
# predictable: t^64 is far beyond the certification grids.  Every product
# and power is checked as it is built, so no intermediate value grows past
# one multiplication beyond the caps, nested powers included.  The depth of
# nested parentheses is capped too, as each level costs the recursive
# reader a few stack frames.
MAX_PARSE_EXPONENT = 64
MAX_PARSE_DEGREE = 64
MAX_PARSE_DIGITS = 100
MAX_PARSE_DEPTH = 64
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
        self.depth = 0  # of the open parentheses

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
            if self.depth == MAX_PARSE_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_PARSE_DEPTH}")
            self.depth += 1
            self.pos += 1
            value = self.parse_form()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
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
