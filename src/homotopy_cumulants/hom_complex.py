"""Boundary calculus on multilinear maps from forms to cochains.

A MultiMap is an n-ary multilinear map from interval forms to interval
cochains.  The boundary operator is the Hom-complex differential

    boundary(f) = delta . f - (-1)^{|f|} sum_u koszul(u) f(1 x .. d .. x 1)

with |f| the unsuspended map degree and Koszul signs over form degrees.
Two interior-sign conventions are provided: A accumulates Koszul signs
from the left, B from the right.  Convention A is the one under which
boundary(I_2) equals the second Boolean cumulant and the iterated
integrals satisfy the full morphism relation; the test suite pins it and
exhibits the failure of B.

Sums of maps are flat: `+`, `-`, `scale` and `zero_map` build one linear
combination of leaf maps (`linear_combination`), with the terms of one
map merged, so a signed sum of k maps is a single node over its leaves.

Equality of MultiMaps is certified on truncated monomial bases, which by
multilinearity is exact on the truncated subspace.  Maps are evaluated on
integer basis codes (see `interval_model.encode_basis`) a whole domain at
a time: `MultiMap.table(domain)` holds a map's nonzero values on every
code tuple of a per-slot product of code sets, and every combinator here
builds its table from its children's tables, so work is spent only on
nonzero values.  A wedge spreads its child's table over the preimage
pairs of each merged code, a d insertion reads its child's table at the
derivative codes, a cup multiplies the nonzero entries of two tables, a
linear combination adds tables, I_n is Chen's closed form, and the
cumulant K_n is `cumulants.cumulant_table`.  Tables are memoized per map
and per domain.  This is the only engine: a library map evaluates any
forms by contracting its table over their basis codes (see
`MultiMap.__call__`).  Only user-built maps, which have no table rule,
run an evaluator on PolyForms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable, Sequence

from .cumulants import CumulantContext, cumulant_table, integration_context
from .interval_model import (
    Cochain,
    PolyForm,
    Scalar,
    _cochain,
    _frac,
    cup,
    d_code,
    decode_basis,
    delta,
    encode_basis,
    iterated_integral_codes,
    wedge_codes,
)

# A domain holds one set of basis codes per input slot; a table holds a
# map's nonzero values on the code tuples of a domain.
Domain = tuple[frozenset, ...]
Table = dict[tuple[int, ...], Cochain]


@dataclass(frozen=True)
class SignConvention:
    """Direction in which Koszul signs accumulate past tensor factors."""

    name: str
    from_left: bool


CONVENTION_A = SignConvention("A", from_left=True)
CONVENTION_B = SignConvention("B", from_left=False)


def get_convention(name: str) -> SignConvention:
    try:
        return {"A": CONVENTION_A, "B": CONVENTION_B}[name]
    except KeyError:
        raise ValueError(f"unknown sign convention {name!r}") from None


class MultiMap:
    """An n-ary multilinear operation from forms to cochains.

    `shifted_degree` is the degree in the suspended convention (0 for each
    iterated integral, +1 for the differentials); the unsuspended degree
    used by Koszul signs is shifted_degree - arity + 1.

    A map is evaluated on basis codes a domain at a time: `table(domain)`
    is the dict of its nonzero values on the code tuples of a per-slot
    product of code sets, memoized per domain, so a table shared by
    several parents (H_{n-1} feeds both terms of H_n, and a boundary reads
    its map's table for delta and for every d insertion) is built once.
    `table_rule(domain)` builds the table from the children's tables; the
    combinators set it after construction.  Calling a map on forms or
    codes contracts its table (see `__call__`).  A map without a rule (a
    user-built map) keeps its evaluator: a call runs it on the inputs,
    codes decoded, and its table runs it on the decoded PolyForms of every
    tuple of the domain.

    Sums are flat: `+`, `-` and `scale` build a linear combination (see
    `linear_combination`) whose `terms` are (leaf map, coefficient) pairs,
    never other combinations.  `terms` is None for a leaf map.
    """

    __slots__ = ("arity", "shifted_degree", "name", "terms", "table_rule",
                 "_evaluator", "_tables")

    def __init__(self, arity: int, shifted_degree: int,
                 evaluator: Callable[..., Cochain] | None, name: str = ""):
        if arity < 1:
            raise ValueError("arity must be positive")
        self.arity = arity
        self.shifted_degree = shifted_degree
        self.name = name or f"map/{arity}"
        self.terms = None
        self.table_rule: Callable[[Domain], Table] | None = None
        self._evaluator = evaluator
        self._tables: dict[Domain, Table] = {}

    @property
    def plain_degree(self) -> int:
        return self.shifted_degree - self.arity + 1

    def __call__(self, *forms: PolyForm | int) -> Cochain:
        """The value on PolyForms or basis codes, mixed freely.

        Each input is expanded into integer coefficients on basis codes
        over one denominator (a code is itself with coefficient 1).  The
        map's table is taken on the domain (S,) * arity, with S the union
        of the inputs' supports, so inputs with the same support share a
        table; each entry is weighted by the product of its slots'
        coefficients, and the numerators are summed per entry denominator.
        The cost is one table over S^arity, kept with the map's other
        tables, so calls on many distinct supports keep many tables.
        """
        if len(forms) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} inputs, got {len(forms)}")
        weights, denominators = zip(*map(_expansion, range(self.arity), forms))
        if self.table_rule is None:
            return self._evaluator(*(x if isinstance(x, PolyForm)
                                     else decode_basis(x) for x in forms))
        support = frozenset().union(*weights)
        sums: dict[int, list[int]] = {}
        for xs, value in self.table((support,) * self.arity).items():
            w = 1
            for coefficients, x in zip(weights, xs):
                c = coefficients.get(x)
                if c is None:
                    break
                w *= c
            else:
                total = sums.get(value.den)
                if total is None:
                    sums[value.den] = [w * value.n0, w * value.n1, w * value.ne]
                else:
                    total[0] += w * value.n0
                    total[1] += w * value.n1
                    total[2] += w * value.ne
        denominator = prod(denominators)
        value = Cochain.zero()
        for den, (n0, n1, ne) in sums.items():
            value = value + _cochain(n0, n1, ne, den * denominator)
        return value

    def table(self, domain: Iterable[Iterable[int]]) -> Table:
        """The nonzero values of the map on the code tuples of a domain.

        `domain` holds one collection of basis codes per slot.  A tuple
        missing from the table is a zero of the map.  The table is
        memoized per domain and shared, so it must not be mutated.
        """
        domain = tuple(map(frozenset, domain))
        table = self._tables.get(domain)
        if table is None:
            if len(domain) != self.arity:
                raise ValueError(
                    f"{self.name} expects {self.arity} slots, got {len(domain)}")
            if self.table_rule is not None:
                table = self.table_rule(domain)
            else:
                table = {}
                for xs in itertools.product(*domain):
                    value = self._evaluator(*map(decode_basis, xs))
                    if not value.is_zero():
                        table[xs] = value
            self._tables[domain] = table
        return table

    def renamed(self, name: str, shifted_degree: int | None = None) -> "MultiMap":
        """The same map under a new name (and degree), with fresh tables."""
        if shifted_degree is None:
            shifted_degree = self.shifted_degree
        renamed = MultiMap(self.arity, shifted_degree, self._evaluator, name)
        renamed.terms = self.terms
        renamed.table_rule = self.table_rule
        return renamed

    def __add__(self, other: "MultiMap") -> "MultiMap":
        return linear_combination(self.arity, self.shifted_degree,
                                  ((self, 1), (other, 1)),
                                  f"({self.name} + {other.name})")

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return linear_combination(self.arity, self.shifted_degree,
                                  ((self, 1), (other, -1)),
                                  f"({self.name} - {other.name})")

    def scale(self, scalar: Scalar) -> "MultiMap":
        return linear_combination(self.arity, self.shifted_degree,
                                  ((self, scalar),), f"({scalar})*{self.name}")

    def __repr__(self) -> str:
        return f"MultiMap({self.name}, arity={self.arity}, shifted_degree={self.shifted_degree})"


def _expansion(slot: int, x: PolyForm | int) -> tuple[dict[int, int], int]:
    """An input as integer coefficients by basis code over one denominator."""
    if type(x) is int:
        if x < 0:
            raise ValueError(f"input {slot}: basis code {x} is negative")
        return {x: 1}, 1
    if not isinstance(x, PolyForm):
        raise TypeError(f"input {slot}: expected a PolyForm or a basis code, "
                        f"got {type(x).__name__}")
    denominator = lcm(x.part0.denominator, x.part1.denominator)
    coefficients = {}
    for dt, part in enumerate((x.part0, x.part1)):
        scale = denominator // part.denominator
        for k, n in enumerate(part.numerators):
            if n:
                coefficients[2 * k + dt] = n * scale
    return coefficients, denominator


def _tabulated(arity: int, shifted_degree: int, name: str,
               rule: Callable[[Domain], Table]) -> MultiMap:
    """A library MultiMap: a table rule on codes and no evaluator."""
    built = MultiMap(arity, shifted_degree, None, name)
    built.table_rule = rule
    return built


def _add_into(total: dict, table: Table, c: Scalar = 1) -> None:
    """total += c * table, entry by entry; sums may leave zeros behind."""
    for xs, value in table.items():
        if c != 1:
            value = -value if c == -1 else value.scale(c)
        previous = total.get(xs)
        total[xs] = value if previous is None else previous + value


def _nonzero(total: dict) -> Table:
    return {xs: value for xs, value in total.items() if not value.is_zero()}


def _delta_table(table: Table) -> Table:
    """The table of delta . f from the table of f."""
    images = {}
    for xs, value in table.items():
        image = delta(value)
        if not image.is_zero():
            images[xs] = image
    return images


def linear_combination(arity: int, shifted_degree: int,
                       pairs: Iterable[tuple[MultiMap, Scalar]],
                       name: str) -> MultiMap:
    """The map sum c * f over (f, c) pairs, as one flat combination.

    A combination among the pairs contributes its own terms, scaled by c;
    terms of the same leaf map are merged and zero coefficients dropped.
    Its table is the sum of the leaves' tables.
    """
    merged: dict[MultiMap, Fraction] = {}
    for f, c in pairs:
        if f.arity != arity:
            raise ValueError("arity mismatch")
        c = _frac(c)
        for leaf, leaf_c in f.terms if f.terms is not None else ((f, 1),):
            merged[leaf] = merged.get(leaf, 0) + c * leaf_c
    # integral coefficients as ints, so `_add_into` scales by them cheaply
    terms = tuple((leaf, c.numerator if c.denominator == 1 else c)
                  for leaf, c in merged.items() if c)

    def rule(domain):
        total: dict = {}
        for leaf, c in terms:
            _add_into(total, leaf.table(domain), c)
        return _nonzero(total)

    combination = _tabulated(arity, shifted_degree, name, rule)
    combination.terms = terms
    return combination


def zero_map(arity: int, shifted_degree: int = 0) -> MultiMap:
    """The empty combination."""
    return linear_combination(arity, shifted_degree, (), f"0/{arity}")


def iterated_integral_map(n: int) -> MultiMap:
    """The n-th iterated-integral map as a MultiMap of shifted degree 0."""
    if n < 1:
        raise ValueError("n must be positive")

    def rule(domain):
        # for n >= 2 only dt inputs contribute
        slots = domain if n == 1 else [[x for x in s if x & 1] for s in domain]
        table = {}
        for xs in itertools.product(*slots):
            value = iterated_integral_codes(xs)
            if not value.is_zero():
                table[xs] = value
        return table

    return _tabulated(n, 0, f"I{n}", rule)


def wedge_at(f: MultiMap, slot: int) -> MultiMap:
    """Precompose f with the wedge product merging inputs slot, slot+1.

    The wedge has unsuspended degree 0, so no Koszul sign arises.  On
    codes the table asks f for its table over the merged codes and spreads
    each entry over the code pairs whose wedge is its merged code.
    """
    if not 0 <= slot < f.arity:
        raise ValueError("slot out of range")

    def rule(domain):
        preimages: dict[int, list[tuple[int, int]]] = {}
        for a in domain[slot]:
            for b in domain[slot + 1]:
                product = wedge_codes(a, b)
                if product is not None:
                    preimages.setdefault(product, []).append((a, b))
        merged = domain[:slot] + (preimages.keys(),) + domain[slot + 2:]
        table = {}
        for ys, value in f.table(merged).items():
            head, tail = ys[:slot], ys[slot + 1:]
            for pair in preimages[ys[slot]]:
                table[head + pair + tail] = value
        return table

    return _tabulated(f.arity + 1, f.shifted_degree + 1,
                      f"{f.name}(wedge@{slot})", rule)


def merged_integral(sizes: Sequence[int]) -> MultiMap:
    """I_k whose j-th input is the wedge of the next sizes[j] inputs.

    Built with wedge_at right to left, so slot indices stay valid; each
    slot's inputs are wedged left-nested, which the associativity of the
    wedge makes the only bracketing needed.
    """
    merged = iterated_integral_map(len(sizes))
    for slot in reversed(range(len(sizes))):
        for _ in range(sizes[slot] - 1):
            merged = wedge_at(merged, slot)
    return merged


def d_insertion_sum(f: MultiMap,
                    convention: SignConvention = CONVENTION_A) -> MultiMap:
    """sum_u koszul(u) f(1 x .. x d x .. x 1) with signs per convention.

    On codes the one term of slot u is k f(.., t^(k-1) dt, ..) for an input
    t^k, signed by the dt inputs it passes.  The table asks f for its
    table with slot u widened by the derivative codes (on a grid the
    widened domain is the grid itself, so every slot and the boundary's
    delta term share one table of f) and maps each entry whose slot u is
    t^(k-1) dt back to t^k with weight +-k.
    """

    def rule(domain):
        total: dict = {}
        for u, slot in enumerate(domain):
            # derivative code -> (k, input code t^k)
            sources = {}
            for x in slot:
                dx = d_code(x)
                if dx is not None:
                    sources[dx[1]] = (dx[0], x)
            if not sources:
                continue
            widened = domain[:u] + (slot.union(sources),) + domain[u + 1:]
            for ys, value in f.table(widened).items():
                source = sources.get(ys[u])
                if source is None:
                    continue
                k, x = source
                passed = ys[:u] if convention.from_left else ys[u + 1:]
                if sum(y & 1 for y in passed) & 1:
                    k = -k
                xs = ys[:u] + (x,) + ys[u + 1:]
                previous = total.get(xs)
                value = value.scale(k)
                total[xs] = value if previous is None else previous + value
        return _nonzero(total)

    return _tabulated(f.arity, f.shifted_degree + 1, f"{f.name}.d_insertions",
                      rule)


def hom_boundary(f: MultiMap,
                 convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The Hom-complex differential; squares to zero.

    boundary(f) = delta . f - (-1)^{|f|} (Koszul-signed d insertions),
    with |f| the unsuspended degree of f.
    """
    insertions = d_insertion_sum(f, convention)
    pre_sign = -1 if f.plain_degree % 2 == 0 else 1

    def rule(domain):
        total = _delta_table(f.table(domain))
        _add_into(total, insertions.table(domain), pre_sign)
        return _nonzero(total)

    return _tabulated(f.arity, f.shifted_degree + 1, f"boundary({f.name})",
                      rule)


def cup_pair(left: MultiMap, right: MultiMap,
             convention: SignConvention = CONVENTION_A) -> MultiMap:
    """cup . (left x right) with the Koszul sign of the tensor evaluation.

    Under convention A the right map picks up (-1)^{|right| * deg} from the
    form degrees it passes on the left; convention B mirrors this.  On
    codes the form degrees are the dt bits, so the sign is a single
    (-1)^{|moving| * dt bits passed}; the table cups each nonzero entry
    of the left table with each nonzero entry of the right one.
    """
    arity = left.arity + right.arity
    moving = right if convention.from_left else left
    moving_parity = moving.plain_degree % 2

    def signed(entries: Table, passed: bool) -> list:
        if not (passed and moving_parity):
            return list(entries.items())
        # by bilinearity the sign can move onto the passed factor
        return [(xs, -value if sum(x & 1 for x in xs) & 1 else value)
                for xs, value in entries.items()]

    def rule(domain):
        lefts = signed(left.table(domain[:left.arity]), convention.from_left)
        rights = signed(right.table(domain[left.arity:]),
                        not convention.from_left)
        table = {}
        for left_xs, left_value in lefts:
            for right_xs, right_value in rights:
                value = cup(left_value, right_value)
                if not value.is_zero():
                    table[left_xs + right_xs] = value
        return table

    return _tabulated(arity, left.shifted_degree + right.shifted_degree + 1,
                      f"cup({left.name},{right.name})", rule)


@dataclass(frozen=True)
class TruncationGrid:
    """The finite certification basis {t^k, t^k dt : k <= max_exponent}."""

    max_exponent: int

    def __post_init__(self):
        if self.max_exponent < 0:
            raise ValueError("max_exponent must be nonnegative")

    def slot_basis(self) -> tuple[PolyForm, ...]:
        return tuple(
            PolyForm.monomial(k, dt=dt)
            for dt in (False, True)
            for k in range(self.max_exponent + 1)
        )

    def slot_codes(self) -> tuple[int, ...]:
        """The basis codes of `slot_basis`, in the same order."""
        return tuple(map(encode_basis, self.slot_basis()))


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of a grid comparison, with the first witness on failure."""

    check: str
    arity: int
    grid_max_exponent: int
    equal: bool
    witness_tuple: tuple[PolyForm, ...] | None = None
    lhs: Cochain | None = None
    rhs: Cochain | None = None

    def __bool__(self) -> bool:
        return self.equal

    def to_json_dict(self) -> dict:
        record = {
            "check": self.check,
            "arity": self.arity,
            "grid_D": self.grid_max_exponent,
            "status": "pass" if self.equal else "fail",
        }
        if not self.equal:
            record["witness_tuple"] = [x.to_text() for x in self.witness_tuple]
            record["lhs"] = self.lhs.to_json_dict()
            record["rhs"] = self.rhs.to_json_dict()
        return record


def first_difference(lhs: Table, rhs: Table,
                     codes: Sequence[int]) -> tuple[int, ...] | None:
    """The first code tuple at which two tables differ, or None if equal.

    A tuple missing from a table is a zero.  First means slot-major order
    over `codes` in every slot, the order of `itertools.product(codes,
    repeat=n)`, so the witness is the one a tuple-by-tuple sweep would
    stop at.
    """
    if lhs == rhs:
        return None
    position = {code: i for i, code in enumerate(codes)}
    return min((xs for xs in lhs.keys() | rhs.keys()
                if lhs.get(xs) != rhs.get(xs)),
               key=lambda xs: [position[x] for x in xs])


def maps_equal_on_truncation(f: MultiMap, g: MultiMap,
                             grid: TruncationGrid,
                             check: str = "") -> EqualityVerdict:
    """Exact equality on the span of the truncated monomial basis.

    The two maps' code tables over the grid are compared whole; a tuple
    missing from a table is a zero.  On a disagreement the witness is the
    first differing tuple in slot-major order over `slot_codes()` (see
    `first_difference`), decoded to PolyForms and reported with both
    values.
    """
    if f.arity != g.arity:
        raise ValueError("cannot compare maps of different arity")
    name = check or f"{f.name} == {g.name}"
    codes = grid.slot_codes()
    domain = (codes,) * f.arity
    lhs, rhs = f.table(domain), g.table(domain)
    first = first_difference(lhs, rhs, codes)
    if first is None:
        return EqualityVerdict(name, f.arity, grid.max_exponent, True)
    zero = Cochain.zero()
    return EqualityVerdict(name, f.arity, grid.max_exponent, False,
                           tuple(map(decode_basis, first)),
                           lhs.get(first, zero), rhs.get(first, zero))


def map_is_zero_on(f: MultiMap, grid: TruncationGrid,
                   check: str = "") -> EqualityVerdict:
    return maps_equal_on_truncation(
        f, zero_map(f.arity, f.shifted_degree), grid,
        check or f"{f.name} == 0")


def _morphism_source(n: int, convention: SignConvention) -> MultiMap:
    """Insertion side of the morphism relation for (I, I2, .., I_n)."""
    terms: list[MultiMap] = []
    d_part = d_insertion_sum(iterated_integral_map(n), convention)
    terms.append(d_part if (n - 1) % 2 == 0 else d_part.scale(-1))
    if n >= 2:
        lower = iterated_integral_map(n - 1)
        for u in range(n - 1):
            term = wedge_at(lower, u)
            terms.append(term if (n + u) % 2 == 0 else term.scale(-1))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _morphism_target(n: int, convention: SignConvention) -> MultiMap:
    """Product side: delta . I_n plus the signed cup(I_i x I_j) terms."""
    i_n = iterated_integral_map(n)
    total = _tabulated(n, 1, f"delta.I{n}",
                       lambda domain: _delta_table(i_n.table(domain)))
    for i in range(1, n):
        j = n - i
        term = cup_pair(iterated_integral_map(i),
                        iterated_integral_map(j), convention)
        total = total + (term if (j - 1) % 2 == 0 else term.scale(-1))
    return total


def ainfty_relation_defect(
    n: int, max_exponent: int,
    convention: SignConvention = CONVENTION_A,
) -> tuple[EqualityVerdict, MultiMap]:
    """Difference of the two sides of the defining morphism relation.

    The family (I, I2, .., I_n) between the interval forms and cochains,
    with all products of arity three and higher equal to zero on both
    sides, should make this vanish identically; the verdict certifies it
    on the truncation grid and the defect map is returned for diagnosis.
    """
    if n < 1:
        raise ValueError("n must be positive")
    defect = _morphism_source(n, convention) - _morphism_target(n, convention)
    defect = defect.renamed(f"morphism_defect({n})", 1)
    verdict = map_is_zero_on(
        defect, TruncationGrid(max_exponent),
        check=f"morphism relation n={n} (convention {convention.name})")
    return verdict, defect


def homotopy_witness(n: int,
                     convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The inductive null-homotopy for the n-th cumulant.

    H_2 = I_2 and H_n = H_{n-1}(wedge x 1 x .. x 1) - cup(I x H_{n-1}),
    the second term carrying the Koszul sign of the tensor evaluation.
    Satisfies boundary(H_n) = K_n.
    """
    if n < 2:
        raise ValueError("homotopy witnesses start at n = 2")
    witness = iterated_integral_map(2)
    for m in range(3, n + 1):
        witness = (
            wedge_at(witness, 0)
            - cup_pair(iterated_integral_map(1), witness, convention)
        )
    return witness.renamed(f"H{n}", n - 2)


def alternate_witness_k3(variant: str,
                         convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The two one-step witnesses for K_3.

    left:  I_2(ab, c) - I(a) I_2(b, c)
    right: I_2(a, bc) - I_2(a, b) I(c)
    Both have boundary K_3; their difference is a cycle.
    """
    i1, i2 = iterated_integral_map(1), iterated_integral_map(2)
    if variant == "left":
        witness = wedge_at(i2, 0) - cup_pair(i1, i2, convention)
    elif variant == "right":
        witness = wedge_at(i2, 1) - cup_pair(i2, i1, convention)
    else:
        raise ValueError(f"unknown witness variant {variant!r}")
    return witness.renamed(f"K3_witness_{variant}", 1)


def cumulant_multimap(n: int, ctx: CumulantContext | None = None) -> MultiMap:
    """The n-th Boolean cumulant of ctx (integration by default), as a
    MultiMap tabulated by `cumulant_table`."""
    if n < 1:
        raise ValueError("n must be positive")
    context = ctx if ctx is not None else integration_context()
    return _tabulated(n, n - 1, f"K{n}",
                      lambda domain: cumulant_table(context, domain))

