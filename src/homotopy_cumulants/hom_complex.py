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

Equality of MultiMaps is certified on truncated monomial bases, which by
multilinearity is exact on the truncated subspace.  The sweeps evaluate
maps on integer basis codes (see `interval_model.encode_basis`): every
combinator here has a one-term rule on codes, and a map without one
decodes its inputs and runs the general PolyForm path, which also serves
arbitrary forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .cumulants import CumulantContext, cumulant, integration_context
from .interval_model import (
    Cochain,
    PolyForm,
    cup,
    d_code,
    d_form,
    decode_basis,
    delta,
    encode_basis,
    iterated_integral,
    iterated_integral_codes,
    wedge,
    wedge_codes,
)


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
    used by Koszul signs is shifted_degree - arity + 1.  Evaluations are
    memoized, so shared subexpressions across a grid sweep are cheap.

    A map is called either on PolyForms or on basis codes (ints), and one
    memo holds both, since an int tuple never equals a PolyForm tuple.
    `basis_codes` says whether the evaluator accepts codes itself; when it
    is False, code inputs are decoded to PolyForms first.
    """

    __slots__ = ("arity", "shifted_degree", "name", "basis_codes",
                 "_evaluator", "_memo")

    def __init__(self, arity: int, shifted_degree: int,
                 evaluator: Callable[..., Cochain], name: str = ""):
        if arity < 1:
            raise ValueError("arity must be positive")
        self.arity = arity
        self.shifted_degree = shifted_degree
        self.name = name or f"map/{arity}"
        self.basis_codes = False
        self._evaluator = evaluator
        self._memo: dict = {}

    @property
    def plain_degree(self) -> int:
        return self.shifted_degree - self.arity + 1

    def __call__(self, *forms: PolyForm | int) -> Cochain:
        value = self._memo.get(forms)
        if value is None:
            # only tuples of the right length are ever memoized
            if len(forms) != self.arity:
                raise ValueError(
                    f"{self.name} expects {self.arity} inputs, got {len(forms)}")
            if self.basis_codes or type(forms[0]) is not int:
                value = self._evaluator(*forms)
            else:
                value = self._evaluator(*map(decode_basis, forms))
            self._memo[forms] = value
        return value

    def renamed(self, name: str, shifted_degree: int | None = None) -> "MultiMap":
        """The same evaluator under a new name (and degree), with a fresh memo."""
        if shifted_degree is None:
            shifted_degree = self.shifted_degree
        renamed = MultiMap(self.arity, shifted_degree, self._evaluator, name)
        renamed.basis_codes = self.basis_codes
        return renamed

    def __add__(self, other: "MultiMap") -> "MultiMap":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return _coded(self.arity, self.shifted_degree,
                      lambda *xs: self(*xs) + other(*xs),
                      f"({self.name} + {other.name})")

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return _coded(self.arity, self.shifted_degree,
                      lambda *xs: self(*xs) - other(*xs),
                      f"({self.name} - {other.name})")

    def scale(self, scalar) -> "MultiMap":
        return _coded(self.arity, self.shifted_degree,
                      lambda *xs: self(*xs).scale(scalar),
                      f"({scalar})*{self.name}")

    def __repr__(self) -> str:
        return f"MultiMap({self.name}, arity={self.arity}, shifted_degree={self.shifted_degree})"


def _coded(arity: int, shifted_degree: int, evaluator: Callable[..., Cochain],
           name: str) -> MultiMap:
    """A MultiMap whose evaluator accepts basis codes as well as PolyForms."""
    built = MultiMap(arity, shifted_degree, evaluator, name)
    built.basis_codes = True
    return built


def zero_map(arity: int, shifted_degree: int = 0) -> MultiMap:
    return _coded(arity, shifted_degree,
                  lambda *xs: Cochain.zero(), name=f"0/{arity}")


def iterated_integral_map(n: int) -> MultiMap:
    """The n-th iterated-integral map as a MultiMap of shifted degree 0."""
    if n < 1:
        raise ValueError("n must be positive")

    def evaluator(*xs: PolyForm | int) -> Cochain:
        if type(xs[0]) is int:
            return iterated_integral_codes(xs)
        return iterated_integral(xs)

    return _coded(n, 0, evaluator, name=f"I{n}")


def _homogeneous_tuples(forms: Sequence[PolyForm]):
    """Expand a tuple of forms into homogeneous summands with degree lists."""
    per_slot = [f.homogeneous_parts() for f in forms]
    if any(not parts for parts in per_slot):
        return
    for combo in itertools.product(*per_slot):
        yield tuple(c[0] for c in combo), [c[1] for c in combo]


def wedge_at(f: MultiMap, slot: int) -> MultiMap:
    """Precompose f with the wedge product merging inputs slot, slot+1.

    The wedge has unsuspended degree 0, so no Koszul sign arises.
    """
    if not 0 <= slot < f.arity:
        raise ValueError("slot out of range")

    def evaluator(*xs: PolyForm | int) -> Cochain:
        if type(xs[0]) is int:
            product = wedge_codes(xs[slot], xs[slot + 1])
            if product is None:
                return Cochain.zero()
        else:
            product = wedge(xs[slot], xs[slot + 1])
        return f(*xs[:slot], product, *xs[slot + 2:])

    return _coded(f.arity + 1, f.shifted_degree + 1, evaluator,
                  name=f"{f.name}(wedge@{slot})")


def d_insertion_sum(f: MultiMap,
                    convention: SignConvention = CONVENTION_A) -> MultiMap:
    """sum_u koszul(u) f(1 x .. x d x .. x 1) with signs per convention.

    On codes the one term of slot u is k f(.., t^(k-1) dt, ..) for an input
    t^k, signed by the dt inputs it passes.
    """

    def on_codes(xs: tuple[int, ...]) -> Cochain:
        total = Cochain.zero()
        dt_inputs = sum(x & 1 for x in xs)
        passed_left = 0
        for u, x in enumerate(xs):
            dx = d_code(x)
            if dx is not None:
                k, code = dx
                passed = (passed_left if convention.from_left
                          else dt_inputs - passed_left)
                value = f(*xs[:u], code, *xs[u + 1:])
                total = total + value.scale(-k if passed & 1 else k)
            passed_left += x & 1
        return total

    def evaluator(*xs: PolyForm | int) -> Cochain:
        if type(xs[0]) is int:
            return on_codes(xs)
        total = Cochain.zero()
        for homog, degs in _homogeneous_tuples(xs):
            for u in range(f.arity):
                dx = d_form(homog[u])
                if dx.is_zero():
                    continue
                exponent = sum(degs[:u]) if convention.from_left else sum(degs[u + 1:])
                inserted = homog[:u] + (dx,) + homog[u + 1:]
                value = f(*inserted)
                total = total + (value if exponent % 2 == 0 else -value)
        return total

    return _coded(f.arity, f.shifted_degree + 1, evaluator,
                  name=f"{f.name}.d_insertions")


def hom_boundary(f: MultiMap,
                 convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The Hom-complex differential; squares to zero.

    boundary(f) = delta . f - (-1)^{|f|} (Koszul-signed d insertions),
    with |f| the unsuspended degree of f.
    """
    insertions = d_insertion_sum(f, convention)
    pre_sign = -1 if f.plain_degree % 2 == 0 else 1

    def evaluator(*xs: PolyForm | int) -> Cochain:
        return delta(f(*xs)) + insertions(*xs).scale(pre_sign)

    return _coded(f.arity, f.shifted_degree + 1, evaluator,
                  name=f"boundary({f.name})")


def cup_pair(left: MultiMap, right: MultiMap,
             convention: SignConvention = CONVENTION_A) -> MultiMap:
    """cup . (left x right) with the Koszul sign of the tensor evaluation.

    Under convention A the right map picks up (-1)^{|right| * deg} from the
    form degrees it passes on the left; convention B mirrors this.  On
    codes the form degrees are the dt bits, so the sign is a single
    (-1)^{|moving| * dt bits passed}.
    """
    arity = left.arity + right.arity
    moving = right if convention.from_left else left
    moving_parity = moving.plain_degree % 2

    def evaluator(*xs: PolyForm | int) -> Cochain:
        left_xs, right_xs = xs[:left.arity], xs[left.arity:]
        if moving_parity == 0:
            return cup(left(*left_xs), right(*right_xs))
        passed = left_xs if convention.from_left else right_xs
        if type(xs[0]) is int:
            value = cup(left(*left_xs), right(*right_xs))
            return -value if sum(x & 1 for x in passed) & 1 else value
        total = Cochain.zero()
        for homog, degs in _homogeneous_tuples(passed):
            if convention.from_left:
                value = cup(left(*homog), right(*right_xs))
            else:
                value = cup(left(*left_xs), right(*homog))
            total = total + (value if sum(degs) % 2 == 0 else -value)
        return total

    return _coded(arity, left.shifted_degree + right.shifted_degree + 1,
                  evaluator, name=f"cup({left.name},{right.name})")


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


def maps_equal_on_truncation(f: MultiMap, g: MultiMap,
                             grid: TruncationGrid,
                             check: str = "") -> EqualityVerdict:
    """Exact equality on the span of the truncated monomial basis.

    Basis tuples are swept as codes in deterministic slot-major order, and
    the first disagreement is reported with both values and its tuple
    decoded to PolyForms.
    """
    if f.arity != g.arity:
        raise ValueError("cannot compare maps of different arity")
    name = check or f"{f.name} == {g.name}"
    for xs in itertools.product(grid.slot_codes(), repeat=f.arity):
        lhs, rhs = f(*xs), g(*xs)
        if lhs != rhs:
            return EqualityVerdict(name, f.arity, grid.max_exponent, False,
                                   tuple(map(decode_basis, xs)), lhs, rhs)
    return EqualityVerdict(name, f.arity, grid.max_exponent, True)


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
    total = _coded(n, 1, lambda *xs: delta(i_n(*xs)), name=f"delta.I{n}")
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
    """The n-th Boolean cumulant of the integration map, as a MultiMap."""
    if n < 1:
        raise ValueError("n must be positive")
    context = ctx if ctx is not None else integration_context()
    return MultiMap(n, n - 1,
                    lambda *xs: cumulant(context, list(xs)), name=f"K{n}")


def random_multilinearity_probe(f: MultiMap, rng, trials: int = 8,
                                max_exponent: int = 3) -> bool:
    """Spot-check f(.., s*a + r*b, ..) = s f(.., a, ..) + r f(.., b, ..)."""
    from fractions import Fraction

    basis = TruncationGrid(max_exponent).slot_basis()
    for _ in range(trials):
        slot = rng.randrange(f.arity)
        fixed = [rng.choice(basis) for _ in range(f.arity)]
        a, b = rng.choice(basis), rng.choice(basis)
        s = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        r = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        mixed = list(fixed)
        mixed[slot] = a.scale(s) + b.scale(r)
        with_a, with_b = list(fixed), list(fixed)
        with_a[slot] = a
        with_b[slot] = b
        expected = f(*with_a).scale(s) + f(*with_b).scale(r)
        if f(*mixed) != expected:
            return False
    return True
