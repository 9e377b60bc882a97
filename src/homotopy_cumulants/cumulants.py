"""Boolean cumulants of a chain map, over ordered partitions.

The n-th cumulant of a map e between algebras is the signed sum over all
ordered partitions (compositions) of n: multiply the inputs inside each
block, apply e blockwise, multiply the block images, and weight by
(-1)^(blocks - 1).  K_1 = e, and K_2(a, b) = e(ab) - e(a)e(b).  The
cumulants vanish identically when e is a map of algebras; here they
measure the failure of integration to respect the wedge and cup products.

Inputs are PolyForms or basis codes (ints, see
`interval_model.encode_basis`); on codes a context multiplies by
`wedge_codes`, with None for the zero form dt^dt (see CumulantContext).
`cumulant` and `cumulant_terms` evaluate one input tuple by the direct
formula, and `cumulant_recursive` by the recursion
K_n(a_1, ..) = K_{n-1}(a_1 a_2, ..) - e(a_1) K_{n-1}(a_2, ..); they are
the oracles on PolyForms for the two tables, which give K_n's nonzero
values on every code tuple of a per-slot product of code sets:
`cumulant_table` by the direct formula and `cumulant_recursive_table` by
the recursion.  The cumulants suite compares the two tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .interval_model import (
    Cochain,
    PolyForm,
    cup,
    d_form,
    decode_basis,
    delta,
    integrate,
    wedge,
    wedge_codes,
)


@dataclass(frozen=True)
class Composition:
    """An ordered partition of n into positive blocks."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise ValueError("blocks must be positive integers")

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def cut_set(self) -> frozenset[int]:
        """Positions in 1..n-1 where consecutive inputs are separated."""
        cuts = []
        acc = 0
        for b in self.blocks[:-1]:
            acc += b
            cuts.append(acc)
        return frozenset(cuts)

    @classmethod
    def from_cut_set(cls, n: int, cuts: frozenset[int]) -> "Composition":
        bounds = [0] + sorted(cuts) + [n]
        return cls(tuple(b - a for a, b in zip(bounds, bounds[1:])))

    def to_text(self) -> str:
        return "(" + ",".join(str(b) for b in self.blocks) + ")"


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple[Composition, ...]:
    out = []
    for mask in range(1 << (n - 1)):
        cuts = frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)
        out.append(Composition.from_cut_set(n, cuts))
    return tuple(out)


def compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n.

    Deterministic order: cut subsets of {1, .., n-1} enumerated by binary
    counting with position i on bit i-1, so (n) comes first and the all-ones
    composition sits at index 2^(n-1) - 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return list(_compositions(n))


def composition_sign(c: Composition) -> int:
    """+1 for an odd number of blocks, -1 for an even number."""
    return -1 if len(c) % 2 == 0 else 1


@dataclass(frozen=True)
class CumulantContext:
    """A chain map together with the two products it fails to intertwine.

    Chain-map values and PolyForm products are memoized per context, and so
    are the inner values of the per-tuple `cumulant_recursive`.  The two
    tables keep nothing else here: `cumulant_table` interns values and
    `cumulant_recursive_table` memoizes sub-tables within one call only.

    `apply` and `multiply` take PolyForms or basis codes.  A code is mapped
    through its decoded monomial once and cached under the int; None is the
    zero form, which `apply` sends to the shared zero cochain and `multiply`
    keeps as None.  Codes multiply by `wedge_codes` when the source product
    is the wedge, as in every context built here; under any other source
    product they are decoded and multiplied as PolyForms.
    """

    chain_map: Callable[[PolyForm], Cochain]
    source_product: Callable[[PolyForm, PolyForm], PolyForm] = wedge
    target_product: Callable[[Cochain, Cochain], Cochain] = cup

    def __post_init__(self):
        object.__setattr__(self, "_map_cache", {None: Cochain.zero()})
        object.__setattr__(self, "_product_cache", {})
        object.__setattr__(self, "_recursive_cache", {})
        object.__setattr__(self, "_wedge_source", self.source_product is wedge)

    def apply(self, form: PolyForm | int | None) -> Cochain:
        cache = self._map_cache
        value = cache.get(form)
        if value is None:
            value = self.chain_map(
                decode_basis(form) if type(form) is int else form)
            cache[form] = value
        return value

    def multiply(self, a: PolyForm | int | None,
                 b: PolyForm | int) -> PolyForm | int | None:
        if type(a) is int:
            if self._wedge_source:
                return wedge_codes(a, b)
            a = decode_basis(a)
        elif a is None:
            return None
        if type(b) is int:
            b = decode_basis(b)
        cache = self._product_cache
        value = cache.get((a, b))
        if value is None:
            value = self.source_product(a, b)
            cache[(a, b)] = value
        return value

    def verify_chain_map(self, max_exponent: int = 4) -> bool:
        """Check chain_map . d = delta . chain_map on the monomial grid."""
        for dt in (False, True):
            for k in range(max_exponent + 1):
                a = PolyForm.monomial(k, dt=dt)
                if self.chain_map(d_form(a)) != delta(self.chain_map(a)):
                    return False
        return True


def integration_context(check_exponent: int = 6) -> CumulantContext:
    """The integration map context; the chain property is checked eagerly."""
    ctx = CumulantContext(integrate)
    if not ctx.verify_chain_map(check_exponent):
        raise ValueError("integration map failed the chain-map check")
    return ctx


def endpoint_evaluation_context() -> CumulantContext:
    """Test double: evaluate the degree-0 part at the endpoints.

    Restricted to degree-0 forms this is a genuine algebra morphism into
    the cochains, so all its cumulants vanish there.  It is not a chain
    map, hence no construction-time chain check.
    """
    def endpoint_evaluation(a: PolyForm) -> Cochain:
        return Cochain(a.part0(0), a.part0(1), 0)

    return CumulantContext(endpoint_evaluation)


@dataclass(frozen=True)
class CumulantTerm:
    """One composition's contribution to a cumulant evaluation."""

    composition: Composition
    sign: int
    value: Cochain

    def signed_value(self) -> Cochain:
        return self.value.scale(self.sign)


def _composition_products(ctx: CumulantContext,
                          inputs: Sequence[PolyForm | int]):
    """Yield each composition with the product of its block images, in order.

    The image of each left-nested run product inputs[i..j] is computed
    once.  A partial product that is the shared zero cochain absorbs the
    rest.
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("cumulant requires at least one input")
    images = {}
    for i in range(n):
        acc = inputs[i]
        images[i, i] = ctx.apply(acc)
        for j in range(i + 1, n):
            acc = ctx.multiply(acc, inputs[j])
            images[i, j] = ctx.apply(acc)
    zero = Cochain.zero()
    for comp in _compositions(n):
        acc, pos = None, 0
        for size in comp:
            image = images[pos, pos + size - 1]
            pos += size
            if acc is None:
                acc = image
            elif acc is not zero:
                acc = ctx.target_product(acc, image)
        yield comp, acc


def cumulant_terms(ctx: CumulantContext,
                   inputs: Sequence[PolyForm | int]) -> list[CumulantTerm]:
    """Term-by-term trace of the direct cumulant formula."""
    return [CumulantTerm(comp, composition_sign(comp), product)
            for comp, product in _composition_products(ctx, inputs)]


def cumulant(ctx: CumulantContext, inputs: Sequence[PolyForm | int]) -> Cochain:
    """Direct signed sum over all compositions; K_1 is the chain map."""
    zero = total = Cochain.zero()
    for comp, product in _composition_products(ctx, inputs):
        if product is not zero:
            total = total + product if len(comp) % 2 else total - product
    return total


def cumulant_table(ctx: CumulantContext, domain: Sequence[Iterable[int]]
                   ) -> dict[tuple[int, ...], Cochain]:
    """K_n's nonzero values on every code tuple of a per-slot product.

    `domain` holds one collection of basis codes per slot; a tuple missing
    from the table is a zero.  The direct sum is grouped by its first
    block: with S_i the signed sum over the compositions of inputs i..n-1,
    S_i = e(x_i..x_{n-1}) - sum_{j < n-1} e(x_i..x_j) S_{j+1}, and
    K_n = S_0.  This factors the direct formula; it never merges inputs as
    the recursion does.  Runs that are None (dt^dt) are dropped as they
    form, only nonzero images and tables are multiplied, and equal values
    are interned within the call.  Any source product works; under one
    other than the wedge the runs are PolyForms.
    """
    slots = [tuple(slot) for slot in domain]
    n = len(slots)
    if n == 0:
        raise ValueError("cumulant requires at least one input")
    apply, multiply, product = ctx.apply, ctx.multiply, ctx.target_product
    zero = Cochain.zero()
    interned: dict[Cochain, Cochain] = {}
    tails: list[dict] = [{}] * n  # tails[i] is the table of S_i
    for i in reversed(range(n)):
        table = {}
        # one first input at a time, so the unfiltered sums stay small
        for x in slots[i]:
            total: dict = {}
            runs = {(x,): x}
            for j in range(i, n):
                if j > i:
                    runs = {xs + (y,): multiply(acc, y)
                            for xs, acc in runs.items() for y in slots[j]}
                    runs = {xs: acc for xs, acc in runs.items()
                            if acc is not None}
                for xs, acc in runs.items():
                    image = apply(acc)
                    if image.is_zero():
                        continue
                    if j == n - 1:
                        previous = total.get(xs)
                        total[xs] = image if previous is None else previous + image
                        continue
                    for ys, tail in tails[j + 1].items():
                        value = product(image, tail)
                        if value is zero:
                            continue
                        key = xs + ys
                        previous = total.get(key)
                        total[key] = -value if previous is None else previous - value
            for xs, value in total.items():
                if not value.is_zero():
                    table[xs] = interned.setdefault(value, value)
        tails[i] = table
    return tails[0]


def cumulant_recursive(ctx: CumulantContext,
                       inputs: Sequence[PolyForm | int]) -> Cochain:
    """K_n(a_1,..) = K_{n-1}(a_1 a_2, a_3,..) - e(a_1) K_{n-1}(a_2,..).

    The recursion is memoized per context on its inner calls: each call
    reads the memo and stores the values of the two calls it makes, so the
    outermost tuple is never stored and a sweep over n-tuples keeps none.
    """
    if len(inputs) == 0:
        raise ValueError("cumulant requires at least one input")
    key = tuple(inputs)
    cache = ctx._recursive_cache
    value = cache.get(key)
    if value is not None:
        return value
    if len(key) == 1:
        return ctx.apply(key[0])
    merged, rest = (ctx.multiply(key[0], key[1]),) + key[2:], key[1:]
    cache[rest] = tail = cumulant_recursive(ctx, rest)
    split = ctx.target_product(ctx.apply(key[0]), tail)
    cache[merged] = head = cumulant_recursive(ctx, merged)
    return head - split


def cumulant_recursive_table(ctx: CumulantContext, domain: Sequence[Iterable]
                             ) -> dict[tuple, Cochain]:
    """K_n's nonzero values on a per-slot product, by the recursion.

    The recursion as a table identity: the merged term spreads each entry
    of the K_{n-1} table on (the products of slots 0 and 1, slots 2..)
    over the pairs whose product is its merged input, as
    `hom_complex.wedge_at` does, and the split term subtracts
    e(x_0) K_{n-1}(x_1, ..) for each x_0 with a nonzero image and each
    entry of the K_{n-1} table on slots 1.. .  Sub-tables are memoized per
    domain within the call and nothing is kept in the context.  Every
    product goes through `ctx.multiply` and `ctx.target_product`, so any
    context works; under a source product other than the wedge the merged
    slots hold PolyForms.  The result has the keys and values of
    `cumulant_table`, from which it shares no code.
    """
    if len(domain) == 0:
        raise ValueError("cumulant requires at least one input")
    apply, multiply, product = ctx.apply, ctx.multiply, ctx.target_product
    memo: dict[tuple[frozenset, ...], dict] = {}

    def table(slots: tuple[frozenset, ...]) -> dict:
        known = memo.get(slots)
        if known is not None:
            return known
        result = memo[slots] = {}
        if len(slots) == 1:
            for x in slots[0]:
                image = apply(x)
                if not image.is_zero():
                    result[(x,)] = image
            return result
        preimages: dict = {}
        for a in slots[0]:
            for b in slots[1]:
                ab = multiply(a, b)
                if ab is not None:
                    preimages.setdefault(ab, []).append((a, b))
        for ys, value in table((frozenset(preimages),) + slots[2:]).items():
            tail = ys[1:]
            for pair in preimages[ys[0]]:
                result[pair + tail] = value
        tails = table(slots[1:])
        for x in slots[0]:
            image = apply(x)
            if image.is_zero():
                continue
            for ys, value in tails.items():
                split = product(image, value)
                if split.is_zero():
                    continue
                key = (x,) + ys
                previous = result.get(key)
                if previous is None:
                    result[key] = -split
                else:
                    difference = previous - split
                    if difference.is_zero():
                        del result[key]
                    else:
                        result[key] = difference
        return result

    return table(tuple(map(frozenset, domain)))


def term_notation(composition: Composition, letters: str | None = None,
                  map_symbol: str = "p") -> str:
    """Render one cumulant term, e.g. (1,2) -> 'p(a)p(bc)'."""
    n = composition.n
    if letters is None:
        letters = "".join(chr(ord("a") + i) for i in range(n))
    pieces = []
    pos = 0
    for size in composition:
        pieces.append(f"{map_symbol}({letters[pos:pos + size]})")
        pos += size
    return "".join(pieces)


def symbolic_formula(n: int, map_symbol: str = "p") -> str:
    """The signed cumulant formula, e.g. K_2 = p(ab) - p(a)p(b)."""
    if n < 1:
        raise ValueError("n must be positive")
    letters = "".join(chr(ord("a") + i) for i in range(n))
    lhs = f"K{n}({','.join(letters)})"
    body = ""
    for comp in compositions(n):
        term = term_notation(comp, letters, map_symbol)
        if not body:
            body = term if composition_sign(comp) > 0 else f"-{term}"
        else:
            body += (" + " if composition_sign(comp) > 0 else " - ") + term
    return f"{lhs} = {body}"
