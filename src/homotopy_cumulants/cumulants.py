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
`cumulant` evaluates one input tuple by the direct formula grouped by
its first block, `cumulant_terms` traces the same sum composition by
composition, and `cumulant_recursive` evaluates by the recursion
K_n(a_1, ..) = K_{n-1}(a_1 a_2, ..) - e(a_1) K_{n-1}(a_2, ..); they are
the oracles on PolyForms for the two tables, which give K_n's nonzero
values on every code tuple of a per-slot product of code sets:
`cumulant_table` by the direct formula, doing its products and chain-map
images once per distinct run product rather than once per run, and
`cumulant_recursive_table` by the recursion.  Both sum on the value
indices of an `interval_model.CochainPool`, so each pair of distinct
values is added once.  The cumulants suite compares the two tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from ._record import Record
from .interval_model import (
    Cochain,
    CochainPool,
    PolyForm,
    cup,
    d_form,
    decode_basis,
    delta,
    integrate,
    wedge,
    wedge_codes,
)


class Composition(Record):
    """An ordered partition of n into positive blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("blocks must be positive integers")
        object.__setattr__(self, "blocks", blocks)

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


class CumulantContext(Record):
    """A chain map together with the two products it fails to intertwine.

    Chain-map values and PolyForm products are memoized per context.
    Nothing else is kept here: `cumulant_recursive` keeps its inner values,
    `cumulant_table` its run groups, scaled tails and distinct values, and
    `cumulant_recursive_table` its distinct values and its tail tables,
    within one call only.  Both products are bilinear.

    `apply` and `multiply` take PolyForms or basis codes.  A code is mapped
    through its decoded monomial once and cached under the int; None is the
    zero form, which `apply` sends to the shared zero cochain and `multiply`
    keeps as None.  Codes multiply by `wedge_codes` when the source product
    is the wedge, as in every context built here; under any other source
    product they are decoded and multiplied as PolyForms.  Contexts compare
    by their three callables; a copy or a pickle starts with empty memos.
    """

    __slots__ = ("chain_map", "source_product", "target_product",
                 "_map_cache", "_product_cache", "_wedge_source")

    def __init__(self, chain_map: Callable[[PolyForm], Cochain],
                 source_product: Callable[[PolyForm, PolyForm], PolyForm] = wedge,
                 target_product: Callable[[Cochain, Cochain], Cochain] = cup):
        object.__setattr__(self, "chain_map", chain_map)
        object.__setattr__(self, "source_product", source_product)
        object.__setattr__(self, "target_product", target_product)
        object.__setattr__(self, "_map_cache", {None: Cochain.zero()})
        object.__setattr__(self, "_product_cache", {})
        object.__setattr__(self, "_wedge_source", source_product is wedge)

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


def integration_context() -> CumulantContext:
    """The integration map context; the chain property is checked eagerly,
    on the monomials up to t^6 and t^6 dt."""
    ctx = CumulantContext(integrate)
    if not ctx.verify_chain_map(6):
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


class CumulantTerm(Record):
    """One composition's contribution to a cumulant evaluation."""

    __slots__ = ("composition", "sign", "value")

    def __init__(self, composition: Composition, sign: int, value: Cochain):
        object.__setattr__(self, "composition", composition)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "value", value)


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
    """The direct signed sum over all compositions; K_1 is the chain map.

    The sum is grouped by its first block, as in `cumulant_table`: with
    S_i the signed sum over the compositions of inputs i..n-1,
    S_i = e(x_i..x_{n-1}) - sum_{j < n-1} e(x_i..x_j) S_{j+1}, and
    K_n = S_0.  That is n(n-1)/2 input and target products and no loop
    over the compositions, which `cumulant_terms` traces one by one.
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("cumulant requires at least one input")
    apply, multiply, product = ctx.apply, ctx.multiply, ctx.target_product
    zero = Cochain.zero()
    negated = [zero] * n  # negated[i] is -S_i once i is done
    for i in reversed(range(n)):
        run = inputs[i]
        image = apply(run)  # e(x_i..x_j)
        total = zero
        for j in range(i, n - 1):
            tail = negated[j + 1]
            if image is not zero and tail is not zero:
                total = total + product(image, tail)  # the product is bilinear
            run = multiply(run, inputs[j + 1])
            image = apply(run)
        total = image + total
        if i == 0:
            return total
        negated[i] = -total


def _code_slots(domain: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """A domain's slots as tuples of distinct basis codes, checked.

    A code must be a nonnegative int; a bool is refused, as it is not a
    code.  The error names the slot, as `hom_complex` does for inputs.
    """
    slots = []
    for i, slot in enumerate(domain):
        slot = tuple(slot)
        for x in slot:
            if type(x) is not int:
                raise TypeError(
                    f"slot {i}: expected a basis code, got {type(x).__name__}")
            if x < 0:
                raise ValueError(f"slot {i}: basis code {x} is negative")
        slots.append(tuple(dict.fromkeys(slot)))
    if not slots:
        raise ValueError("cumulant requires at least one input")
    return slots


def cumulant_table(ctx: CumulantContext, domain: Iterable[Iterable[int]]
                   ) -> dict[tuple[int, ...], Cochain]:
    """K_n's nonzero values on every code tuple of a per-slot product.

    `domain` holds one collection of basis codes per slot (nonnegative
    ints; anything else is refused); a tuple missing from the table is a
    zero.  The direct sum is grouped by its first block: with S_i the
    signed sum over the compositions of inputs i..n-1,
    S_i = e(x_i..x_{n-1}) - sum_{j < n-1} e(x_i..x_j) S_{j+1}, and
    K_n = S_0.  This factors the direct formula; it never merges inputs as
    the recursion does.

    The work is done once per distinct run product, not once per run.
    The runs x_i..x_j are kept grouped by their product, a run that is
    None (dt^dt) is dropped as it forms, and each group is mapped once.
    For each nonzero image e and span j < n-1 the scaled tail, the nonzero
    (ys, -e S_{j+1}(ys)), is built once per call, with one product per
    distinct value of S_{j+1}, and added at xs + ys for every run xs of
    the group; at j = n-1 the tail is the one entry ((), e).  The sums run
    over the few distinct values as indices of an
    `interval_model.CochainPool`, so each pair is added once per call.
    Only nonzero values are stored, each distinct value as one object.
    Any source product works; under one other than the wedge the run
    products are PolyForms.
    """
    slots = _code_slots(domain)
    n = len(slots)
    apply, multiply, product = ctx.apply, ctx.multiply, ctx.target_product
    zero = Cochain.zero()
    pool = CochainPool()  # the distinct values met, with their sums
    values, intern, add = pool.values, pool.intern, pool.add
    # tails[i] is the table of S_i grouped by value: value -> its tuples
    tails: list[dict] = [{}] * n
    # scaled[j][image]: (ys, index of -image * S_{j+1}(ys)) for the nonzero
    # ones, and for j = n - 1 the one entry ((), index of image)
    scaled: list[dict] = [{} for _ in range(n)]
    for i in reversed(range(n)):
        table = {}
        # one first input at a time, so `total`, which holds the value
        # indices of the sums before zeros are dropped, stays small
        for x in slots[i]:
            total: dict = {}
            groups = {x: [(x,)]}  # run product -> the runs x_i..x_j with it
            for j in range(i, n):
                if j > i:
                    grown: dict = {}
                    for acc, runs in groups.items():
                        for y in slots[j]:
                            ab = multiply(acc, y)
                            if ab is None:
                                continue
                            longer = [xs + (y,) for xs in runs]
                            group = grown.get(ab)
                            if group is None:
                                grown[ab] = longer
                            else:
                                group += longer
                    groups = grown
                for acc, runs in groups.items():
                    image = apply(acc)
                    if image is zero:
                        continue
                    entries = scaled[j].get(image)
                    if entries is None:
                        if j == n - 1:
                            entries = [((), intern(image))]
                        else:
                            entries = []
                            negated = -image  # the product is bilinear
                            for tail, yss in tails[j + 1].items():
                                value = product(negated, tail)
                                if value is not zero:
                                    k = intern(value)
                                    entries += [(ys, k) for ys in yss]
                        scaled[j][image] = entries
                    for xs in runs:
                        for ys, k in entries:
                            key = xs + ys
                            previous = total.get(key)
                            total[key] = (k if previous is None
                                          else add(previous, k))
            # straight into the table: a second dict per x from `pool.table`
            # raised the peak RSS
            for xs, k in total.items():
                if k:
                    table[xs] = values[k]
        if i == 0:
            return table
        tails[i] = _by_value(table)


def _by_value(table: dict) -> dict:
    """A table's tuples grouped by their value, in first-seen order."""
    groups: dict = {}
    for xs, value in table.items():
        groups.setdefault(value, []).append(xs)
    return groups


def cumulant_recursive(ctx: CumulantContext,
                       inputs: Sequence[PolyForm | int]) -> Cochain:
    """K_n(a_1,..) = K_{n-1}(a_1 a_2, a_3,..) - e(a_1) K_{n-1}(a_2,..).

    The inner values are memoized within the call, so a sweep over
    n-tuples keeps nothing once each call returns.
    """
    if len(inputs) == 0:
        raise ValueError("cumulant requires at least one input")
    return _recursive(ctx, tuple(inputs), {})


def _recursive(ctx: CumulantContext, key: tuple, memo: dict) -> Cochain:
    value = memo.get(key)
    if value is None:
        if len(key) == 1:
            value = ctx.apply(key[0])
        else:
            tail = _recursive(ctx, key[1:], memo)
            split = ctx.target_product(ctx.apply(key[0]), tail)
            merged = (ctx.multiply(key[0], key[1]),) + key[2:]
            value = _recursive(ctx, merged, memo) - split
        memo[key] = value
    return value


def cumulant_recursive_table(ctx: CumulantContext,
                             domain: Iterable[Iterable[int]]
                             ) -> dict[tuple, Cochain]:
    """K_n's nonzero values on a per-slot product, by the recursion.

    The recursion as a table identity, evaluated by `_recursive_table` on
    the value indices of one `interval_model.CochainPool`, with one cache
    of tail tables; both live for this call only, so nothing is kept in
    the context.  Every product goes through `ctx.multiply` and
    `ctx.target_product`, so any context works; under a source product
    other than the wedge the merged slots hold PolyForms, and only the
    domain given is checked for codes.  The result has the keys and values
    of `cumulant_table`, with which it shares nothing but that check.
    """
    slots = tuple(map(frozenset, _code_slots(domain)))
    pool = CochainPool()
    return pool.table(_recursive_table(ctx, pool, {}, slots))


def _recursive_table(ctx: CumulantContext, pool: CochainPool, tails: dict,
                     slots: tuple[frozenset, ...]) -> dict:
    """K_n's table on slots as value indices of pool.

    A zero value is index 0, and the table's one reader drops it: the
    merged term skips it, the tail groups lose it and `pool.table` leaves
    it out of the result, so no table is copied to drop its zeros.

    The merged term spreads each entry of the K_{n-1} table on (the
    products of slots 0 and 1, slots 2..) over the pairs whose product is
    its merged input, as `hom_complex.wedge_at` does, and the split term
    subtracts e(x_0) K_{n-1}(x_1, ..) for each x_0 with a nonzero image and
    each entry of the K_{n-1} table on slots 1.. .  The codes x_0 are
    grouped by their image and the entries by their value (the one cache,
    `tails`, holds each tail table grouped so, by its slots), so each
    distinct image is multiplied by each distinct value once, the product
    is spread over both groups, and each pair of indices is added once.
    """
    apply, multiply, product = ctx.apply, ctx.multiply, ctx.target_product
    if len(slots) == 1:
        return {(x,): pool.intern(apply(x)) for x in slots[0]}
    preimages: dict = {}
    for a in slots[0]:
        for b in slots[1]:
            ab = multiply(a, b)
            if ab is not None:
                preimages.setdefault(ab, []).append((a, b))
    merged = (frozenset(preimages),) + slots[2:]
    table = {}
    for ys, k in _recursive_table(ctx, pool, tails, merged).items():
        if k:
            tail = ys[1:]
            for pair in preimages[ys[0]]:
                table[pair + tail] = k
    grouped = tails.get(slots[1:])
    if grouped is None:
        grouped = tails[slots[1:]] = _by_value(
            _recursive_table(ctx, pool, tails, slots[1:]))
        grouped.pop(0, None)
    sharing: dict = {}  # nonzero image -> the codes x_0 that have it
    for x in slots[0]:
        image = apply(x)
        if not image.is_zero():
            sharing.setdefault(image, []).append(x)
    values, intern, add = pool.values, pool.intern, pool.add
    for image, xs in sharing.items():
        for k, yss in grouped.items():
            split = intern(-product(image, values[k]))
            if not split:
                continue
            for ys in yss:
                for x in xs:
                    key = (x,) + ys
                    old = table.get(key)
                    table[key] = split if old is None else add(old, split)
    return table


def input_letters(n: int) -> str:
    """The names of n inputs in the printed formulas: 'abc' for n = 3."""
    return "".join(chr(ord("a") + i) for i in range(n))


def term_notation(composition: Composition) -> str:
    """Render one cumulant term, e.g. (1,2) -> 'p(a)p(bc)'."""
    letters = input_letters(composition.n)
    pieces = []
    pos = 0
    for size in composition:
        pieces.append(f"p({letters[pos:pos + size]})")
        pos += size
    return "".join(pieces)


def symbolic_formula(n: int) -> str:
    """The signed cumulant formula, e.g. K_2 = p(ab) - p(a)p(b)."""
    if n < 1:
        raise ValueError("n must be positive")
    lhs = f"K{n}({','.join(input_letters(n))})"
    body = ""
    for comp in compositions(n):
        term = term_notation(comp)
        if not body:
            body = term if composition_sign(comp) > 0 else f"-{term}"
        else:
            body += (" + " if composition_sign(comp) > 0 else " - ") + term
    return f"{lhs} = {body}"
