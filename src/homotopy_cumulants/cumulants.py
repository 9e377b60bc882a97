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
The three per-tuple functions read one run table per input tuple, the
images e(x_i..x_j) of its left-nested run products, which the context
keeps for the latest tuple only.  `cumulant` evaluates the direct
formula grouped by its first block, `cumulant_terms` traces the same
sum composition by composition, and `cumulant_recursive` evaluates by
the recursion K_n(a_1, ..) = K_{n-1}(a_1 a_2, ..) - e(a_1) K_{n-1}(a_2, ..)
on run indices; they are the oracles on PolyForms for the two table
builds, which give K_n's nonzero values on every code tuple of a
per-slot product of code sets: `cumulant_levels` by the direct formula,
doing its products and chain-map images once per distinct run product
rather than once per run, and `cumulant_recursive_levels` by the
recursion.  Both sum on the value indices of an
`interval_model.CochainPool`, so each pair of distinct values is added
once.  Each build makes K_m on the last m slots for m = 1..n and yields
every level with its arity, so the cumulants suite builds each K_m once
per grid; `cumulant_table`, the table of a MultiMap's K_n leaf, is the
last level of the direct build.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

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

    The chain-map images of basis codes are memoized for the life of the
    context.  Besides them a context keeps only the run table of the
    latest input tuple that `cumulant`, `cumulant_terms` or
    `cumulant_recursive` evaluated (see `_run_table`), so a context fed
    many distinct PolyForm tuples does not grow.  A product or an image of
    a PolyForm is computed afresh on each `multiply` or `apply`.  The
    tables keep their run groups, scaled tails and distinct values within
    one call only.  Both products are bilinear.

    `apply` and `multiply` take PolyForms or basis codes.  A code is mapped
    through its decoded monomial once and cached under the int; None is the
    zero form, which `apply` sends to the shared zero cochain and `multiply`
    keeps as None.  Two codes multiply by `wedge_codes` when the source
    product is the wedge, as in every context built here; under any other
    source product, or beside a PolyForm, a code is decoded and multiplied
    as a PolyForm.  Contexts compare by their three callables; a copy or a
    pickle starts with no memos.
    """

    __slots__ = ("chain_map", "source_product", "target_product",
                 "_map_cache", "_runs", "_wedge_source")

    def __init__(self, chain_map: Callable[[PolyForm], Cochain],
                 source_product: Callable[[PolyForm, PolyForm], PolyForm] = wedge,
                 target_product: Callable[[Cochain, Cochain], Cochain] = cup):
        object.__setattr__(self, "chain_map", chain_map)
        object.__setattr__(self, "source_product", source_product)
        object.__setattr__(self, "target_product", target_product)
        object.__setattr__(self, "_map_cache", {None: Cochain.zero()})
        # (inputs, run table) of the latest tuple evaluated, set as a whole
        object.__setattr__(self, "_runs", None)
        object.__setattr__(self, "_wedge_source", source_product is wedge)

    def apply(self, form: PolyForm | int | None) -> Cochain:
        if type(form) is int or form is None:
            cache = self._map_cache
            value = cache.get(form)
            if value is None:
                value = cache[form] = self.chain_map(decode_basis(form))
            return value
        return self.chain_map(form)

    def multiply(self, a: PolyForm | int | None,
                 b: PolyForm | int) -> PolyForm | int | None:
        if type(a) is int:
            if type(b) is int and self._wedge_source:
                return wedge_codes(a, b)
            a = decode_basis(a)
        elif a is None:
            return None
        if type(b) is int:
            b = decode_basis(b)
        return self.source_product(a, b)

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
    """One composition's contribution to a cumulant evaluation: the
    product of its block images, which enters the sum with the sign
    `composition_sign(composition)`."""

    __slots__ = ("composition", "value")

    def __init__(self, composition: Composition, value: Cochain):
        object.__setattr__(self, "composition", composition)
        object.__setattr__(self, "value", value)


def _check_inputs(inputs: Sequence[PolyForm | int]) -> None:
    """Refuse an input that is neither a PolyForm nor a nonnegative basis
    code, naming its slot; a bool is refused, as it is not a code.

    Both per-tuple paths check here: the three functions below, through
    `_run_table`, and a call of a `hom_complex.MultiMap` on forms or
    codes, so the two raise the same error for the same tuple.
    """
    for i, x in enumerate(inputs):
        if type(x) is int:
            if x < 0:
                raise ValueError(f"input {i}: basis code {x} is negative")
        elif not isinstance(x, PolyForm):
            raise TypeError(f"input {i}: expected a PolyForm or a basis "
                            f"code, got {type(x).__name__}")


def _run_table(ctx: CumulantContext, inputs: Sequence[PolyForm | int]
               ) -> list[tuple[Cochain, ...]]:
    """The images of the runs of one input tuple: row i holds
    e(x_i..x_j) for j = i..n-1, so row i, entry j - i is e(p_ij).

    The run products are left-nested, p_{i,j+1} = p_ij x_{j+1}: n(n-1)/2
    products through `ctx.multiply` and n(n+1)/2 images through
    `ctx.apply`.  The tuple is checked first: it must not be empty, and
    `_check_inputs` checks each input.  The context keeps the table of the
    latest tuple only, published with its inputs as one attribute, so a
    caller reads either its own tuple's table or builds one, and the next
    evaluation of an equal tuple, by any of the three per-tuple functions,
    builds none.
    """
    inputs = tuple(inputs)
    if not inputs:
        raise ValueError("cumulant requires at least one input")
    _check_inputs(inputs)
    latest = ctx._runs
    if latest is not None and latest[0] == inputs:
        return latest[1]
    apply, multiply = ctx.apply, ctx.multiply
    table = []
    for i, run in enumerate(inputs):
        images = [apply(run)]
        for x in inputs[i + 1:]:
            run = multiply(run, x)
            images.append(apply(run))
        table.append(tuple(images))
    object.__setattr__(ctx, "_runs", (inputs, table))
    return table


def cumulant_terms(ctx: CumulantContext,
                   inputs: Sequence[PolyForm | int]) -> list[CumulantTerm]:
    """Term-by-term trace of the direct cumulant formula.

    Each composition's product of block images, read from the tuple's run
    table; a partial product that is the shared zero cochain absorbs the
    rest.
    """
    runs = _run_table(ctx, inputs)
    zero = Cochain.zero()
    terms = []
    for comp in _compositions(len(runs)):
        acc, pos = None, 0
        for size in comp:
            image = runs[pos][size - 1]
            pos += size
            if acc is None:
                acc = image
            elif acc is not zero:
                acc = ctx.target_product(acc, image)
        terms.append(CumulantTerm(comp, acc))
    return terms


def cumulant(ctx: CumulantContext, inputs: Sequence[PolyForm | int]) -> Cochain:
    """The direct signed sum over all compositions; K_1 is the chain map.

    The sum is grouped by its first block, as in `cumulant_table`: with
    S_i the signed sum over the compositions of inputs i..n-1,
    S_i = e(x_i..x_{n-1}) - sum_{j < n-1} e(x_i..x_j) S_{j+1}, and
    K_n = S_0.  The images come from the tuple's run table, so this is
    n(n-1)/2 target products and no loop over the compositions, which
    `cumulant_terms` traces one by one.
    """
    runs = _run_table(ctx, inputs)
    n = len(runs)
    product = ctx.target_product
    zero = Cochain.zero()
    negated = [zero] * n  # negated[i] is -S_i once i is done
    for i in reversed(range(n)):
        images = runs[i]
        total = zero
        for j in range(i, n - 1):
            image, tail = images[j - i], negated[j + 1]
            if image is not zero and tail is not zero:
                total = total + product(image, tail)  # the product is bilinear
        image = images[-1]  # e(x_i..x_{n-1})
        total = image + total
        if i == 0:
            return total
        negated[i] = -total


def _code_slots(domain: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """A domain's slots as tuples of distinct basis codes, checked.

    A code must be a nonnegative int; a bool is refused, as it is not a
    code.  The error names the slot, as `_check_inputs` names the input.
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
    """K_n's nonzero values on every code tuple of a per-slot product, by
    the direct formula: the last level of `cumulant_levels`.

    `domain` holds one collection of basis codes per slot (nonnegative
    ints; anything else is refused); a tuple missing from the table is a
    zero.
    """
    slots = _code_slots(domain)
    # `islice` drops each earlier level as it is read, so none is held
    # while the next is built
    return next(islice(_direct_levels(ctx, slots), len(slots) - 1, None))[1]


def cumulant_levels(ctx: CumulantContext, domain: Iterable[Iterable[int]]
                    ) -> Iterator[tuple[int, dict[tuple[int, ...], Cochain]]]:
    """The levels of the direct build of K_n on a per-slot product.

    The direct sum is grouped by its first block: with S_i the signed sum
    over the compositions of inputs i..n-1,
    S_i = e(x_i..x_{n-1}) - sum_{j < n-1} e(x_i..x_j) S_{j+1}, and
    K_n = S_0.  This factors the direct formula; it never merges inputs as
    the recursion does.  S_i is K_{n-i} on domain[i:], so the build yields
    (m, K_m's table on domain[n-m:]) for m = 1..n.  The domain is checked
    when this is called, before any level is built; a table the caller
    changes changes no later level.

    The work is done once per distinct run product, not once per run.
    The runs x_i..x_j are kept grouped by their product, a run that is
    None (dt^dt) is dropped as it forms, and each group is mapped once.
    For each nonzero image e and span j < n-1 the scaled tail, the nonzero
    (ys, -e S_{j+1}(ys)), is built once per build, with one product per
    distinct value of S_{j+1}, and added at xs + ys for every run xs of
    the group; at j = n-1 the tail is the one entry ((), e).  The sums run
    over the few distinct values as indices of an
    `interval_model.CochainPool`, so each pair is added once per build.
    Only nonzero values are stored, each distinct value as one object.
    Any source product works; under one other than the wedge the run
    products are PolyForms.  The build's working memory lives until the
    generator is exhausted or closed.
    """
    return _direct_levels(ctx, _code_slots(domain))


def _direct_levels(ctx: CumulantContext, slots: list[tuple[int, ...]]
                   ) -> Iterator[tuple[int, dict]]:
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
        if i:
            tails[i] = _by_value(table)
        yield n - i, table


def _by_value(table: dict) -> dict:
    """A table's tuples grouped by their value, in first-seen order."""
    groups: dict = {}
    for xs, value in table.items():
        groups.setdefault(value, []).append(xs)
    return groups


def cumulant_recursive(ctx: CumulantContext,
                       inputs: Sequence[PolyForm | int]) -> Cochain:
    """K_n(a_1,..) = K_{n-1}(a_1 a_2, a_3,..) - e(a_1) K_{n-1}(a_2,..).

    The merged inputs are the left-nested run products, so the recursion
    runs on run indices: with K(i, j) the cumulant of (p_ij, x_{j+1}, ..),
    K(i, j) = K(i, j+1) - e(p_ij) K(j+1, j+1), K(i, n-1) = e(p_i,n-1) and
    K_n = K(0, 0).  That is n(n-1)/2 target products on the images of the
    tuple's run table; the values K(m, m) live for this call only.
    """
    runs = _run_table(ctx, inputs)
    n = len(runs)
    product = ctx.target_product
    suffix = [None] * n  # suffix[m] is K(m, m), the cumulant of x_m..
    for i in reversed(range(n)):
        images = runs[i]
        value = images[-1]
        for j in reversed(range(i, n - 1)):
            value = value - product(images[j - i], suffix[j + 1])
        suffix[i] = value
    return suffix[0]


def cumulant_recursive_levels(ctx: CumulantContext,
                              domain: Iterable[Iterable[int]]
                              ) -> Iterator[tuple[int, dict[tuple, Cochain]]]:
    """The levels of the recursive build of K_n on a per-slot product:
    (m, K_m's table on domain[n-m:]) for m = 1..n.

    The recursion as a table identity, evaluated by `_recursive_table` on
    the value indices of one `interval_model.CochainPool`, with one cache
    of tail tables.  Level m is the tail of level m + 1, so each finished
    level is put in that cache, grouped by value, before it is yielded.
    The pool and the cache live until the generator is exhausted or
    closed; nothing is kept in the context.
    Every product goes through `ctx.multiply` and `ctx.target_product`, so
    any context works; under a source product other than the wedge the
    merged slots hold PolyForms, and only the domain given is checked for
    codes, when this is called, before any level is built.
    """
    return _recursive_levels(ctx, _code_slots(domain))


def _recursive_levels(ctx: CumulantContext, slots: list[tuple[int, ...]]
                      ) -> Iterator[tuple[int, dict]]:
    slots = tuple(map(frozenset, slots))
    pool = CochainPool()
    tails: dict = {}
    n = len(slots)
    for m in range(1, n + 1):
        level = slots[n - m:]
        table = _recursive_table(ctx, pool, tails, level)
        if m < n:
            grouped = tails[level] = _by_value(table)
            grouped.pop(0, None)
        else:
            tails.clear()  # before the largest table is converted
        yield m, pool.table(table)
        del table  # before the next level is built


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
    `tails`, holds every shorter level grouped so, by its slots, as
    `_recursive_levels` puts it there), so each distinct image is
    multiplied by each distinct value once, the product is spread over
    both groups, and each pair of indices is added once.
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
    grouped = tails[slots[1:]]
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
