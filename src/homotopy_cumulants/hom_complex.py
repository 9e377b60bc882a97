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
The terms of a sum share its shifted degree; a sum of maps of different
degrees is refused, since its boundary takes one Koszul pre-sign.

The maps of a construction are data.  Each combinator's rule is a
module-level table function bound by `functools.partial` to the map's
children and parameters, so `f.rule.func` is the operation and
`f.rule.args` holds the children and parameters: `_wedge_table` (child,
slot), `_boundary_table` (child, pre-sign, from_left), `_cup_table` (left,
right, from_left, moving parity) and `_sum_table` (the (leaf,
coefficient) terms).  The leaves are I_n, `_iterated_integral_table` (n),
and K_n, `cumulants.cumulant_table` (context).  A walk over `rule.args`
from any map reaches its whole DAG, which shares the I_n leaves of a check.
The composites of cube cells, of painted trees and of the vertex terms
of K_n are block words, and one builder makes their maps: `word_map`,
the left-nested cup of the blocks, each `merged_integral(sizes)`, I_k
fed by k wedge runs of the given sizes.

Equality of MultiMaps is certified on truncated monomial bases, which by
multilinearity is exact on the truncated subspace.  A map is its table
rule: it is evaluated on integer basis codes (see
`interval_model.encode_basis`) a whole domain at a time, and
`MultiMap.table(domain)` holds its nonzero values on every code tuple of
a per-slot product of code sets.  Every combinator here builds its table
from its children's tables, so work is spent only on nonzero values.  A
wedge spreads its child's table over the preimage pairs of each merged
code, a d insertion reads its child's table at the derivative codes, a
cup pairs the values of two tables, a linear combination adds tables,
I_n is Chen's closed form, and the cumulant K_n is
`cumulants.cumulant_table`.  A table has many entries but few distinct
values, so the arithmetic is done once per distinct value on the indices
of an `interval_model.CochainPool`: a cup once per pair of distinct
signed values, a multiple once per value and coefficient, a sum once per
index pair, and delta once per value.  Tables belong to the build that
reads them (see `TableStore`): a top-level request builds its table
through a build that holds the tables its rules ask of the maps below,
keyed by (map, domain), and drops each child's tables once its last
parent in the build has read them, the leaves' alike.  No map holds a
table.  The leaves are shared per check: while a check store is open
(every suite entry opens one), `iterated_integral_map(n)` is one map per
n, and its rule keeps each table it builds in the check store by (n,
domain), as the formal layer keeps tree boundaries there, so every block,
wedge, cup and boundary term of the check reads one I_n table per domain.
The store and what it holds are dropped when the check returns; with no
store open each call builds a fresh map, whose rule keeps nothing.
A map evaluates any forms by contracting a table through its prefix
index, slot by slot: the index keeps one node per distinct subtree of
code prefixes, paths that meet at a node add their weights, and a code
prefix missing from the table prunes every tuple that extends it (see
`MultiMap.__call__`).  A map keeps the prefix indexes of the tables its
calls built, each in a check store of its own and on (S,) * n for a
support S, and reads the first whose support covers the inputs'.  Else,
with S their union, it builds the table on (S,) * n, or on (U,) * n for
U the union of S and the supports it keeps, when |U|^n is at most |S|^n
plus what the call tables built since the last such growth cost; U's
index then replaces the others.  So calls build at most twice what one
table over S^n per uncovered call would, and a call on a zero input
builds none.  Which table is read cannot change the value.

The sign conventions, `TruncationGrid`, `EqualityVerdict`,
`first_difference` and the check store live below this layer, in
`certify`, so a check that needs no MultiMap never loads this module;
they are imported here, so they resolve here too.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import ContextVar
from fractions import Fraction
from functools import partial
from math import lcm, prod
from typing import Callable, Iterable, Sequence

from .certify import (
    CONVENTION_A,
    CONVENTION_B,
    EqualityVerdict,
    SignConvention,
    Table,
    TruncationGrid,
    check_store,
    first_difference,
    from_check_store,
    get_convention,
)
from .cumulants import (
    CumulantContext,
    _check_inputs,
    _code_slots,
    cumulant_table,
    integration_context,
)
from .interval_model import (
    Cochain,
    CochainPool,
    PolyForm,
    Scalar,
    _cochain,
    _frac,
    cup,
    d_code,
    decode_basis,
    delta,
    iterated_integral_codes,
    wedge_codes,
)

# A domain holds one set of basis codes per input slot.
Domain = tuple[frozenset, ...]


class MultiMap:
    """An n-ary multilinear operation from forms to cochains.

    `shifted_degree` is the degree in the suspended convention (0 for each
    iterated integral, +1 for the differentials); the unsuspended degree
    used by Koszul signs is shifted_degree - arity + 1.

    A map is its table rule: `rule(domain)` builds the dict of the map's
    nonzero values on the code tuples of a per-slot product of code sets,
    from its children's tables.  Every rule this module builds is a
    `functools.partial` of a module-level table function, whose `args` are
    the map's children and parameters (see the module docstring); any
    callable of a domain works, such as the wrapper that perfbench's
    tracer puts in its place, which has no `func` or `args`.
    `table(domain)` runs the rule in a build (see `TableStore`), which
    builds a table shared by several parents once (H_{n-1} feeds both
    terms of H_n, and a boundary reads its map's table for delta and for
    every d insertion) and keeps it until the last of them has read it;
    the map keeps no table.  Calling a map on forms or codes contracts
    the prefix index of a table that covers the inputs (see `__call__`);
    these call indexes, under the map's lock, are all the state a map
    holds besides its rule.

    Sums are flat: `+`, `-` and `scale` build a linear combination (see
    `linear_combination`) whose `terms` are (leaf map, coefficient) pairs,
    never other combinations.  `terms` is None for a leaf map.
    """

    __slots__ = ("arity", "shifted_degree", "name", "terms", "rule", "_calls",
                 "_lock", "__weakref__")

    def __init__(self, arity: int, shifted_degree: int,
                 rule: Callable[[Domain], Table], name: str = ""):
        if arity < 1:
            raise ValueError("arity must be positive")
        self.arity = arity
        self.shifted_degree = shifted_degree
        self.name = name or f"map/{arity}"
        self.terms = None
        self.rule = rule
        # support S -> the prefix index of the call table on (S,) * arity:
        # first the grown one, then those built since it grew
        self._calls: dict[frozenset, tuple] = {}
        self._lock = threading.Lock()

    @property
    def plain_degree(self) -> int:
        return self.shifted_degree - self.arity + 1

    def __call__(self, *forms: PolyForm | int) -> Cochain:
        """The value on PolyForms or basis codes, mixed freely.

        The inputs are checked by `cumulants._check_inputs`, which the
        per-tuple cumulants share, so both paths refuse a bad input alike.
        Each input is expanded into integer coefficients on basis codes
        over one denominator (a code is itself with coefficient 1); a zero
        input gives the zero cochain and reads no table.  The table read
        is the first call table the map keeps whose support covers every
        slot's support.  If none does, let S be the union of the supports
        and U the union of S, the grown call table's support and the
        supports D of the call tables built since it grew.  If |U|^n <=
        |S|^n plus the sum of |D|^n (n the arity), the map builds the table
        on (U,) * n, which becomes the grown call table and replaces all the
        others.  Otherwise it builds the table on (S,) * n and keeps it too.
        The build runs in a check store of its own, so a call inside a
        check neither reads nor fills the check's I_n tables.
        Each uncovered call's |S|^n is then paid by its own table or by one
        growth, so calls build at most twice the tuples one table on
        (S,) * n per uncovered call would; calls on disjoint supports never
        grow a table.  The map keeps a call table as its prefix index (see
        `_prefix_index`), and its lock is held while the index is found or
        built.

        The contraction walks the index slot by slot: a frontier maps nodes
        to integer weights, from the root with weight 1, and each slot's code
        c with coefficient w' leads a node of weight w to its child at c,
        if there is one, with weight w * w'; paths that meet at a node add
        their weights, and a prefix missing from the table prunes its
        subtree.  The last slot leads to the distinct values, whose
        weighted sum is put over the lcm of their denominators and reduced
        once.  An entry depends on its code tuple alone and a tuple missing
        from a covering table is a zero, so the value does not depend on
        which table is read.  The cost is the builds above, one lookup per
        frontier node and code of the next slot, and one scan of the
        supports the map keeps.
        """
        if len(forms) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} inputs, got {len(forms)}")
        _check_inputs(forms)
        weights, denominators = zip(*map(_expansion, forms))
        if not all(weights):
            return Cochain.zero()
        with self._lock:
            index = self._covering_index(weights)
        return _contract(index, weights, prod(denominators))

    def _covering_index(self, weights: Sequence[dict[int, int]]) -> tuple:
        """The prefix index of a call table covering the supports, kept or
        built by the policy of `__call__`; called with the map's lock held."""
        supports = [w.keys() for w in weights]
        calls = self._calls
        for covering, index in calls.items():
            if all(map(covering.issuperset, supports)):
                return index
        n, held = self.arity, list(calls)
        support = frozenset().union(*weights)
        grown = support.union(*held)
        if len(grown) ** n <= len(support) ** n + sum(
                len(built) ** n for built in held[1:]):
            calls.clear()
            support = grown
        with check_store():
            table = _top_build(self, (support,) * n)
        index = calls[support] = _prefix_index(table)
        return index

    def table(self, domain: Iterable[Iterable[int]]) -> Table:
        """The nonzero values of the map on the code tuples of a domain.

        `domain` holds one collection of basis codes per slot, each code a
        nonnegative int (see `cumulants._code_slots`).  A tuple missing
        from the table is a zero of the map.  Each request is a top-level
        one: a build of its own (see `TableStore`) makes the table, and the
        map keeps nothing, so each request builds the table again, apart
        from the I_n tables a check keeps.  Rules read their children's
        tables from the running build instead (see `_read`).
        """
        slots = tuple(domain)
        if len(slots) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} slots, got {len(slots)}")
        return _top_build(self, tuple(map(frozenset, _code_slots(slots))))

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


class TableStore:
    """The counters of the top-level builds of one check.

    A top-level request (`MultiMap.table`, or a call on forms that needs
    a table) runs a build: before the top's rule runs, the DAG below the
    top is walked over `rule.args` (see `_children`) and each map's parent
    edges are counted.  The tables the rules ask of the maps below the top
    live in the build, keyed by (map, domain), and each parent releases its
    edge to a child once it has read everything it needs of it: a sum right
    after reading that term, a wedge and a cup on reading their children, a
    boundary on its last widened table.  A map with no edges left drops
    its tables (see `_Build`).  Every map is walked, counted and released
    alike, the I_n leaves too.  A rule with no `args`, such as perfbench's
    tracing wrapper, is a leaf of the walk, so nothing below it is released
    before the top build ends.

    No table outlives its build here.  Two kinds are held elsewhere: a
    check's I_n tables in its check store, where the leaves' rule keeps
    them (see `iterated_integral_map`), and a map's call tables, on the map
    as their prefix indexes (see `MultiMap.__call__`).  A check store (see
    `certify.check_store`) holds one table store for the whole check;
    outside a check, and for each call on forms, a top-level build has a
    store of its own.

    The counters are the rule runs (a leaf's run may read its table from
    the check store) with their tables' entries, the tables asked of the
    builds (by the rules and by each top-level request), and the tables
    dropped on release before their build ended.
    """

    __slots__ = ("built", "entries", "reads", "released")

    def __init__(self):
        self.built = self.entries = self.reads = self.released = 0


def table_store() -> TableStore:
    """The open check store's table store; with none open, a fresh one."""
    return from_check_store(TableStore, TableStore)


def _children(f: MultiMap) -> list[MultiMap]:
    """The maps f's rule reads, once per edge: its MultiMap arguments and
    the leaves of a sum's (leaf, coefficient) terms; none for a rule with
    no `args`."""
    children = []
    for arg in getattr(f.rule, "args", ()):
        if isinstance(arg, MultiMap):
            children.append(arg)
        elif type(arg) is tuple:
            children.extend(leaf for leaf, _ in arg)
    return children


class _Build:
    """One top-level build: the tables of the maps below its top.

    `edges` holds each map the walk reached, with its parent edges not yet
    released.  A rule releases an edge as it reads the child for the last
    time along it (see `table`), but only in a final run: a run of a map
    none of whose edges is still open, so no parent asks the map again in
    this build.  A map whose last edge is released drops its tables, and
    its own edges are released too: by its final run, as it reads its
    children, or else as it drops.  So no (map, domain) is built twice in
    one build.
    """

    __slots__ = ("store", "tables", "edges", "final")

    def __init__(self, store: TableStore, top: MultiMap):
        self.store = store
        self.tables: dict[MultiMap, dict[Domain, Table]] = {}
        self.edges = edges = {top: 0}
        self.final = False
        stack = [top]
        while stack:
            for child in _children(stack.pop()):
                if child in edges:
                    edges[child] += 1
                else:
                    edges[child] = 1
                    stack.append(child)

    def run(self, f: MultiMap, domain: Domain) -> Table:
        """Run f's rule on domain, final if f has no open edge (the top
        has none)."""
        outer, self.final = self.final, self.edges.get(f) == 0
        table = f.rule(domain)
        self.final = outer
        store = self.store
        store.built += 1
        store.entries += len(table)
        return table

    def table(self, f: MultiMap, domain: Domain, last: bool = False) -> Table:
        """f's table on domain, asked by the running rule or by the top-level
        request: found in the build, or built.  `last` says the rule reads
        no more of f along this edge; in a final run that releases the
        edge."""
        self.store.reads += 1
        edges = self.edges
        last = last and self.final and edges.get(f, 0) > 0
        if last:
            edges[f] -= 1
        tables = self.tables.setdefault(f, {})
        table = tables.get(domain)
        built = table is None
        if built:
            table = tables[domain] = self.run(f, domain)
        if last and not edges[f]:
            self.drop(f, built)
        return table

    def drop(self, f: MultiMap, released: bool) -> None:
        """Drop the tables of f, which no parent reads again, and release
        f's own edges unless its final run has."""
        self.store.released += len(self.tables.pop(f, ()))
        if not released:
            edges = self.edges
            for child in _children(f):
                if child in edges:
                    edges[child] -= 1
                    if not edges[child]:
                        self.drop(child, False)


# the build running in this thread, or None
_running: ContextVar["_Build | None"] = ContextVar("running_build", default=None)


def _top_build(f: MultiMap, domain: Domain) -> Table:
    """f's table on domain, asked of a build of its own."""
    build = _Build(table_store(), f)
    token = _running.set(build)
    try:
        return build.table(f, domain)
    finally:
        _running.reset(token)


def _read(f: MultiMap, domain: Domain, last: bool = True) -> Table:
    """f's table on domain (slots as frozensets), read from the running
    build by its running rule, which reads no more of f along this edge if
    `last` (see `_Build`)."""
    return _running.get().table(f, domain, last)


def _expansion(x: PolyForm | int) -> tuple[dict[int, int], int]:
    """An input, checked by `cumulants._check_inputs`, as integer
    coefficients by basis code over one denominator."""
    if type(x) is int:
        return {x: 1}, 1
    denominator = lcm(x.part0.denominator, x.part1.denominator)
    coefficients = {}
    for dt, part in enumerate((x.part0, x.part1)):
        scale = denominator // part.denominator
        for k, n in enumerate(part.numerators):
            if n:
                coefficients[2 * k + dt] = n * scale
    return coefficients, denominator


def _prefix_index(table: Table) -> tuple[list[list[dict]], list[Cochain]]:
    """A table as a reduced prefix index (levels, values).

    `values` holds the distinct values.  Level u holds one node per
    distinct subtree below a code prefix of length u, so level 0 is the
    root: a node maps a slot-u code to the index of its child in level
    u + 1, or at the last level of its value.  Nodes are shared bottom-up,
    as in a reduced decision diagram: a level's nodes are keyed by their
    items, whose indices already name shared nodes.  An empty table has no
    levels.
    """
    values = list(dict.fromkeys(table.values()))
    ids = {value: k for k, value in enumerate(values)}
    nodes: dict[tuple, dict] = {}  # code prefix -> its node, unshared
    for xs, value in table.items():
        prefix = xs[:-1]
        node = nodes.get(prefix)
        if node is None:
            node = nodes[prefix] = {}
        node[xs[-1]] = ids[value]
    levels = []
    while nodes:
        distinct: dict[frozenset, int] = {}
        level, parents = [], {}
        for prefix, node in nodes.items():
            k = distinct.setdefault(frozenset(node.items()), len(level))
            if k == len(level):
                level.append(node)
            if prefix:
                parent = parents.get(prefix[:-1])
                if parent is None:
                    parent = parents[prefix[:-1]] = {}
                parent[prefix[-1]] = k
        levels.append(level)
        nodes = parents
    levels.reverse()
    return levels, values


def _contract(index: tuple, weights: Sequence[dict[int, int]],
              denominator: int) -> Cochain:
    """The sum over the index's tuples xs of prod_u weights[u][xs[u]] times
    the value at xs, over denominator (see `MultiMap.__call__`)."""
    levels, values = index
    if not levels:
        return Cochain.zero()
    frontier = {0: 1}
    for level, slot in zip(levels, weights):
        items = slot.items()
        merged: dict[int, int] = {}
        for k, w in frontier.items():
            node = level[k]
            for x, c in items:
                child = node.get(x)
                if child is not None:
                    merged[child] = merged.get(child, 0) + w * c
        frontier = merged
    # the frontier now weighs the distinct values: sum them over the lcm
    # of their denominators, reduced once
    common = lcm(*{values[v][3] for v in frontier})
    n0 = n1 = ne = 0
    for v, w in frontier.items():
        v0, v1, ve, den = values[v]
        w *= common // den
        n0 += w * v0
        n1 += w * v1
        ne += w * ve
    return _cochain(n0, n1, ne, common * denominator)


def _add_into(pool: CochainPool, total: dict, table: Table,
              c: Scalar = 1) -> None:
    """total += c * table on value indices; sums may leave zeros behind."""
    add, indices = pool.add, pool.indices(table, c)
    for xs, value in table.items():
        k = indices[value]
        previous = total.get(xs)
        total[xs] = k if previous is None else add(previous, k)


def linear_combination(arity: int, shifted_degree: int,
                       pairs: Iterable[tuple[MultiMap, Scalar]],
                       name: str) -> MultiMap:
    """The map sum c * f over (f, c) pairs, as one flat combination.

    A combination among the pairs contributes its own terms, scaled by c;
    terms of the same leaf map are merged and zero coefficients dropped.
    Its table is the sum of the leaves' tables, formed on value indices:
    each leaf value is interned once, each multiple formed once per
    distinct value and coefficient, and each sum once per index pair.
    """
    merged: dict[MultiMap, Fraction] = {}
    for f, c in pairs:
        if f.arity != arity:
            raise ValueError("arity mismatch")
        if f.shifted_degree != shifted_degree:
            raise ValueError("shifted degree mismatch")
        c = _frac(c)
        for leaf, leaf_c in f.terms if f.terms is not None else ((f, 1),):
            merged[leaf] = merged.get(leaf, 0) + c * leaf_c
    # integral coefficients as ints, so multiples scale by them cheaply
    terms = tuple((leaf, c.numerator if c.denominator == 1 else c)
                  for leaf, c in merged.items() if c)
    combination = MultiMap(arity, shifted_degree, partial(_sum_table, terms),
                           name)
    combination.terms = terms
    return combination


def _sum_table(terms: tuple, domain: Domain) -> Table:
    pool, total = CochainPool(), {}
    for leaf, c in terms:
        _add_into(pool, total, _read(leaf, domain), c)
    return pool.table(total)


def zero_map(arity: int, shifted_degree: int = 0) -> MultiMap:
    """The empty combination."""
    return linear_combination(arity, shifted_degree, (), f"0/{arity}")


def iterated_integral_map(n: int) -> MultiMap:
    """The n-th iterated-integral map as a MultiMap of shifted degree 0.

    Inside a check (see `check_store`) this is the check's one I_n, and its
    rule keeps each table it builds in the check store by (n, domain), so
    every block, wedge, cup and boundary term of the check reads one table
    per domain, built once; with no store open it is a fresh map whose rule
    keeps nothing.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return from_check_store(("I", n), partial(
        MultiMap, n, 0, partial(_iterated_integral_table, n), f"I{n}"))


def _iterated_integral_table(n: int, domain: Domain) -> Table:
    """I_n's table on domain, built once per check and domain."""
    return from_check_store(("I", n, domain), partial(_chen_table, n, domain))


def _chen_table(n: int, domain: Domain) -> Table:
    # for n >= 2 only dt inputs contribute
    slots = domain if n == 1 else [[x for x in s if x & 1] for s in domain]
    table = {}
    for xs in itertools.product(*slots):
        value = iterated_integral_codes(xs)
        if not value.is_zero():
            table[xs] = value
    return table


def wedge_at(f: MultiMap, slot: int) -> MultiMap:
    """Precompose f with the wedge product merging inputs slot, slot+1.

    The wedge has unsuspended degree 0, so no Koszul sign arises.  On
    codes the table asks f for its table over the merged codes and spreads
    each entry over the code pairs whose wedge is its merged code.
    """
    if not 0 <= slot < f.arity:
        raise ValueError("slot out of range")
    return MultiMap(f.arity + 1, f.shifted_degree + 1,
                    partial(_wedge_table, f, slot), f"{f.name}(wedge@{slot})")


def _wedge_table(f: MultiMap, slot: int, domain: Domain) -> Table:
    preimages: dict[int, list[tuple[int, int]]] = {}
    for a in domain[slot]:
        for b in domain[slot + 1]:
            product = wedge_codes(a, b)
            if product is not None:
                preimages.setdefault(product, []).append((a, b))
    merged = domain[:slot] + (frozenset(preimages),) + domain[slot + 2:]
    table = {}
    for ys, value in _read(f, merged).items():
        head, tail = ys[:slot], ys[slot + 1:]
        for pair in preimages[ys[slot]]:
            table[head + pair + tail] = value
    return table


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


def hom_boundary(f: MultiMap,
                 convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The Hom-complex differential; squares to zero.

    boundary(f) = delta . f - (-1)^{|f|} sum_u koszul(u) f(1 x .. d .. x 1),
    with |f| the unsuspended degree of f.  On codes the d insertion at slot
    u is k f(.., t^(k-1) dt, ..) for an input t^k, signed by the dt inputs
    it passes (on the left under convention A, on the right under B).  The
    slots are grouped by the domain, widened at the slot by its derivative
    codes, whose table of f they read (on a grid every slot and the delta
    term read the grid's one table), and each such table is scanned once.
    delta is applied once per distinct value, each value scaled once per
    weight, and both terms are summed on the value indices of one pool.
    """
    pre_sign = -1 if f.plain_degree % 2 == 0 else 1
    return MultiMap(f.arity, f.shifted_degree + 1,
                    partial(_boundary_table, f, pre_sign, convention.from_left),
                    f"boundary({f.name})")


def _boundary_table(f: MultiMap, pre_sign: int, from_left: bool,
                    domain: Domain) -> Table:
    # widened domain -> its slots u, each with its derivative codes mapped to
    # (pre_sign * k, input code t^k)
    readers: dict[Domain, list] = {}
    for u, slot in enumerate(domain):
        sources = {}
        for x in slot:
            dx = d_code(x)
            if dx is not None:
                sources[dx[1]] = (pre_sign * dx[0], x)
        if sources:
            widened = domain[:u] + (slot.union(sources),) + domain[u + 1:]
            readers.setdefault(widened, []).append((u, sources))
    pool = CochainPool()
    add, multiple = pool.add, pool.multiple
    table = _read(f, domain, not readers)
    images = {value: pool.intern(delta(value))
              for value in dict.fromkeys(table.values())}
    total = {xs: k for xs, value in table.items() if (k := images[value])}
    for k, (widened, slots) in enumerate(readers.items(), 1):
        table = _read(f, widened, k == len(readers))
        indices = pool.indices(table)
        for ys, value in table.items():
            index = indices[value]
            for u, sources in slots:
                source = sources.get(ys[u])
                if source is None:
                    continue
                k, x = source
                head, tail = ys[:u], ys[u + 1:]
                # the dt bits passed, as the parity of the codes' sum
                i = multiple(
                    index, -k if sum(head if from_left else tail) & 1 else k)
                xs = head + (x,) + tail
                previous = total.get(xs)
                total[xs] = i if previous is None else add(previous, i)
    return pool.table(total)


def cup_pair(left: MultiMap, right: MultiMap,
             convention: SignConvention = CONVENTION_A) -> MultiMap:
    """cup . (left x right) with the Koszul sign of the tensor evaluation.

    Under convention A the right map picks up (-1)^{|right| * deg} from the
    form degrees it passes on the left; convention B mirrors this.  On
    codes the form degrees are the dt bits, so the sign is a single
    (-1)^{|moving| * dt bits passed}.  By bilinearity the sign moves onto
    the passed factor, so each side's entries are grouped by signed value,
    the value and the dt parity of the entry's codes; the table cups each
    distinct pair of signed values once and puts the product at every key
    of the product of the two groups.
    """
    from_left = convention.from_left
    moving = right if from_left else left
    return MultiMap(left.arity + right.arity,
                    left.shifted_degree + right.shifted_degree + 1,
                    partial(_cup_table, left, right, from_left,
                            moving.plain_degree % 2),
                    f"cup({left.name},{right.name})")


def _cup_table(left: MultiMap, right: MultiMap, from_left: bool,
               moving_parity: int, domain: Domain) -> Table:
    pool = CochainPool()
    lefts = _cup_groups(pool, _read(left, domain[:left.arity]),
                        from_left and moving_parity)
    rights = _cup_groups(pool, _read(right, domain[left.arity:]),
                         not from_left and moving_parity)
    values = pool.values
    table = {}
    for a, left_keys in lefts.items():
        for b, right_keys in rights.items():
            value = cup(values[a], values[b])
            if value.is_zero():
                continue
            value = values[pool.intern(value)]
            for left_xs in left_keys:
                for right_xs in right_keys:
                    table[left_xs + right_xs] = value
    return table


def _cup_groups(pool: CochainPool, entries: Table, signed: bool) -> dict:
    """signed value index -> the keys of the entries that carry it; if
    `signed`, the entries whose codes pass an odd number of dt bits carry
    their negated value."""
    indices = pool.indices(entries)
    # odd entries, by the parity of the codes' sum (their dt bits)
    odd = pool.indices(entries, -1) if signed else indices
    grouped: dict[int, list] = {}
    for xs, value in entries.items():
        k = (odd if sum(xs) & 1 else indices)[value]
        grouped.setdefault(k, []).append(xs)
    return grouped


def word_map(word: Sequence[Sequence[int]],
             convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The composite of a block word: the left-nested `cup_pair` of the
    blocks' `merged_integral(sizes)`.

    A word lists its blocks, each by the sizes of the wedge runs that feed
    its iterated integral.  The nesting cannot change a value: the cup is
    associative with sign +1 under A and under B (pinned on random maps
    by `TestGenericLaws::test_cup_is_associative`), so every bracketing of
    the blocks has the table of the left-nested one.
    """
    total, *blocks = map(merged_integral, word)
    for block in blocks:
        total = cup_pair(total, block, convention)
    return total


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


def ainfty_relation_defect(
    n: int, max_exponent: int,
    convention: SignConvention = CONVENTION_A,
) -> tuple[EqualityVerdict, MultiMap]:
    """The defect of the defining morphism relation for (I, I2, .., I_n).

    With all products of arity three and higher equal to zero on both
    sides, the relation says that boundary(I_n) equals
    sum_u (-1)^(n+u) I_{n-1}(wedge@u) + sum_i (-1)^(n-i) cup(I_i, I_{n-i}).
    The defect is (-1)^n (right side - left side), one flat combination
    sum_u (-1)^u I_{n-1}(wedge@u) + sum_i (-1)^i cup(I_i, I_{n-i})
    + (-1)^(n+1) boundary(I_n) that should vanish identically: at odd n,
    where the pre-sign of `hom_boundary` negates the d insertions of I_n,
    no value of the boundary is negated again.  The verdict certifies the
    defect on the truncation grid and the defect map is returned for
    diagnosis.
    """
    if n < 1:
        raise ValueError("n must be positive")
    pairs = [(hom_boundary(iterated_integral_map(n), convention),
              (-1) ** (n + 1))]
    pairs.extend((wedge_at(iterated_integral_map(n - 1), u), (-1) ** u)
                 for u in range(n - 1))
    pairs.extend((cup_pair(iterated_integral_map(i), iterated_integral_map(n - i),
                           convention), (-1) ** i)
                 for i in range(1, n))
    defect = linear_combination(n, 1, pairs, f"morphism_defect({n})")
    verdict = map_is_zero_on(
        defect, TruncationGrid(max_exponent),
        check=f"morphism relation n={n} (convention {convention.name})")
    return verdict, defect


def homotopy_witness(n: int,
                     convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The inductive null-homotopy for the n-th cumulant.

    H_2 = I_2 and H_n = H_{n-1}(wedge x 1 x .. x 1) - cup(I x H_{n-1}),
    the second term carrying the Koszul sign of the tensor evaluation.
    Satisfies boundary(H_n) = K_n.  H_n is named by this step, with
    H_{n-1} by its label (H_3 is `(I2(wedge@0) - cup(I1,I2))`, H_4
    `(H3(wedge@0) - cup(I1,H3))`), so names do not grow with n.
    """
    if n < 2:
        raise ValueError("homotopy witnesses start at n = 2")
    witness = iterated_integral_map(2)
    for m in range(3, n + 1):
        previous = "I2" if m == 3 else f"H{m - 1}"
        terms = ((wedge_at(witness, 0), 1),
                 (cup_pair(iterated_integral_map(1), witness, convention), -1))
        witness = linear_combination(
            m, witness.shifted_degree + 1, terms,
            f"({previous}(wedge@0) - cup(I1,{previous}))")
    return witness


def cumulant_multimap(n: int, ctx: CumulantContext | None = None) -> MultiMap:
    """The n-th Boolean cumulant of ctx (integration by default), as a
    MultiMap tabulated by `cumulant_table`."""
    if n < 1:
        raise ValueError("n must be positive")
    context = ctx if ctx is not None else integration_context()
    return MultiMap(n, n - 1, partial(cumulant_table, context), f"K{n}")

