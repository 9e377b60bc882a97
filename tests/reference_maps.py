"""Maps given by a PolyForm evaluator, the oracle of the table rules.

A library map is its table rule on basis codes.  A `ReferenceMap` is built
from a function on PolyForms instead: a call runs that function on the
inputs, codes decoded, and never contracts a table, so its values do not
depend on the table engine they are compared with.  Its rule tabulates the
function on the decoded tuples of a domain, so a library combinator can
take a reference map as a leaf.

`alternate_witness_k3` builds two other null-homotopies of K_3 from the
library's combinators, for the tests that compare them with H_3.

`maps_below` walks a map's DAG, and `record_builds` makes the rules of
that DAG record the tables they build, for the tests that count the work
of one top-level build and what it leaves behind.  `call_supports` reads
the only tables a map keeps, those of its calls, and `leaf_tables` the
I_n tables a check keeps.
"""

import itertools
from functools import partial
from typing import Callable

from homotopy_cumulants import certify, hom_complex
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    MultiMap,
    SignConvention,
    cup_pair,
    iterated_integral_map,
    wedge_at,
)
from homotopy_cumulants.interval_model import Cochain, PolyForm, decode_basis


class ReferenceMap(MultiMap):
    """A MultiMap that evaluates its evaluator on PolyForms."""

    __slots__ = ("evaluator",)

    def __init__(self, arity: int, shifted_degree: int,
                 evaluator: Callable[..., Cochain], name: str = ""):
        def rule(domain):
            table = {}
            for xs in itertools.product(*domain):
                value = evaluator(*map(decode_basis, xs))
                if not value.is_zero():
                    table[xs] = value
            return table

        super().__init__(arity, shifted_degree, rule, name)
        self.evaluator = evaluator

    def __call__(self, *forms: PolyForm | int) -> Cochain:
        if len(forms) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} inputs, got {len(forms)}")
        return self.evaluator(*(x if isinstance(x, PolyForm)
                                else decode_basis(x) for x in forms))


def alternate_witness_k3(variant: str,
                         convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The two one-step witnesses for K_3.

    left:  I_2(ab, c) - I(a) I_2(b, c)
    right: I_2(a, bc) - I_2(a, b) I(c)
    Both have boundary K_3; their difference is a cycle.
    """
    i1, i2 = iterated_integral_map(1), iterated_integral_map(2)
    if variant == "left":
        return wedge_at(i2, 0) - cup_pair(i1, i2, convention)
    if variant == "right":
        return wedge_at(i2, 1) - cup_pair(i2, i1, convention)
    raise ValueError(f"unknown witness variant {variant!r}")


class _RecordingRule(partial):
    """A table function bound like the rule it replaces, so a build still
    walks its children, that appends (map, domain) to `runs` on each run."""

    def __call__(self, domain):
        runs, f = self.record
        runs.append((f, domain))
        return super().__call__(domain)


def maps_below(top: MultiMap) -> set:
    """The maps of top's DAG other than top, reached over `rule.args`."""
    below, stack = set(), hom_complex._children(top)
    while stack:
        f = stack.pop()
        if f not in below:
            below.add(f)
            stack.extend(hom_complex._children(f))
    return below


def record_builds(top: MultiMap) -> list:
    """The (map, domain) of every table that the maps of top's DAG build
    from now on, in order; a map whose rule is not a `partial` is left
    as it is."""
    runs = []
    for f in maps_below(top) | {top}:
        if isinstance(f.rule, partial):
            f.rule = _RecordingRule(f.rule.func, *f.rule.args)
            f.rule.record = runs, f
    return runs


def call_supports(f: MultiMap) -> list:
    """The supports S of the call tables f keeps, each on (S,) * f.arity,
    the grown one first (see `MultiMap.__call__`)."""
    return list(f._calls)


def leaf_tables() -> dict:
    """The I_n tables of the open check store by (n, domain), each built
    once for the check (see `hom_complex._iterated_integral_table`); none
    with no store open."""
    store = certify._check_store.get() or {}
    return {key[1:]: table for key, table in store.items()
            if type(key) is tuple and len(key) == 3 and key[0] == "I"}
