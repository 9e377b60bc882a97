"""Maps given by a PolyForm evaluator, the oracle of the table rules.

A library map is its table rule on basis codes.  A `ReferenceMap` is built
from a function on PolyForms instead: a call runs that function on the
inputs, codes decoded, and never contracts a table, so its values do not
depend on the table engine they are compared with.  Its rule tabulates the
function on the decoded tuples of a domain, so a library combinator can
take a reference map as a leaf.
"""

import itertools
from typing import Callable

from homotopy_cumulants.hom_complex import MultiMap
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

    def renamed(self, name: str, shifted_degree: int | None = None) -> "ReferenceMap":
        if shifted_degree is None:
            shifted_degree = self.shifted_degree
        renamed = ReferenceMap(self.arity, shifted_degree, self.evaluator, name)
        renamed.terms = self.terms
        return renamed
