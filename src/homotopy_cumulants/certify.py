"""What every check uses, whatever its family.

* the sign conventions A and B (`SignConvention`, `get_convention`) and
  the one rule they differ by (`passed`);
* the truncation grid the checks certify on (`TruncationGrid`);
* the verdict of a grid comparison (`EqualityVerdict`) and the first
  tuple at which two code tables differ (`first_difference`);
* the store that shares the leaves, their tables and the table store of
  one check (`check_store`, `from_check_store`).

The module sits below the Hom layer: it imports only `_record` and
`interval_model`, and `hom_complex` imports these names from here.  So a
check that needs no MultiMap, such as the cumulants, dga and chain-map
families, loads neither `hom_complex` nor the cube and formal layers.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

from ._record import Record
from .interval_model import Cochain, PolyForm, encode_basis

# A table holds a map's nonzero values on the code tuples of a domain.
Table = dict[tuple[int, ...], Cochain]


class SignConvention(Record):
    """Direction in which Koszul signs accumulate past tensor factors."""

    __slots__ = ("name", "from_left")

    def __init__(self, name: str, from_left: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "from_left", from_left)


CONVENTION_A = SignConvention("A", from_left=True)
CONVENTION_B = SignConvention("B", from_left=False)


def get_convention(name: str) -> SignConvention:
    try:
        return {"A": CONVENTION_A, "B": CONVENTION_B}[name]
    except KeyError:
        raise ValueError(f"unknown sign convention {name!r}") from None


def passed(parities: Sequence[int], start: int, stop: int,
           convention: SignConvention) -> int:
    """The parities that the factor at start:stop passes: those before it
    under A, those after it under B.

    Every Koszul sign is -1 to the power of such a count.  The formal
    boundary reads the convention only here; the Hom layer's d insertions
    and cups inline the same rule in their tables.
    """
    return sum(parities[:start] if convention.from_left else parities[stop:])


class TruncationGrid(Record):
    """The finite certification basis {t^k, t^k dt : k <= max_exponent}."""

    __slots__ = ("max_exponent",)

    def __init__(self, max_exponent: int):
        if max_exponent < 0:
            raise ValueError("max_exponent must be nonnegative")
        object.__setattr__(self, "max_exponent", max_exponent)

    def slot_basis(self) -> tuple[PolyForm, ...]:
        return tuple(
            PolyForm.monomial(k, dt=dt)
            for dt in (False, True)
            for k in range(self.max_exponent + 1)
        )

    def slot_codes(self) -> tuple[int, ...]:
        """The basis codes of `slot_basis`, in the same order."""
        return tuple(map(encode_basis, self.slot_basis()))


class EqualityVerdict(Record):
    """Outcome of a grid comparison, with the first witness on failure."""

    __slots__ = ("check", "arity", "grid_max_exponent", "equal",
                 "witness_tuple", "lhs", "rhs")

    def __init__(self, check: str, arity: int, grid_max_exponent: int,
                 equal: bool, witness_tuple: tuple[PolyForm, ...] | None = None,
                 lhs: Cochain | None = None, rhs: Cochain | None = None):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "grid_max_exponent", grid_max_exponent)
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "witness_tuple", witness_tuple)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

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


# the store of the check being run (see `check_store`), or None
_check_store: ContextVar[dict | None] = ContextVar("check_store", default=None)


@contextmanager
def check_store():
    """Share the leaves of one check: a store that lives while it is open.

    While the store is open it holds the check's leaf maps, one
    `hom_complex.iterated_integral_map(n)` per n; their tables by (n,
    domain), each built once, so every term of the check reads one I_n
    table per domain; each formal tree's boundary; and the one
    `hom_complex.TableStore` whose counters the check's top-level builds
    share.  All go through `from_check_store`.  A call of a map on forms
    opens a store of its own around its build.  On exit, also when the
    body raises, the previous store is restored and everything this one
    held is dropped.
    """
    token = _check_store.set({})
    try:
        yield
    finally:
        _check_store.reset(token)


def from_check_store(key, build: Callable[[], object]):
    """The open check store's value at key, built once by build(); with no
    store open, a fresh build()."""
    store = _check_store.get()
    if store is None:
        return build()
    value = store.get(key)
    if value is None:
        value = store[key] = build()
    return value
