"""The library's value classes: constructors, equality, hashing, repr,
immutability, copying and pickling.

Each class is a record of named fields.  A frozen record compares equal
only to a record of its own class with equal fields, hashes as the tuple
of its fields, prints as `Name(field=value, ...)`, refuses assignment and
survives copy, deepcopy and pickle.  `ReportEntry` is the mutable one and
is unhashable.  The package imports none of the modules that generating
such classes would need.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from homotopy_cumulants.cube_complex import (
    CubeCell,
    CumulantGraph,
    cumulant_graph,
)
from homotopy_cumulants.cumulants import (
    Composition,
    CumulantContext,
    CumulantTerm,
)
from homotopy_cumulants.formal_ainfty import (
    ContractibilityVerdict,
    Leaf,
    Paint,
    SourceOp,
    TargetOp,
    associahedron_contractibility,
    cumulant_polytope_graph,
)
from homotopy_cumulants.hom_complex import (
    CONVENTION_A,
    EqualityVerdict,
    SignConvention,
    TruncationGrid,
)
from homotopy_cumulants.interval_model import (
    Cochain,
    PolyForm,
    cup,
    integrate,
    wedge,
)
from homotopy_cumulants.suites import ReportEntry

SRC = Path(__file__).resolve().parent.parent / "src"

LEAVES = (Leaf(), Leaf())
T = PolyForm.monomial(1)


def _reversed_cup(a, b):
    return cup(b, a)


# (class, positional field values) for one instance of each frozen class
FROZEN = [
    (Composition, ((1, 2),)),
    (CumulantContext, (integrate, wedge, _reversed_cup)),
    (CumulantTerm, (Composition((2,)), Cochain(1, "1/2", 3))),
    (SignConvention, ("A", True)),
    (TruncationGrid, (3,)),
    (EqualityVerdict, ("c", 2, 3, False, (T, T), Cochain(1, 0, 0),
                       Cochain.zero())),
    (CubeCell, (("F", "H", "L"),)),
    (CumulantGraph, (2, (Composition((2,)), Composition((1, 1))),
                     ((Composition((2,)), Composition((1, 1))),),
                     (CubeCell(("F",)),))),
    (Leaf, ()),
    (SourceOp, (LEAVES,)),
    (Paint, ((SourceOp(LEAVES), Leaf()),)),
    (TargetOp, ((Paint(LEAVES[:1]), Paint(LEAVES)),)),
    (ContractibilityVerdict, (3, 6, 6, 1, True, 1, 1)),
]

FIELDS = {
    Composition: ("blocks",),
    CumulantContext: ("chain_map", "source_product", "target_product"),
    CumulantTerm: ("composition", "value"),
    SignConvention: ("name", "from_left"),
    TruncationGrid: ("max_exponent",),
    EqualityVerdict: ("check", "arity", "grid_max_exponent", "equal",
                      "witness_tuple", "lhs", "rhs"),
    CubeCell: ("word",),
    CumulantGraph: ("n", "vertices", "edges", "edge_cells"),
    Leaf: (),
    SourceOp: ("children",),
    Paint: ("children",),
    TargetOp: ("children",),
    ContractibilityVerdict: ("n", "vertices", "edges", "faces", "connected",
                             "cycle_rank", "boundary_rank"),
    ReportEntry: ("check", "parameters", "status", "witness", "duration_ms"),
}

ENTRY_ARGS = ("cell FL", {"n": "3"}, False, "t; dt", 12)


@pytest.mark.parametrize("cls, args", FROZEN, ids=[c.__name__ for c, _ in FROZEN])
class TestFrozenRecords:
    def test_fields_by_position_and_by_keyword(self, cls, args):
        fields = FIELDS[cls]
        value = cls(*args)
        assert tuple(getattr(value, f) for f in fields) == args
        assert cls(**dict(zip(fields, args))) == value

    def test_equality_is_field_wise_and_same_class(self, cls, args):
        value = cls(*args)
        assert value == cls(*args) and not value != cls(*args)
        assert value != args and value != object()
        assert value.__eq__(args) is NotImplemented
        # not even a subclass with the same fields is equal
        subclass = type(cls.__name__, (cls,), {"__slots__": ()})
        assert value != subclass(*args) and subclass(*args) != value

    def test_hash_is_the_field_tuple_hash(self, cls, args):
        assert hash(cls(*args)) == hash(args)
        assert len({cls(*args), cls(*args)}) == 1

    def test_repr_names_every_field(self, cls, args):
        inner = ", ".join(f"{f}={a!r}" for f, a in zip(FIELDS[cls], args))
        assert repr(cls(*args)) == f"{cls.__name__}({inner})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args):
        value = cls(*args)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*args)

    def test_copies_and_pickles_are_equal(self, cls, args):
        value = cls(*args)
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is cls
            assert copied == value and hash(copied) == hash(value)
            assert repr(copied) == repr(value)


def test_nodes_of_another_kind_are_unequal():
    trees = [SourceOp(LEAVES), Paint(LEAVES), TargetOp(LEAVES)]
    for a in trees:
        for b in trees:
            assert (a == b) == (a is b)
    # equal hashes, so a dict tells them apart by equality alone
    assert len({hash(t) for t in trees}) == 1
    assert len(dict.fromkeys(trees)) == 3


def test_defaults():
    ctx = CumulantContext(integrate)
    assert (ctx.source_product, ctx.target_product) == (wedge, cup)
    assert ctx == CumulantContext(integrate, wedge, cup)
    verdict = EqualityVerdict("c", 1, 2, True)
    assert (verdict.witness_tuple, verdict.lhs, verdict.rhs) == (None,) * 3
    entry = ReportEntry("c", {}, True)
    assert (entry.witness, entry.duration_ms) == (None, 0)


@pytest.mark.parametrize("build, error", [
    (lambda: Composition(()), ValueError),
    (lambda: Composition((1, 0)), ValueError),
    (lambda: CubeCell(("F", "X")), ValueError),
    (lambda: TruncationGrid(-1), ValueError),
    (lambda: SourceOp((Leaf(),)), ValueError),
    (lambda: TargetOp((Paint(LEAVES),)), ValueError),
    (lambda: Paint(()), ValueError),
], ids=["empty composition", "zero block", "bad letter", "negative grid",
        "unary source m", "unary target m", "nullary p"])
def test_constructors_validate(build, error):
    with pytest.raises(error):
        build()


def test_copied_trees_and_contexts_work():
    tree = TargetOp((Paint(LEAVES), Paint(LEAVES[:1])))
    for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert copied == tree and hash(copied) == hash(tree)
        assert copied.plain_degree() == tree.plain_degree()
    # a copied context maps and multiplies as the original does
    ctx = CumulantContext(integrate)
    assert ctx.apply(3) is ctx.apply(3)
    for copied in (copy.copy(ctx), copy.deepcopy(ctx),
                   pickle.loads(pickle.dumps(ctx))):
        assert copied == ctx
        assert copied.apply(3) == ctx.apply(3)
        assert copied.multiply(1, 2) == ctx.multiply(1, 2)


def test_values_built_by_the_library_compare_as_records():
    assert cumulant_graph(3) == cumulant_graph(3)
    assert hash(cumulant_graph(3)) == hash(cumulant_graph(3))
    assert cumulant_polytope_graph(3) == cumulant_polytope_graph(3)
    verdict = associahedron_contractibility(3)
    assert verdict == copy.deepcopy(verdict) and bool(verdict)
    assert repr(CONVENTION_A) == "SignConvention(name='A', from_left=True)"
    assert EqualityVerdict("c", 1, 2, True) and not EqualityVerdict(
        "c", 1, 2, False, (T,), Cochain.zero(), Cochain(1, 0, 0))


class TestReportEntry:
    def test_fields_and_repr(self):
        entry = ReportEntry(*ENTRY_ARGS)
        assert tuple(getattr(entry, f) for f in FIELDS[ReportEntry]) == ENTRY_ARGS
        assert repr(entry) == (
            "ReportEntry(check='cell FL', parameters={'n': '3'}, "
            "status=False, witness='t; dt', duration_ms=12)")

    def test_mutable_and_unhashable(self):
        entry = ReportEntry(*ENTRY_ARGS)
        entry.duration_ms = 0
        entry.status = True
        assert entry == ReportEntry("cell FL", {"n": "3"}, True, "t; dt")
        assert entry != ReportEntry(*ENTRY_ARGS) and entry != ENTRY_ARGS
        assert ReportEntry.__hash__ is None
        with pytest.raises(TypeError):
            hash(entry)

    def test_copies_and_pickles_are_equal(self):
        entry = ReportEntry(*ENTRY_ARGS)
        for copied in (copy.copy(entry), copy.deepcopy(entry),
                       pickle.loads(pickle.dumps(entry))):
            assert type(copied) is ReportEntry and copied == entry
        deep = copy.deepcopy(entry)
        deep.parameters["n"] = "4"
        assert entry.parameters == {"n": "3"}


def test_importing_the_cli_loads_no_code_generation_modules():
    """The value classes are written out, so an import of the command line
    loads neither `dataclasses` nor the modules it would pull in."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, homotopy_cumulants.cli\n"
         "print(sorted(m for m in ('dataclasses', 'inspect', 'ast')"
         " if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
