"""Named verification suites producing deterministic JSON reports.

Every entry is recorded by `_entry(check, parameters, body)`, which runs
the body at once, with no arguments (so a body may close over a loop
variable), and records what it returns:

* a bool: the status, with no witness;
* an `EqualityVerdict`: its `equal` is the status, and on failure the
  witness is its `to_json_dict()` as JSON with sorted keys;
* a (status, witness) pair: both as given, the witness a text or None.

A body that raises an `Exception` is recorded as failed, with the
witness `"<type>: <message>"`, so the rest of the report still runs.  Any
other outcome, a truthy object or a tuple of another shape, raises
TypeError naming the check, so it is never recorded as a pass.

Parameters are recorded as strings.  `duration_ms` is the body's own
wall time in whole milliseconds: work done before the body is called,
such as building a shared context, is not counted.

Each body runs inside its own `certify.check_store`, so the leaves of
one check are shared: every term that asks for I_n gets the check's one
I_n map, whose tables the store keeps by (n, domain), so each is built
once, and each painted tree's formal boundary is expanded once.  What the
store holds is dropped when the body returns or raises, so no check sees
another's tables.

At import this module loads only what the dga, chain-map and cumulants
families use (`interval_model`, `cumulants`, `certify`); the ainfty, cube
and formal runners import their layers when they run.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Callable, Iterable, Iterator

from . import __version__
from ._record import Record
from .certify import (
    CONVENTION_A,
    EqualityVerdict,
    SignConvention,
    TruncationGrid,
    check_store,
    first_difference,
)
from .cumulants import (
    composition_sign,
    compositions,
    cumulant_levels,
    cumulant_recursive_levels,
    endpoint_evaluation_context,
    integration_context,
)
from .interval_model import (
    Cochain,
    PolyForm,
    cup,
    d_form,
    decode_basis,
    delta,
    encode_basis,
    integrate,
    wedge,
)

SUITE_NAMES = ("dga", "chain-map", "cumulants", "ainfty", "cube", "formal", "all")

# enumeration cost caps, per the module preconditions
N_MAX_LIMITS = {"cumulants": 8, "cube": 6, "ainfty": 4, "formal": 4, "all": 6}
DEGREE_LIMIT = 12
# the K_n check sweeps at most this many grid tuples
_CUMULANT_GRID_BUDGET = 2 ** 21


class ReportEntry(Record):
    """One checked claim of a report; mutable, so not hashable."""

    __slots__ = ("check", "parameters", "status", "witness", "duration_ms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, check: str, parameters: dict[str, str], status: bool,
                 witness: str | None = None, duration_ms: int = 0):
        self.check = check
        self.parameters = parameters
        self.status = status
        self.witness = witness
        self.duration_ms = duration_ms

    def to_json_dict(self) -> dict:
        record = {
            "check": self.check,
            "parameters": self.parameters,
            "status": "pass" if self.status else "fail",
            "witness": self.witness,
            "duration_ms": self.duration_ms,
        }
        return record


def _entry(check: str, parameters: dict,
           body: Callable[[], bool | EqualityVerdict | tuple[bool, str | None]]
           ) -> ReportEntry:
    """Run one check body, timed, in a store that shares the check's leaves
    (see `certify.check_store`), and record its outcome as an entry."""
    started = time.monotonic()
    try:
        with check_store():
            outcome = body()
    except Exception as error:
        outcome = (False, f"{type(error).__name__}: {error}")
    duration_ms = int((time.monotonic() - started) * 1000)
    witness = None
    if isinstance(outcome, EqualityVerdict):
        status = outcome.equal
        if not status:
            witness = json.dumps(outcome.to_json_dict(), sort_keys=True)
    elif type(outcome) is bool:
        status = outcome
    elif (type(outcome) is tuple and len(outcome) == 2
          and type(outcome[0]) is bool
          and (outcome[1] is None or type(outcome[1]) is str)):
        status, witness = outcome
    else:
        raise TypeError(f"check {check!r} returned a {type(outcome).__name__}, "
                        "not a bool, an EqualityVerdict or a "
                        "(bool, str | None) pair")
    return ReportEntry(check, {k: str(v) for k, v in parameters.items()},
                       status, witness, duration_ms)


def run_dga_suite(degree: int) -> list[ReportEntry]:
    """Differential graded algebra axioms for forms and cochains."""
    basis = TruncationGrid(degree).slot_basis()
    cochains = [Cochain(1, 0, 0), Cochain(0, 1, 0), Cochain(0, 0, 1)]
    # a form with no dt-free part, and a cochain with no vertex values,
    # has odd degree
    return [
        _entry("forms: d.d = 0", {"degree": degree}, lambda: all(
            d_form(d_form(a)).is_zero() for a in basis)),
        _entry("forms: graded Leibniz", {"degree": degree}, lambda: all(
            d_form(wedge(a, b)) == wedge(d_form(a), b)
            + wedge(a, d_form(b)).scale(-1 if a.part0.is_zero() else 1)
            for a, b in itertools.product(basis, repeat=2))),
        _entry("forms: graded commutativity", {"degree": degree}, lambda: all(
            wedge(a, b) == wedge(b, a).scale(
                -1 if a.part0.is_zero() and b.part0.is_zero() else 1)
            for a, b in itertools.product(basis, repeat=2))),
        _entry("cochains: delta.delta = 0", {}, lambda: all(
            delta(delta(a)).is_zero() for a in cochains)),
        _entry("cochains: cup associativity", {}, lambda: all(
            cup(cup(a, b), c) == cup(a, cup(b, c))
            for a, b, c in itertools.product(cochains, repeat=3))),
        _entry("cochains: delta Leibniz over cup", {}, lambda: all(
            delta(cup(a, b)) == cup(delta(a), b) + cup(a, delta(b)).scale(
                -1 if a.v0.numerator == 0 and a.v1.numerator == 0 else 1)
            for a, b in itertools.product(cochains, repeat=2))),
    ]


def run_chain_map_suite(degree: int) -> list[ReportEntry]:
    """Stokes: integration intertwines d and delta."""
    return [_entry("integration is a chain map", {"degree": degree}, lambda: all(
        integrate(d_form(a)) == delta(integrate(a))
        for a in TruncationGrid(degree).slot_basis()))]


def _levels_agree(builds: tuple[Iterator, Iterator], run: list[int], n: int,
                  codes: tuple[int, ...]) -> tuple[bool, str | None]:
    """Entry n of an exponent run: the next level of the run's direct and
    of its recursive build, each refused unless it is K_n's, compared
    whole.

    The run's first entry first reads the levels below it from both builds,
    which no entry compares, so no K_n table is held while the recursive
    build makes them.  Each build is closed once its last level is read,
    so the direct build's working memory is gone before the recursive
    build makes its largest level.
    """
    if n == run[0]:
        for levels in builds:
            for _ in range(n - 1):
                next(levels)
    tables = []
    for levels in builds:
        arity, table = next(levels, (None, None))
        if arity != n:
            return False, f"a level of arity {arity} read as K_{n}"
        if n == run[-1]:
            levels.close()
        tables.append(table)
    first = first_difference(*tables, codes)
    if first is None:
        return True, None
    return False, "; ".join(decode_basis(x).to_text() for x in first)


def _cumulant_exponent(n: int, degree: int) -> int:
    """The largest grid exponent e <= min(degree, 4) of the K_n check
    whose grid of (2e + 2)^n tuples fits `_CUMULANT_GRID_BUDGET`."""
    for exponent in range(min(degree, 4), -1, -1):
        if (2 * exponent + 2) ** n <= _CUMULANT_GRID_BUDGET:
            return exponent
    raise ValueError(f"no cumulant grid of exponent <= {degree} at n={n} "
                     f"fits {_CUMULANT_GRID_BUDGET} tuples")


def run_cumulants_suite(n_max: int, degree: int) -> list[ReportEntry]:
    """Direct against recursive K_n on the basis codes of the grid.

    Both sides are tables over the grid, compared whole; on a mismatch the
    witness is the first differing tuple in slot-major order.  The grid
    exponent is `_cumulant_exponent(n, degree)`; an n_max at which no grid
    fits the budget is refused before any check runs.  The exponent does
    not grow with n, so the n that share one form a run, and a run of
    n = a..b opens one direct and one recursive build on (codes,)^b, whose
    level m is K_m on (codes,)^m; entry n compares level n (see
    `_levels_agree`).  So each K_m is built once per side, and entry n's
    `duration_ms` counts level n's own work, the first entry of a run
    also the levels below it.  The algebra-morphism entry reads K_2..K_4
    from one direct build in the endpoint-evaluation context.
    """
    ctx = integration_context()
    _cumulant_exponent(n_max, degree)
    entries = []
    for exponent, run in itertools.groupby(
            range(1, n_max + 1), lambda n: _cumulant_exponent(n, degree)):
        run = list(run)
        codes = TruncationGrid(exponent).slot_codes()
        domain = (codes,) * run[-1]
        builds = (cumulant_levels(ctx, domain),
                  cumulant_recursive_levels(ctx, domain))
        for n in run:
            entries.append(_entry(
                f"direct vs recursive cumulant n={n}",
                {"n": n, "exponent": exponent},
                lambda: _levels_agree(builds, run, n, codes)))

    double = endpoint_evaluation_context()
    zero_codes = [encode_basis(PolyForm.monomial(k))
                  for k in range(min(degree, 3) + 1)]
    return entries + [
        _entry("composition count is 2^(n-1)", {"n_max": n_max}, lambda: all(
            len(compositions(n)) == 2 ** (n - 1) for n in range(1, n_max + 1))),
        # K_1 is the map itself; vanishing starts at the second cumulant
        _entry("algebra morphism has zero cumulants", {"n_max": min(n_max, 4)},
               lambda: n_max < 2 or not any(
                   table for arity, table in cumulant_levels(
                       double, (zero_codes,) * min(n_max, 4)) if arity > 1)),
    ]


def run_ainfty_suite(n_max: int, degree: int,
                     convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    from .hom_complex import (
        ainfty_relation_defect,
        cumulant_multimap,
        hom_boundary,
        homotopy_witness,
        iterated_integral_map,
        map_is_zero_on,
        maps_equal_on_truncation,
    )

    grid = TruncationGrid(degree)
    entries = [
        _entry("boundary(I1) = 0", {"degree": degree}, lambda: map_is_zero_on(
            hom_boundary(iterated_integral_map(1), convention), grid,
            check="boundary(I1) = 0")),
        _entry("boundary(I2) = K2", {"degree": degree},
               lambda: maps_equal_on_truncation(
                   hom_boundary(iterated_integral_map(2), convention),
                   cumulant_multimap(2), grid, check="boundary(I2) = K2")),
    ]
    for n in range(1, n_max + 1):
        entries.append(_entry(
            f"morphism relation n={n} (convention {convention.name})",
            {"n": n, "degree": degree},
            lambda: ainfty_relation_defect(n, degree, convention)[0]))
    for n in range(2, min(n_max, 4) + 1):
        check = f"boundary(H{n}) = K{n}"
        entries.append(_entry(check, {"n": n, "degree": degree},
                              lambda: maps_equal_on_truncation(
                                  hom_boundary(homotopy_witness(n, convention),
                                               convention),
                                  cumulant_multimap(n), grid, check=check)))
    for n in range(1, min(n_max, 3) + 1):
        check = f"boundary.boundary(I{n}) = 0"
        entries.append(_entry(check, {"n": n}, lambda: map_is_zero_on(
            hom_boundary(hom_boundary(iterated_integral_map(n), convention),
                         convention),
            TruncationGrid(min(degree, 3)), check=check)))
    return entries


def _is_hypercube_skeleton(n: int) -> bool:
    from .cube_complex import (
        cumulant_graph,
        graph_degrees,
        graph_is_bipartite_by_sign,
        graph_is_connected,
        hypercube_isomorphism,
    )

    graph = cumulant_graph(n)
    degrees = graph_degrees(graph)
    ok = (len(graph.vertices) == 2 ** (n - 1)
          and len(graph.edges) == (n - 1) * 2 ** (n - 2)
          and set(degrees.values()) == {n - 1}
          and graph_is_connected(graph)
          and graph_is_bipartite_by_sign(graph))
    try:
        hypercube_isomorphism(graph)
    except ValueError:
        return False
    return ok


def _first_failure(verdicts: Iterable[EqualityVerdict]) -> EqualityVerdict | bool:
    """The first unequal verdict, or True if every verdict is equal."""
    return next((verdict for verdict in verdicts if not verdict.equal), True)


def _first_failing_cell(n: int, degree: int,
                        convention: SignConvention) -> EqualityVerdict | bool:
    """The verdict of the first cell of g_n that does not bound its facets,
    or True if every cell does."""
    from .cube_complex import cells_of, verify_cell

    return _first_failure(verify_cell(cell, degree, convention)
                          for cell in cells_of(n) if cell.dimension >= 1)


def run_cube_suite(n_max: int, degree: int,
                   convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    from .cube_complex import euler_characteristic
    from .hom_complex import (
        MultiMap,
        cumulant_multimap,
        linear_combination,
        maps_equal_on_truncation,
        word_map,
    )

    entries = []
    for n in range(2, n_max + 1):
        entries.append(_entry(f"G{n} is the hypercube skeleton", {"n": n},
                              lambda: _is_hypercube_skeleton(n)))
    for n in range(2, n_max + 1):
        entries.append(_entry(f"euler characteristic g{n} = 1", {"n": n},
                              lambda: euler_characteristic(n) == 1))
    for n in range(2, min(n_max, 4) + 1):
        entries.append(_entry(
            f"all cells of g{n} bound their facets", {"n": n, "degree": degree},
            lambda: _first_failing_cell(n, degree, convention)))

    def vertex_sum(n: int) -> MultiMap:
        """The signed sum of the vertex terms of g_n, each the I_1 word of
        its composition."""
        return linear_combination(
            n, n - 1, ((word_map([[b] for b in comp], convention),
                        composition_sign(comp)) for comp in compositions(n)),
            f"vertex sum g{n}")

    entries.append(_entry(
        "signed vertex maps sum to the cumulant", {"n_max": min(n_max, 4)},
        lambda: _first_failure(maps_equal_on_truncation(
            vertex_sum(n), cumulant_multimap(n), TruncationGrid(min(degree, 3)),
            check=f"vertex sum = K{n}") for n in range(2, min(n_max, 4) + 1))))
    return entries


def run_formal_suite(n_max: int, degree: int,
                     convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    from .formal_ainfty import (
        associahedron_contractibility,
        binary_trees,
        check_d_squared,
        cumulant_polytope_graph,
        formal_boundary,
        interpret_sum,
        p_tree,
    )
    from .hom_complex import (
        hom_boundary,
        iterated_integral_map,
        maps_equal_on_truncation,
    )

    entries = []
    for n in range(1, min(n_max, 5) + 1):
        entries.append(_entry(f"formal boundary squares to zero on p{n}",
                              {"n": n}, lambda: check_d_squared(n, convention)))

    def is_hexagon() -> bool:
        graph = cumulant_polytope_graph(3, convention)
        return (len(graph.vertices) == 6 and len(graph.edges) == 6
                and set(formal_boundary(p_tree(3), convention).terms)
                == set(graph.edge_cells))

    entries += [
        _entry("boundary of p3 has six terms", {},
               lambda: len(formal_boundary(p_tree(3), convention)) == 6),
        _entry("three-input polytope is a hexagon", {}, is_hexagon),
        _entry("binary tree counts are Catalan", {"n_max": 8},
               lambda: [len(binary_trees(n)) for n in range(1, 9)]
               == [1, 1, 2, 5, 14, 42, 132, 429]),
    ]
    for n in range(2, min(n_max, 4) + 1):
        entries.append(_entry(
            f"polytope 2-skeleton contractible n={n}", {"n": n},
            lambda: bool(associahedron_contractibility(n, convention))))
    for n in range(2, min(n_max, 4) + 1):
        check = f"formal boundary of p{n} interprets to the Hom boundary"
        entries.append(_entry(
            check, {"n": n, "degree": min(degree, 3)},
            lambda: maps_equal_on_truncation(
                interpret_sum(formal_boundary(p_tree(n), convention), convention),
                hom_boundary(iterated_integral_map(n), convention),
                TruncationGrid(min(degree, 3)), check=check)))
    return entries


# every runner takes (n_max, degree, convention); the first three suites
# do not depend on the sign convention
_RUNNERS = {
    "dga": lambda n_max, degree, _: run_dga_suite(degree),
    "chain-map": lambda n_max, degree, _: run_chain_map_suite(degree),
    "cumulants": lambda n_max, degree, _: run_cumulants_suite(n_max, degree),
    "ainfty": run_ainfty_suite,
    "cube": run_cube_suite,
    "formal": run_formal_suite,
}


def run_suite(suite: str, n_max: int, degree: int,
              convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "all":
        entries = []
        for name in ("dga", "chain-map", "cumulants", "ainfty", "cube", "formal"):
            capped = min(n_max, N_MAX_LIMITS.get(name, n_max))
            entries.extend(_RUNNERS[name](capped, degree, convention))
        return entries
    return _RUNNERS[suite](n_max, degree, convention)


def assemble_report(entries: list[ReportEntry],
                    convention: SignConvention = CONVENTION_A) -> dict:
    """Deterministic report: entries sorted by check name then parameters."""
    ordered = sorted(entries,
                     key=lambda e: (e.check, sorted(e.parameters.items())))
    return {
        "version": __version__,
        "convention": convention.name,
        "entries": [e.to_json_dict() for e in ordered],
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
