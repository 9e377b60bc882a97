"""Named verification suites producing deterministic JSON reports."""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass

from . import __version__
from .cumulants import (
    composition_sign,
    compositions,
    cumulant_recursive_table,
    cumulant_table,
    endpoint_evaluation_context,
    integration_context,
)
from .cube_complex import (
    cell_to_map,
    cells_of,
    cumulant_graph,
    euler_characteristic,
    graph_degrees,
    graph_is_bipartite_by_sign,
    graph_is_connected,
    hypercube_isomorphism,
    verify_cell,
    vertex_composition,
)
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
    CONVENTION_A,
    SignConvention,
    TruncationGrid,
    ainfty_relation_defect,
    cumulant_multimap,
    first_difference,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    map_is_zero_on,
    maps_equal_on_truncation,
    zero_map,
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
# the grid exponent of the K_n check is at most 4, and less at the n whose
# (2(exponent + 1))^n grid tuples would cost the most
_CUMULANT_EXPONENT_CAPS = {7: 3, 8: 2}


@dataclass
class ReportEntry:
    check: str
    parameters: dict[str, str]
    status: bool
    witness: str | None = None
    duration_ms: int = 0

    def to_json_dict(self) -> dict:
        record = {
            "check": self.check,
            "parameters": self.parameters,
            "status": "pass" if self.status else "fail",
            "witness": self.witness,
            "duration_ms": self.duration_ms,
        }
        return record


class _Recorder:
    def __init__(self):
        self.entries: list[ReportEntry] = []

    def add(self, check: str, parameters: dict, status: bool,
            witness: str | None = None, started: float | None = None):
        duration = int((time.monotonic() - started) * 1000) if started else 0
        self.entries.append(ReportEntry(
            check, {k: str(v) for k, v in parameters.items()},
            bool(status), witness, duration))

    def verdict(self, verdict, parameters: dict, started: float | None = None):
        witness = None
        if not verdict.equal:
            witness = json.dumps(verdict.to_json_dict(), sort_keys=True)
        self.add(verdict.check, parameters, verdict.equal, witness, started)


def _monomials(max_exponent: int) -> list[PolyForm]:
    return list(TruncationGrid(max_exponent).slot_basis())


def run_dga_suite(degree: int) -> list[ReportEntry]:
    """Differential graded algebra axioms for forms and cochains."""
    rec = _Recorder()
    basis = _monomials(degree)
    started = time.monotonic()
    ok = all(d_form(d_form(a)).is_zero() for a in basis)
    rec.add("forms: d.d = 0", {"degree": degree}, ok, started=started)

    started = time.monotonic()
    ok = True
    for a, b in itertools.product(basis, repeat=2):
        pa = 1 if a.part0.is_zero() else 0
        lhs = d_form(wedge(a, b))
        rhs = wedge(d_form(a), b) + wedge(a, d_form(b)).scale((-1) ** pa)
        if lhs != rhs:
            ok = False
            break
    rec.add("forms: graded Leibniz", {"degree": degree}, ok, started=started)

    started = time.monotonic()
    ok = True
    for a, b in itertools.product(basis, repeat=2):
        pa = 1 if a.part0.is_zero() else 0
        pb = 1 if b.part0.is_zero() else 0
        if wedge(a, b) != wedge(b, a).scale((-1) ** (pa * pb)):
            ok = False
            break
    rec.add("forms: graded commutativity", {"degree": degree}, ok, started=started)

    cochain_basis = [Cochain(1, 0, 0), Cochain(0, 1, 0), Cochain(0, 0, 1)]
    started = time.monotonic()
    ok = all(delta(delta(a)).is_zero() for a in cochain_basis)
    rec.add("cochains: delta.delta = 0", {}, ok, started=started)

    started = time.monotonic()
    ok = all(cup(cup(a, b), c) == cup(a, cup(b, c))
             for a, b, c in itertools.product(cochain_basis, repeat=3))
    rec.add("cochains: cup associativity", {}, ok, started=started)

    started = time.monotonic()
    ok = True
    for a, b in itertools.product(cochain_basis, repeat=2):
        pa = 1 if (a.v0.numerator == 0 and a.v1.numerator == 0) else 0
        lhs = delta(cup(a, b))
        rhs = cup(delta(a), b) + cup(a, delta(b)).scale((-1) ** pa)
        if lhs != rhs:
            ok = False
            break
    rec.add("cochains: delta Leibniz over cup", {}, ok, started=started)
    return rec.entries


def run_chain_map_suite(degree: int) -> list[ReportEntry]:
    """Stokes: integration intertwines d and delta."""
    rec = _Recorder()
    started = time.monotonic()
    ok = all(integrate(d_form(a)) == delta(integrate(a))
             for a in _monomials(degree))
    rec.add("integration is a chain map", {"degree": degree}, ok, started=started)
    return rec.entries


def run_cumulants_suite(n_max: int, degree: int) -> list[ReportEntry]:
    """Direct against recursive K_n on the basis codes of the grid.

    Both sides are tables over the grid, compared whole; on a mismatch the
    witness is the first differing tuple in slot-major order.
    """
    rec = _Recorder()
    ctx = integration_context()

    for n in range(1, n_max + 1):
        started = time.monotonic()
        exponent = min(degree, _CUMULANT_EXPONENT_CAPS.get(n, 4))
        codes = TruncationGrid(exponent).slot_codes()
        domain = (codes,) * n
        first = first_difference(cumulant_table(ctx, domain),
                                 cumulant_recursive_table(ctx, domain), codes)
        witness = None
        if first is not None:
            witness = "; ".join(decode_basis(x).to_text() for x in first)
        rec.add(f"direct vs recursive cumulant n={n}",
                {"n": n, "exponent": exponent}, first is None, witness, started)

    started = time.monotonic()
    ok = all(len(compositions(n)) == 2 ** (n - 1) for n in range(1, n_max + 1))
    rec.add("composition count is 2^(n-1)", {"n_max": n_max}, ok, started=started)

    started = time.monotonic()
    double = endpoint_evaluation_context()
    zero_codes = [encode_basis(PolyForm.monomial(k))
                  for k in range(min(degree, 3) + 1)]
    # K_1 is the map itself; vanishing starts at the second cumulant
    ok = not any(cumulant_table(double, (zero_codes,) * n)
                 for n in range(2, min(n_max, 4) + 1))
    rec.add("algebra morphism has zero cumulants",
            {"n_max": min(n_max, 4)}, ok, started=started)
    return rec.entries


def run_ainfty_suite(n_max: int, degree: int,
                     convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    rec = _Recorder()
    grid = TruncationGrid(degree)

    started = time.monotonic()
    verdict = map_is_zero_on(hom_boundary(iterated_integral_map(1), convention),
                             grid, check="boundary(I1) = 0")
    rec.verdict(verdict, {"degree": degree}, started)

    started = time.monotonic()
    verdict = maps_equal_on_truncation(
        hom_boundary(iterated_integral_map(2), convention),
        cumulant_multimap(2), grid, check="boundary(I2) = K2")
    rec.verdict(verdict, {"degree": degree}, started)

    for n in range(1, n_max + 1):
        started = time.monotonic()
        verdict, _ = ainfty_relation_defect(n, degree, convention)
        rec.verdict(verdict, {"n": n, "degree": degree}, started)

    for n in range(2, min(n_max, 4) + 1):
        started = time.monotonic()
        verdict = maps_equal_on_truncation(
            hom_boundary(homotopy_witness(n, convention), convention),
            cumulant_multimap(n), grid,
            check=f"boundary(H{n}) = K{n}")
        rec.verdict(verdict, {"n": n, "degree": degree}, started)

    for n in range(1, min(n_max, 3) + 1):
        started = time.monotonic()
        verdict = map_is_zero_on(
            hom_boundary(hom_boundary(iterated_integral_map(n), convention),
                         convention),
            TruncationGrid(min(degree, 3)),
            check=f"boundary.boundary(I{n}) = 0")
        rec.verdict(verdict, {"n": n}, started)
    return rec.entries


def run_cube_suite(n_max: int, degree: int,
                   convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    rec = _Recorder()
    for n in range(2, n_max + 1):
        started = time.monotonic()
        graph = cumulant_graph(n)
        degrees = graph_degrees(graph)
        ok = (len(graph.vertices) == 2 ** (n - 1)
              and len(graph.edges) == (n - 1) * 2 ** (n - 2)
              and set(degrees.values()) == {n - 1}
              and graph_is_connected(graph)
              and graph_is_bipartite_by_sign(graph))
        try:
            hypercube_isomorphism(n)
        except ValueError:
            ok = False
        rec.add(f"G{n} is the hypercube skeleton", {"n": n}, ok, started=started)

    for n in range(2, n_max + 1):
        started = time.monotonic()
        rec.add(f"euler characteristic g{n} = 1", {"n": n},
                euler_characteristic(n) == 1, started=started)

    for n in range(2, min(n_max, 4) + 1):
        started = time.monotonic()
        ok = True
        witness = None
        for cell in cells_of(n):
            if cell.dimension < 1:
                continue
            verdict = verify_cell(n, cell, degree, convention)
            if not verdict.equal:
                ok = False
                witness = json.dumps(verdict.to_json_dict(), sort_keys=True)
                break
        rec.add(f"all cells of g{n} bound their facets",
                {"n": n, "degree": degree}, ok, witness, started)

    started = time.monotonic()
    ok = True
    for n in range(2, min(n_max, 4) + 1):
        total = zero_map(n, n - 1)
        for cell in cells_of(n):
            if cell.is_vertex():
                sign = composition_sign(vertex_composition(cell))
                mapped = cell_to_map(n, cell, convention)
                total = total + (mapped if sign > 0 else mapped.scale(-1))
        verdict = maps_equal_on_truncation(
            total, cumulant_multimap(n), TruncationGrid(min(degree, 3)),
            check=f"vertex sum = K{n}")
        if not verdict.equal:
            ok = False
            break
    rec.add("signed vertex maps sum to the cumulant",
            {"n_max": min(n_max, 4)}, ok, started=started)
    return rec.entries


def run_formal_suite(n_max: int, degree: int,
                     convention: SignConvention = CONVENTION_A) -> list[ReportEntry]:
    rec = _Recorder()
    for n in range(1, min(n_max, 5) + 1):
        started = time.monotonic()
        rec.add(f"formal boundary squares to zero on p{n}", {"n": n},
                check_d_squared(n, convention), started=started)

    started = time.monotonic()
    ok = len(formal_boundary(p_tree(3), convention)) == 6
    rec.add("boundary of p3 has six terms", {}, ok, started=started)

    started = time.monotonic()
    graph = cumulant_polytope_graph(3, convention)
    ok = (len(graph.vertices) == 6 and len(graph.edges) == 6
          and set(formal_boundary(p_tree(3), convention).terms) == set(graph.edge_cells))
    rec.add("three-input polytope is a hexagon", {}, ok, started=started)

    started = time.monotonic()
    counts = [len(binary_trees(n)) for n in range(1, 9)]
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    rec.add("binary tree counts are Catalan", {"n_max": 8},
            counts == catalan, started=started)

    for n in range(2, min(n_max, 4) + 1):
        started = time.monotonic()
        rec.add(f"polytope 2-skeleton contractible n={n}", {"n": n},
                bool(associahedron_contractibility(n, convention)),
                started=started)

    for n in range(2, min(n_max, 4) + 1):
        started = time.monotonic()
        verdict = maps_equal_on_truncation(
            interpret_sum(formal_boundary(p_tree(n), convention), convention),
            hom_boundary(iterated_integral_map(n), convention),
            TruncationGrid(min(degree, 3)),
            check=f"formal boundary of p{n} interprets to the Hom boundary")
        rec.verdict(verdict, {"n": n, "degree": min(degree, 3)}, started)
    return rec.entries


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
