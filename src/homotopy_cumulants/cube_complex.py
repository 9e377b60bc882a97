"""Hypercube combinatorics of the cumulant terms.

The n-th cumulant's terms (ordered partitions of n) form the vertices of
an (n-1)-cube: a cut position between adjacent inputs is either present
(HIGH) or absent (LOW), and edges flip one cut.  The solid cube g_n has
cells given by words over {LOW, HIGH, FREE}: HIGH cuts split the inputs
into blocks, LOW cuts merge adjacent inputs with the wedge, and a block
with f FREE cuts maps through the iterated integral of arity f+1.  Each
cell's Hom boundary equals the signed sum of its facets, which is the
geometric content of the cumulant collapse.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .cumulants import Composition, composition_sign, compositions
from .hom_complex import (
    CONVENTION_A,
    EqualityVerdict,
    MultiMap,
    SignConvention,
    TruncationGrid,
    cup_pair,
    hom_boundary,
    iterated_integral_map,
    maps_equal_on_truncation,
    wedge_at,
    zero_map,
)

LOW, HIGH, FREE = "L", "H", "F"
_LETTERS = frozenset((LOW, HIGH, FREE))


@dataclass(frozen=True)
class CubeCell:
    """A cell of g_n: one letter per cut position between inputs."""

    word: tuple[str, ...]

    def __post_init__(self):
        if any(letter not in _LETTERS for letter in self.word):
            raise ValueError(f"cell letters must be in {sorted(_LETTERS)}")

    @property
    def n(self) -> int:
        return len(self.word) + 1

    @property
    def dimension(self) -> int:
        return self.word.count(FREE)

    def is_vertex(self) -> bool:
        return self.dimension == 0

    def free_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.word) if c == FREE)

    def specialize(self, position: int, letter: str) -> "CubeCell":
        if self.word[position] != FREE:
            raise ValueError("can only specialize a FREE position")
        return CubeCell(self.word[:position] + (letter,) + self.word[position + 1:])

    def to_text(self) -> str:
        return "".join(self.word)


def cells_of(n: int) -> list[CubeCell]:
    """All cells of g_n, in lexicographic word order."""
    if n < 2:
        raise ValueError("cubes start at n = 2")
    return [CubeCell(w) for w in itertools.product((FREE, HIGH, LOW), repeat=n - 1)]


@dataclass(frozen=True)
class CellLabel:
    """Block pattern plus the iterated-integral arity used in each block."""

    block_pattern: Composition
    p_indices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(self.p_indices) - len(self.p_indices)


def label_for_cell(cell: CubeCell) -> CellLabel:
    """HIGH cuts determine the blocks; FREE cuts raise the block's arity."""
    sizes, frees = [], []
    size, free = 1, 0
    for letter in cell.word:
        if letter == HIGH:
            sizes.append(size)
            frees.append(free)
            size, free = 1, 0
        else:
            size += 1
            free += letter == FREE
    sizes.append(size)
    frees.append(free)
    return CellLabel(Composition(tuple(sizes)), tuple(f + 1 for f in frees))


def vertex_composition(cell: CubeCell) -> Composition:
    if not cell.is_vertex():
        raise ValueError("not a vertex")
    return label_for_cell(cell).block_pattern


def cell_term_text(cell: CubeCell, letters: str | None = None) -> str:
    """Composite-map notation for a cell, e.g. FL -> 'p2(a,bc)'."""
    n = cell.n
    if letters is None:
        letters = "".join(chr(ord("a") + i) for i in range(n))
    pieces = []
    pos = 0
    for block_size, arity in zip(label_for_cell(cell).block_pattern,
                                 label_for_cell(cell).p_indices):
        word = cell.word[pos:pos + block_size - 1] if block_size > 1 else ()
        args, current = [], letters[pos]
        for i, letter in enumerate(word):
            if letter == FREE:
                args.append(current)
                current = letters[pos + i + 1]
            else:
                current += letters[pos + i + 1]
        args.append(current)
        pieces.append(f"p{arity}({','.join(args)})")
        pos += block_size
    return "".join(pieces)


# ---------------------------------------------------------------------------
# the graph G_n


@dataclass(frozen=True)
class CumulantGraph:
    n: int
    vertices: tuple[Composition, ...]
    edges: tuple[tuple[Composition, Composition], ...]


def cumulant_graph(n: int) -> CumulantGraph:
    """Vertices are compositions of n; edges split one block in two."""
    if n < 2:
        raise ValueError("the cumulant graph needs n >= 2")
    verts = compositions(n)
    edges = []
    for comp in verts:
        cuts = comp.cut_set()
        for position in range(1, n):
            if position not in cuts:
                other = Composition.from_cut_set(n, cuts | {position})
                edges.append((comp, other))
    edges.sort(key=lambda e: (sorted(e[0].cut_set()), sorted(e[1].cut_set())))
    return CumulantGraph(n, tuple(verts), tuple(edges))


def hypercube_isomorphism(n: int) -> dict[Composition, frozenset[int]]:
    """The bijection composition <-> set of cut positions, edge-checked.

    Edges of the cumulant graph correspond exactly to single-coordinate
    flips of the cut set; a ValueError signals an internal inconsistency.
    """
    graph = cumulant_graph(n)
    iso = {comp: comp.cut_set() for comp in graph.vertices}
    if len(set(iso.values())) != len(iso):
        raise ValueError("cut-set map is not injective")
    for a, b in graph.edges:
        if len(iso[a] ^ iso[b]) != 1:
            raise ValueError("an edge is not a single coordinate flip")
    return iso


def graph_degrees(graph: CumulantGraph) -> dict[Composition, int]:
    degrees = {v: 0 for v in graph.vertices}
    for a, b in graph.edges:
        degrees[a] += 1
        degrees[b] += 1
    return degrees


def graph_is_connected(graph: CumulantGraph) -> bool:
    if not graph.vertices:
        return True
    adjacency = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {graph.vertices[0]}
    stack = [graph.vertices[0]]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(graph.vertices)


def graph_is_bipartite_by_sign(graph: CumulantGraph) -> bool:
    """Adjacent compositions carry opposite cumulant signs."""
    return all(composition_sign(a) == -composition_sign(b)
               for a, b in graph.edges)


# ---------------------------------------------------------------------------
# cells as maps and their boundaries


def cell_to_map(n: int, cell: CubeCell,
                convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The composite MultiMap carried by a cell of g_n.

    Within each block, LOW cuts wedge adjacent inputs and the block feeds
    the iterated integral of arity 1 + (FREE cuts); block images combine
    with the cup product left-nested, Koszul signs per the convention.
    """
    if cell.n != n:
        raise ValueError(f"cell word has {cell.n - 1} letters, expected {n - 1}")
    label = label_for_cell(cell)
    block_maps = []
    pos = 0
    for block_size, arity in zip(label.block_pattern, label.p_indices):
        block = iterated_integral_map(arity)
        # wedge-merge LOW cuts right to left so slot indices stay valid
        offsets = [i for i, letter in enumerate(cell.word[pos:pos + block_size - 1])
                   if letter == LOW]
        slot_of = []
        slot = 0
        for i in range(block_size - 1):
            if cell.word[pos + i] == FREE:
                slot += 1
            slot_of.append(slot)
        for i in reversed(offsets):
            block = wedge_at(block, slot_of[i])
        block_maps.append(block)
        pos += block_size
    total = block_maps[0]
    for block in block_maps[1:]:
        total = cup_pair(total, block, convention)
    return total.renamed(f"cell[{cell.to_text()}]")


def cell_boundary(cell: CubeCell) -> list[tuple[int, CubeCell]]:
    """Signed facets of a cell, compatible with the Hom boundary.

    Specializing the j-th FREE letter (1-based rank among the cell's k
    FREE letters) to LOW enters with the sign (-1)^(k - j); the HIGH
    facet enters with the opposite sign.  This cubical orientation
    satisfies the combinatorial boundary-squared rule, and cell_to_map
    intertwines it with the Hom boundary: the signs agree with the
    Hom-Leibniz expansion on every cell whose composite map is nonzero
    (cells whose cut pattern feeds two edge-valued blocks into the cup
    have the zero map, where any orientation is compatible).
    """
    if cell.is_vertex():
        raise ValueError("vertices have no facets")
    k = cell.dimension
    facets = []
    for j, position in enumerate(cell.free_positions(), start=1):
        sign = -1 if (k - j) % 2 else 1
        facets.append((sign, cell.specialize(position, LOW)))
        facets.append((-sign, cell.specialize(position, HIGH)))
    return facets


def verify_cell(n: int, cell: CubeCell, max_exponent: int,
                convention: SignConvention = CONVENTION_A) -> EqualityVerdict:
    """Check boundary(cell map) = signed sum of facet maps on the grid."""
    if cell.dimension < 1:
        raise ValueError("verify_cell needs a cell of dimension >= 1")
    boundary_map = hom_boundary(cell_to_map(n, cell, convention), convention)
    facet_sum = zero_map(n, boundary_map.shifted_degree)
    for sign, facet in cell_boundary(cell):
        term = cell_to_map(n, facet, convention)
        facet_sum = facet_sum + (term if sign > 0 else term.scale(-1))
    return maps_equal_on_truncation(
        boundary_map, facet_sum, TruncationGrid(max_exponent),
        check=f"cell {cell.to_text()} boundary, n={n}")


def cell_census(n: int) -> dict[int, int]:
    """Cell counts of g_n by dimension."""
    census: dict[int, int] = {}
    for cell in cells_of(n):
        census[cell.dimension] = census.get(cell.dimension, 0) + 1
    return census


def euler_characteristic(n: int) -> int:
    """Alternating sum of cell counts; 1 for every solid cube.

    Dimension k holds C(n-1, k) 2^(n-1-k) cells, so the sum telescopes to
    (2 - 1)^(n-1).
    """
    if n < 2:
        raise ValueError("cubes start at n = 2")
    return sum(
        (-1) ** k * math.comb(n - 1, k) * 2 ** (n - 1 - k)
        for k in range(n)
    )


# ---------------------------------------------------------------------------
# exports


def graph_to_dot(n: int) -> str:
    """DOT rendering of G_n: composition vertices, composite-map edges."""
    graph = cumulant_graph(n)
    lines = [f"graph cumulant_graph_{n} {{"]
    for comp in graph.vertices:
        lines.append(f'  "{comp.to_text()}";')
    for a, b in graph.edges:
        position = next(iter(b.cut_set() - a.cut_set()))
        word = tuple(
            FREE if i == position else (HIGH if i in a.cut_set() else LOW)
            for i in range(1, n)
        )
        label = cell_term_text(CubeCell(word))
        lines.append(f'  "{a.to_text()}" -- "{b.to_text()}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def census_json(n: int, max_exponent: int | None = None,
                convention: SignConvention = CONVENTION_A) -> str:
    """JSON cell census; includes boundary checks when a grid is given."""
    census = {str(k): v for k, v in sorted(cell_census(n).items())}
    payload: dict = {"n": n, "cells_by_dim": census}
    if max_exponent is not None:
        passed = all(
            verify_cell(n, cell, max_exponent, convention).equal
            for cell in cells_of(n) if cell.dimension >= 1
        )
        payload["checks_passed"] = passed
    return json.dumps(payload, sort_keys=True)
