"""Hypercube combinatorics of the cumulant terms.

The n-th cumulant's terms (ordered partitions of n) form the vertices of
an (n-1)-cube: a cut position between adjacent inputs is either present
(HIGH) or absent (LOW), and edges flip one cut.  The solid cube g_n has
cells given by words over {LOW, HIGH, FREE}: HIGH cuts split the inputs
into blocks, LOW cuts merge adjacent inputs with the wedge, and a block
with f FREE cuts maps through the iterated integral of arity f+1.  So a
cell is a block word (`_blocks`: per block, the sizes of its wedge runs),
whose map `hom_complex.word_map` builds.  Each cell's Hom boundary equals
the signed sum of its facets, which is the geometric content of the
cumulant collapse.

The graph G_n is read off the cells: its edges are the cells of
dimension 1, each joining the compositions of its LOW and HIGH facets.
The painted-tree polytope of `formal_ainfty` reads its graph off its
1-cells the same way, into the same record (`CumulantGraph`), and
`skeleton_to_dot` writes both.
"""

from __future__ import annotations

import itertools
from typing import Callable

from ._record import Record
from .cumulants import Composition, composition_sign, compositions, input_letters
from .hom_complex import (
    CONVENTION_A,
    EqualityVerdict,
    MultiMap,
    SignConvention,
    TruncationGrid,
    hom_boundary,
    linear_combination,
    maps_equal_on_truncation,
    word_map,
)

LOW, HIGH, FREE = "L", "H", "F"
_LETTERS = frozenset((LOW, HIGH, FREE))


class CubeCell(Record):
    """A cell of g_n: one letter per cut position between inputs."""

    __slots__ = ("word",)

    def __init__(self, word: tuple[str, ...]):
        if any(letter not in _LETTERS for letter in word):
            raise ValueError(f"cell letters must be in {sorted(_LETTERS)}")
        object.__setattr__(self, "word", word)

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


def _blocks(cell: CubeCell) -> list[list[int]]:
    """Per block (inputs between HIGH cuts), the sizes of its wedge runs.

    FREE cuts separate the runs, which are the iterated integral's inputs;
    LOW cuts sit inside a run.
    """
    return [[len(run) + 1 for run in block.split(FREE)]
            for block in "".join(cell.word).split(HIGH)]


def vertex_composition(cell: CubeCell) -> Composition:
    """The block sizes of a vertex, each block one wedge run."""
    if not cell.is_vertex():
        raise ValueError("not a vertex")
    return Composition(tuple(sum(runs) for runs in _blocks(cell)))


def cell_term_text(cell: CubeCell) -> str:
    """Composite-map notation for a cell, e.g. FL -> 'p2(a,bc)'."""
    letters = input_letters(cell.n)
    pieces = []
    pos = 0
    for runs in _blocks(cell):
        args = []
        for size in runs:
            args.append(letters[pos:pos + size])
            pos += size
        pieces.append(f"p{len(runs)}({','.join(args)})")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# the graph G_n


class CumulantGraph(Record):
    """The 1-skeleton of a cell complex: its vertices, its edges as pairs
    of vertices, and beside each edge the cell that it is."""

    __slots__ = ("n", "vertices", "edges", "edge_cells")

    def __init__(self, n: int, vertices: tuple, edges: tuple[tuple, ...],
                 edge_cells: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_cells", edge_cells)


def cumulant_graph(n: int) -> CumulantGraph:
    """G_n, the 1-skeleton of g_n: the vertices are the compositions of n,
    and each edge cell joins the compositions of its facets, LOW first.
    Edges are sorted by the cut sets of their two ends."""
    edges = []
    for cell in cells_of(n):
        if cell.dimension == 1:
            (_, low), (_, high) = cell_boundary(cell)
            edges.append((vertex_composition(low), vertex_composition(high), cell))
    edges.sort(key=lambda e: (sorted(e[0].cut_set()), sorted(e[1].cut_set())))
    return CumulantGraph(n, tuple(compositions(n)), tuple(e[:2] for e in edges),
                         tuple(e[2] for e in edges))


def hypercube_isomorphism(graph: CumulantGraph) -> dict[Composition, frozenset[int]]:
    """The bijection composition <-> set of cut positions, edge-checked.

    Edges of the cumulant graph correspond exactly to single-coordinate
    flips of the cut set; a ValueError signals an internal inconsistency.
    """
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
    """Whether a 1-skeleton, of the cube or of the polytope, is connected."""
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


def cell_to_map(cell: CubeCell,
                convention: SignConvention = CONVENTION_A) -> MultiMap:
    """The composite MultiMap carried by a cell of g_n, n = `cell.n`: its
    block word's.

    Within each block, LOW cuts wedge adjacent inputs and the block feeds
    the iterated integral of arity 1 + (FREE cuts); block images combine
    with the cup product left-nested, Koszul signs per the convention.
    """
    return word_map(_blocks(cell), convention)


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


def verify_cell(cell: CubeCell, max_exponent: int,
                convention: SignConvention = CONVENTION_A) -> EqualityVerdict:
    """Check boundary(cell map) = signed sum of facet maps on the grid."""
    if cell.dimension < 1:
        raise ValueError("verify_cell needs a cell of dimension >= 1")
    boundary_map = hom_boundary(cell_to_map(cell, convention), convention)
    facet_sum = linear_combination(
        cell.n, boundary_map.shifted_degree,
        ((cell_to_map(facet, convention), sign)
         for sign, facet in cell_boundary(cell)),
        f"facets({cell.to_text()})")
    return maps_equal_on_truncation(
        boundary_map, facet_sum, TruncationGrid(max_exponent),
        check=f"cell {cell.to_text()} boundary, n={cell.n}")


def euler_characteristic(n: int) -> int:
    """Alternating sum over the enumerated cells, sum (-1)^dimension over
    `cells_of(n)`; 1 for every solid cube, since dimension k holds
    C(n-1, k) 2^(n-1-k) cells and the counts sum to (2 - 1)^(n-1).  A cell
    missing from or listed twice in `cells_of` moves the sum off 1."""
    return sum(-1 if cell.dimension & 1 else 1 for cell in cells_of(n))


# ---------------------------------------------------------------------------
# exports


def skeleton_to_dot(name: str, graph: CumulantGraph, vertex_text: Callable,
                    cell_text: Callable) -> str:
    """DOT rendering of a 1-skeleton: each vertex by its text, each edge
    labelled with its cell's."""
    return "\n".join([
        f"graph {name} {{",
        *(f'  "{vertex_text(v)}";' for v in graph.vertices),
        *(f'  "{vertex_text(a)}" -- "{vertex_text(b)}" [label="{cell_text(cell)}"];'
          for (a, b), cell in zip(graph.edges, graph.edge_cells)),
        "}"])


def graph_to_dot(n: int) -> str:
    """DOT rendering of G_n: composition vertices, composite-map edges."""
    return skeleton_to_dot(f"cumulant_graph_{n}", cumulant_graph(n),
                           Composition.to_text, cell_term_text)
