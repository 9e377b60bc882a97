"""Symbolic layer: formal composites of algebra and morphism operations.

Trees are painted: source-side multiplications m_k sit below a single
layer of morphism nodes p_k, target-side multiplications sit above, and
every leaf-to-root path crosses exactly one p node.  The formal boundary
expands a p node through the morphism relation and an m node through the
algebra relation, extended to composites as a graded derivation; its
square is zero, which check_d_squared certifies by exact cancellation.
Coefficients are exact: ints stay ints, and floats are refused.  Inside
a check (see `certify.check_store`) each tree's boundary is expanded
once per convention and kept for the rest of the check, so a subtree met
in many terms, or a term of the boundary of p_n met again in its square,
is not expanded again; tree nodes cache their hashes.

Vertices (all nodes binary or unary p) of the induced polytopes are the
classical painted binary trees; for three inputs they form a hexagon and
the boundary of p_3 lists its six edges.

Interpreting m as the wedge or cup product, p_k as the k-th iterated
integral, and operations of arity three and higher as zero reproduces the
concrete Hom-complex boundary exactly.  The interpretation goes through
the builders the cube cells use: a p node over binary source trees is
`hom_complex.merged_integral` of the subtrees' leaf counts, and target
nodes join with `cup_pair`, so formal terms evaluate on basis codes.  A
formal sum interprets to one `hom_complex.linear_combination` of its
terms' maps.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import ClassVar, Iterable, Union

from ._record import Record
from .cube_complex import graph_is_connected
from .cumulants import compositions
from .hom_complex import (
    CONVENTION_A,
    MultiMap,
    SignConvention,
    cup_pair,
    from_check_store,
    linear_combination,
    merged_integral,
    zero_map,
)
from .interval_model import _frac


class Kind(Enum):
    M_SOURCE = "m_source"
    M_TARGET = "m_target"
    P = "p"


class Generator(Record):
    """An operation symbol: source/target multiplication or morphism term."""

    __slots__ = ("kind", "arity")

    def __init__(self, kind: Kind, arity: int):
        if arity < 1:
            raise ValueError("arity must be positive")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arity", arity)

    @property
    def shifted_degree(self) -> int:
        """Suspended degree: +1 for multiplications, 0 for morphism terms."""
        return 0 if self.kind is Kind.P else 1

    @property
    def plain_degree(self) -> int:
        return self.shifted_degree + 1 - self.arity


class Leaf(Record):
    """An input slot."""

    __slots__ = ()
    children: ClassVar[tuple] = ()

    def leaf_count(self) -> int:
        return 1

    def plain_degree(self) -> int:
        return 0

    def dimension(self) -> int:
        return 0


class _Node(Record):
    """An operation node: its generator applied to child subtrees.

    Subclasses fix the generator's kind and the least arity it allows.
    A node caches its hash, which its children's cached hashes make cheap;
    a copy or a pickle rebuilds the node through its constructor, so the
    hash is always computed in the process that holds the node.
    """

    __slots__ = ("children", "_hash")

    kind: ClassVar[Kind]
    min_arity: ClassVar[int]

    def __init__(self, children: tuple):
        if len(children) < self.min_arity:
            raise ValueError(
                f"{self.kind.value} nodes have arity >= {self.min_arity}")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash((children,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.children == other.children
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def generator(self) -> Generator:
        return Generator(self.kind, len(self.children))

    def leaf_count(self) -> int:
        return sum(c.leaf_count() for c in self.children)

    def plain_degree(self) -> int:
        return self.generator.plain_degree + sum(
            c.plain_degree() for c in self.children)

    def dimension(self) -> int:
        return -self.generator.plain_degree + sum(
            c.dimension() for c in self.children)


class SourceOp(_Node):
    """A source-algebra multiplication applied to source subtrees."""

    __slots__ = ()
    kind = Kind.M_SOURCE
    min_arity = 2


class Paint(_Node):
    """A morphism node p_k applied to k source subtrees (the paint line)."""

    __slots__ = ()
    kind = Kind.P
    min_arity = 1


class TargetOp(_Node):
    """A target-algebra multiplication applied to painted subtrees."""

    __slots__ = ()
    kind = Kind.M_TARGET
    min_arity = 2


SourceNode = Union[Leaf, SourceOp]
PaintedNode = Union[Paint, TargetOp]
FormalTree = Union[Leaf, SourceOp, Paint, TargetOp]

# the node types that may sit directly below each node type
_CHILD_TYPES = {
    SourceOp: (Leaf, SourceOp),
    Paint: (Leaf, SourceOp),
    TargetOp: (Paint, TargetOp),
}


def p_tree(n: int) -> Paint:
    """The bare morphism term p_n on n input slots."""
    if n < 1:
        raise ValueError("n must be positive")
    return Paint((Leaf(),) * n)


def validate_painted(tree: FormalTree) -> None:
    """Reject trees that break the painted-tree typing."""
    if not isinstance(tree, (Paint, TargetOp)):
        raise ValueError("a painted tree is rooted at a p or target-m node")
    _validate_children(tree)


def _validate_children(tree: FormalTree) -> None:
    allowed = _CHILD_TYPES.get(type(tree), ())
    for child in tree.children:
        if not isinstance(child, allowed):
            raise ValueError(
                f"{tree.kind.value} nodes act on "
                f"{' or '.join(t.__name__ for t in allowed)} subtrees")
        _validate_children(child)


def tree_text(tree: FormalTree) -> str:
    """Composition notation, e.g. m2(p1⊗p2) for the cup of I and I_2."""
    if isinstance(tree, Leaf):
        return "1"
    if isinstance(tree, (SourceOp, TargetOp)):
        inner = "⊗".join(tree_text(c) for c in tree.children)
        return f"m{len(tree.children)}({inner})"
    if all(isinstance(c, Leaf) for c in tree.children):
        return f"p{len(tree.children)}"
    inner = "⊗".join(tree_text(c) for c in tree.children)
    return f"p{len(tree.children)}({inner})"


def _coefficient(value) -> int | Fraction:
    """An exact coefficient: ints stay ints, other scalars go through
    `_frac`, so floats are refused."""
    return value if type(value) is int else _frac(value)


class FormalSum:
    """A rational linear combination of formal trees.

    Coefficients are ints or Fractions; floats are refused.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[FormalTree, int | Fraction]] = ()):
        acc: dict[FormalTree, int | Fraction] = {}
        for tree, coefficient in terms:
            c = acc.get(tree, 0) + _coefficient(coefficient)
            if c:
                acc[tree] = c
            elif tree in acc:
                del acc[tree]
        self.terms = acc

    @classmethod
    def of(cls, tree: FormalTree, coefficient=1) -> "FormalSum":
        return cls([(tree, coefficient)])

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: tree_text(kv[0])))

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(list(self.terms.items()) + list(other.terms.items()))

    def scale(self, scalar) -> "FormalSum":
        s = _coefficient(scalar)
        return FormalSum([(t, s * c) for t, c in self.terms.items()])

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for tree, c in self:
            if c == 1:
                pieces.append(("+", tree_text(tree)))
            elif c == -1:
                pieces.append(("-", tree_text(tree)))
            else:
                pieces.append(("+" if c > 0 else "-",
                               f"{abs(c)}*{tree_text(tree)}"))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"FormalSum({self.to_text()!r})"


# ---------------------------------------------------------------------------
# the formal boundary


def _insertion_sign(r: int, s: int, t: int, convention: SignConvention) -> int:
    exponent = r * s + t if convention.from_left else t * s + r
    return -1 if exponent % 2 else 1


def _target_weight(parts: tuple[int, ...], convention: SignConvention) -> int:
    ordered = parts if convention.from_left else tuple(reversed(parts))
    exponent = sum(
        ordered[l] * (ordered[j] - 1)
        for l in range(len(ordered))
        for j in range(l + 1, len(ordered))
    )
    return -1 if exponent % 2 else 1


def _compositions_into(k: int, q: int) -> list[tuple[int, ...]]:
    """All ways to write k as q positive parts, lexicographic."""
    return sorted(c.blocks for c in compositions(k) if len(c) == q)


def _generator_boundary(tree, convention: SignConvention) -> list:
    """Boundary terms from expanding the root node, with coefficients.

    Substituting child subtrees into an expansion template picks up the
    map-level Koszul signs of (f x g).(h x k) = (-1)^{|g||h|} fh x gk,
    which matter once children have odd unsuspended degree.
    """
    children = tree.children
    parities = [c.plain_degree() % 2 for c in children]
    k = len(children)
    out = []

    def insertion_compose_sign(r: int, s: int) -> int:
        passed = sum(parities[:r]) if convention.from_left else sum(parities[r + s:])
        return -1 if (s * passed) % 2 else 1

    if isinstance(tree, Paint):
        for s in range(2, k + 1):
            for r in range(0, k - s + 1):
                t = k - s - r
                sign = (_insertion_sign(r, s, t, convention)
                        * insertion_compose_sign(r, s))
                grouped = children[:r] + (SourceOp(children[r:r + s]),) + children[r + s:]
                out.append((Paint(grouped), sign))
        for q in range(2, k + 1):
            for parts in _compositions_into(k, q):
                sign = -_target_weight(parts, convention)
                paints = []
                block_parities = []
                pos = 0
                for size in parts:
                    paints.append(Paint(children[pos:pos + size]))
                    block_parities.append(sum(parities[pos:pos + size]) % 2)
                    pos += size
                crossing = 0
                for m_outer in range(q):
                    p_parity = (parts[m_outer] + 1) % 2
                    if not p_parity:
                        continue
                    blocks_passed = (block_parities[:m_outer]
                                     if convention.from_left
                                     else block_parities[m_outer + 1:])
                    crossing += sum(blocks_passed)
                if crossing % 2:
                    sign = -sign
                out.append((TargetOp(tuple(paints)), sign))
    else:  # a multiplication node, source or target alike
        node_cls = type(tree)
        for s in range(2, k):
            for r in range(0, k - s + 1):
                t = k - s - r
                sign = (-_insertion_sign(r, s, t, convention)
                        * insertion_compose_sign(r, s))
                grouped = children[:r] + (node_cls(children[r:r + s]),) + children[r + s:]
                out.append((node_cls(grouped), sign))
    return out


def _tree_boundary(tree: FormalTree, convention: SignConvention) -> FormalSum:
    """The formal boundary of one tree, kept per (tree, convention) in the
    open check store (see `certify.check_store`)."""
    if isinstance(tree, Leaf):
        return FormalSum.zero()
    return from_check_store(("boundary", tree, convention),
                            lambda: _expand_boundary(tree, convention))


def _expand_boundary(tree: FormalTree, convention: SignConvention) -> FormalSum:
    terms = _generator_boundary(tree, convention)
    # graded Leibniz into the children, Koszul over unsuspended degrees
    children = tree.children
    node_parity = tree.generator.plain_degree % 2
    child_parities = [c.plain_degree() % 2 for c in children]
    for i, child in enumerate(children):
        child_sum = _tree_boundary(child, convention)
        if child_sum.is_zero():
            continue
        passed = sum(child_parities[:i]) if convention.from_left else sum(child_parities[i + 1:])
        sign = -1 if (node_parity + passed) % 2 else 1
        for sub, coefficient in child_sum.terms.items():
            rebuilt = type(tree)(children[:i] + (sub,) + children[i + 1:])
            terms.append((rebuilt, sign * coefficient))
    return FormalSum(terms)


def formal_boundary(value: FormalSum | FormalTree,
                    convention: SignConvention = CONVENTION_A) -> FormalSum:
    """Linear extension of the generator boundaries to formal sums."""
    if not isinstance(value, FormalSum):
        validate_painted(value)
        value = FormalSum.of(value)
    else:
        for tree in value.terms:
            validate_painted(tree)
    total = FormalSum.zero()
    for tree, coefficient in value.terms.items():
        total = total + _tree_boundary(tree, convention).scale(coefficient)
    return total


def check_d_squared(n: int,
                    convention: SignConvention = CONVENTION_A) -> bool:
    """The formal boundary of the boundary of p_n cancels to nothing."""
    if not 1 <= n <= 5:
        raise ValueError("check_d_squared supports 1 <= n <= 5")
    return formal_boundary(formal_boundary(p_tree(n), convention),
                           convention).is_zero()


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _trees(roots: tuple[type, ...], leaves: int, dim: int) -> tuple:
    """Well-typed trees on the given leaves and dimension, by root type.

    Roots come in the order given; under each, trees are ordered by root
    arity, then lexicographically by the leaves and the dimensions handed
    to the children, then by the children's own order.
    """
    out = []
    for root in roots:
        if root is Leaf:
            if leaves == 1 and dim == 0:
                out.append(Leaf())
            continue
        children = _CHILD_TYPES[root]
        for k in range(root.min_arity, leaves + 1):
            root_dim = -Generator(root.kind, k).plain_degree
            if root_dim > dim:
                break
            for parts in _compositions_into(leaves, k):
                for dims in _dim_splits(dim - root_dim, k):
                    for combo in itertools.product(
                            *[_trees(children, p, d) for p, d in zip(parts, dims)]):
                        out.append(root(combo))
    return tuple(out)


def _dim_splits(total: int, slots: int) -> list[tuple[int, ...]]:
    """All ways to write total as `slots` nonnegative parts, lexicographic."""
    return [tuple(p - 1 for p in parts)
            for parts in _compositions_into(total + slots, slots)]


def binary_trees(n: int) -> tuple[SourceNode, ...]:
    """All full binary planar source trees on n leaves (Catalan count)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _trees((Leaf, SourceOp), n, 0)


def painted_cells(n: int, dim: int) -> tuple[PaintedNode, ...]:
    """All well-typed painted trees on n leaves of the given dimension.

    The dimension of a tree is the sum of (arity - 1) over p nodes and
    (arity - 2) over multiplication nodes; vertices have dimension 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _trees((Paint, TargetOp), n, dim)


def painted_trees(n: int) -> tuple[PaintedNode, ...]:
    """Vertices of the n-input cumulant polytope: painted binary trees."""
    return painted_cells(n, 0)


# ---------------------------------------------------------------------------
# the polytope graph and its 2-skeleton


class PolytopeGraph(Record):
    __slots__ = ("n", "vertices", "edges", "edge_cells")

    def __init__(self, n: int, vertices: tuple[PaintedNode, ...],
                 edges: tuple[tuple[PaintedNode, PaintedNode], ...],
                 edge_cells: tuple[PaintedNode, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_cells", edge_cells)


def cumulant_polytope_graph(n: int,
                            convention: SignConvention = CONVENTION_A) -> PolytopeGraph:
    """Vertices joined when a single degree-one composite bounds them."""
    if n not in (2, 3, 4):
        raise ValueError("the polytope graph is enumerated for n in {2, 3, 4}")
    vertices = painted_trees(n)
    vertex_set = set(vertices)
    edges = []
    cells = painted_cells(n, 1)
    for cell in cells:
        boundary = _tree_boundary(cell, convention)
        ends = sorted(boundary.terms.items(), key=lambda kv: tree_text(kv[0]))
        if len(ends) != 2 or {abs(c) for _, c in ends} != {1}:
            raise ValueError(f"unexpected edge boundary for {tree_text(cell)}")
        (a, ca), (b, cb) = ends
        if ca + cb != 0 or a not in vertex_set or b not in vertex_set:
            raise ValueError(f"edge {tree_text(cell)} does not join two vertices")
        edges.append((a, b))
    return PolytopeGraph(n, vertices, tuple(edges), cells)


class ContractibilityVerdict(Record):
    __slots__ = ("n", "vertices", "edges", "faces", "connected",
                 "cycle_rank", "boundary_rank")

    def __init__(self, n: int, vertices: int, edges: int, faces: int,
                 connected: bool, cycle_rank: int, boundary_rank: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "cycle_rank", cycle_rank)
        object.__setattr__(self, "boundary_rank", boundary_rank)

    @property
    def contractible_two_skeleton(self) -> bool:
        return self.connected and self.cycle_rank == self.boundary_rank

    def __bool__(self) -> bool:
        return self.contractible_two_skeleton


def _matrix_rank(rows: list[list[Fraction]]) -> int:
    """The rank of a rational matrix, by fraction-free (Bareiss) elimination.

    Each row is scaled to integers by the lcm of its denominators.  Each
    update (pivot * row - factor * pivot row) // previous pivot divides
    exactly, as every entry is then a minor of the scaled matrix.
    """
    m = []
    for row in rows:
        if any(row):
            scale = lcm(*(c.denominator for c in row))
            m.append([c.numerator * (scale // c.denominator) for c in row])
    rank, previous = 0, 1
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, len(m)):
            factor = m[r][col]
            m[r] = [(pivot * a - factor * b) // previous
                    for a, b in zip(m[r], pivot_row)]
        previous = pivot
        rank += 1
    return rank


def associahedron_contractibility(
        n: int, convention: SignConvention = CONVENTION_A) -> ContractibilityVerdict:
    """Check the enumerated 2-skeleton has no unbounded cycles.

    The cycle space of the vertex-edge graph must be spanned by the
    boundaries of the enumerated 2-cells; with connectivity this is the
    Euler-style certificate that the 2-skeleton is contractible.
    """
    if n < 1 or n > 4:
        raise ValueError("contractibility is enumerated for n <= 4")
    if n == 1:
        return ContractibilityVerdict(1, 1, 0, 0, True, 0, 0)
    graph = cumulant_polytope_graph(n, convention)
    index = {cell: i for i, cell in enumerate(graph.edge_cells)}
    faces = painted_cells(n, 2)
    rows = []
    for face in faces:
        boundary = _tree_boundary(face, convention)
        row = [Fraction(0)] * len(graph.edge_cells)
        for tree, coefficient in boundary.terms.items():
            if tree not in index:
                raise ValueError(
                    f"face boundary term {tree_text(tree)} is not an edge")
            row[index[tree]] += coefficient
        rows.append(row)
    boundary_rank = _matrix_rank(rows) if rows else 0
    connected = graph_is_connected(graph)
    cycle_rank = len(graph.edges) - len(graph.vertices) + 1
    return ContractibilityVerdict(
        n, len(graph.vertices), len(graph.edges), len(faces),
        connected, cycle_rank, boundary_rank)


# ---------------------------------------------------------------------------
# interpretation in the interval model


def interpret(tree: PaintedNode,
              convention: SignConvention = CONVENTION_A) -> MultiMap:
    """Read a painted tree in the interval model.

    Source multiplications become the wedge, target ones the cup, p_k the
    k-th iterated integral; arities three and higher interpret to zero.
    A p node over binary source trees (dimension 0) is the iterated
    integral of the wedges of their leaves, the bracketing being
    immaterial since the wedge is associative.  Koszul signs of the
    tensor evaluations follow the convention.
    """
    validate_painted(tree)
    n = tree.leaf_count()
    if isinstance(tree, Paint) and not any(c.dimension() for c in tree.children):
        return merged_integral([c.leaf_count() for c in tree.children])
    if isinstance(tree, TargetOp) and len(tree.children) == 2:
        left, right = (interpret(c, convention) for c in tree.children)
        return cup_pair(left, right, convention)
    return zero_map(n, tree.plain_degree() + n - 1)


def interpret_sum(value: FormalSum,
                  convention: SignConvention = CONVENTION_A) -> MultiMap:
    """Interpret a formal sum as the linear combination of its terms' maps.

    The sum must be nonempty with uniform arity.
    """
    items = list(value.terms.items())
    if not items:
        raise ValueError("cannot infer the arity of an empty sum")
    arity = items[0][0].leaf_count()
    maps = [(interpret(t, convention), c) for t, c in items]
    if any(m.arity != arity for m, _ in maps):
        raise ValueError("mixed arities in formal sum")
    return linear_combination(arity, maps[0][0].shifted_degree, maps,
                              name=f"[{value.to_text()}]")


# ---------------------------------------------------------------------------
# exports


def polytope_to_dot(n: int,
                    convention: SignConvention = CONVENTION_A) -> str:
    """DOT rendering of the cumulant polytope graph."""
    graph = cumulant_polytope_graph(n, convention)
    lines = [f"graph cumulant_polytope_{n} {{"]
    for vertex in graph.vertices:
        lines.append(f'  "{tree_text(vertex)}";')
    for (a, b), cell in zip(graph.edges, graph.edge_cells):
        lines.append(
            f'  "{tree_text(a)}" -- "{tree_text(b)}" [label="{tree_text(cell)}"];')
    lines.append("}")
    return "\n".join(lines)
