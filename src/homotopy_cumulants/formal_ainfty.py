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
is not expanded again.  Each tree node keeps its hash and its plain
degree, both computed once from its children's at construction, so the
Koszul signs of the boundary and a cell's dimension (the negative of its
degree) are read, not recursed.  Every sign of the boundary, of the
root's relation as of the Leibniz terms, is -1 to the power of a count
of the parities a factor passes, those before it under A and those after
it under B; `_passed` is the only reader of `convention.from_left`
here, so convention B is convention A read from the other end.

Vertices (all nodes binary or unary p) of the induced polytopes are the
classical painted binary trees; for three inputs they form a hexagon and
the boundary of p_3 lists its six edges.  The polytope's graph is its
1-skeleton, read off the facets of each 1-cell into the record of the
cube's graph, `cube_complex.CumulantGraph`, and drawn by the same
`cube_complex.skeleton_to_dot`.

Interpreting m as the wedge or cup product, p_k as the k-th iterated
integral, and operations of arity three and higher as zero reproduces the
concrete Hom-complex boundary exactly.  A painted tree that does not
interpret to zero reads as a block word (`_word`), and its map is
`hom_complex.word_map`'s, the builder of the cube cells: a p node over
binary source trees is one block, of the subtrees' leaf counts, and a
binary target node joins its children's blocks, so formal terms evaluate
on basis codes.  A formal sum interprets to one
`hom_complex.linear_combination` of its terms' maps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import ClassVar, Iterable, Union

from ._record import Record
from .cube_complex import CumulantGraph, graph_is_connected, skeleton_to_dot
from .cumulants import compositions
from .hom_complex import (
    CONVENTION_A,
    MultiMap,
    SignConvention,
    from_check_store,
    linear_combination,
    word_map,
    zero_map,
)
from .interval_model import _frac


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
    """An operation node: its operation applied to child subtrees.

    Subclasses declare the operation's label, its shifted degree (+1 for
    a multiplication, 0 for a morphism term) and the least arity it
    allows.  A node keeps its hash, which its children's kept hashes make
    cheap, and its plain degree, the operation's shifted degree + 1 -
    arity plus its children's degrees; a copy or a pickle rebuilds the
    node through its constructor, so both are always computed in the
    process that holds the node.
    """

    __slots__ = ("children", "_hash", "_degree")

    label: ClassVar[str]
    shifted_degree: ClassVar[int]
    min_arity: ClassVar[int]

    def __init__(self, children: tuple):
        if len(children) < self.min_arity:
            raise ValueError(
                f"{self.label} nodes have arity >= {self.min_arity}")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash((children,)))
        object.__setattr__(self, "_degree", self.operation_degree(len(children))
                           + sum(c.plain_degree() for c in children))

    @classmethod
    def operation_degree(cls, arity: int) -> int:
        """The plain degree of the node's operation at the given arity."""
        return cls.shifted_degree + 1 - arity

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.children == other.children
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def leaf_count(self) -> int:
        return sum(c.leaf_count() for c in self.children)

    def plain_degree(self) -> int:
        return self._degree

    def dimension(self) -> int:
        return -self._degree


class SourceOp(_Node):
    """A source-algebra multiplication applied to source subtrees."""

    __slots__ = ()
    label, shifted_degree, min_arity = "m_source", 1, 2


class Paint(_Node):
    """A morphism node p_k applied to k source subtrees (the paint line)."""

    __slots__ = ()
    label, shifted_degree, min_arity = "p", 0, 1


class TargetOp(_Node):
    """A target-algebra multiplication applied to painted subtrees."""

    __slots__ = ()
    label, shifted_degree, min_arity = "m_target", 1, 2


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
                f"{tree.label} nodes act on "
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


def _passed(parities, start: int, stop: int,
            convention: SignConvention) -> int:
    """The parities that the factor at start:stop passes: those before it
    under A, those after it under B."""
    return sum(parities[:start] if convention.from_left else parities[stop:])


def _compositions_into(k: int, q: int) -> list[tuple[int, ...]]:
    """All ways to write k as q positive parts, lexicographic."""
    return sorted(c.blocks for c in compositions(k) if len(c) == q)


def _tree_boundary(tree: FormalTree, convention: SignConvention) -> FormalSum:
    """The formal boundary of one tree, kept per (tree, convention) in the
    open check store (see `certify.check_store`)."""
    if isinstance(tree, Leaf):
        return FormalSum.zero()
    return from_check_store(("boundary", tree, convention),
                            lambda: _expand_boundary(tree, convention))


def _expand_boundary(tree: FormalTree, convention: SignConvention) -> FormalSum:
    """The root's relation, then the graded Leibniz rule into the children.

    Every sign is -1 to the power of a count of passed parities, read by
    `_passed`, so convention B is convention A read from the other end:

    - an insertion groups the children r:r+s of a node of arity k, under a
      source m in a p node (base 0) or under the node's own operation in
      an m node (base 1); its exponent is base + (k - s - R) + s*Q, where
      R counts the children the group passes and Q their parities plus
      one each, which carries the map-level Koszul sign of
      (f x g).(h x k) = (-1)^{|g||h|} fh x gk;
    - a p node's split into blocks of arities a_1..a_q has the exponent
      1 + sum_j (a_j - 1) * (the a_i plus the block parities that block
      j passes);
    - the boundary of child i enters with the node's parity plus the
      parities that child passes.
    """
    children = tree.children
    k = len(children)
    parities = [c.plain_degree() % 2 for c in children]
    suspended = [1 + parity for parity in parities]
    base = tree.shifted_degree
    group = SourceOp if isinstance(tree, Paint) else type(tree)
    terms = []
    # the grouped node keeps at least its least arity of children
    for s in range(2, k + 2 - tree.min_arity):
        for r in range(k - s + 1):
            exponent = (base + k - s - _passed([1] * k, r, r + s, convention)
                        + s * _passed(suspended, r, r + s, convention))
            grouped = children[:r] + (group(children[r:r + s]),) + children[r + s:]
            terms.append((type(tree)(grouped), -1 if exponent % 2 else 1))
    if isinstance(tree, Paint):
        for q in range(2, k + 1):
            for parts in _compositions_into(k, q):
                starts = list(itertools.accumulate(parts, initial=0))
                blocks = [children[a:b] for a, b in zip(starts, starts[1:])]
                weights = [len(b) + sum(c.plain_degree() for c in b)
                           for b in blocks]
                exponent = 1 + sum((a - 1) * _passed(weights, j, j + 1, convention)
                                   for j, a in enumerate(parts))
                terms.append((TargetOp(tuple(map(Paint, blocks))),
                              -1 if exponent % 2 else 1))
    node_parity = tree.operation_degree(k) % 2
    for i, child in enumerate(children):
        exponent = node_parity + _passed(parities, i, i + 1, convention)
        sign = -1 if exponent % 2 else 1
        for sub, coefficient in _tree_boundary(child, convention).terms.items():
            rebuilt = type(tree)(children[:i] + (sub,) + children[i + 1:])
            terms.append((rebuilt, sign * coefficient))
    return FormalSum(terms)


def formal_boundary(value: FormalSum | FormalTree,
                    convention: SignConvention = CONVENTION_A) -> FormalSum:
    """Linear extension of the tree boundaries to formal sums."""
    items = (value.terms.items() if isinstance(value, FormalSum)
             else [(value, 1)])
    for tree, _ in items:
        validate_painted(tree)
    return FormalSum((term, coefficient * c)
                     for tree, coefficient in items
                     for term, c in _tree_boundary(tree, convention).terms.items())


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
            root_dim = -root.operation_degree(k)
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


def cumulant_polytope_graph(n: int,
                            convention: SignConvention = CONVENTION_A) -> CumulantGraph:
    """The 1-skeleton of the polytope: the painted binary trees, and each
    1-cell joining the two vertices of its formal boundary."""
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
    return CumulantGraph(n, vertices, tuple(edges), cells)


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


def _word(tree: PaintedNode) -> list[list[int]] | None:
    """The block word of a painted tree, or None where it reads as zero.

    A p node over binary source trees (dimension 0) is one block, of
    their leaf counts; a binary target node joins its children's words.
    """
    if isinstance(tree, Paint):
        zero = any(c.dimension() for c in tree.children)
        return None if zero else [[c.leaf_count() for c in tree.children]]
    words = [_word(c) for c in tree.children]
    return None if len(words) != 2 or None in words else words[0] + words[1]


def interpret(tree: PaintedNode,
              convention: SignConvention = CONVENTION_A) -> MultiMap:
    """Read a painted tree in the interval model: its block word's map
    (see `_word` and `hom_complex.word_map`), or the zero map.

    Source multiplications become the wedge, target ones the cup, p_k the
    k-th iterated integral; arities three and higher interpret to zero.
    A p node over binary source trees is the iterated integral of the
    wedges of their leaves, the bracketing being immaterial since the
    wedge is associative, and a target tree is the left-nested cup of its
    blocks, its own bracketing being immaterial since the cup is
    associative with sign +1.  Koszul signs of the tensor evaluations
    follow the convention.
    """
    validate_painted(tree)
    if (word := _word(tree)) is not None:
        return word_map(word, convention)
    n = tree.leaf_count()
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
    return skeleton_to_dot(f"cumulant_polytope_{n}",
                           cumulant_polytope_graph(n, convention),
                           tree_text, tree_text)
