"""Symbolic layer: formal composites of algebra and morphism operations.

Trees are painted: source-side multiplications m_k sit below a single
layer of morphism nodes p_k, target-side multiplications sit above, and
every leaf-to-root path crosses exactly one p node.  The formal boundary
expands a p node through the morphism relation and an m node through the
algebra relation, extended to composites as a graded derivation; its
square is zero, which check_d_squared certifies by exact cancellation.

Vertices (all nodes binary or unary p) of the induced polytopes are the
classical painted binary trees; for three inputs they form a hexagon and
the boundary of p_3 lists its six edges.

Interpreting m as the wedge or cup product, p_k as the k-th iterated
integral, and operations of arity three and higher as zero reproduces the
concrete Hom-complex boundary exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .hom_complex import (
    CONVENTION_A,
    MultiMap,
    SignConvention,
    cup_pair,
    iterated_integral_map,
    zero_map,
)
from .interval_model import Cochain, PolyForm, wedge


class Kind(Enum):
    M_SOURCE = "m_source"
    M_TARGET = "m_target"
    P = "p"


@dataclass(frozen=True)
class Generator:
    """An operation symbol: source/target multiplication or morphism term."""

    kind: Kind
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be positive")

    @property
    def shifted_degree(self) -> int:
        """Suspended degree: +1 for multiplications, 0 for morphism terms."""
        return 0 if self.kind is Kind.P else 1

    @property
    def plain_degree(self) -> int:
        return self.shifted_degree + 1 - self.arity


@dataclass(frozen=True)
class Leaf:
    """An input slot."""

    def leaf_count(self) -> int:
        return 1

    def plain_degree(self) -> int:
        return 0

    def dimension(self) -> int:
        return 0


@dataclass(frozen=True)
class SourceOp:
    """A source-algebra multiplication applied to source subtrees."""

    children: tuple["SourceNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("source multiplications have arity >= 2")

    @property
    def generator(self) -> Generator:
        return Generator(Kind.M_SOURCE, len(self.children))

    def leaf_count(self) -> int:
        return sum(c.leaf_count() for c in self.children)

    def plain_degree(self) -> int:
        return 2 - len(self.children) + sum(c.plain_degree() for c in self.children)

    def dimension(self) -> int:
        return len(self.children) - 2 + sum(c.dimension() for c in self.children)


SourceNode = Union[Leaf, SourceOp]


@dataclass(frozen=True)
class Paint:
    """A morphism node p_k applied to k source subtrees (the paint line)."""

    children: tuple[SourceNode, ...]

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("morphism nodes have arity >= 1")

    @property
    def generator(self) -> Generator:
        return Generator(Kind.P, len(self.children))

    def leaf_count(self) -> int:
        return sum(c.leaf_count() for c in self.children)

    def plain_degree(self) -> int:
        return 1 - len(self.children) + sum(c.plain_degree() for c in self.children)

    def dimension(self) -> int:
        return len(self.children) - 1 + sum(c.dimension() for c in self.children)


@dataclass(frozen=True)
class TargetOp:
    """A target-algebra multiplication applied to painted subtrees."""

    children: tuple["PaintedNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("target multiplications have arity >= 2")

    @property
    def generator(self) -> Generator:
        return Generator(Kind.M_TARGET, len(self.children))

    def leaf_count(self) -> int:
        return sum(c.leaf_count() for c in self.children)

    def plain_degree(self) -> int:
        return 2 - len(self.children) + sum(c.plain_degree() for c in self.children)

    def dimension(self) -> int:
        return len(self.children) - 2 + sum(c.dimension() for c in self.children)


PaintedNode = Union[Paint, TargetOp]
FormalTree = Union[Leaf, SourceOp, Paint, TargetOp]


def p_tree(n: int) -> Paint:
    """The bare morphism term p_n on n input slots."""
    if n < 1:
        raise ValueError("n must be positive")
    return Paint((Leaf(),) * n)


def validate_painted(tree: FormalTree) -> None:
    """Reject trees that break the painted-tree typing."""
    if isinstance(tree, Paint):
        for child in tree.children:
            _validate_source(child)
    elif isinstance(tree, TargetOp):
        for child in tree.children:
            if not isinstance(child, (Paint, TargetOp)):
                raise ValueError(
                    "target multiplications act on painted subtrees")
            validate_painted(child)
    else:
        raise ValueError("a painted tree is rooted at a p or target-m node")


def _validate_source(tree: SourceNode) -> None:
    if isinstance(tree, Leaf):
        return
    if isinstance(tree, SourceOp):
        for child in tree.children:
            _validate_source(child)
        return
    raise ValueError("source subtrees contain only leaves and source m nodes")


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


class FormalSum:
    """A rational linear combination of formal trees."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[FormalTree, Fraction]] = ()):
        acc: dict[FormalTree, Fraction] = {}
        for tree, coefficient in terms:
            c = acc.get(tree, Fraction(0)) + coefficient
            if c:
                acc[tree] = c
            elif tree in acc:
                del acc[tree]
        self.terms = acc

    @classmethod
    def of(cls, tree: FormalTree, coefficient=1) -> "FormalSum":
        return cls([(tree, Fraction(coefficient))])

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
        s = Fraction(scalar)
        return FormalSum([(t, s * c) for t, c in self.terms.items()])

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

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

    def to_json_list(self) -> list[dict]:
        return [{"coefficient": f"{c.numerator}/{c.denominator}",
                 "term": tree_text(t)} for t, c in self]

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


def _compositions_into(k: int, q: int):
    """All ways to write k as q positive parts, lexicographic."""
    if q == 1:
        yield (k,)
        return
    for first in range(1, k - q + 2):
        for rest in _compositions_into(k - first, q - 1):
            yield (first,) + rest


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
    if isinstance(tree, Leaf):
        return FormalSum.zero()
    terms = [(new, Fraction(sign))
             for new, sign in _generator_boundary(tree, convention)]
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
    first = _tree_boundary(p_tree(n), convention)
    total = FormalSum.zero()
    for tree, coefficient in first.terms.items():
        total = total + _tree_boundary(tree, convention).scale(coefficient)
    return total.is_zero()


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def binary_trees(n: int) -> tuple[SourceNode, ...]:
    """All full binary planar source trees on n leaves (Catalan count)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Leaf(),)
    out = []
    for left_size in range(1, n):
        for left in binary_trees(left_size):
            for right in binary_trees(n - left_size):
                out.append(SourceOp((left, right)))
    return tuple(out)


@lru_cache(maxsize=None)
def _source_trees(leaves: int, dim: int) -> tuple[SourceNode, ...]:
    """Source trees on the given leaves whose node arities sum to dim + ..."""
    if leaves == 1:
        return (Leaf(),) if dim == 0 else ()
    out = []
    for k in range(2, leaves + 1):
        root_dim = k - 2
        if root_dim > dim:
            continue
        for parts in _compositions_into(leaves, k):
            for dims in _dim_splits(dim - root_dim, k):
                for combo in itertools.product(
                        *[_source_trees(p, d) for p, d in zip(parts, dims)]):
                    out.append(SourceOp(tuple(combo)))
    return tuple(out)


def _dim_splits(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _dim_splits(total - first, slots - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _paint_blocks(leaves: int, dim: int) -> tuple[Paint, ...]:
    out = []
    for k in range(1, leaves + 1):
        root_dim = k - 1
        if root_dim > dim:
            continue
        for parts in _compositions_into(leaves, k):
            for dims in _dim_splits(dim - root_dim, k):
                for combo in itertools.product(
                        *[_source_trees(p, d) for p, d in zip(parts, dims)]):
                    out.append(Paint(tuple(combo)))
    return tuple(out)


@lru_cache(maxsize=None)
def painted_cells(n: int, dim: int) -> tuple[PaintedNode, ...]:
    """All well-typed painted trees on n leaves of the given dimension.

    The dimension of a tree is the sum of (arity - 1) over p nodes and
    (arity - 2) over multiplication nodes; vertices have dimension 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out: list[PaintedNode] = list(_paint_blocks(n, dim))
    for k in range(2, n + 1):
        root_dim = k - 2
        if root_dim > dim:
            continue
        for parts in _compositions_into(n, k):
            for dims in _dim_splits(dim - root_dim, k):
                for combo in itertools.product(
                        *[painted_cells(p, d) for p, d in zip(parts, dims)]):
                    out.append(TargetOp(tuple(combo)))
    return tuple(out)


def painted_trees(n: int) -> tuple[PaintedNode, ...]:
    """Vertices of the n-input cumulant polytope: painted binary trees."""
    return painted_cells(n, 0)


# ---------------------------------------------------------------------------
# the polytope graph and its 2-skeleton


@dataclass(frozen=True)
class PolytopeGraph:
    n: int
    vertices: tuple[PaintedNode, ...]
    edges: tuple[tuple[PaintedNode, PaintedNode], ...]
    edge_cells: tuple[PaintedNode, ...]


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


@dataclass(frozen=True)
class ContractibilityVerdict:
    n: int
    vertices: int
    edges: int
    faces: int
    connected: bool
    cycle_rank: int
    boundary_rank: int

    @property
    def contractible_two_skeleton(self) -> bool:
        return self.connected and self.cycle_rank == self.boundary_rank

    def __bool__(self) -> bool:
        return self.contractible_two_skeleton


def _matrix_rank(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inverse = Fraction(1) / m[rank][col]
        m[rank] = [c * inverse for c in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
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
    adjacency: dict[PaintedNode, list[PaintedNode]] = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = set()
    stack = [graph.vertices[0]]
    seen.add(graph.vertices[0])
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    connected = len(seen) == len(graph.vertices)
    cycle_rank = len(graph.edges) - len(graph.vertices) + 1
    return ContractibilityVerdict(
        n, len(graph.vertices), len(graph.edges), len(faces),
        connected, cycle_rank, boundary_rank)


# ---------------------------------------------------------------------------
# interpretation in the interval model


def _interpret_source(tree: SourceNode):
    """A source tree as a multilinear PolyForm-valued evaluator."""
    if isinstance(tree, Leaf):
        return lambda xs: xs[0]
    if len(tree.children) > 2:
        return lambda xs: PolyForm.zero()
    sizes = [c.leaf_count() for c in tree.children]
    left = _interpret_source(tree.children[0])
    right = _interpret_source(tree.children[1])

    def evaluator(xs):
        return wedge(left(xs[:sizes[0]]), right(xs[sizes[0]:]))

    return evaluator


def interpret(tree: PaintedNode,
              convention: SignConvention = CONVENTION_A) -> MultiMap:
    """Read a painted tree in the interval model.

    Source multiplications become the wedge, target ones the cup, p_k the
    k-th iterated integral; arities three and higher interpret to zero.
    Koszul signs of the tensor evaluations follow the convention.
    """
    validate_painted(tree)
    n = tree.leaf_count()
    if isinstance(tree, Paint):
        arity = len(tree.children)
        sizes = [c.leaf_count() for c in tree.children]
        evaluators = [_interpret_source(c) for c in tree.children]
        integral = iterated_integral_map(arity)

        def evaluator(*xs: PolyForm) -> Cochain:
            args = []
            pos = 0
            for size, ev in zip(sizes, evaluators):
                args.append(ev(xs[pos:pos + size]))
                pos += size
            return integral(*args)

        shifted = tree.plain_degree() + n - 1
        return MultiMap(n, shifted, evaluator, name=tree_text(tree))
    if len(tree.children) > 2:
        return zero_map(n, tree.plain_degree() + n - 1)
    left = interpret(tree.children[0], convention)
    right = interpret(tree.children[1], convention)
    return cup_pair(left, right, convention).renamed(tree_text(tree))


def interpret_sum(value: FormalSum,
                  convention: SignConvention = CONVENTION_A) -> MultiMap:
    """Interpret a formal sum; it must be nonempty with uniform arity."""
    items = list(value.terms.items())
    if not items:
        raise ValueError("cannot infer the arity of an empty sum")
    arity = items[0][0].leaf_count()
    maps = [(interpret(t, convention), c) for t, c in items]
    if any(m.arity != arity for m, _ in maps):
        raise ValueError("mixed arities in formal sum")

    def evaluator(*xs: PolyForm | int) -> Cochain:
        total = Cochain.zero()
        for m, c in maps:
            total = total + m(*xs).scale(c)
        return total

    summed = MultiMap(arity, maps[0][0].shifted_degree + 0, evaluator,
                      name=f"[{value.to_text()}]")
    summed.basis_codes = True  # the term maps take codes themselves
    return summed


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
