"""Dual-graph combinatorics: multigraphs, divisors, functions on vertices,
the graph Laplacian and the subset-sum statistic used in the diameter bound.

Vertices are strings; the declaration order fixes the coordinate order of
every polyhedron built downstream.  Loops and parallel edges are allowed;
loops contribute nothing to the Laplacian.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import Disconnected, UnknownVertex


class Graph:
    """A finite connected multigraph.

    Edges are an unordered multiset of vertex pairs.  Connectivity is
    checked at construction; a disconnected input raises Disconnected.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[Tuple[str, str]]):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise UnknownVertex("duplicate vertex identifiers")
        if not vertices:
            raise Disconnected("graph needs at least one vertex")
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}
        norm = []
        for (u, w) in edges:
            if u not in self._index or w not in self._index:
                raise UnknownVertex(f"edge ({u!r}, {w!r}) uses an undeclared vertex")
            i, j = sorted((self._index[u], self._index[w]))
            norm.append((i, j))
        norm.sort()
        self.edges = tuple((vertices[i], vertices[j]) for i, j in norm)
        # neighbours[i]: (j, number of edges ij) for j != i, in vertex
        # order; loops never move chips, so they appear only in `edges`
        counts = [Counter() for _ in vertices]
        for i, j in norm:
            if i != j:
                counts[i][j] += 1
                counts[j][i] += 1
        self.neighbours = tuple(tuple(sorted(c.items())) for c in counts)
        dist = self.distances_from(vertices[0])
        if None in dist:
            missing = [v for v, k in zip(vertices, dist) if k is None]
            raise Disconnected(f"vertices unreachable from {vertices[0]!r}: {missing}")

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        """Non-loop degree (loops never move chips)."""
        return sum(m for _, m in self.neighbours[self.index(v)])

    def genus(self) -> int:
        """First Betti number |E| - |V| + 1 (loops included)."""
        return len(self.edges) - len(self.vertices) + 1

    def distances_from(self, v: str):
        """BFS edge counts from v, None for unreachable vertices."""
        dist = [None] * len(self.vertices)
        src = self.index(v)
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w, _ in self.neighbours[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def laplacian_matrix(self):
        """Integer Laplacian: L[i][i] = deg(i), L[i][j] = -#edges ij."""
        n = len(self.vertices)
        mat = [[0] * n for _ in range(n)]
        for i, nbrs in enumerate(self.neighbours):
            for j, m in nbrs:
                mat[i][j] = -m
                mat[i][i] += m
        return mat

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={list(self.vertices)!r}, edges={len(self.edges)})"


class VertexVector:
    """A total map from vertices to exact rationals, stored in vertex order."""

    def __init__(self, graph: Graph, values: Mapping[str, object] | Sequence):
        self.graph = graph
        if isinstance(values, Mapping):
            extra = set(values) - set(graph.vertices)
            if extra:
                raise UnknownVertex(f"values given for unknown vertices: {sorted(extra)}")
            missing = set(graph.vertices) - set(values)
            if missing:
                raise UnknownVertex(f"no value for vertices: {sorted(missing)}")
            self.values = tuple(Fraction(values[v]) for v in graph.vertices)
        else:
            vals = tuple(Fraction(v) for v in values)
            if len(vals) != len(graph.vertices):
                raise UnknownVertex("value vector length does not match vertex count")
            self.values = vals

    def __getitem__(self, vertex: str) -> Fraction:
        return self.values[self.graph.index(vertex)]

    def as_dict(self):
        return dict(zip(self.graph.vertices, self.values))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.graph == other.graph
            and self.values == other.values
        )

    def __hash__(self):
        return hash((type(self).__name__, self.graph, self.values))

    def _binop(self, other, op):
        if isinstance(other, VertexVector):
            if other.graph != self.graph:
                raise UnknownVertex("operands live on different graphs")
            return type(self)(self.graph, [op(a, b) for a, b in zip(self.values, other.values)])
        q = Fraction(other)
        return type(self)(self.graph, [op(a, q) for a in self.values])

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        q = Fraction(scalar)
        return type(self)(self.graph, [a * q for a in self.values])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self):
        pairs = ", ".join(f"{v}: {x}" for v, x in zip(self.graph.vertices, self.values))
        return f"{type(self).__name__}({{{pairs}}})"


class Divisor(VertexVector):
    """Rational chips on vertices."""

    def degree(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def is_effective(self) -> bool:
        return all(v >= 0 for v in self.values)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    @classmethod
    def zero(cls, graph: Graph) -> "Divisor":
        return cls(graph, [0] * len(graph.vertices))


class GraphFunction(VertexVector):
    """Rational function on the vertices."""

    @classmethod
    def zero(cls, graph: Graph) -> "GraphFunction":
        return cls(graph, [0] * len(graph.vertices))


def laplacian(g: Graph, phi: GraphFunction) -> Divisor:
    """Edge-sum Laplacian: value at v is the sum of phi(v) - phi(w) over
    edges vw.  Loops cancel; the output always has degree zero."""
    if phi.graph != g:
        raise UnknownVertex("function does not live on this graph")
    vals = phi.values
    return Divisor(g, [sum((m * (vals[i] - vals[j]) for j, m in nbrs), Fraction(0))
                       for i, nbrs in enumerate(g.neighbours)])


def graph_diameter(g: Graph) -> int:
    """Max over vertex pairs of the shortest-path edge count."""
    best = 0
    for v in g.vertices:
        dist = g.distances_from(v)
        if any(x is None for x in dist):
            raise Disconnected("diameter of a disconnected graph")
        best = max(best, max(dist))
    return best


def m_statistic(f: Divisor) -> Fraction:
    """max over subsets S of |sum_{v in S} f(v)|, in closed form: the larger
    of the positive-part sum and minus the negative-part sum."""
    pos = sum((v for v in f.values if v > 0), Fraction(0))
    neg = sum((v for v in f.values if v < 0), Fraction(0))
    return max(pos, -neg)


def specialize_vertical(g: Graph, phi: GraphFunction) -> Divisor:
    """Specialization of the vertical divisor with multiplicities phi: -laplacian."""
    return -laplacian(g, phi)
